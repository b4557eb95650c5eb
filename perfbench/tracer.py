"""Outside-in tracing: wrap public functions of ldba_synth from the benchmark.

Each wrapped callable is replaced, at the name its caller looks it up, by
a wrapper that times the call and folds it into a per-name aggregate of
(calls, total seconds, self seconds). Self time is the span minus the
spans of wrapped callees. Spans are never stored one by one, so memory
stays bounded however many steps a run takes.

A wrapper costs time of its own. Part of it falls inside the span it
measures (charged to the callee) and part outside (charged to the
caller's self time), plus the result hook where there is one.
``calibrate`` measures these parts on a no-op and ``Tracer`` subtracts
them, so that self times approximate those of the unwrapped program.
Inclusive totals of callers with many wrapped callees still carry the
wrapper cost and are not reported as layer times.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class WrapperCost:
    """Per-call wrapper cost in seconds: inside the span, outside it, hook."""

    inner: float = 0.0
    outer: float = 0.0
    hook: float = 0.0


class Tracer:
    """Per-name (calls, total, self) aggregates over wrapped calls."""

    def __init__(self, cost: WrapperCost = WrapperCost()):
        self.cost = cost
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._child = [0.0]  # wrapped-callee time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """Wrapper that aggregates calls of fn under name.

        on_result, when given, is called as on_result(args, result) after
        each call, outside the timed span.
        """
        self.calls.setdefault(name, 0)
        self.total.setdefault(name, 0.0)
        self.self_time.setdefault(name, 0.0)
        calls, total, self_time, child = self.calls, self.total, self.self_time, self._child
        inner = self.cost.inner
        outer = self.cost.outer + (self.cost.hook if on_result is not None else 0.0)

        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                own = child.pop()
                child[-1] += span + outer
                calls[name] += 1
                total[name] += span
                self_time[name] += span - own - inner
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr (a module global or a class attribute)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_s(self, name: str) -> float:
        return max(0.0, self.self_time.get(name, 0.0))


def calibrate(rounds: int = 5, calls: int = 50_000) -> WrapperCost:
    """Median per-call wrapper cost, measured by wrapping a no-op."""

    def noop():
        return None

    hits = [0]

    def hook(args, result):
        if result:
            hits[0] += 1

    inner, outer, hooked = [], [], []
    for _ in range(rounds):
        probe = Tracer()
        plain = probe.wrap("plain", noop)
        with_hook = probe.wrap("hooked", noop, hook)
        bare_s = _loop_seconds(noop, calls)
        plain_s = _loop_seconds(plain, calls)
        hooked_s = _loop_seconds(with_hook, calls)
        inside = max(0.0, probe.total["plain"] / calls - bare_s)
        inner.append(inside)
        outer.append(max(0.0, plain_s - bare_s - inside))
        hooked.append(max(0.0, hooked_s - plain_s))
    return WrapperCost(statistics.median(inner), statistics.median(outer),
                       statistics.median(hooked))


def _loop_seconds(fn, calls: int) -> float:
    """Seconds per call of fn() in a plain loop."""
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) / calls
