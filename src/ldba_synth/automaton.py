"""Limit-deterministic Buchi automata over labeled grid observations.

An automaton spec is a JSON document with integer states, guarded
transitions evaluated in declaration order (first match wins, a final
catch-all guard ``true`` is mandatory), optional epsilon-transitions that
the synchronizer exposes as extra actions, and a family of accepting
state sets. A single absorbing non-accepting sink is fixed at state -1
and never listed in ``states``. The runtime tracks the current state plus
the accepting frontier: visiting a state of a still-remaining accepting
set removes that set (one set per step, in declaration order) and fires a
reward signal; once the family is exhausted it resets in full and the
sweep counter increments.

A parsed guard is a nested tuple: ``("true",)``, ``("prop", name)``,
``("not", g)`` or ``("and" | "or", g1, g2, ...)``. No operand of an ``and``
or ``or`` has its parent's operator, so two guards are equal exactly when
their canonical texts (``guard_text``) are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .envs import decode_json, is_int, proposition_name_problem, read_text

SINK_STATE = -1

EPSILON_NAME_RE = re.compile(r"epsilon_[0-9]+")  # match it with fullmatch

# Most operators and opening parentheses one guard may hold; see parse_guard.
MAX_GUARD_OPERATORS = 100


class LdbaSpecError(ValueError):
    """Raised when an automaton document is syntactically or semantically invalid."""


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def holds(guard: tuple, labels) -> bool:
    """Whether a guard is true of a label set."""
    op = guard[0]
    if op == "prop":
        return guard[1] in labels
    if op == "not":
        return not holds(guard[1], labels)
    if op == "and":
        return all(holds(g, labels) for g in guard[1:])
    if op == "or":
        return any(holds(g, labels) for g in guard[1:])
    return True  # ("true",)


def guard_propositions(guard: tuple) -> set[str]:
    """The propositions a guard names."""
    if guard[0] == "prop":
        return {guard[1]}
    return set().union(*map(guard_propositions, guard[1:]))


def guard_text(guard: tuple) -> str:
    """Canonical text of a guard; parse_guard reads it back to an equal guard."""
    op = guard[0]
    if op == "true":
        return "true"
    if op == "prop":
        return guard[1]
    if op == "not":
        inner = guard_text(guard[1])
        return f"!{inner}" if guard[1][0] in ("true", "prop", "not") else f"!({inner})"
    if op == "and":
        return " & ".join(f"({guard_text(g)})" if g[0] == "or" else guard_text(g)
                          for g in guard[1:])
    return " | ".join(map(guard_text, guard[1:]))


_TOKEN_RE = re.compile(r"\s*(\(|\)|&\&?|\|\|?|!|[a-z0-9_]+)")


def parse_guard(text: str) -> tuple:
    """Parse a guard string; grammar is `|` < `&` < `!` with parentheses.

    Whitespace may come before and after any token. A guard may hold at most
    MAX_GUARD_OPERATORS operators and opening parentheses together. That
    bounds the depth of the parser's recursion and of the parsed guard, which
    the guard functions recurse over too.
    """
    tokens, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LdbaSpecError(f"guard {text!r}: unexpected character at offset {pos}")
        tok = m.group(1)
        tokens.append("&" if tok == "&&" else "|" if tok == "||" else tok)
        pos = m.end()
    if not tokens:
        raise LdbaSpecError("empty guard string")
    if sum(tok in {"!", "&", "|", "("} for tok in tokens) > MAX_GUARD_OPERATORS:
        raise LdbaSpecError(f"guard {text[:40]!r}...: more than {MAX_GUARD_OPERATORS} "
                            "operators and parentheses")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1

    def parse_chain(symbol, op, parse_operand) -> tuple:
        operands = [parse_operand()]
        while peek() == symbol:
            take()
            operands.append(parse_operand())
        flat = [h for g in operands for h in (g[1:] if g[0] == op else (g,))]
        return (op, *flat) if len(flat) > 1 else flat[0]

    def parse_or() -> tuple:
        return parse_chain("|", "or", parse_and)

    def parse_and() -> tuple:
        return parse_chain("&", "and", parse_unary)

    def parse_unary() -> tuple:
        tok = peek()
        if tok == "!":
            take()
            return ("not", parse_unary())
        if tok == "(":
            take()
            node = parse_or()
            if peek() != ")":
                raise LdbaSpecError(f"guard {text!r}: missing closing parenthesis")
            take()
            return node
        if tok is None or tok in {")", "&", "|"}:
            raise LdbaSpecError(f"guard {text!r}: unexpected token {tok!r}")
        take()
        return ("true",) if tok == "true" else ("prop", tok)

    node = parse_or()
    if pos != len(tokens):
        raise LdbaSpecError(f"guard {text!r}: trailing tokens after position {pos}")
    return node


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LdbaSpec:
    """Validated automaton: guarded transition rows plus epsilon moves.

    ``transitions[q]`` is an ordered tuple of (guard, target) pairs ending in
    a catch-all; ``epsilon_transitions[q]`` is an ordered tuple of
    (name, target) pairs. The sink -1 is implicit and absorbing.
    """

    states: tuple[int, ...]
    initial_state: int
    alphabet: tuple[str, ...]
    accepting_sets: tuple[frozenset[int], ...]
    transitions: dict[int, tuple[tuple[tuple, int], ...]]
    epsilon_transitions: dict[int, tuple[tuple[str, int], ...]]

    def epsilon_names(self, q: int) -> tuple[str, ...]:
        return tuple(name for name, _ in self.epsilon_transitions.get(q, ()))

    @cached_property
    def compiled(self) -> CompiledLdba:
        """The dense tables of the per-step path, built on first use."""
        return CompiledLdba(self)


def step_state(spec: LdbaSpec, q: int, labels) -> int:
    """Successor automaton state for a label set, by guards only; no frontier effects."""
    if q == SINK_STATE:
        return SINK_STATE
    for guard, target in spec.transitions[q]:
        if holds(guard, labels):
            return target
    raise AssertionError(f"state {q} has no matching transition (missing catch-all)")


class CompiledLdba:
    """Dense tables of one spec, shared by the learner, tester and oracle.

    States are indexed in declaration order, sink last (``states[i]``, and
    ``index`` the inverse). ``delta[i][c]`` indexes the successor of state i
    on class c, a column: first one per epsilon move, ``epsilon[i]`` listing
    state i's in order (None in rows but its own and the sink's), then one
    per label set on first sight. Bit k of ``accmask[i]`` is set when state
    i lies in ``spec.accepting_sets[k]``. Built once per spec, on first use.
    """

    def __init__(self, spec: LdbaSpec):
        self.spec = spec
        self.states = spec.states + (SINK_STATE,)
        self.index = index = {q: i for i, q in enumerate(self.states)}
        self.accmask = [sum(1 << k for k, acc in enumerate(spec.accepting_sets) if q in acc)
                        for q in self.states]
        self.full_frontier = (1 << len(spec.accepting_sets)) - 1
        self.classes: dict[frozenset, int] = {}
        self.delta: list[list[int | None]] = [[] for _ in self.states]
        self.epsilon: list[tuple[int, ...]] = [()] * len(self.states)
        sink = len(self.states) - 1
        for q, moves in spec.epsilon_transitions.items():
            i = index[q]
            for _, target in moves:
                self.epsilon[i] += (len(self.delta[0]),)
                for k, row in enumerate(self.delta):
                    row.append(index[target] if k == i else sink if k == sink else None)

    def label_class(self, labels) -> int:
        """The class of a label set; a new class gets its delta column at once."""
        labels = frozenset(labels)
        cls = self.classes.get(labels)
        if cls is None:
            cls = self.classes[labels] = len(self.delta[0])
            for q, row in zip(self.states, self.delta):
                row.append(self.index[step_state(self.spec, q, labels)])
        return cls


class LdbaRuntime:
    """Mutable run of an automaton on dense ids: state, frontier, sweep counter.

    ``state`` indexes ``compiled.states``; ``step`` takes a ``delta`` class. The
    frontier is a bitmask over ``spec.accepting_sets``: bit i is set while
    set i is still to be visited in this sweep.
    """

    def __init__(self, spec: LdbaSpec):
        self.spec = spec
        self.compiled = spec.compiled
        self._delta, self._accmask = self.compiled.delta, self.compiled.accmask
        self.reset()

    def reset(self) -> int:
        self.state = self.compiled.index[self.spec.initial_state]
        self.frontier = self.compiled.full_frontier
        self.sweeps_completed = 0
        return self.state

    def step(self, label_class: int) -> int:
        self.state = nxt = self._delta[self.state][label_class]
        return nxt

    def advance_frontier(self, q: int) -> bool:
        """Remove the first remaining accepting set containing the state of index q.

        Returns True when a set was removed (the reward-firing condition).
        Emptying the family resets it in full and counts one sweep.
        """
        hits = self.frontier & self._accmask[q]
        if not hits:
            return False
        left = self.frontier ^ (hits & -hits)
        if left:
            self.frontier = left
        else:
            self.frontier = self.compiled.full_frontier
            self.sweeps_completed += 1
        return True


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise LdbaSpecError(message)


def parse_ldba_spec(document) -> LdbaSpec:
    """Build a validated LdbaSpec from a JSON string or decoded dict."""
    if isinstance(document, str):
        document = decode_json(document, LdbaSpecError)
    _require(isinstance(document, dict), "automaton document must be a JSON object")

    raw_states = document.get("states")
    _require(isinstance(raw_states, list) and raw_states, "missing non-empty 'states' list")
    _require(all(map(is_int, raw_states)), "states must be integers")
    _require(len(set(raw_states)) == len(raw_states), "duplicate states")
    _require(SINK_STATE not in raw_states, "sink state -1 is implicit, do not list it")
    states = tuple(raw_states)
    state_set = set(states)
    valid_targets = state_set | {SINK_STATE}
    # Row keys name a state only in canonical form, so no two keys name one state.
    keyed = {str(q): q for q in states}

    initial = document.get("initial_state", 0)
    _require(is_int(initial) and initial in state_set,
             f"initial_state {initial} is not a declared state")

    alphabet_raw = document.get("alphabet", [])
    _require(isinstance(alphabet_raw, list), "'alphabet' must be a list")
    for prop in alphabet_raw:
        problem = proposition_name_problem(prop)
        _require(problem is None, f"bad proposition name {prop!r}: {problem}")
    _require(len(set(alphabet_raw)) == len(alphabet_raw), "duplicate alphabet entries")
    alphabet = tuple(alphabet_raw)

    acc_raw = document.get("accepting_sets")
    _require(isinstance(acc_raw, list) and acc_raw, "missing non-empty 'accepting_sets'")
    accepting = []
    for acc in acc_raw:
        _require(isinstance(acc, list) and acc, "each accepting set must be a non-empty list")
        for q in acc:
            _require(is_int(q) and q in state_set,
                     f"accepting set member {q} is not a declared state (sink is never accepting)")
        accepting.append(frozenset(acc))
    accepting_sets = tuple(accepting)

    eps_raw = document.get("epsilon_transitions", {})
    _require(isinstance(eps_raw, dict), "'epsilon_transitions' must be an object")
    epsilon_transitions: dict[int, tuple[tuple[str, int], ...]] = {}
    epsilon_seen: set[str] = set()
    for key, entries in eps_raw.items():
        q = keyed.get(key)
        _require(q is not None, f"epsilon_transitions key {key!r} is not a declared state")
        _require(isinstance(entries, list), f"epsilon_transitions[{q}] must be a list")
        pairs = []
        for entry in entries:
            if isinstance(entry, str):
                # Bare name shorthand: epsilon_k jumps to state k.
                name, target = entry, None
            elif isinstance(entry, dict) and set(entry) <= {"name", "to"}:
                name, target = entry.get("name"), entry.get("to")
            else:
                raise LdbaSpecError(
                    f"epsilon_transitions[{q}] entries must be names or {{name, to}} objects")
            _require(isinstance(name, str) and EPSILON_NAME_RE.fullmatch(name),
                     f"epsilon name {name!r} must be epsilon_<digits>")
            if target is None:
                target = int(name.split("_")[1])
            _require(is_int(target) and target in valid_targets,
                     f"epsilon transition {name} targets unknown state {target}")
            _require(name not in epsilon_seen,
                     f"epsilon name {name} is not unique across the automaton")
            epsilon_seen.add(name)
            pairs.append((name, target))
        epsilon_transitions[q] = tuple(pairs)

    trans_raw = document.get("transitions")
    _require(isinstance(trans_raw, dict), "missing 'transitions' object")
    transitions: dict[int, tuple[tuple[tuple, int], ...]] = {}
    for key, rows in trans_raw.items():
        q = keyed.get(key)
        _require(q is not None, f"transitions key {key!r} is not a declared state")
        _require(isinstance(rows, list) and rows, f"state {q} needs at least one transition")
        parsed = []
        for row in rows:
            _require(isinstance(row, dict) and isinstance(row.get("guard"), str) and "to" in row,
                     f"state {q}: transitions must be {{guard: string, to}} objects")
            guard = parse_guard(row["guard"])
            for prop in guard_propositions(guard):
                _require(prop in alphabet,
                         f"state {q}: guard proposition {prop!r} is not in the alphabet")
            target = row["to"]
            _require(is_int(target) and target in valid_targets,
                     f"state {q}: transition targets unknown state {target}")
            parsed.append((guard, target))
        _require(parsed[-1][0] == ("true",),
                 f"state {q} lacks a final catch-all transition (guard 'true')")
        transitions[q] = tuple(parsed)
    missing = state_set - set(transitions)
    _require(not missing, f"states without transition rows: {sorted(missing)}")

    return LdbaSpec(
        states=states,
        initial_state=initial,
        alphabet=alphabet,
        accepting_sets=accepting_sets,
        transitions=transitions,
        epsilon_transitions=epsilon_transitions,
    )


def spec_to_document(spec: LdbaSpec) -> dict:
    """Canonical plain-dict form of a spec (inverse of parse_ldba_spec)."""
    return {
        "states": list(spec.states),
        "initial_state": spec.initial_state,
        "alphabet": list(spec.alphabet),
        "accepting_sets": [sorted(acc) for acc in spec.accepting_sets],
        "epsilon_transitions": {
            str(q): [{"name": name, "to": target} for name, target in pairs]
            for q, pairs in sorted(spec.epsilon_transitions.items())
        },
        "transitions": {
            str(q): [{"guard": guard_text(guard), "to": target} for guard, target in rows]
            for q, rows in sorted(spec.transitions.items())
        },
    }


def load_ldba_file(path) -> LdbaSpec:
    return parse_ldba_spec(read_text(path, LdbaSpecError, "automaton"))
