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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

SINK_STATE = -1

EPSILON_NAME_RE = re.compile(r"^epsilon_\d+$")
PROPOSITION_RE = re.compile(r"^[a-z0-9_]+$")

# Most operators and opening parentheses one guard may hold; see parse_guard.
MAX_GUARD_OPERATORS = 100


class LdbaSpecError(ValueError):
    """Raised when an automaton document is syntactically or semantically invalid."""


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


class Guard:
    """Propositional formula evaluated against a set of labels."""

    def evaluate(self, labels) -> bool:
        raise NotImplementedError

    def propositions(self) -> set[str]:
        raise NotImplementedError

    def to_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()!r})"

    def __eq__(self, other):
        return type(self) is type(other) and self.to_string() == other.to_string()

    def __hash__(self):
        return hash((type(self).__name__, self.to_string()))


class GuardTrue(Guard):
    """The catch-all guard; accepts every label set."""

    def evaluate(self, labels) -> bool:
        return True

    def propositions(self) -> set[str]:
        return set()

    def to_string(self) -> str:
        return "true"


class GuardProp(Guard):
    """Atomic proposition; true when the label is present."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, labels) -> bool:
        return self.name in labels

    def propositions(self) -> set[str]:
        return {self.name}

    def to_string(self) -> str:
        return self.name


class GuardNot(Guard):
    def __init__(self, inner: Guard):
        self.inner = inner

    def evaluate(self, labels) -> bool:
        return not self.inner.evaluate(labels)

    def propositions(self) -> set[str]:
        return self.inner.propositions()

    def to_string(self) -> str:
        inner = self.inner.to_string()
        if isinstance(self.inner, (GuardProp, GuardTrue, GuardNot)):
            return f"!{inner}"
        return f"!({inner})"


class GuardAnd(Guard):
    def __init__(self, left: Guard, right: Guard):
        self.left = left
        self.right = right

    def evaluate(self, labels) -> bool:
        return self.left.evaluate(labels) and self.right.evaluate(labels)

    def propositions(self) -> set[str]:
        return self.left.propositions() | self.right.propositions()

    def to_string(self) -> str:
        parts = []
        for side in (self.left, self.right):
            text = side.to_string()
            parts.append(f"({text})" if isinstance(side, GuardOr) else text)
        return " & ".join(parts)


class GuardOr(Guard):
    def __init__(self, left: Guard, right: Guard):
        self.left = left
        self.right = right

    def evaluate(self, labels) -> bool:
        return self.left.evaluate(labels) or self.right.evaluate(labels)

    def propositions(self) -> set[str]:
        return self.left.propositions() | self.right.propositions()

    def to_string(self) -> str:
        return f"{self.left.to_string()} | {self.right.to_string()}"


_TOKEN_RE = re.compile(r"\s*(\(|\)|&\&?|\|\|?|!|[a-z0-9_]+)")


def _tokenize_guard(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LdbaSpecError(f"guard {text!r}: unexpected character at offset {pos}")
        tok = m.group(1)
        tokens.append("&" if tok == "&&" else "|" if tok == "||" else tok)
        pos = m.end()
    return tokens


def parse_guard(text: str) -> Guard:
    """Parse a guard string; grammar is `|` < `&` < `!` with parentheses.

    A guard may hold at most MAX_GUARD_OPERATORS operators and opening
    parentheses together. That bounds the depth of the parser's recursion
    and of the parsed formula, whose methods recurse too.
    """
    tokens = _tokenize_guard(text)
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
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_or() -> Guard:
        node = parse_and()
        while peek() == "|":
            take()
            node = GuardOr(node, parse_and())
        return node

    def parse_and() -> Guard:
        node = parse_unary()
        while peek() == "&":
            take()
            node = GuardAnd(node, parse_unary())
        return node

    def parse_unary() -> Guard:
        tok = peek()
        if tok == "!":
            take()
            return GuardNot(parse_unary())
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
        if tok == "true":
            return GuardTrue()
        if not PROPOSITION_RE.match(tok):
            raise LdbaSpecError(f"guard {text!r}: bad proposition {tok!r}")
        return GuardProp(tok)

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
    transitions: dict[int, tuple[tuple[Guard, int], ...]]
    epsilon_transitions: dict[int, tuple[tuple[str, int], ...]]
    epsilon_targets: dict[str, int] = field(default_factory=dict)

    def epsilon_names(self, q: int) -> tuple[str, ...]:
        return tuple(name for name, _ in self.epsilon_transitions.get(q, ()))

    @cached_property
    def compiled(self) -> CompiledLdba:
        """The per-state tables of the per-step path, built on first use."""
        return CompiledLdba(self)


def step_state(spec: LdbaSpec, q: int, labels) -> int:
    """Successor automaton state for a label set; pure, no frontier effects."""
    if q == SINK_STATE:
        return SINK_STATE
    epsilon = [lab for lab in labels if lab.startswith("epsilon_")]
    if epsilon:
        if len(labels) != 1:
            raise LdbaSpecError(
                f"epsilon label must be delivered alone, got {sorted(labels)!r}"
            )
        name = epsilon[0]
        for cand, target in spec.epsilon_transitions.get(q, ()):
            if cand == name:
                return target
        raise LdbaSpecError(f"epsilon action {name!r} is not available from state {q}")
    for guard, target in spec.transitions[q]:
        if guard.evaluate(labels):
            return target
    raise AssertionError(f"state {q} has no matching transition (missing catch-all)")


class ActionTable(NamedTuple):
    """Product actions per automaton state for one environment action set.

    ``legal[q]`` lists the base actions, then the epsilon actions of q;
    ``moves[q]`` maps each legal action to None for a base move, or to the
    one-label set that delivers the epsilon action to the automaton.
    """

    legal: dict[int, tuple[str, ...]]
    moves: dict[int, dict[str, frozenset | None]]


class CompiledLdba:
    """Per-state tables of one spec, shared by the learner, tester and oracle.

    Holds, per automaton state q (the sink included): the successor memo
    keyed by label set, the bitmask of accepting sets containing q (bit i
    for ``spec.accepting_sets[i]``), and, per environment action set, the
    legal actions and their moves. Build it once per spec through
    ``LdbaSpec.compiled``.
    """

    def __init__(self, spec: LdbaSpec):
        self.spec = spec
        every = spec.states + (SINK_STATE,)
        self.next_state: dict[int, dict[frozenset, int]] = {q: {} for q in every}
        self.accmask = {
            q: sum(1 << i for i, acc in enumerate(spec.accepting_sets) if q in acc)
            for q in every
        }
        self.full_frontier = (1 << len(spec.accepting_sets)) - 1
        self._action_tables: dict[tuple[str, ...], ActionTable] = {}

    def step(self, q: int, labels) -> int:
        """Successor of q on a label set, memoised per (q, label set)."""
        try:
            return self.next_state[q][labels]
        except (KeyError, TypeError):
            labels = frozenset(labels)
            nxt = step_state(self.spec, q, labels)
            self.next_state[q][labels] = nxt
            return nxt

    def action_table(self, env_actions) -> ActionTable:
        """The legal actions and moves of every state, given the base actions."""
        env_actions = tuple(env_actions)
        table = self._action_tables.get(env_actions)
        if table is None:
            legal = {SINK_STATE: env_actions}
            moves = {SINK_STATE: dict.fromkeys(env_actions)}
            for q in self.spec.states:
                names = self.spec.epsilon_names(q)
                legal[q] = env_actions + names
                moves[q] = dict.fromkeys(env_actions)
                moves[q].update((name, frozenset((name,))) for name in names)
            table = ActionTable(legal, moves)
            self._action_tables[env_actions] = table
        return table


class LdbaRuntime:
    """Mutable run of an automaton: current state, frontier, sweep counter.

    The frontier is a bitmask over ``spec.accepting_sets``; ``remaining``
    lists the sets whose bits are still set, in declaration order.
    """

    def __init__(self, spec: LdbaSpec):
        self.spec = spec
        self.compiled = spec.compiled
        self._next_state = self.compiled.next_state
        self._accmask = self.compiled.accmask
        self.reset()

    def reset(self) -> int:
        self.state = self.spec.initial_state
        self.frontier = self.compiled.full_frontier
        self.sweeps_completed = 0
        return self.state

    @property
    def remaining(self) -> list[frozenset[int]]:
        return [acc for i, acc in enumerate(self.spec.accepting_sets)
                if self.frontier >> i & 1]

    def step(self, labels) -> int:
        try:
            nxt = self._next_state[self.state][labels]
        except (KeyError, TypeError):
            nxt = self.compiled.step(self.state, labels)
        self.state = nxt
        return nxt

    def advance_frontier(self, q: int) -> bool:
        """Remove the first remaining accepting set containing q.

        Returns True when a set was removed (the reward-firing condition).
        Emptying the family resets it in full and counts one sweep.
        """
        hits = self.frontier & self._accmask.get(q, 0)
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
        try:
            document = json.loads(document)
        except json.JSONDecodeError as err:
            raise LdbaSpecError(f"syntax error at line {err.lineno}: {err.msg}") from err
    _require(isinstance(document, dict), "automaton document must be a JSON object")

    raw_states = document.get("states")
    _require(isinstance(raw_states, list) and raw_states, "missing non-empty 'states' list")
    _require(all(isinstance(s, int) for s in raw_states), "states must be integers")
    _require(len(set(raw_states)) == len(raw_states), "duplicate states")
    _require(SINK_STATE not in raw_states, "sink state -1 is implicit, do not list it")
    states = tuple(raw_states)
    state_set = set(states)
    valid_targets = state_set | {SINK_STATE}

    initial = document.get("initial_state", 0)
    _require(initial in state_set, f"initial_state {initial} is not a declared state")

    alphabet_raw = document.get("alphabet", [])
    _require(isinstance(alphabet_raw, list), "'alphabet' must be a list")
    for prop in alphabet_raw:
        _require(isinstance(prop, str) and PROPOSITION_RE.match(prop),
                 f"bad proposition name {prop!r}")
        _require(not prop.startswith("epsilon_"),
                 f"proposition {prop!r} uses the reserved epsilon_ prefix")
    _require(len(set(alphabet_raw)) == len(alphabet_raw), "duplicate alphabet entries")
    alphabet = tuple(alphabet_raw)

    acc_raw = document.get("accepting_sets")
    _require(isinstance(acc_raw, list) and acc_raw, "missing non-empty 'accepting_sets'")
    accepting = []
    for acc in acc_raw:
        _require(isinstance(acc, list) and acc, "each accepting set must be a non-empty list")
        for q in acc:
            _require(q in state_set,
                     f"accepting set member {q} is not a declared state (sink is never accepting)")
        accepting.append(frozenset(acc))
    accepting_sets = tuple(accepting)

    eps_raw = document.get("epsilon_transitions", {})
    _require(isinstance(eps_raw, dict), "'epsilon_transitions' must be an object")
    epsilon_transitions: dict[int, tuple[tuple[str, int], ...]] = {}
    epsilon_targets: dict[str, int] = {}
    for key, entries in eps_raw.items():
        try:
            q = int(key)
        except (TypeError, ValueError):
            raise LdbaSpecError(f"epsilon_transitions key {key!r} is not a state")
        _require(q in state_set, f"epsilon_transitions key {q} is not a declared state")
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
            _require(isinstance(name, str) and EPSILON_NAME_RE.match(name),
                     f"epsilon name {name!r} must match epsilon_<k>")
            if target is None:
                target = int(name.split("_")[1])
            _require(target in valid_targets,
                     f"epsilon transition {name} targets unknown state {target}")
            _require(name not in epsilon_targets,
                     f"epsilon name {name} is not unique across the automaton")
            epsilon_targets[name] = target
            pairs.append((name, target))
        epsilon_transitions[q] = tuple(pairs)

    trans_raw = document.get("transitions")
    _require(isinstance(trans_raw, dict), "missing 'transitions' object")
    transitions: dict[int, tuple[tuple[Guard, int], ...]] = {}
    seen_states = set()
    for key, rows in trans_raw.items():
        try:
            q = int(key)
        except (TypeError, ValueError):
            raise LdbaSpecError(f"transitions key {key!r} is not a state")
        _require(q in state_set, f"transitions key {q} is not a declared state")
        _require(isinstance(rows, list) and rows, f"state {q} needs at least one transition")
        parsed = []
        for row in rows:
            _require(isinstance(row, dict) and "guard" in row and "to" in row,
                     f"state {q}: transitions must be {{guard, to}} objects")
            guard = parse_guard(row["guard"])
            for prop in guard.propositions():
                _require(prop in alphabet,
                         f"state {q}: guard proposition {prop!r} is not in the alphabet")
            target = row["to"]
            _require(target in valid_targets,
                     f"state {q}: transition targets unknown state {target}")
            parsed.append((guard, target))
        _require(isinstance(parsed[-1][0], GuardTrue),
                 f"state {q} lacks a final catch-all transition (guard 'true')")
        transitions[q] = tuple(parsed)
        seen_states.add(q)
    missing = state_set - seen_states
    _require(not missing, f"states without transition rows: {sorted(missing)}")

    return LdbaSpec(
        states=states,
        initial_state=initial,
        alphabet=alphabet,
        accepting_sets=accepting_sets,
        transitions=transitions,
        epsilon_transitions=epsilon_transitions,
        epsilon_targets=epsilon_targets,
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
            str(q): [{"guard": guard.to_string(), "to": target} for guard, target in rows]
            for q, rows in sorted(spec.transitions.items())
        },
    }


def serialize_ldba_spec(spec: LdbaSpec) -> str:
    return json.dumps(spec_to_document(spec), indent=2, sort_keys=True) + "\n"


def load_ldba_file(path) -> LdbaSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ldba_spec(handle.read())
