"""Exact model-based oracle: maximal satisfaction probability of a task.

The environment kernel and automaton are composed into an explicit
product MDP (reachable part only, all sink slots collapsed into one
absorbing node). Maximal end components are found by iterative SCC
refinement; a MEC is accepting when its states intersect every accepting
set, matching the frontier semantics that all sets must be visited
infinitely often. The maximal probability of reaching the union of
accepting MECs is then the Buchi value. Reachability is solved by
Gauss-Seidel value iteration after the standard qualitative
precomputations (prob0 via backward reachability, prob1 via the
two-level fixed point), so almost-sure states report exactly 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import SINK_STATE, LdbaSpec

DEFAULT_STATE_CAP = 10**6
SINK_CELL = (-1, -1)


class ProductSizeError(RuntimeError):
    """Raised when |S| * (|Q|+1) exceeds the configured state cap."""


@dataclass
class ExplicitProduct:
    """Reachable product MDP with sparse per-action successor lists."""

    states: list[tuple]               # ((row, col), q); sink is ((-1, -1), -1)
    index: dict[tuple, int]
    initial: int
    actions: list[tuple[str, ...]]    # available actions per state
    successors: list[dict[str, tuple[tuple[int, float], ...]]]
    accepting_sets: tuple[frozenset[int], ...]  # product-state indices

    def num_states(self) -> int:
        return len(self.states)


def build_explicit_product(env, spec: LdbaSpec, state_cap: int = DEFAULT_STATE_CAP) -> ExplicitProduct:
    """Compose env x automaton, keeping only states reachable from the start."""
    slots = env.height * env.width * (len(spec.states) + 1)
    if slots > state_cap:
        raise ProductSizeError(
            f"product needs {slots} state slots, above the cap of {state_cap}")

    model = env.enumerate_model()
    compiled = spec.compiled
    table = compiled.action_table(env.actions)
    sink_node = (SINK_CELL, SINK_STATE)
    states: list[tuple] = []
    index: dict[tuple, int] = {}
    actions: list[tuple[str, ...]] = []
    successors: list[dict[str, tuple[tuple[int, float], ...]]] = []
    frontier: deque[int] = deque()

    def visit(s, q) -> int:
        """Index of the product node (s, q), numbered and queued on first sight."""
        node = sink_node if q == SINK_STATE else (s, q)
        i = index.get(node)
        if i is None:
            i = len(states)
            index[node] = i
            states.append(node)
            actions.append(())
            successors.append({})
            frontier.append(i)
        return i

    initial = visit(env.initial_state, spec.initial_state)
    while frontier:
        i = frontier.popleft()
        s, q = states[i]
        actions[i] = table.legal[q]
        if q == SINK_STATE:
            successors[i] = {a: ((i, 1.0),) for a in env.actions}
            continue
        after = compiled.next_state[q]
        row: dict[str, tuple[tuple[int, float], ...]] = {}
        s_idx = model.index[s]
        for action, epsilon_label in table.moves[q].items():
            if epsilon_label is not None:
                row[action] = ((visit(s, compiled.step(q, epsilon_label)), 1.0),)
                continue
            mass: dict[int, float] = {}
            for j_env, p in model.kernel[s_idx][action]:
                labels = model.labels[j_env]
                q_next = after.get(labels)
                if q_next is None:
                    q_next = compiled.step(q, labels)
                j = visit(model.states[j_env], q_next)
                mass[j] = mass.get(j, 0.0) + p
            row[action] = tuple(sorted(mass.items()))
        successors[i] = row

    accepting = tuple(
        frozenset(i for i, (s, q) in enumerate(states) if q in acc)
        for acc in spec.accepting_sets
    )
    return ExplicitProduct(states, index, initial, actions, successors, accepting)


# ---------------------------------------------------------------------------
# maximal end components
# ---------------------------------------------------------------------------


def _strongly_connected_components(nodes, edges) -> list[list[int]]:
    """Iterative Tarjan SCC over an adjacency dict restricted to nodes."""
    indexof: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in indexof:
            continue
        work = [(root, iter(edges.get(root, ())))]
        indexof[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in indexof:
                    indexof[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], indexof[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == indexof[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


@dataclass
class Mec:
    states: frozenset[int]
    actions: dict[int, tuple[str, ...]]


def mec_decompose(prod: ExplicitProduct) -> list[Mec]:
    """Maximal end components by SCC refinement.

    Candidate components are repeatedly split: actions whose support
    leaves the candidate are dropped, states left without actions are
    dropped, and the remainder is re-partitioned into SCCs until stable.
    """
    support = {
        (i, a): frozenset(j for j, _ in succ)
        for i, row in enumerate(prod.successors)
        for a, succ in row.items()
    }
    candidates: list[set[int]] = [set(range(prod.num_states()))]
    mecs: list[Mec] = []
    while candidates:
        cand = candidates.pop()
        while True:
            kept: dict[int, tuple[str, ...]] = {}
            for i in sorted(cand):
                acts = tuple(a for a in prod.actions[i] if support[(i, a)] <= cand)
                if acts:
                    kept[i] = acts
            if len(kept) < len(cand):
                cand = set(kept)
                if not cand:
                    break
                continue
            edges = {
                i: sorted({j for a in kept[i] for j in support[(i, a)]})
                for i in kept
            }
            comps = _strongly_connected_components(sorted(kept), edges)
            if len(comps) == 1:
                comp = set(comps[0])
                mecs.append(Mec(frozenset(comp), {i: kept[i] for i in comp}))
                break
            candidates.extend(set(c) for c in comps)
            break
    # Deterministic order: by smallest member state index.
    mecs.sort(key=lambda m: min(m.states))
    return mecs


# ---------------------------------------------------------------------------
# maximal reachability
# ---------------------------------------------------------------------------


def _prob0_max(prod: ExplicitProduct, target: set[int]) -> set[int]:
    """States from which no policy can reach the target at all."""
    pre: dict[int, list[int]] = {i: [] for i in range(prod.num_states())}
    for i, row in enumerate(prod.successors):
        for succ in row.values():
            for j, _ in succ:
                pre[j].append(i)
    reach = set(target)
    frontier = list(target)
    while frontier:
        j = frontier.pop()
        for i in pre[j]:
            if i not in reach:
                reach.add(i)
                frontier.append(i)
    return set(range(prod.num_states())) - reach


def _prob1_max(prod: ExplicitProduct, target: set[int]) -> set[int]:
    """States with an almost-surely-reaching policy (two-level fixed point)."""
    universe = set(range(prod.num_states()))
    u = set(universe)
    while True:
        t = set(target)
        while True:
            grown = set(t)
            for i in u - t:
                for a in prod.actions[i]:
                    succ = prod.successors[i][a]
                    if all(j in u for j, _ in succ) and any(j in t for j, _ in succ):
                        grown.add(i)
                        break
            if grown == t:
                break
            t = grown
        if t == u:
            return u
        u = t


@dataclass
class OracleResult:
    values: list[float]
    initial_value: float
    accepting_target: frozenset[int]
    mecs: list[Mec]
    sweeps: int


def max_sat_probability(prod: ExplicitProduct, residual: float = 1e-10,
                        max_sweeps: int = 10**6, on_sweep=None) -> OracleResult:
    """Maximal probability of satisfying the Buchi condition from each state."""
    mecs = mec_decompose(prod)
    accepting = [
        m for m in mecs
        if all(m.states & acc for acc in prod.accepting_sets)
    ]
    target = set()
    for m in accepting:
        target |= m.states

    n = prod.num_states()
    values = [0.0] * n
    if not target:
        return OracleResult(values, 0.0, frozenset(), mecs, 0)

    sure = _prob1_max(prod, target)
    never = _prob0_max(prod, target)
    for i in sure:
        values[i] = 1.0
    undecided = [i for i in range(n) if i not in sure and i not in never]

    sweeps = 0
    if undecided:
        while True:
            sweeps += 1
            if sweeps > max_sweeps:
                raise RuntimeError(
                    "value iteration did not converge within the sweep guard; "
                    "this signals a modeling bug")
            delta = 0.0
            for i in undecided:
                best = 0.0
                row = prod.successors[i]
                for a in prod.actions[i]:
                    acc = 0.0
                    for j, p in row[a]:
                        acc += p * values[j]
                    if acc > best:
                        best = acc
                diff = best - values[i]
                if diff > delta:
                    delta = diff
                values[i] = best
            if on_sweep is not None:
                on_sweep(list(values))
            if delta < residual:
                break

    return OracleResult(values, values[prod.initial], frozenset(target), mecs, sweeps)


def greedy_product_policy(prod: ExplicitProduct, values) -> dict[int, str]:
    """Value-greedy memoryless policy (lowest-index tie-break) for rollouts."""
    policy: dict[int, str] = {}
    for i in range(prod.num_states()):
        best_a = prod.actions[i][0]
        best_v = -1.0
        for a in prod.actions[i]:
            acc = 0.0
            for j, p in prod.successors[i][a]:
                acc += p * values[j]
            if acc > best_v + 1e-15:
                best_a, best_v = a, acc
        policy[i] = best_a
    return policy
