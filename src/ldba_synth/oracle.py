"""Exact model-based oracle: maximal satisfaction probability of a task.

The environment kernel and automaton are composed into an explicit
product MDP (reachable part only, all sink slots collapsed into one
absorbing node). Maximal end components are found by iterative SCC
refinement; a MEC is accepting when its states intersect every accepting
set, matching the frontier semantics that all sets must be visited
infinitely often. The maximal probability of reaching the union of
accepting MECs is then the Buchi value. Reachability is solved by
Gauss-Seidel value iteration after the standard qualitative
precomputations on a predecessor index (prob0 by backward search, prob1
by the Pmax=1 fixed point of Baier & Katoen, Principles of Model Checking,
10.6), so almost-sure states report exactly 1. A sweep recomputes only the
undecided states flagged stale: a state whose value changes flags its
readers (the undecided states it is a successor of, itself on a self-loop).
An update whose inputs did not move gives the same float again, and a
successor of value 0 adds exactly +0.0, so its term is left out; the values,
sweep snapshots and sweep count are bit for bit those of full sweeps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .automaton import LdbaSpec
from .product import SINK, compile_product

DEFAULT_STATE_CAP = 10**6
VI_RESIDUAL = 1e-10  # value iteration stops once no value moves by this much


class ProductSizeError(RuntimeError):
    """Raised when |S| * (|Q|+1) exceeds the configured state cap."""


@dataclass
class ExplicitProduct:
    """Reachable product MDP with sparse per-action successor lists.

    ``states[i]`` is node i's product id (see ``CompiledProduct``); every
    sink slot collapses into the one node ``SINK``. The actions of node i
    are the keys of ``successors[i]``, in the product's order.
    """

    states: list[int]
    initial: int
    successors: list[dict[str, tuple[tuple[int, float], ...]]]
    accepting_sets: tuple[frozenset[int], ...]  # node indices

    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def supports(self) -> list[dict[str, tuple[int, ...]]]:
        """Successor nodes of each available action, per node."""
        return [{a: tuple(j for j, _ in succ) for a, succ in row.items()}
                for row in self.successors]


def build_explicit_product(env, spec: LdbaSpec, state_cap: int = DEFAULT_STATE_CAP) -> ExplicitProduct:
    """Compose env x automaton, keeping only states reachable from the start."""
    slots = env.height * env.width * (len(spec.states) + 1)
    if slots > state_cap:
        raise ProductSizeError(
            f"product needs {slots} state slots, above the cap of {state_cap}")

    kernel = env.enumerate_model()
    product = compile_product(env, spec)
    nq, sink = product.nq, product.nq - 1
    delta, cell_class = product.automaton.delta, product.cell_class
    states: list[int] = []
    index: dict[int, int] = {}
    successors: list[dict[str, tuple[tuple[int, float], ...]]] = []

    def visit(cell, q) -> int:
        """Index of the node of product state (cell, q), numbered on first sight."""
        node = SINK if q == sink else cell * nq + q
        i = index.get(node)
        if i is None:
            i = index[node] = len(states)
            states.append(node)
        return i

    initial = visit(*divmod(product.initial, nq))
    # visit appends to states, so this expands every node once, in breadth-first order.
    for i, node in enumerate(states):
        cell, q = divmod(node, nq)
        if q == sink:
            successors.append({a: ((i, 1.0),) for a in product.actions[q]})
            continue
        after = delta[q]
        row: dict[str, tuple[tuple[int, float], ...]] = {}
        for action, epsilon_class in zip(product.actions[q], product.epsilon[q]):
            if epsilon_class is not None:
                row[action] = ((visit(cell, after[epsilon_class]), 1.0),)
                continue
            mass: dict[int, float] = {}
            for j_cell, p in kernel[cell][action]:
                j = visit(j_cell, after[cell_class[j_cell]])
                mass[j] = mass.get(j, 0.0) + p
            row[action] = tuple(sorted(mass.items()))
        successors.append(row)

    accmask = product.automaton.accmask
    accepting = tuple(frozenset(i for i, node in enumerate(states) if accmask[node % nq] >> k & 1)
                      for k in range(len(spec.accepting_sets)))
    return ExplicitProduct(states, initial, successors, accepting)


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
    supports = prod.supports
    candidates: list[set[int]] = [set(range(prod.num_states()))]
    mecs: list[Mec] = []
    while candidates:
        cand = candidates.pop()
        while True:
            kept: dict[int, tuple[str, ...]] = {}
            for i in sorted(cand):
                acts = tuple(a for a, sup in supports[i].items() if cand.issuperset(sup))
                if acts:
                    kept[i] = acts
            if len(kept) < len(cand):
                cand = set(kept)
                if not cand:
                    break
                continue
            edges = {
                i: sorted({j for a in kept[i] for j in supports[i][a]})
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


def _backward_rounds(prod: ExplicitProduct, target):
    """Reach flags per round of the predecessor-driven Pmax=1 fixed point.

    Each round searches backward from the target along the enabled
    (state, action) pairs, then disables every pair with an edge into a
    state it missed. Round one is plain reachability; the last drops
    nothing. Only edges leaving non-target states are indexed.
    """
    n = prod.num_states()
    pre: list[list[int]] = [[] for _ in range(n)]
    owner: list[int] = []
    for i, row in enumerate(prod.supports):
        if i not in target:
            for sup in row.values():
                for j in sup:
                    pre[j].append(len(owner))
                owner.append(i)
    disabled = bytearray(len(owner))
    reach = bytearray([1]) * n
    while True:
        alive, reach, stack = reach, bytearray(n), list(target)
        for j in stack:
            reach[j] = 1
        while stack:
            for k in pre[stack.pop()]:
                i = owner[k]
                if not reach[i] and not disabled[k]:
                    reach[i] = 1
                    stack.append(i)
        yield reach
        dropped = [j for j, (a, r) in enumerate(zip(alive, reach)) if a > r]
        if not dropped:
            return
        for j in dropped:
            for k in pre[j]:
                disabled[k] = 1


def _prob0_max(prod: ExplicitProduct, target: set[int]) -> set[int]:
    """States from which no policy can reach the target at all."""
    reach = next(_backward_rounds(prod, target))
    return {i for i, r in enumerate(reach) if not r}


def _prob1_max(prod: ExplicitProduct, target: set[int]) -> set[int]:
    """States with an almost-surely-reaching policy."""
    reach = deque(_backward_rounds(prod, target), maxlen=1)[0]
    return {i for i, r in enumerate(reach) if r}


@dataclass
class OracleResult:
    values: list[float]
    initial_value: float
    accepting_target: frozenset[int]
    mecs: list[Mec]
    sweeps: int


def max_sat_probability(prod: ExplicitProduct, max_sweeps: int = 10**6,
                        on_sweep=None) -> OracleResult:
    """Maximal probability of satisfying the Buchi condition from each state."""
    mecs = mec_decompose(prod)
    target = set().union(*(m.states for m in mecs
                           if all(m.states & acc for acc in prod.accepting_sets)))

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
        readers: dict[int, list[int]] = {i: [] for i in undecided}
        for i in undecided:
            for j in readers.keys() & {j for sup in prod.supports[i].values() for j in sup}:
                readers[j].append(i)
        work = [(i, tuple(tuple(t for t in succ if t[0] not in never)
                          for succ in prod.successors[i].values()), readers[i])
                for i in undecided]
        stale = bytearray(i in readers for i in range(n))
        while True:
            sweeps += 1
            if sweeps > max_sweeps:
                raise RuntimeError(
                    "value iteration did not converge within the sweep guard; "
                    "this signals a modeling bug")
            delta = 0.0
            for i, rows, to_flag in work:
                if not stale[i]:
                    continue
                stale[i] = 0
                best = 0.0
                for succ in rows:
                    acc = 0.0
                    for j, p in succ:
                        acc += p * values[j]
                    if acc > best:
                        best = acc
                diff = best - values[i]
                if diff:
                    if diff > delta:
                        delta = diff
                    values[i] = best
                    for r in to_flag:
                        stale[r] = 1
            if on_sweep is not None:
                on_sweep(list(values))
            if delta < VI_RESIDUAL:
                break

    return OracleResult(values, values[prod.initial], frozenset(target), mecs, sweeps)

