"""Exact model-based oracle: maximal satisfaction probability of a task.

The environment kernel and automaton are composed into an explicit
product MDP (reachable part only, all sink slots collapsed into one
absorbing node) held in flat arrays, see ExplicitProduct. Maximal end
components are found by iterative SCC refinement on them, sorting nothing;
a MEC is accepting when its states intersect every accepting set, matching
the frontier semantics that all sets must be visited infinitely often. The
maximal probability of reaching the union of accepting MECs is then the
Buchi value. Reachability is solved by Gauss-Seidel value iteration after
the standard qualitative precomputations (prob0 by backward search, prob1
by the Pmax=1 fixed point of Baier & Katoen, Principles of Model Checking,
10.6), so almost-sure states report exactly 1. prob1, prob0 and the readers
below read one predecessor index, built once per solve (timed in oracle.vi_s).
A sweep recomputes only the undecided states flagged stale: a state whose
value changes flags its readers (the undecided states it is a successor of,
itself on a self-loop); itertools.compress skips the others, reading the
flags lazily. An update whose inputs did not move gives the same float
again, and a successor of value 0 adds exactly +0.0, so its term is left
out. A row of at most four terms is one flat tuple padded with (0, 0.0),
summed in one expression left to right as the loop does; 0.0 + x == x for
x >= +0.0 and a pad adds exactly +0.0 (values are finite, non-negative), so
values, sweep snapshots and sweep count are bit for bit those of full
sweeps. Longer rows, which grid products never make, keep the loop.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

from .automaton import LdbaSpec
from .product import SINK, compile_product

DEFAULT_STATE_CAP = 10**6
VI_RESIDUAL = 1e-10  # value iteration stops once no value moves by this much


class ProductSizeError(RuntimeError):
    """Raised when |S| * (|Q|+1) exceeds the configured state cap."""


class ExplicitProduct:
    """Reachable product MDP in one CSR (compressed sparse row) layout.

    ``states[i]`` is node i's product id (see ``CompiledProduct``); every
    sink slot collapses into the one node ``SINK``. Node i's actions
    ``actions[i]``, in the product's order, own rows ``first_row[i]`` up to
    ``first_row[i + 1]``; row r owns edges ``first_edge[r]`` up to
    ``first_edge[r + 1]`` of ``succ`` (64-bit successor ids) and ``prob``.
    """

    def __init__(self, states: list[int], initial: int, accepting_sets=()):
        self.states, self.initial = states, initial
        self.accepting_sets: tuple[frozenset[int], ...] = accepting_sets  # node indices
        self.actions: list[tuple[str, ...]] = []
        self.first_row, self.first_edge = array("q", [0]), array("q", [0])
        self.succ, self.prob = array("q"), array("d")

    @classmethod
    def from_successors(cls, states, initial, successors, accepting_sets) -> ExplicitProduct:
        """A product from one ``{action: ((j, p), ...)}`` dict per node."""
        prod = cls(states, initial, accepting_sets)
        for row in successors:
            prod.add_node(tuple(row), row.values())
        return prod

    def add_node(self, actions: tuple[str, ...], rows) -> None:
        """Append the next node: its action names and each action's (j, p) pairs."""
        for row in rows:
            for j, p in row:
                self.succ.append(j)
                self.prob.append(p)
            self.first_edge.append(len(self.succ))
        self.actions.append(actions)
        self.first_row.append(len(self.first_edge) - 1)

    def num_states(self) -> int:
        return len(self.states)

    def rows(self, i: int) -> range:
        return range(self.first_row[i], self.first_row[i + 1])

    def targets(self, first: int, stop: int) -> array:
        """Successor nodes of rows first up to stop; a node's rows are adjacent."""
        return self.succ[self.first_edge[first]:self.first_edge[stop]]

    def pairs(self, r: int):
        return zip(self.targets(r, r + 1), self.prob[self.first_edge[r]:self.first_edge[r + 1]])

    @cached_property
    def successors(self) -> tuple[dict[str, tuple[tuple[int, float], ...]], ...]:
        """Node i's ``{action: ((j, p), ...)}`` dict at [i], built on first read."""
        return tuple({a: tuple(self.pairs(r)) for a, r in zip(self.actions[i], self.rows(i))}
                     for i in range(self.num_states()))


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

    def visit(cell, q) -> int:
        """Index of the node of product state (cell, q), numbered on first sight."""
        node = SINK if q == sink else cell * nq + q
        i = index.get(node)
        if i is None:
            i = index[node] = len(states)
            states.append(node)
        return i

    prod = ExplicitProduct(states, visit(*divmod(product.initial, nq)))
    # visit appends to states, so this expands every node once, in breadth-first order.
    for i, node in enumerate(states):
        cell, q = divmod(node, nq)
        names = product.actions[q]
        if q == sink:
            prod.add_node(names, [((i, 1.0),)] * len(names))
            continue
        after = delta[q]
        rows = []
        for action, epsilon_class in zip(names, product.epsilon[q]):
            if epsilon_class is not None:
                rows.append(((visit(cell, after[epsilon_class]), 1.0),))
                continue
            mass: dict[int, float] = {}
            for j_cell, p in kernel[cell][action]:
                j = visit(j_cell, after[cell_class[j_cell]])
                mass[j] = mass.get(j, 0.0) + p
            rows.append(sorted(mass.items()))
        prod.add_node(names, rows)

    accmask = product.automaton.accmask
    prod.accepting_sets = tuple(
        frozenset(i for i, node in enumerate(states) if accmask[node % nq] >> k & 1)
        for k in range(len(spec.accepting_sets)))
    return prod


# ---------------------------------------------------------------------------
# maximal end components
# ---------------------------------------------------------------------------


def _strongly_connected_components(nodes, successors) -> list[list[int]]:
    """Iterative Tarjan SCC over nodes; successors(node) must stay among them."""
    indexof: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in indexof:
            continue
        work = [(root, iter(successors(root)))]
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
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack and indexof[succ] < low[node]:
                    low[node] = indexof[succ]
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
    targets = prod.targets
    # a candidate maps each of its nodes to the action rows that may stay inside it
    candidates: list[dict] = [{i: prod.rows(i) for i in range(prod.num_states())}]
    mecs: list[Mec] = []

    def successors(i):
        rows = kept[i]
        if rows[-1] - rows[0] < len(rows):  # adjacent rows: one slice
            return set(targets(rows[0], rows[-1] + 1))
        return set().union(*[targets(r, r + 1) for r in rows])

    while candidates:
        kept = candidates.pop()
        cand = set(kept)
        removed = True
        while removed:  # a pass that removes nothing saw every row against the final cand
            removed = False
            for i, rows in list(kept.items()):
                # the span also covers rows dropped between: if it stays inside, all rows do
                if rows and cand.issuperset(targets(rows[0], rows[-1] + 1)):
                    continue
                kept[i] = rows = [r for r in rows if cand.issuperset(targets(r, r + 1))]
                if not rows:
                    del kept[i]
                    cand.discard(i)
                    removed = True
        if not kept:
            continue
        comps = _strongly_connected_components(kept, successors)
        if len(comps) == 1:
            mecs.append(Mec(frozenset(cand), {
                i: tuple(prod.actions[i][r - prod.first_row[i]] for r in rows)
                for i, rows in kept.items()}))
        else:
            candidates.extend({i: kept[i] for i in comp} for comp in comps)
    # Deterministic order: by smallest member state index.
    mecs.sort(key=lambda m: min(m.states))
    return mecs


# ---------------------------------------------------------------------------
# maximal reachability
# ---------------------------------------------------------------------------


def _predecessor_index(prod: ExplicitProduct, target) -> tuple[list[list[int]], list[int]]:
    """Rows of non-target nodes by successor: pre[j] lists the rows into j, row k is owner[k]'s."""
    pre: list[list[int]] = [[] for _ in range(prod.num_states())]
    owner: list[int] = []
    first_row, first_edge, succ = prod.first_row, prod.first_edge, prod.succ
    for i in range(len(pre)):
        if i not in target:
            for r in range(first_row[i], first_row[i + 1]):
                k = len(owner)
                for j in succ[first_edge[r]:first_edge[r + 1]]:
                    pre[j].append(k)
                owner.append(i)
    return pre, owner


def _backward_rounds(index, target):
    """Reach flags per round of the predecessor-driven Pmax=1 fixed point.

    Each round searches the index backward from the target along the enabled
    (state, action) pairs, then disables every pair with an edge into a state
    it missed. Round one is plain reachability; the last drops nothing.
    """
    (pre, owner), n = index, len(index[0])
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


def _prob0_max(prod: ExplicitProduct, target: set[int], index) -> set[int]:
    """States from which no policy can reach the target at all."""
    return {i for i, r in enumerate(next(_backward_rounds(index, target))) if not r}


def _prob1_max(prod: ExplicitProduct, target: set[int], index) -> set[int]:
    """States with an almost-surely-reaching policy."""
    reach = deque(_backward_rounds(index, target), maxlen=1)[0]
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

    pre, owner = index = _predecessor_index(prod, target)
    sure = _prob1_max(prod, target, index)
    never = _prob0_max(prod, target, index)
    for i in sure:
        values[i] = 1.0
    undecided = [i for i in range(n) if i not in sure and i not in never]

    sweeps = 0
    if undecided:
        ids, floats = list(range(n)), {}  # shared ints and floats keep the loop's data small
        position = {i: k for k, i in enumerate(undecided)}
        # a reader of j owns a row into j; a node's rows are adjacent, so dedupe in order
        readers = [list(dict.fromkeys(position[i] for i in map(owner.__getitem__, pre[j])
                                      if i in position)) for j in undecided]
        del index, pre, owner  # held while the rows are built, it would raise the peak
        work = []
        for k, i in enumerate(undecided):
            rows, long = [], []
            for r in prod.rows(i):
                terms = [(ids[j], floats.setdefault(p, p)) for j, p in prod.pairs(r)
                         if j not in never]
                if len(terms) > 4:
                    long.append(tuple(terms))
                elif terms:  # a row into never alone is worth 0.0 and cannot raise best
                    rows.append(tuple(chain.from_iterable(terms + [(0, 0.0)] * (4 - len(terms)))))
            work.append((k, i, tuple(rows), tuple(long), readers[k]))
        stale = bytearray([1]) * len(work)
        while True:
            sweeps += 1
            if sweeps > max_sweeps:
                raise RuntimeError(
                    "value iteration did not converge within the sweep guard; "
                    "this signals a modeling bug")
            delta = 0.0
            for k, i, rows, long, to_flag in compress(work, stale):
                stale[k] = 0
                best = 0.0
                for j0, p0, j1, p1, j2, p2, j3, p3 in rows:
                    acc = p0 * values[j0] + p1 * values[j1] + p2 * values[j2] + p3 * values[j3]
                    if acc > best:
                        best = acc
                for succ in long:
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

