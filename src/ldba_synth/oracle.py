"""Exact model-based oracle: maximal satisfaction probability of a task.

The environment kernel and automaton are composed into an explicit product MDP
(reachable part only, all sink slots collapsed into one absorbing node) held
in flat arrays, with 32-bit successor ids and one accepting mask per node,
written from plain lists a few thousand edges at a time, see ExplicitProduct.
Maximal end components are found by iterative SCC refinement on them (Baier &
Katoen, Principles of Model Checking, 10.6.3), sorting nothing; Tarjan's
search runs on int lists indexed by node, a candidate is a node list it
returned, and one map holds the rows a node keeps once it has lost one; rows
into an absorbing node (every row of it loops, as the sink's do) are cut
before the first search. A worklist over a candidate's rows into each node it
loses drops the rows that leave it, and a candidate that loses no row is a
MEC without another search. A MEC is accepting when the OR of its nodes'
masks covers every accepting set, matching the frontier semantics that all
sets must be visited infinitely often. The maximal probability of reaching
the union of accepting MECs is then the Buchi value. The standard qualitative
precomputations come first (prob0 by backward search, prob1 by the Pmax=1
fixed point of 10.6), so almost-sure states report exactly 1. prob1, prob0
and the attractor rows read one predecessor index, dropped after its last
reader.

The undecided states are solved one strongly connected component at a
time, in the order Tarjan's search emits them: downstream first, so every
state outside the component (sure, never, or solved before) is a constant.
A one-state component takes its best row's gain over pivot. A larger one runs
exactly WARM_SWEEPS Gauss-Seidel sweeps of value iteration, then policy
iteration (Puterman, Markov Decision Processes, 1994) from the rows greedy
for those values; a state whose greedy chain cannot leave the component
takes an attractor row, found by backward search from the sure states. Each
iteration solves the policy's chain on the component by sparse elimination
(_solve_chain) and switches a state to its best row only when that beats its
value by more than PI_GAIN, relative. The combined chain is block-triangular,
so every undecided value is the exact chain value, up to float rounding, of
a policy that no row improves by more than 1e-12; value iteration alone
bounds no distance to the optimum.

A component's rows are one table (_component_rows), read by the warm sweeps,
the improvement passes (_sweep with a choice list) and the chain entries
(_chain_row): assembled once per component, a chain is patched where a
state switches rows, and each solve consumes a copy.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, count, pairwise, repeat
from operator import or_

from .automaton import LdbaSpec
from .product import SINK, CompiledProduct

DEFAULT_STATE_CAP = 10**6
MAX_STATE_SLOTS = 2**31 - 1  # a node id is a 32-bit int in ExplicitProduct.succ
WARM_SWEEPS = 50  # Gauss-Seidel sweeps per component that warm-start policy iteration
PI_GAIN = 1e-12  # policy iteration switches a state to a row better by this much, relative
MAX_ITERATIONS = 1000  # policy iteration guard; it converges in a few iterations


class ProductSizeError(RuntimeError):
    """Raised when |S| * (|Q|+1) exceeds the configured state cap."""


class ExplicitProduct:
    """Reachable product MDP in one sparse-row (CSR) layout.

    ``states[i]`` is node i's product id (see ``CompiledProduct``); every
    sink slot collapses into the one node ``SINK``. Node i's actions
    ``actions[i]``, in the product's order, own rows ``first_row[i]`` up to
    ``first_row[i + 1]``; row r owns edges ``first_edge[r]`` up to
    ``first_edge[r + 1]`` (64-bit offsets) of ``succ`` (32-bit node ids: see
    MAX_STATE_SLOTS) and ``prob``. Every edge has a positive probability:
    MECs, prob0/prob1 and the attractor rows of policy iteration read an edge
    as support. Bit k of ``accmask[i]`` is set when node i lies in accepting
    set k of ``num_sets``; given sets become masks, ``accepting_sets`` a view.
    """

    def __init__(self, states: list[int], initial: int, accepting_sets=()):
        self.states, self.initial, self.num_sets = states, initial, len(accepting_sets)
        self.accmask = [sum(1 << k for k, acc in enumerate(accepting_sets) if i in acc)
                        for i in range(len(states))]
        self.actions: list[tuple[str, ...]] = []
        self.first_row, self.first_edge = array("q", [0]), array("q", [0])
        self.succ, self.prob = array("i"), array("d")

    def num_states(self) -> int:
        return len(self.states)

    def rows(self, i: int) -> range:
        return range(self.first_row[i], self.first_row[i + 1])

    def pairs(self, r: int):
        first, stop = self.first_edge[r], self.first_edge[r + 1]
        return zip(self.succ[first:stop], self.prob[first:stop])

    @cached_property
    def successors(self) -> tuple[dict[str, tuple[tuple[int, float], ...]], ...]:
        """Node i's ``{action: ((j, p), ...)}`` dict at [i], built on first read."""
        return tuple({a: tuple(self.pairs(r)) for a, r in zip(self.actions[i], self.rows(i))}
                     for i in range(self.num_states()))

    @cached_property
    def accepting_sets(self) -> tuple[frozenset[int], ...]:
        """The node indices of each accepting set, built on first read."""
        return tuple(frozenset(i for i, mask in enumerate(self.accmask) if mask >> k & 1)
                     for k in range(self.num_sets))


def check_state_slots(env, spec: LdbaSpec, state_cap: int = DEFAULT_STATE_CAP) -> None:
    """Raise ProductSizeError when env x spec has more state slots than state_cap
    or, whatever state_cap says, than MAX_STATE_SLOTS."""
    slots = env.height * env.width * (len(spec.states) + 1)
    cap = min(state_cap, MAX_STATE_SLOTS)
    if slots > cap:
        raise ProductSizeError(f"product needs {slots} state slots, above the cap of {cap}")


def build_explicit_product(env, spec: LdbaSpec, state_cap: int = DEFAULT_STATE_CAP) -> ExplicitProduct:
    """Compose env x automaton, keeping only states reachable from the start."""
    check_state_slots(env, spec, state_cap)
    kernel = env.enumerate_model()
    product = CompiledProduct(env, spec)
    nq, sink = product.nq, product.nq - 1
    automaton, cell_class = product.automaton, product.cell_class
    states: list[int] = []
    # index[node]: the index of product id node, -1 until first sight; SINK is the last slot
    index = [-1] * (len(cell_class) * nq + 1)

    def visit(cell, q) -> int:
        """Index of the node of product state (cell, q), numbered on first sight."""
        node = SINK if q == sink else cell * nq + q
        if index[node] < 0:
            index[node] = len(states)
            states.append(node)
        return index[node]

    prod = ExplicitProduct(states, visit(*divmod(product.initial, nq)))
    # dest[q][j]: the product id (or SINK) a base move into cell j leads to from q
    dest = [None] * nq
    # pending edges and row ends, handed to the arrays by fromlist every few thousand edges
    targets, probs, ends, base = [], [], [], 0
    # Nodes are appended as first seen, so this expands every node once, in
    # breadth-first order. The base rows' loop is visit written out per edge.
    for i, node in enumerate(states):
        cell, q = divmod(node, nq)
        names = product.actions[q]
        prod.actions.append(names)
        if q == sink:
            ends += range(base + len(targets) + 1, base + len(targets) + len(names) + 1)
            targets += [i] * len(names)
            probs += [1.0] * len(names)
        else:
            after = automaton.delta[q]
            to = dest[q]
            if to is None:
                to = dest[q] = [SINK if t == sink else j * nq + t
                                for j, t in enumerate(map(after.__getitem__, cell_class))]
            for outcomes in kernel[cell].values():  # the base actions, in order
                row, hits = [], 0
                for j_cell, p in outcomes:
                    j_node = to[j_cell]
                    if j_node == SINK:
                        hits += 1
                    j = index[j_node]
                    if j < 0:
                        j = index[j_node] = len(states)
                        states.append(j_node)
                    row.append((j, p))
                if hits > 1:  # distinct cells are distinct nodes, but for the sink
                    j_sink, mass = index[SINK], 0.0
                    for j, p in row:
                        if j == j_sink:
                            mass += p
                    row = [pair for pair in row if pair[0] != j_sink]
                    row.append((j_sink, mass))
                row.sort()
                for j, p in row:
                    targets.append(j)
                    probs.append(p)
                ends.append(base + len(targets))
            for column in automaton.epsilon[q]:
                targets.append(visit(cell, after[column]))
                probs.append(1.0)
                ends.append(base + len(targets))
        prod.first_row.append(len(prod.first_edge) + len(ends) - 1)
        if len(targets) > 4096 or i + 1 == len(states):  # or the last node is expanded
            base += len(targets)
            prod.succ.fromlist(targets)
            prod.prob.fromlist(probs)
            prod.first_edge.fromlist(ends)
            targets, probs, ends = [], [], []

    accmask = automaton.accmask
    prod.accmask, prod.num_sets = [accmask[node % nq] for node in states], len(spec.accepting_sets)
    return prod


# ---------------------------------------------------------------------------
# maximal end components
# ---------------------------------------------------------------------------


def _strongly_connected_components(nodes, successors, number=None) -> list[list[int]]:
    """Iterative Tarjan SCC over nodes; successors(node) must stay among them.

    ``number[v]`` is node v's DFS number while its component is open, and
    ``closed``, above every DFS number, once it is emitted: one comparison then
    tells an open successor, so no on-stack set is kept. number is a list of
    zeros indexed by node id, at least max(nodes) + 1 long, made here when None;
    it is handed back zeroed, so one list serves many calls.
    """
    if number is None:
        number = [0] * (max(nodes, default=-1) + 1)
    closed = len(number) + 1
    stack: list[int] = []
    components: list[list[int]] = []
    frames = []  # (node, successor iterator, low, height) of each open ancestor
    counter = 0
    for root in nodes:
        if number[root]:
            continue
        counter += 1
        number[root] = low = counter
        node, it, height = root, iter(successors(root)), len(stack)
        stack.append(root)
        while True:
            for j in it:
                x = number[j]
                if not x:
                    frames.append((node, it, low, height))
                    counter += 1
                    number[j] = low = counter
                    node, it, height = j, iter(successors(j)), len(stack)
                    stack.append(j)
                    break
                if x < low:
                    low = x
            else:  # node is finished
                if low == number[node]:
                    comp = stack[height:]
                    del stack[height:]
                    for v in comp:
                        number[v] = closed
                    components.append(comp)
                if not frames:
                    break
                child_low = low
                node, it, low, height = frames.pop()
                if child_low < low:
                    low = child_low
    for v in nodes:
        number[v] = 0
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
    succ, first_edge, first_row, actions = prod.succ, prod.first_edge, prod.first_row, prod.actions
    # cut[i]: the rows node i keeps once it has lost one; a dropped row leaves every
    # sub-candidate too, so one map serves all candidates. A node absent keeps all.
    cut: dict[int, list[int]] = {}
    number = [0] * prod.num_states()  # scratch of every SCC search
    mecs: list[Mec] = []
    # an absorbing node z (every row loops on z) never leads back, so no end component
    # holds another node's row into z: such rows are cut before the first search
    absorbing = {z for z, (a, b) in enumerate(pairwise(map(first_edge.__getitem__, first_row)))
                 if a < b and succ[a] == z and succ[a:b].count(z) == b - a}
    spans = pairwise(map(first_edge.__getitem__, first_row)) if absorbing else ()
    for i, (a, b) in enumerate(spans):  # (a, b): node i's edges
        if not absorbing.isdisjoint(succ[a:b]) and i not in absorbing:
            cut[i] = [r for r in prod.rows(i)
                      if absorbing.isdisjoint(succ[first_edge[r]:first_edge[r + 1]])]

    def successors(i):
        rows = cut.get(i)
        if rows is None:
            return succ[first_edge[first_row[i]]:first_edge[first_row[i + 1]]]
        if rows and rows[-1] - rows[0] < len(rows):  # adjacent rows: one slice
            return succ[first_edge[rows[0]]:first_edge[rows[-1] + 1]]
        return chain.from_iterable(succ[first_edge[r]:first_edge[r + 1]] for r in rows)

    # every candidate is a node list that one SCC search split off: while it
    # loses no row, it is strongly connected under the rows it keeps
    candidates = _strongly_connected_components(range(prod.num_states()), successors, number)
    if len(candidates) == 1:  # no row leaves the whole product
        return [Mec(frozenset(range(prod.num_states())), dict(enumerate(actions)))]
    while candidates:
        nodes = candidates.pop()
        cand, gone, lost = set(nodes), [], False  # gone: nodes left without rows, a worklist
        for i in nodes:
            rows = cut.get(i, range(first_row[i], first_row[i + 1]))
            if not rows:  # every row entered an absorbing node: i is a candidate alone
                gone.append(i)
            # the span also covers rows dropped between: if it stays inside, all rows do
            elif not cand.issuperset(succ[first_edge[rows[0]]:first_edge[rows[-1] + 1]]):
                kept = [r for r in rows if cand.issuperset(succ[first_edge[r]:first_edge[r + 1]])]
                if len(kept) < len(rows):
                    cut[i], lost = kept, True
                    if not kept:
                        gone.append(i)
        if len(gone) == len(nodes):
            continue
        if gone:
            into = {}  # into[j]: the kept (node, row) pairs with an edge into j
            for i in nodes:
                for r in cut.get(i, prod.rows(i)):
                    for j in succ[first_edge[r]:first_edge[r + 1]]:
                        into.setdefault(j, []).append((i, r))
            for x in gone:  # grows while it is read: every row into x goes
                for i, r in into.get(x, ()):
                    rows = cut.setdefault(i, list(prod.rows(i)))
                    if r in rows:
                        rows.remove(r)
                        if not rows:
                            gone.append(i)
            nodes = [i for i in nodes if cut.get(i) != []]
        # one node left keeps only its self-loops: one component
        if lost and len(nodes) > 1:
            comps = _strongly_connected_components(nodes, successors, number)
            if len(comps) > 1:
                candidates += comps
                continue
        if nodes:
            mecs.append(Mec(frozenset(nodes), {
                i: actions[i] if i not in cut
                else tuple(actions[i][r - first_row[i]] for r in cut[i])
                for i in nodes}))
    # Deterministic order: by smallest member state index.
    mecs.sort(key=lambda m: min(m.states))
    return mecs


# ---------------------------------------------------------------------------
# maximal reachability
# ---------------------------------------------------------------------------


def _predecessor_index(prod: ExplicitProduct, target) -> tuple[list[list[int]], list[int]]:
    """Rows of non-target nodes by successor: pre[j] lists the rows r into j, owner[r] owns r.

    Rows are the product's own row ids; owner is filled only at the rows pre lists.
    """
    pre: list[list[int]] = [[] for _ in range(prod.num_states())]
    first_row, first_edge, succ = prod.first_row, prod.first_edge, prod.succ
    owner = [0] * (len(first_edge) - 1)
    for i in range(len(pre)):
        if i not in target:
            rows = range(first_row[i], first_row[i + 1])
            owner[rows.start:rows.stop] = repeat(i, len(rows))
            for r in rows:
                for j in succ[first_edge[r]:first_edge[r + 1]]:
                    pre[j].append(r)
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
    sweeps: int  # warm Gauss-Seidel sweeps, summed over components
    iterations: int = 0  # policy iterations, each one chain solve, summed over components
    components: int = 0  # strongly connected components of the undecided states


def _attractor_rows(index, sure: set[int], n: int) -> list[int]:
    """attract[i]: a row of undecided node i with an edge one backward-BFS layer nearer sure."""
    pre, owner = index
    attract = [-1] * n
    queue = sorted(sure)
    for j in queue:  # grows while it is read: a breadth-first search
        for r in pre[j]:
            i = owner[r]
            if attract[i] < 0 and i not in sure:
                attract[i] = r
                queue.append(i)
    return attract


def _solve_chain(out: list[dict[int, float]], leave: list[float],
                 gain: list[float]) -> list[float]:
    """Reach probabilities x = gain + P x of a chain that leaves from every state.

    out[k] maps each other state m to P(k, m); leave[k] is the probability of
    leaving the chain from k, and gain[k] what that is worth: sum p * value.
    Self-loops are left out: the pivot 1 - P(k, k) is leave[k] plus k's out
    row, summed, as in the GTH elimination (Grassmann, Taksar & Heyman, 1985),
    so no difference of near-equal numbers is taken. States are eliminated
    lowest degree first (minimum degree, moves in plus moves out, kept
    lazily); out, leave and gain are consumed.
    """
    n = len(out)
    into: list[set[int]] = [set() for _ in range(n)]  # into[m]: the states with a move to m
    for k, row in enumerate(out):
        for m in row:
            into[m].add(k)
    # one entry per state; its degree is read again when popped, and pushed back if it grew
    heap = [(len(into[k]) + len(row), k) for k, row in enumerate(out)]
    heapify(heap)
    order = []  # (k, g, row) of each eliminated state, g and row scaled by its pivot
    while heap:
        degree, k = heappop(heap)
        row, before = out[k], into[k]
        if degree < len(before) + len(row):
            heappush(heap, (len(before) + len(row), k))
            continue
        pivot = leave[k]
        for p in row.values():
            pivot += p
        for m, p in row.items():
            row[m] = p / pivot
            into[m].discard(k)
        g, e = gain[k] / pivot, leave[k] / pivot
        for i in before:  # route i's move to k through k's row
            ri = out[i]
            f = ri.pop(k)
            gain[i] += f * g
            leave[i] += f * e
            for m, p in row.items():
                if m == i:  # a new self-loop of i: its pivot leaves it out
                    continue
                if m in ri:
                    ri[m] += f * p
                else:
                    ri[m] = f * p
                    into[m].add(i)
        order.append((k, g, row))
        out[k] = into[k] = None
    x = [0.0] * n
    for k, g, row in reversed(order):
        for m, p in row.items():
            g += p * x[m]
        x[k] = g
    return x


def _component_rows(prod: ExplicitProduct, where: dict[int, int], never: set[int],
                    attract: list[int]) -> tuple[list[tuple], list[int]]:
    """The row table of the component where[node] = k, and each state's attractor row index.

    Entry k is (k, node, block, more): block is the node's first four rows of
    at most four terms as 32 flat (j, p) slots, each row padded with (0, 0.0)
    to four terms and a missing row all pads; longer and further rows are
    (j, p) tuples in more, indexed from 4. A row into never alone is worth
    0.0 and is left out.
    """
    first_edge, succ, prob = prod.first_edge, prod.succ, prod.prob
    ids, floats = list(range(prod.num_states())), {}  # shared ints and floats: a small table
    work, first = [], []
    for k, i in enumerate(where):
        block, more = [], []
        for r in prod.rows(i):
            a, b = first_edge[r], first_edge[r + 1]
            js, ps = succ[a:b], prob[a:b]
            if never.issuperset(js):
                continue
            long = b - a > 4 or len(block) == 32
            if r == attract[i]:
                first.append(4 + len(more) if long else len(block) // 8)
            terms = zip(map(ids.__getitem__, js), map(floats.setdefault, ps, ps))
            if long:
                more.append(tuple(terms))
            else:
                block += chain.from_iterable(terms)
                block += (0, 0.0) * (4 - b + a)
        block += (0, 0.0) * (16 - len(block) // 2)
        work.append((k, i, tuple(block), tuple(more)))
    return work, first


def _sweep(work: list[tuple], values: list[float], choice: list[int] | None = None,
           bar: float = 0.0) -> list[int]:
    """One Gauss-Seidel sweep over every state of a row table, in order.

    A state's first best row counts only if worth more than its value times
    bar. Without choice its worth is written to values; with choice the
    sweep is an improvement pass: values stay, the state switches to that
    row, and the return lists the positions k of the states that did.

    A state's first four rows are four fixed expressions over its padded
    block, bit for bit the term-by-term loop kept for the rows in more:
    Python sums left to right and never fuses a multiply with an add, the
    loop's 0.0 + x equals x for every x >= +0.0, and a pad, like a left-out
    successor that cannot reach the target, adds exactly +0.0, since values
    are finite and non-negative.
    """
    switched = []
    for (k, i, (j0, p0, j1, p1, j2, p2, j3, p3, j4, p4, j5, p5, j6, p6, j7, p7,
                j8, p8, j9, p9, j10, p10, j11, p11, j12, p12, j13, p13, j14, p14, j15, p15),
         more) in work:
        best, b = values[i] * bar, -1
        acc = p0 * values[j0] + p1 * values[j1] + p2 * values[j2] + p3 * values[j3]
        if acc > best:
            best, b = acc, 0
        acc = p4 * values[j4] + p5 * values[j5] + p6 * values[j6] + p7 * values[j7]
        if acc > best:
            best, b = acc, 1
        acc = p8 * values[j8] + p9 * values[j9] + p10 * values[j10] + p11 * values[j11]
        if acc > best:
            best, b = acc, 2
        acc = p12 * values[j12] + p13 * values[j13] + p14 * values[j14] + p15 * values[j15]
        if acc > best:
            best, b = acc, 3
        if more:  # grid products rarely have any
            for m, row in enumerate(more, 4):
                acc = 0.0
                for j, p in row:
                    acc += p * values[j]
                if acc > best:
                    best, b = acc, m
        if b < 0:
            continue
        if choice is not None:
            choice[k] = b
            switched.append(k)
        else:
            values[i] = best
    return switched


def _chain_row(entry: tuple, b: int, where: dict[int, int], values: list[float]):
    """A state's out, leave and gain in _solve_chain for row b; values outside are constants."""
    k, _, block, more = entry
    moves, e, g = {}, 0.0, 0.0
    for j, p in zip(block[8 * b:8 * b + 8:2], block[8 * b + 1:8 * b + 8:2]) if b < 4 \
            else more[b - 4]:
        m = where.get(j)
        if m is None:  # a pad adds exactly +0.0
            e += p
            g += p * values[j]
        elif m != k and p:
            moves[m] = moves.get(m, 0.0) + p
    return moves, e, g


def _policy_iteration(work: list[tuple], where: dict[int, int], values: list[float],
                      attract: list[int]) -> int:
    """Improve the greedy policy of one component until no row beats its state by PI_GAIN.

    Writes the chain value of the final policy into values and returns the
    number of chain solves. A state whose greedy chain cannot leave the
    component takes its attractor row. From then on a state switches only
    to a row strictly better than its value, and every chain still leaves: on
    a recurrent class R inside the component, the new rows would be worth
    at least the old values, more at a switched state, yet exactly the old
    values on average over R's stationary distribution; so R holds no switched
    state, and the old chain, which left, could not have been closed on R.
    The chain is assembled once; a state that switches rebuilds its own entry.
    """
    choice = [0 if block[1] else 4 for _, _, block, _ in work]  # the first real row
    _sweep(work, values, choice)  # greedy for the warm values
    out, leave, gain = map(list, zip(*[_chain_row(entry, b, where, values)
                                       for entry, b in zip(work, choice)]))
    into: list[list[int]] = [[] for _ in out]  # into[m]: the states whose chain moves to m
    for k, row in enumerate(out):
        for m in row:
            into[m].append(k)
    leaves = [e > 0.0 for e in leave]  # leaves[k]: k's chain can leave the component
    queue = [k for k, flag in enumerate(leaves) if flag]
    for m in queue:  # grows while it is read: a breadth-first search backward
        for k in into[m]:
            if not leaves[k]:
                leaves[k] = True
                queue.append(k)
    switched = [k for k, flag in enumerate(leaves) if not flag]  # to attractor rows
    for k in switched:
        choice[k] = attract[k]
    for iterations in count(1):
        if iterations > MAX_ITERATIONS:
            raise RuntimeError("policy iteration did not converge within the iteration "
                               "guard; this signals a modeling bug")
        for k in switched:  # only a state that switched rows has a new chain entry
            out[k], leave[k], gain[k] = _chain_row(work[k], choice[k], where, values)
        # _solve_chain consumes its input, so it solves a copy
        for (_, i, *_), v in zip(work, _solve_chain(list(map(dict, out)), leave[:], gain[:])):
            values[i] = v
        switched = _sweep(work, values, choice, 1.0 + PI_GAIN)
        if not switched:
            return iterations


def max_sat_probability(prod: ExplicitProduct) -> OracleResult:
    """Maximal probability of satisfying the Buchi condition from each state."""
    mecs = mec_decompose(prod)
    accmask, full = prod.accmask, (1 << prod.num_sets) - 1  # accepting: the OR covers full
    target = frozenset().union(*(
        m.states for m in mecs if reduce(or_, map(accmask.__getitem__, m.states), 0) == full))

    n = prod.num_states()
    values = [0.0] * n
    if not target:
        return OracleResult(values, 0.0, target, mecs, 0)

    index = _predecessor_index(prod, target)
    sure = _prob1_max(prod, target, index)
    never = _prob0_max(prod, target, index)
    for i in sure:
        values[i] = 1.0
    undecided = [i for i in range(n) if i not in sure and i not in never]

    attract = _attractor_rows(index, sure, n) if undecided else None
    del index  # its last reader is done; held on, it would raise the peak

    sweeps = iterations = 0
    components = []
    if undecided:
        first_row, first_edge, succ = prod.first_row, prod.first_edge, prod.succ
        inside = set(undecided)
        # emitted downstream first: a component reads only those emitted before it
        components = _strongly_connected_components(undecided, lambda i: [
            j for j in succ[first_edge[first_row[i]]:first_edge[first_row[i + 1]]] if j in inside])
    for comp in components:
        comp.sort()
        if len(comp) == 1:  # one chain step per row: gain over pivot, summed in row order
            i = comp[0]
            for r in prod.rows(i):
                g = e = 0.0
                for j, p in prod.pairs(r):
                    if j != i:
                        g += p * values[j]
                        e += p
                if e and g / e > values[i]:
                    values[i] = g / e
            continue
        where = {i: k for k, i in enumerate(comp)}  # a node's position in the component
        work, first = _component_rows(prod, where, never, attract)
        for _ in range(WARM_SWEEPS):
            _sweep(work, values)
        sweeps += WARM_SWEEPS
        iterations += _policy_iteration(work, where, values, first)

    return OracleResult(values, values[prod.initial], target, mecs, sweeps,
                        iterations, len(components))
