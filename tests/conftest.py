"""Shared generators for the test suite.

All randomness is drawn from seeded random.Random instances, and the
hypothesis tests run derandomized (a fixed example sequence, no example
database), so every test run is reproducible; no test depends on
wall-clock or ordering.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import settings

from ldba_synth import GridEnv, LabelRegion, LdbaSpec, learner, parse_ldba_spec
from ldba_synth.automaton import LdbaRuntime
from ldba_synth.envs import ACTION_DELTAS, PERPENDICULAR, parse_env_spec
from ldba_synth.oracle import ExplicitProduct
from ldba_synth.product import SINK, CompiledProduct, ProductRun


settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# random automata
# ---------------------------------------------------------------------------

LABEL_POOL = ("a", "b", "c", "d")


def random_automaton_document(rng: random.Random, max_states: int = 4,
                              sink_prob: float = 0.3,
                              epsilon_prob: float = 0.25,
                              n_accepting_sets: int | None = None) -> dict:
    """A random valid automaton document over LABEL_POOL."""
    n = rng.randint(1, max_states)
    states = list(range(n))
    alphabet = sorted(rng.sample(LABEL_POOL, rng.randint(1, len(LABEL_POOL))))

    transitions = {}
    for q in states:
        rows = []
        for lab in rng.sample(alphabet, rng.randint(0, len(alphabet))):
            guard = lab if rng.random() < 0.7 else f"!{lab}"
            target = -1 if rng.random() < sink_prob else rng.choice(states)
            rows.append({"guard": guard, "to": target})
        rows.append({"guard": "true", "to": rng.choice(states)})
        transitions[str(q)] = rows

    epsilon_transitions = {}
    counter = 0
    for q in states:
        if rng.random() < epsilon_prob:
            entries = []
            for _ in range(rng.randint(1, 2)):
                entries.append({"name": f"epsilon_{counter}",
                                "to": rng.choice(states)})
                counter += 1
            epsilon_transitions[str(q)] = entries

    if n_accepting_sets is None:
        n_accepting_sets = rng.randint(1, 2)
    accepting = []
    for _ in range(n_accepting_sets):
        accepting.append(sorted(rng.sample(states, rng.randint(1, n))))

    doc = {
        "states": states,
        "initial_state": rng.choice(states),
        "alphabet": alphabet,
        "accepting_sets": accepting,
        "transitions": transitions,
    }
    if epsilon_transitions:
        doc["epsilon_transitions"] = epsilon_transitions
    return doc


def random_automaton(rng: random.Random, **kwargs) -> LdbaSpec:
    return parse_ldba_spec(random_automaton_document(rng, **kwargs))


# ---------------------------------------------------------------------------
# random environments
# ---------------------------------------------------------------------------


def random_env(rng: random.Random, max_side: int = 4,
               labels=LABEL_POOL, slips=(0.0, 0.1, 1.0 / 3.0)) -> GridEnv:
    height = rng.randint(2, max_side)
    width = rng.randint(2, max_side)
    actions = (["up", "down", "left", "right", "stay"]
               if rng.random() < 0.5 else ["up", "down", "left", "right"])
    rng.shuffle(actions)
    regions = []
    for _ in range(rng.randint(0, 3)):
        r0 = rng.randrange(height)
        r1 = rng.randint(r0 + 1, height)
        c0 = rng.randrange(width)
        c1 = rng.randint(c0 + 1, width)
        labs = frozenset(rng.sample(labels, rng.randint(1, 2)))
        regions.append(LabelRegion((r0, r1), (c0, c1), labs))
    return GridEnv(
        height=height,
        width=width,
        actions=actions,
        slip_probability=rng.choice(slips),
        initial_state=(rng.randrange(height), rng.randrange(width)),
        label_regions=regions,
    )


def landing(env: GridEnv, cell, direction) -> int:
    """The row-major id of the cell a move in direction leads to from cell,
    which it stays in at a wall."""
    (r, c), (dr, dc) = cell, ACTION_DELTAS[direction]
    if 0 <= r + dr < env.height and 0 <= c + dc < env.width:
        r, c = r + dr, c + dc
    return r * env.width + c


def reference_kernel(env: GridEnv) -> list[dict[str, tuple[tuple[int, float], ...]]]:
    """env.enumerate_model() the long way: each outcome of a move, clamped at the
    walls, is added into one dict per move in the order intended move, the two
    perpendicular slips, staying put; 'stay' and a slip of 0 have one outcome, and
    a cell of mass 0.0 (the intended one at slip 1, unless a slip lands there too)
    is no outcome."""
    slip = env.slip_probability
    kernel = []
    for r in range(env.height):
        for c in range(env.width):
            row = {}
            for action in env.actions:
                outcomes = [(action, 1.0)]
                if slip > 0.0 and PERPENDICULAR[action]:
                    outcomes = [(action, 1.0 - slip)] + [
                        (direction, slip / 3.0) for direction in PERPENDICULAR[action] + ("stay",)]
                mass: dict[int, float] = {}
                for direction, p in outcomes:
                    j = landing(env, (r, c), direction)
                    mass[j] = mass.get(j, 0.0) + p
                row[action] = tuple(sorted((j, p) for j, p in mass.items() if p))
            kernel.append(row)
    return kernel


def gated_lake(size: int = 8, slip: float = 0.45) -> GridEnv:
    """Slippery lake whose two goals are walled off by pits behind one gate each."""
    n = size
    pits = {(n - 3, 0), (n - 3, 2), (n - 2, 2), (n - 1, 2),
            (0, n - 3), (2, n - 3), (2, n - 2), (2, n - 1), (n // 2, n // 2)}
    regions = [LabelRegion((r, r + 1), (c, c + 1), frozenset({"unsafe"}))
               for r, c in sorted(pits)]
    regions.append(LabelRegion((n - 2, n), (0, 2), frozenset({"goal1"})))
    regions.append(LabelRegion((0, 2), (n - 2, n), frozenset({"goal2"})))
    return GridEnv(height=n, width=n, actions=["down", "right", "up", "left"],
                   slip_probability=slip, initial_state=(0, 0),
                   label_regions=regions)


def load_hazard_lake(seed: int) -> GridEnv:
    """The benchmark's seeded hazard lake, from perfbench/hazard.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "hazard.py"
    module_spec = importlib.util.spec_from_file_location("hazard", path)
    hazard = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(hazard)
    return parse_env_spec(hazard.hazard_lake(seed))


# ---------------------------------------------------------------------------
# hand-built corridors and automata
# ---------------------------------------------------------------------------


def corridor_env(labels_by_col, width=4, slip=0.0):
    """A 1 x width corridor; labels_by_col maps column -> label set."""
    regions = [LabelRegion((0, 1), (c, c + 1), frozenset(labs))
               for c, labs in labels_by_col.items()]
    return GridEnv(height=1, width=width,
                   actions=["right", "left", "up", "down"],
                   slip_probability=slip, initial_state=(0, 0),
                   label_regions=regions)


def chain_spec():
    """Visit an a-cell, then a b-cell; the b-state is an endlessly firing accepting loop."""
    return parse_ldba_spec({
        "states": [0, 1, 2],
        "initial_state": 0,
        "alphabet": ["a", "b"],
        "accepting_sets": [[2]],
        "transitions": {
            "0": [{"guard": "a", "to": 1}, {"guard": "true", "to": 0}],
            "1": [{"guard": "b", "to": 2}, {"guard": "true", "to": 1}],
            "2": [{"guard": "true", "to": 2}],
        },
    })


def hazard_spec():
    """Stepping on 'bad' drops the run into the sink."""
    return parse_ldba_spec({
        "states": [0],
        "initial_state": 0,
        "alphabet": ["bad"],
        "accepting_sets": [[0]],
        "transitions": {
            "0": [{"guard": "bad", "to": -1}, {"guard": "true", "to": 0}],
        },
    })


def remaining(runtime: LdbaRuntime) -> list[frozenset[int]]:
    """The accepting sets still in runtime's frontier, in declaration order."""
    return [acc for i, acc in enumerate(runtime.spec.accepting_sets)
            if runtime.frontier >> i & 1]


# ---------------------------------------------------------------------------
# what training pays
# ---------------------------------------------------------------------------


def record_training_steps(patch):
    """Wrap ProductRun.step and learner.q_update through patch (a MonkeyPatch).

    Returns two lists that grow as training runs: the (state, action,
    (next_state, fired, done)) of every step, state being the run's state
    before it, and the (state, action, reward, gamma, next_state) each
    update was fed.
    """
    steps, updates = [], []

    def step(run, action, _fn=ProductRun.step):
        state = run.state
        result = _fn(run, action)
        steps.append((state, action, result))
        return result

    def q_update(qtable, state, action, reward, gamma, next_state, mu, _fn=learner.q_update):
        updates.append((state, action, reward, gamma, next_state))
        return _fn(qtable, state, action, reward, gamma, next_state, mu)

    patch.setattr(ProductRun, "step", step)
    patch.setattr(learner, "q_update", q_update)
    return steps, updates


def assert_frontier_payoffs(steps, updates, hp) -> None:
    """One update per step, paying (r, eta) exactly when the step fired, (0, 0)
    on a step into the sink and (0, 1) otherwise."""
    assert len(steps) == len(updates)
    fired = hp.frontier_reward(), hp.discount_factor
    for step, (state, action, reward, gamma, next_state) in zip(steps, updates):
        step_state, step_action, (step_next, step_fired, step_done) = step
        assert (state, action, next_state) == (step_state, step_action, step_next)
        expected = fired if step_fired else (0.0, 0.0) if step_done else (0.0, 1.0)
        assert (reward, gamma) == expected, (step, reward, gamma)


# ---------------------------------------------------------------------------
# random explicit products (for the oracle)
# ---------------------------------------------------------------------------


def product_from_successors(states, initial, successors, accepting_sets) -> ExplicitProduct:
    """A product from one ``{action: ((j, p), ...)}`` dict per node; a p of 0.0 is no edge."""
    prod = ExplicitProduct(states, initial, accepting_sets)
    for row in successors:
        for pairs in row.values():
            for j, p in pairs:
                if p:
                    prod.succ.append(j)
                    prod.prob.append(p)
            prod.first_edge.append(len(prod.succ))
        prod.actions.append(tuple(row))
        prod.first_row.append(len(prod.first_edge) - 1)
    return prod


def reference_build(env, spec) -> ExplicitProduct:
    """build_explicit_product written per edge: each node's (j, p) pairs are zipped
    apart and written with one extend per array. The same numbering, rows and arrays."""
    kernel = env.enumerate_model()
    product = CompiledProduct(env, spec)
    nq, sink = product.nq, product.nq - 1
    automaton, cell_class = product.automaton, product.cell_class
    states: list[int] = []
    index = [-1] * (len(cell_class) * nq + 1)

    def visit(cell, q) -> int:
        node = SINK if q == sink else cell * nq + q
        if index[node] < 0:
            index[node] = len(states)
            states.append(node)
        return index[node]

    prod = ExplicitProduct(states, visit(*divmod(product.initial, nq)))
    succ, prob, first_edge = prod.succ, prod.prob, prod.first_edge
    for i, node in enumerate(states):
        cell, q = divmod(node, nq)
        names = product.actions[q]
        prod.actions.append(names)
        if q == sink:
            edges = [(i, 1.0)] * len(names)
            ends = range(len(succ) + 1, len(succ) + len(names) + 1)
        else:
            edges, ends = [], []
            after = automaton.delta[q]
            for outcomes in kernel[cell].values():
                row, hits = [], 0
                for j_cell, p in outcomes:
                    t = after[cell_class[j_cell]]
                    if t == sink:
                        hits += 1
                        j_node = SINK
                    else:
                        j_node = j_cell * nq + t
                    j = index[j_node]
                    if j < 0:
                        j = index[j_node] = len(states)
                        states.append(j_node)
                    row.append((j, p))
                if hits > 1:  # several cells fall into the sink: one edge, masses summed
                    j_sink, mass = index[SINK], 0.0
                    for j, p in row:
                        if j == j_sink:
                            mass += p
                    row = [pair for pair in row if pair[0] != j_sink]
                    row.append((j_sink, mass))
                row.sort()
                edges += row
                ends.append(len(succ) + len(edges))
            for column in automaton.epsilon[q]:
                edges.append((visit(cell, after[column]), 1.0))
                ends.append(len(succ) + len(edges))
        targets, probs = zip(*edges)
        succ.extend(targets)
        prob.extend(probs)
        first_edge.extend(ends)
        prod.first_row.append(len(first_edge) - 1)
    prod.accmask = [automaton.accmask[node % nq] for node in states]
    prod.num_sets = len(spec.accepting_sets)
    return prod


def random_explicit_product(rng: random.Random, max_states: int = 10,
                            max_actions: int = 2,
                            n_accepting_sets: int = 1,
                            max_support: int = 3) -> ExplicitProduct:
    """A random small MDP in ExplicitProduct form.

    States carry synthetic ids 0..n-1; what the oracle consumes is the
    graph structure, not the naming. Every row's mass sums to 1 over at
    most max_support successors.
    """
    n = rng.randint(2, max_states)
    successors = []
    for _ in range(n):
        row = {}
        for a in (f"a{k}" for k in range(rng.randint(1, max_actions))):
            support = rng.sample(range(n), rng.randint(1, min(max_support, n)))
            weights = [rng.random() + 0.05 for _ in support]
            total = sum(weights)
            row[a] = tuple(sorted((j, w / total) for j, w in zip(support, weights)))
        successors.append(row)
    accepting = tuple(
        frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
        for _ in range(n_accepting_sets)
    )
    return product_from_successors(list(range(n)), rng.randrange(n), successors, accepting)


# ---------------------------------------------------------------------------
# independent reference routes
# ---------------------------------------------------------------------------


def brute_force_value(prod: ExplicitProduct) -> float:
    """Best satisfaction probability over every deterministic memoryless policy.

    Independent of the oracle's pipeline: the induced chain of each policy
    is analyzed with networkx SCCs (accepting bottom components) and a
    numpy linear solve for the transient reach probabilities. Sound as a
    reference when a single accepting set is in play; with several sets a
    memoryless policy cannot alternate between them, so this enumeration
    is only a lower bound there.
    """
    n = prod.num_states()
    choices = []
    for i in range(n):
        rows = []
        for succ in prod.successors[i].values():
            mass: dict[int, float] = {}
            for j, p in succ:
                mass[j] = mass.get(j, 0.0) + p
            rows.append(tuple(sorted(mass.items())))
        choices.append(rows)

    best = 0.0
    for support in itertools.product(*choices):
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i in range(n):
            g.add_edges_from((i, j) for j, _ in support[i])
        value = np.full(n, np.nan)
        for comp in nx.strongly_connected_components(g):
            comp = set(comp)
            bottom = all(j in comp for i in comp for j, _ in support[i])
            if not bottom:
                continue
            accepting = all(comp & set(acc) for acc in prod.accepting_sets)
            for i in comp:
                value[i] = 1.0 if accepting else 0.0
        transient = [i for i in range(n) if np.isnan(value[i])]
        if transient:
            pos = {i: k for k, i in enumerate(transient)}
            A = np.eye(len(transient))
            b = np.zeros(len(transient))
            for i in transient:
                for j, p in support[i]:
                    if j in pos:
                        A[pos[i], pos[j]] -= p
                    else:
                        b[pos[i]] += p * value[j]
            x = np.linalg.solve(A, b)
            for i in transient:
                value[i] = x[pos[i]]
        best = max(best, float(value[prod.initial]))
    return best


def greedy_product_policy(prod: ExplicitProduct, values) -> dict[int, str]:
    """Value-greedy memoryless policy (lowest-index tie-break) for rollouts."""
    policy: dict[int, str] = {}
    for i in range(prod.num_states()):
        best_a, best_v = None, -1.0
        for a, succ in prod.successors[i].items():
            acc = 0.0
            for j, p in succ:
                acc += p * values[j]
            if acc > best_v + 1e-15:
                best_a, best_v = a, acc
        policy[i] = best_a
    return policy


def product_rollout_sweeps(prod: ExplicitProduct, policy: dict[int, str],
                           spec: LdbaSpec, rng: random.Random,
                           steps: int) -> int:
    """Simulate a memoryless policy on an explicit product, counting sweeps.

    The frontier bookkeeping mirrors the synchronizer: the automaton
    index of the successor's product id is fed to advance_frontier after
    every step.
    """
    runtime = LdbaRuntime(spec)
    nq = len(spec.compiled.states)
    i = prod.initial
    for _ in range(steps):
        successors = prod.successors[i][policy[i]]
        draw = rng.random()
        acc = 0.0
        i = successors[-1][0]
        for j, p in successors:
            acc += p
            if draw < acc:
                i = j
                break
        runtime.advance_frontier(prod.states[i] % nq)
    return runtime.sweeps_completed


@pytest.fixture
def rng():
    return make_rng(20240817)
