"""Explicit product construction, MEC decomposition, exact reachability."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from ldba_synth import oracle
from ldba_synth.automaton import SINK_STATE, load_ldba_file, parse_ldba_spec
from ldba_synth.envs import (GridEnv, LabelRegion, bundled_data_dir, load_env_file,
                             parse_env_spec, resolve_spec_path)
from ldba_synth.oracle import (
    DEFAULT_STATE_CAP,
    MAX_STATE_SLOTS,
    WARM_SWEEPS,
    ExplicitProduct,
    ProductSizeError,
    _predecessor_index,
    _prob0_max,
    _prob1_max,
    _solve_chain,
    _strongly_connected_components,
    build_explicit_product,
    check_state_slots,
    max_sat_probability,
    mec_decompose,
)
from ldba_synth.product import SINK, SINK_CELL, CompiledProduct

from conftest import (
    brute_force_value,
    chain_spec,
    corridor_env,
    gated_lake,
    greedy_product_policy,
    load_hazard_lake,
    make_rng,
    product_from_successors,
    product_rollout_sweeps,
    random_automaton,
    random_env,
    random_explicit_product,
    reference_build,
)


def hand_mdp() -> ExplicitProduct:
    """Two absorbing fates; the initial state picks 0.3 or 0.4 toward success."""
    return product_from_successors(
        states=[0, 1, 2],
        initial=0,
        successors=[
            {"a": ((1, 0.3), (2, 0.7)), "b": ((1, 0.4), (2, 0.6))},
            {"a": ((1, 1.0),)},
            {"a": ((2, 1.0),)},
        ],
        accepting_sets=(frozenset({1}),),
    )


def alternation_mdp() -> ExplicitProduct:
    """One end component whose two accepting sets sit on opposite branches."""
    return product_from_successors(
        states=[0, 1, 2],
        initial=0,
        successors=[
            {"go_l": ((1, 1.0),), "go_r": ((2, 1.0),)},
            {"back": ((0, 1.0),)},
            {"back": ((0, 1.0),)},
        ],
        accepting_sets=(frozenset({1}), frozenset({2})),
    )


# ---------------------------------------------------------------------------
# explicit product construction
# ---------------------------------------------------------------------------


def test_product_keeps_only_reachable_states():
    env = corridor_env({})                       # no labels: the chain never advances
    spec = chain_spec()
    prod = build_explicit_product(env, spec)
    product = CompiledProduct(env, spec)
    assert sorted(map(product.decode, prod.states)) == [((0, c), 0) for c in range(4)]
    assert product.decode(prod.states[prod.initial]) == ((0, 0), 0)
    assert all(acc == frozenset() for acc in prod.accepting_sets)


def test_product_initial_node_and_index_are_consistent():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    spec = chain_spec()
    prod = build_explicit_product(env, spec)
    assert prod.states[prod.initial] == CompiledProduct(env, spec).encode((0, 0), 0)
    assert len(set(prod.states)) == prod.num_states()    # one node per product id


def test_product_accepting_sets_project_automaton_states():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    spec = chain_spec()
    prod = build_explicit_product(env, spec)
    decode = CompiledProduct(env, spec).decode
    (accepting,) = prod.accepting_sets
    assert accepting == frozenset(
        i for i, node in enumerate(prod.states) if decode(node)[1] == 2)
    assert accepting                              # q=2 is reachable here


def test_product_collapses_every_sink_slot_into_one_node():
    spec = parse_ldba_spec({
        "states": [0],
        "initial_state": 0,
        "alphabet": ["safe"],
        "accepting_sets": [[0]],
        "transitions": {
            "0": [{"guard": "safe", "to": 0}, {"guard": "true", "to": -1}],
        },
    })
    env = GridEnv(height=3, width=3, actions=["right", "left", "up", "down"],
                  slip_probability=0.2, initial_state=(1, 1),
                  label_regions=[LabelRegion((1, 2), (1, 2), frozenset({"safe"}))])
    prod = build_explicit_product(env, spec)
    decode = CompiledProduct(env, spec).decode
    sinks = [i for i, node in enumerate(prod.states) if decode(node)[1] == SINK_STATE]
    assert len(sinks) == 1
    (sink,) = sinks
    assert prod.states[sink] == SINK
    assert decode(SINK) == (SINK_CELL, SINK_STATE)
    assert tuple(prod.successors[sink]) == env.actions
    for action in env.actions:
        assert prod.successors[sink][action] == ((sink, 1.0),)


def test_product_epsilon_rows_are_deterministic_env_freezes():
    spec = parse_ldba_spec({
        "states": [0, 1],
        "initial_state": 0,
        "alphabet": ["a"],
        "accepting_sets": [[1]],
        "epsilon_transitions": {"0": [{"name": "epsilon_1", "to": 1}]},
        "transitions": {
            "0": [{"guard": "true", "to": 0}],
            "1": [{"guard": "true", "to": 1}],
        },
    })
    env = corridor_env({})
    prod = build_explicit_product(env, spec)
    product = CompiledProduct(env, spec)
    i = prod.states.index(product.encode((0, 0), 0))
    assert tuple(prod.successors[i]) == env.actions + ("epsilon_1",)
    j = prod.states.index(product.encode((0, 0), 1))
    assert prod.successors[i]["epsilon_1"] == ((j, 1.0),)


def test_product_rows_are_distributions_on_random_specs():
    rng = make_rng(41)
    for _ in range(15):
        env = random_env(rng)
        spec = random_automaton(rng)
        prod = build_explicit_product(env, spec)
        n = prod.num_states()
        for i in range(n):
            for mass in prod.successors[i].values():
                assert sum(p for _, p in mass) == pytest.approx(1.0, abs=1e-12)
                assert all(0 <= j < n for j, _ in mass)
        # re-walk the graph: everything interned must be reachable
        seen = {prod.initial}
        frontier = [prod.initial]
        while frontier:
            i = frontier.pop()
            for mass in prod.successors[i].values():
                for j, _ in mass:
                    if j not in seen:
                        seen.add(j)
                        frontier.append(j)
        assert seen == set(range(n))


def test_product_nodes_are_named_by_product_ids():
    gridworld = (load_env_file(resolve_spec_path("gridworld-1", "envs")),
                 load_ldba_file(resolve_spec_path("goal1-or-goal2", "ldba")))
    rng = make_rng(71)
    for env, spec in [gridworld] + [(random_env(rng), random_automaton(rng))
                                    for _ in range(10)]:
        prod = build_explicit_product(env, spec)
        product = CompiledProduct(env, spec)
        assert product.decode(prod.states[prod.initial]) == (env.initial_state,
                                                             spec.initial_state)
        # a node's actions are its product id's, in order; the sink's too
        for i, node in enumerate(prod.states):
            assert tuple(prod.successors[i]) == product.action_names(node)
    prod = build_explicit_product(*gridworld)
    decode = CompiledProduct(*gridworld).decode
    sinks = [node for node in prod.states if decode(node)[1] == SINK_STATE]
    assert sinks == [SINK]
    assert decode(SINK) == ((-1, -1), -1)


def test_build_matches_the_per_edge_reference_builder():
    # Random grids (walls on every side, slip 0.0 to 1.0) under automata with
    # epsilon moves and many sink transitions, so that some moves send several
    # cells into the sink; the counts check that the corpus covers each case.
    # Two bundled products and some large grids pass the arrays several batches.
    rng = make_rng(131)
    seen = {"slip 0": 0, "slip 1": 0, "epsilon rows": 0, "merged sink rows": 0, "batches": 0}
    cases = [(random_env(rng, max_side=rng.choice([3, 6, 12, 30]),
                         slips=(0.0, 0.1, 1.0 / 3.0, 0.5, 1.0)),
              random_automaton(rng, sink_prob=0.5, epsilon_prob=0.4)) for _ in range(80)]
    for env_name, ldba_name in [("gridworld-1", "goal1-or-goal2"),
                                ("frozen-lake-lrg", "frozen-lake-seq")]:
        cases.append((load_env_file(resolve_spec_path(env_name, "envs")),
                      load_ldba_file(resolve_spec_path(ldba_name, "ldba"))))
    for env, spec in cases:
        prod, ref = build_explicit_product(env, spec), reference_build(env, spec)
        assert (prod.states, prod.initial, prod.actions, prod.first_row, prod.first_edge,
                prod.succ, prod.prob, prod.accmask, prod.num_sets) == (
                    ref.states, ref.initial, ref.actions, ref.first_row, ref.first_edge,
                    ref.succ, ref.prob, ref.accmask, ref.num_sets)
        product = CompiledProduct(env, spec)
        kernel, sink = env.enumerate_model(), product.nq - 1
        seen["slip 0"] += env.slip_probability == 0.0
        seen["slip 1"] += env.slip_probability == 1.0
        seen["epsilon rows"] += any(len(names) > len(env.actions) for names in prod.actions)
        seen["merged sink rows"] += any(
            sum(product.automaton.delta[q][product.cell_class[j]] == sink for j, _ in pairs) > 1
            for cell, q in (divmod(node, product.nq) for node in prod.states if node != SINK)
            for pairs in kernel[cell].values())
        seen["batches"] += len(prod.succ) > 3 * 4096
    assert min(seen.values()) >= 3, seen


def test_from_successors_round_trips_random_products():
    rng = make_rng(53)
    for _ in range(30):
        prod = random_explicit_product(rng, max_states=12, max_actions=3)
        rows = list(prod.successors)
        again = product_from_successors(prod.states, prod.initial, rows, prod.accepting_sets)
        assert list(again.successors) == rows
        assert (again.actions, again.first_row, again.first_edge, again.succ, again.prob) == (
            prod.actions, prod.first_row, prod.first_edge, prod.succ, prod.prob)
        assert len(again.successors) == again.num_states() == len(rows)
        assert again.successors[-1] == rows[-1]
        with pytest.raises(IndexError):
            again.successors[len(rows)]
        with pytest.raises(TypeError):
            again.successors[0] = {}


def test_successor_dicts_are_built_once_and_only_on_demand():
    env = load_env_file(resolve_spec_path("gridworld-1", "envs"))
    spec = load_ldba_file(resolve_spec_path("goal1-or-goal2", "ldba"))
    prod = build_explicit_product(env, spec)
    max_sat_probability(prod)
    assert "successors" not in vars(prod)  # neither the build nor the solve reads them
    assert prod.successors is prod.successors


def test_accepting_sets_view_matches_per_set_frozensets_on_every_bundled_pair():
    # The build keeps one mask per node; the view built from the masks holds, per
    # accepting set, the nodes whose automaton state lies in it.
    data = bundled_data_dir()
    pairs = 0
    for env_path in sorted((data / "envs").glob("*.json")):
        env = load_env_file(env_path)
        for ldba_path in sorted((data / "ldba").glob("*.json")):
            spec = load_ldba_file(ldba_path)
            prod = build_explicit_product(env, spec)
            decode = CompiledProduct(env, spec).decode
            qs = [decode(node)[1] for node in prod.states]
            assert "accepting_sets" not in vars(prod)
            assert prod.accepting_sets == tuple(
                frozenset(i for i, q in enumerate(qs) if q in acc) for acc in spec.accepting_sets)
            assert prod.accepting_sets is prod.accepting_sets
            pairs += 1
    assert pairs >= 130


def test_given_accepting_sets_become_masks():
    prod = alternation_mdp()
    assert (prod.accmask, prod.num_sets) == ([0, 1, 2], 2)
    assert prod.accepting_sets == (frozenset({1}), frozenset({2}))


def test_frozen_lake_lrg_solve_reads_no_accepting_sets_view():
    env = load_env_file(resolve_spec_path("frozen-lake-lrg", "envs"))
    spec = load_ldba_file(resolve_spec_path("frozen-lake-seq", "ldba"))
    prod = build_explicit_product(env, spec)
    assert max_sat_probability(prod).initial_value == 1.0
    assert "accepting_sets" not in vars(prod)


def test_frozen_lake_lrg_build_and_solve_peak_memory_stays_low():
    # tracemalloc peak of build plus solve on frozen-lake-lrg x frozen-lake-seq,
    # Python 3.11.7: 7.31 MiB with one frozenset per accepting set, 64-bit
    # successor ids and a copy of the target; 6.09 MiB with one mask per node,
    # 32-bit ids and the target built once. The bound sits midway.
    env = load_env_file(resolve_spec_path("frozen-lake-lrg", "envs"))
    spec = load_ldba_file(resolve_spec_path("frozen-lake-seq", "ldba"))
    tracemalloc.start()
    try:
        value = max_sat_probability(build_explicit_product(env, spec)).initial_value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert peak < 6.7 * 2**20


@pytest.mark.parametrize("env_name,ldba_name,states,edges,epsilon_rows", [
    ("gridworld-1", "goal1-or-goal2", 4417, 44111, 2944),  # two per node in state 0
    ("frozen-lake-lrg", "frozen-lake-seq", 7783, 122173, 0),
])
def test_bundled_product_layout_sizes_and_epsilon_rows(env_name, ldba_name, states, edges,
                                                       epsilon_rows):
    env = load_env_file(resolve_spec_path(env_name, "envs"))
    spec = load_ldba_file(resolve_spec_path(ldba_name, "ldba"))
    prod = build_explicit_product(env, spec)
    product = CompiledProduct(env, spec)
    rows = list(prod.successors)
    assert prod.num_states() == len(rows) == states
    assert sum(len(succ) for row in rows for succ in row.values()) == len(prod.succ) == edges
    index = {node: i for i, node in enumerate(prod.states)}
    seen = 0
    for i, node in enumerate(prod.states):
        cell, q = product.decode(node)
        for name, to in spec.epsilon_transitions.get(q, ()):
            j = index[SINK if to == SINK_STATE else product.encode(cell, to)]
            assert rows[i][name] == ((j, 1.0),)   # the env freezes, the automaton jumps
            seen += 1
    assert seen == epsilon_rows


def test_build_and_solve_peak_memory_stays_low():
    # tracemalloc peak of build plus solve on gridworld-1 x goal1-or-goal2, Python
    # 3.11.7: 11.51 MiB with boxed (j, p) tuples and a cached supports copy, 4.92 MiB
    # with the CSR arrays; the bound sits midway.
    env = load_env_file(resolve_spec_path("gridworld-1", "envs"))
    spec = load_ldba_file(resolve_spec_path("goal1-or-goal2", "ldba"))
    tracemalloc.start()
    try:
        value = max_sat_probability(build_explicit_product(env, spec)).initial_value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert peak < 8.2 * 2**20


def two_loop_spec():
    """Two states that each loop on every label, so a product has 3 slots per cell."""
    return parse_ldba_spec({
        "states": [0, 1],
        "initial_state": 0,
        "alphabet": [],
        "accepting_sets": [[0]],
        "transitions": {
            "0": [{"guard": "true", "to": 0}],
            "1": [{"guard": "true", "to": 1}],
        },
    })


def test_product_size_cap_is_checked_up_front():
    env = GridEnv(height=10, width=10, actions=["right", "left", "up", "down"],
                  slip_probability=0.0, initial_state=(0, 0), label_regions=[])
    spec = two_loop_spec()
    with pytest.raises(ProductSizeError, match="300"):
        build_explicit_product(env, spec, state_cap=299)
    prod = build_explicit_product(env, spec, state_cap=300)
    assert prod.num_states() == 100
    assert DEFAULT_STATE_CAP == 10**6


def test_the_size_cap_fires_before_any_per_cell_work():
    # parsing a grid only validates it, and the cap is checked before anything is
    # sized by the grid, so refusing 360000 cells allocates next to nothing
    document = {"height": 600, "width": 600, "actions": ["right", "left", "up", "down"],
                "slip_probability": 0.1, "initial_state": [0, 0],
                "label_regions": [{"rows": [0, 300], "cols": [100, 600], "label": "a"}]}
    spec = two_loop_spec()
    tracemalloc.start()
    try:
        env = parse_env_spec(document)
        with pytest.raises(ProductSizeError, match="1080000 state slots"):
            build_explicit_product(env, spec, state_cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_node_ids_are_32_bit_and_more_slots_are_refused_whatever_the_cap():
    # succ holds node ids, below the slot count, in 4 bytes; edge offsets stay
    # 8 bytes. A grid with more slots than a 32-bit id can number is refused
    # before any per-cell work, under a state cap of 10**14 too.
    prod = build_explicit_product(corridor_env({2: {"a"}}), chain_spec())
    assert (prod.succ.itemsize, prod.first_edge.itemsize, prod.first_row.itemsize) == (4, 8, 8)
    assert MAX_STATE_SLOTS == 2**31 - 1
    document = {"width": 1, "actions": ["right", "left", "up", "down"],
                "slip_probability": 0.1, "initial_state": [0, 0],
                "label_regions": [{"rows": [0, 1], "cols": [0, 1], "label": "a"}]}
    spec = two_loop_spec()  # 3 slots per cell
    check_state_slots(parse_env_spec({**document, "height": MAX_STATE_SLOTS // 3}), spec,
                      state_cap=10**14)  # 2147483646 slots
    tracemalloc.start()
    try:
        env = parse_env_spec({**document, "height": MAX_STATE_SLOTS // 3 + 1})
        with pytest.raises(ProductSizeError,
                           match="2147483649 state slots, above the cap of 2147483647"):
            build_explicit_product(env, spec, state_cap=10**14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


def test_scc_single_cycle_and_isolated_nodes():
    edges = {0: [1], 1: [2], 2: [0], 3: [0]}
    comps = _strongly_connected_components([0, 1, 2, 3], edges.__getitem__)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3]]


def test_scc_matches_networkx_on_random_digraphs():
    rng = make_rng(43)
    for _ in range(40):
        n = rng.randint(1, 30)
        edges = {i: sorted({rng.randrange(n)
                            for _ in range(rng.randint(0, 4))})
                 for i in range(n)}
        mine = {frozenset(c)
                for c in _strongly_connected_components(range(n), edges.__getitem__)}
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((i, j) for i, js in edges.items() for j in js)
        theirs = {frozenset(c) for c in nx.strongly_connected_components(g)}
        assert mine == theirs
        # a subset of node ids with gaps, successors restricted to it, as
        # mec_decompose passes a candidate, with one scratch list for every call
        nodes = sorted(rng.sample(range(n), rng.randint(1, n)))
        number = [0] * n
        for _ in range(2):
            mine = {frozenset(c) for c in _strongly_connected_components(
                nodes, lambda i: [j for j in edges[i] if j in nodes], number)}
            assert mine == {frozenset(c) for c in
                            nx.strongly_connected_components(g.subgraph(nodes))}
            assert number == [0] * n


# ---------------------------------------------------------------------------
# maximal end components
# ---------------------------------------------------------------------------


def test_mec_hand_case_two_absorbing_fates():
    mecs = mec_decompose(hand_mdp())
    assert [sorted(m.states) for m in mecs] == [[1], [2]]
    assert mecs[0].actions == {1: ("a",)}


def test_mec_alternation_example_is_one_component():
    (mec,) = mec_decompose(alternation_mdp())
    assert mec.states == frozenset({0, 1, 2})
    assert mec.actions[0] == ("go_l", "go_r")


def test_mec_properties_on_random_products():
    rng = make_rng(47)
    for _ in range(40):
        prod = random_explicit_product(rng, max_states=10,
                                       n_accepting_sets=rng.randint(1, 2))
        mecs = mec_decompose(prod)
        seen: set[int] = set()
        for mec in mecs:
            assert set(mec.actions) == set(mec.states)
            assert not (mec.states & seen)        # pairwise disjoint
            seen |= mec.states
            g = nx.DiGraph()
            g.add_nodes_from(mec.states)
            for i, acts in mec.actions.items():
                assert acts                       # at least one action kept
                for a in acts:
                    for j, _ in prod.successors[i][a]:
                        assert j in mec.states    # closure under kept actions
                        g.add_edge(i, j)
            assert nx.is_strongly_connected(g)
        # every state whose every action self-loops must land in some MEC
        for i in range(prod.num_states()):
            if all(succ == ((i, 1.0),) for succ in prod.successors[i].values()):
                assert i in seen


def test_mec_reuses_the_action_tuple_of_a_node_that_keeps_every_row():
    prod = alternation_mdp()
    (mec,) = mec_decompose(prod)
    assert all(mec.actions[i] is prod.actions[i] for i in range(3))
    rng = make_rng(59)
    kept_all = kept_some = 0
    for _ in range(40):
        prod = random_explicit_product(rng, max_states=10, max_actions=3)
        for mec in mec_decompose(prod):
            for i, acts in mec.actions.items():
                if len(acts) == len(prod.actions[i]):
                    assert acts is prod.actions[i]
                    kept_all += 1
                else:
                    assert set(acts) < set(prod.actions[i])
                    kept_some += 1
    assert kept_all and kept_some


def reference_mecs(prod: ExplicitProduct) -> set:
    """MECs by the textbook refinement on networkx SCCs, as (states, (node, action) pairs).

    Drop the actions that leave a candidate and the states left without any
    until stable, then split the candidate into SCCs and refine each again."""
    mecs, candidates = set(), [set(range(prod.num_states()))]
    while candidates:
        cand = candidates.pop()
        while True:
            acts = {i: [a for a, succ in prod.successors[i].items()
                        if all(j in cand for j, _ in succ)] for i in cand}
            if all(acts.values()):
                break
            cand = {i for i in cand if acts[i]}
        if not cand:
            continue
        g = nx.DiGraph()
        g.add_nodes_from(cand)
        g.add_edges_from((i, j) for i in cand for a in acts[i] for j, _ in prod.successors[i][a])
        comps = list(nx.strongly_connected_components(g))
        if len(comps) == 1:
            mecs.add((frozenset(cand), frozenset((i, a) for i in cand for a in acts[i])))
        else:
            candidates.extend(map(set, comps))
    return mecs


def test_mecs_match_the_textbook_refinement_on_random_products():
    # The refinement drops a candidate's rows into each node it loses by a
    # worklist; the textbook loop re-scans the candidate until nothing leaves.
    rng = make_rng(101)
    for _ in range(150):
        prod = random_explicit_product(rng, max_states=12, max_actions=3)
        mine = {(m.states, frozenset((i, a) for i, acts in m.actions.items() for a in acts))
                for m in mec_decompose(prod)}
        assert mine == reference_mecs(prod)


def refinement_product(rng) -> ExplicitProduct:
    """Rings of one to four states in a random order of ids, upstream first.

    A ring row moves a state to the next one of its ring, and at times also on
    to a later ring, so that the row leaves. A back row joins the ring to an
    earlier one and moves on to a later ring too: the first SCC search merges
    the rings, and the part loses that row and splits again. A one-state ring
    without its self-loop is a one-node SCC that keeps no row.
    """
    sizes = [rng.choice([1, 1, 1, 2, 3, 4]) for _ in range(rng.randint(2, 8))]
    n = sum(sizes)
    ids = rng.sample(range(n), n)
    rows, start = [], 0
    for size in sizes:
        later, earlier = range(start + size, n), range(start)
        for k in range(start, start + size):
            row = {}
            if size > 1 or rng.random() < 0.5:
                ring = {start + (k - start + 1) % size}
                if later and rng.random() < 0.3:
                    ring.add(rng.choice(later))
                row["ring"] = ring
            if earlier and later and rng.random() < 0.3:
                row["back"] = {rng.choice(earlier), rng.choice(later)}
            if later and (not row or rng.random() < 0.5):
                row["on"] = set(rng.sample(later, rng.randint(1, min(2, len(later)))))
            rows.append({a: tuple(sorted((ids[j], 1.0 / len(js)) for j in js))
                         for a, js in (row or {"stop": {k}}).items()})
        start += size
    successors = [None] * n
    for k, row in enumerate(rows):
        successors[ids[k]] = row
    return product_from_successors(list(range(n)), ids[0], successors, (frozenset({ids[0]}),))


def test_mec_refinement_paths_match_the_textbook_refinement():
    # Each SCC search is recorded: a one-node SCC, a part of a split that is a
    # MEC with no further search (it lost no row), and a search after the first
    # that splits a part which lost a row must each occur in the corpus.
    rng = make_rng(137)
    seen = {"one-node SCCs": 0, "parts taken whole": 0, "split again": 0}
    searches = []

    def recorded(nodes, successors, number=None):
        comps = _strongly_connected_components(nodes, successors, number)
        searches.append((set(nodes), [set(c) for c in comps]))
        return comps

    for _ in range(150):
        prod = refinement_product(rng)
        searches.clear()
        with mock.patch.object(oracle, "_strongly_connected_components", recorded):
            mecs = mec_decompose(prod)
        assert {(m.states, frozenset((i, a) for i, acts in m.actions.items() for a in acts))
                for m in mecs} == reference_mecs(prod)
        searched = [nodes for nodes, _ in searches[1:]]
        seen["one-node SCCs"] += sum(len(c) == 1 for c in searches[0][1])
        seen["parts taken whole"] += sum(
            len(m.states) > 1 and m.states not in searched and
            any(m.states in comps for _, comps in searches if len(comps) > 1) for m in mecs)
        seen["split again"] += sum(len(comps) > 1 for _, comps in searches[1:])
    assert min(seen.values()) >= 20, seen


def absorbing_product(rng) -> tuple[ExplicitProduct, list[int]]:
    """A random product and its absorbing nodes, each looping on itself on every row.

    A node may send every row into an absorbing node, beside other moves or
    not; other nodes' rows enter one at random. Some products have no
    absorbing node, and an accepting set may hold one.
    """
    n = rng.randint(3, 12)
    absorbing = rng.sample(range(n), rng.choice([0, 1, 1, 2, 3]))
    successors = []
    for i in range(n):
        if i in absorbing:
            successors.append({f"loop{a}": ((i, 1.0),) for a in range(rng.randint(1, 3))})
            continue
        doomed = absorbing and rng.random() < 0.3  # every row enters an absorbing node
        row = {}
        for a in range(rng.randint(1, 3)):
            support = set(rng.sample(range(n), rng.randint(1, min(3, n))))
            if absorbing and (doomed or rng.random() < 0.3):
                support.add(rng.choice(absorbing))
            weights = {j: rng.random() + 0.05 for j in sorted(support)}
            row[f"a{a}"] = tuple((j, w / sum(weights.values())) for j, w in weights.items())
        successors.append(row)
    accepting = tuple(frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
                      for _ in range(rng.randint(1, 2)))
    return product_from_successors(list(range(n)), rng.randrange(n), successors,
                                   accepting), absorbing


def test_mecs_match_the_textbook_refinement_on_products_with_absorbing_nodes():
    # Rows into an absorbing node are cut before the first SCC search; the
    # textbook loop finds the same MECs without knowing about them.
    rng = make_rng(149)
    seen = {"no absorbing node": 0, "every row enters one": 0, "one in an accepting set": 0,
            "rows into one beside others": 0}
    for _ in range(300):
        prod, absorbing = absorbing_product(rng)
        mine = {(m.states, frozenset((i, a) for i, acts in m.actions.items() for a in acts))
                for m in mec_decompose(prod)}
        assert mine == reference_mecs(prod)
        for z in absorbing:  # a MEC of its own, with every row
            assert (frozenset({z}), frozenset((z, a) for a in prod.actions[z])) in mine
        enters = [[any(j in absorbing for j, _ in succ) for succ in prod.successors[i].values()]
                  for i in range(prod.num_states()) if i not in absorbing]
        seen["no absorbing node"] += not absorbing
        seen["every row enters one"] += sum(map(all, enters))
        seen["one in an accepting set"] += any(z in acc for acc in prod.accepting_sets
                                               for z in absorbing)
        seen["rows into one beside others"] += sum(any(row) and not all(row) for row in enters)
    assert min(seen.values()) >= 20, seen


def test_frozen_lake_lrg_mecs_take_one_scc_search():
    # Rows into the collapsed sink are cut up front, so the 7782-node candidate
    # of the first search loses no row and is not searched again.
    env = load_env_file(resolve_spec_path("frozen-lake-lrg", "envs"))
    spec = load_ldba_file(resolve_spec_path("frozen-lake-seq", "ldba"))
    prod = build_explicit_product(env, spec)
    searches = []

    def counted(*args):
        searches.append(args[0])
        return _strongly_connected_components(*args)

    with mock.patch.object(oracle, "_strongly_connected_components", counted):
        mecs = mec_decompose(prod)
    assert len(searches) == 1
    assert sorted(map(len, (m.states for m in mecs))) == [1, prod.num_states() - 1]


def test_mec_decompose_peak_memory_stays_low():
    # tracemalloc peak of mec_decompose alone on frozen-lake-lrg x frozen-lake-seq
    # (7783 states, 2 MECs), Python 3.11.7: 3.64 MiB with one {node: rows} dict per
    # candidate, the first holding a range per node, and 2.26 MiB with node lists
    # and one map of cut rows; the bound sits midway.
    env = load_env_file(resolve_spec_path("frozen-lake-lrg", "envs"))
    spec = load_ldba_file(resolve_spec_path("frozen-lake-seq", "ldba"))
    prod = build_explicit_product(env, spec)
    tracemalloc.start()
    try:
        mecs = mec_decompose(prod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mecs) == 2
    assert peak < 2.95 * 2**20


def test_mecs_sorted_by_smallest_member():
    rng = make_rng(53)
    for _ in range(15):
        mecs = mec_decompose(random_explicit_product(rng))
        keys = [min(m.states) for m in mecs]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# qualitative precomputations against the textbook fixed points
# ---------------------------------------------------------------------------


def reference_prob0_max(prod: ExplicitProduct, target: set[int]) -> set[int]:
    """Backward reachability over every edge of the product."""
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


def reference_prob1_max(prod: ExplicitProduct, target: set[int]) -> set[int]:
    """The two-level fixed point, rescanning every state on every round."""
    u = set(range(prod.num_states()))
    while True:
        t = set(target)
        while True:
            grown = set(t)
            for i in u - t:
                for succ in prod.successors[i].values():
                    if all(j in u for j, _ in succ) and any(j in t for j, _ in succ):
                        grown.add(i)
                        break
            if grown == t:
                break
            t = grown
        if t == u:
            return u
        u = t


def assert_qualitative_sets_match_reference(prod, target):
    index = _predecessor_index(prod, target)
    assert _prob1_max(prod, target, index) == reference_prob1_max(prod, target)
    assert _prob0_max(prod, target, index) == reference_prob0_max(prod, target)


def test_qualitative_sets_match_reference_on_random_products():
    rng = make_rng(67)
    for _ in range(60):
        prod = random_explicit_product(rng, max_states=12, max_actions=3,
                                       n_accepting_sets=rng.randint(1, 2))
        n = prod.num_states()
        accepting = [m.states for m in mec_decompose(prod)
                     if all(m.states & acc for acc in prod.accepting_sets)]
        targets = [set(), set(range(n)), set().union(*accepting),
                   set(rng.sample(range(n), rng.randint(1, n)))]
        for target in targets:
            assert_qualitative_sets_match_reference(prod, target)


BUNDLED_PAIRS = [
    ("minecraft", "minecraft-t1"),
    ("minecraft", "minecraft-t7"),
    ("slp-sml", "slp-hard"),
    ("frozen-lake-sml", "frozen-lake-reach"),
    ("frozen-lake-sml", "frozen-lake-seq"),
    ("robot-surve", "robot-surve"),
]


@pytest.mark.parametrize("env_name,ldba_name", BUNDLED_PAIRS)
def test_qualitative_sets_match_reference_on_bundled_benchmarks(env_name, ldba_name):
    env = load_env_file(bundled_data_dir() / "envs" / f"{env_name}.json")
    spec = load_ldba_file(bundled_data_dir() / "ldba" / f"{ldba_name}.json")
    prod = build_explicit_product(env, spec)
    target = set(max_sat_probability(prod).accepting_target)
    assert_qualitative_sets_match_reference(prod, target)


# ---------------------------------------------------------------------------
# maximal satisfaction probability
# ---------------------------------------------------------------------------


def test_value_hand_mdp_picks_the_better_lottery():
    result = max_sat_probability(hand_mdp())
    assert result.initial_value == pytest.approx(0.4, abs=1e-12)
    assert result.values[1] == 1.0                # exactly, via prob1
    assert result.values[2] == 0.0
    assert result.accepting_target == frozenset({1})


def test_value_zero_when_no_accepting_mec_is_reachable():
    env = corridor_env({})                        # chain never gets to q=2
    result = max_sat_probability(build_explicit_product(env, chain_spec()))
    assert result.initial_value == 0.0
    assert result.accepting_target == frozenset()
    assert result.sweeps == 0


def test_value_one_is_exact_on_certain_products():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    result = max_sat_probability(build_explicit_product(env, chain_spec()))
    assert result.initial_value == 1.0            # ==, not approx: prob1 route


def test_alternating_acceptance_needs_the_frontier_memory():
    # A memoryless policy commits to one branch and starves the other
    # accepting set, so plain enumeration yields 0; the sweep-tracking
    # runtime supplies the alternation memory, and the end-component
    # analysis correctly values the product at 1.
    prod = alternation_mdp()
    assert max_sat_probability(prod).initial_value == 1.0
    assert brute_force_value(prod) == 0.0


def test_value_slippery_crossing_matches_hand_computation():
    # 3x3 grid, hazard rows above and below, goal on the middle-right.
    # Pressing right survives with 2/3 + 1/9 (clamped stay) and dies with
    # 2/9: v(mid) = 2/3 / (8/9) = 3/4, v(start) = (2/3 * 3/4) / (8/9) = 9/16.
    env = GridEnv(height=3, width=3, actions=["right", "left", "up", "down"],
                  slip_probability=1.0 / 3.0, initial_state=(1, 0),
                  label_regions=[
                      LabelRegion((0, 1), (0, 3), frozenset({"bad"})),
                      LabelRegion((2, 3), (0, 3), frozenset({"bad"})),
                      LabelRegion((1, 2), (2, 3), frozenset({"goal"})),
                  ])
    spec = parse_ldba_spec({
        "states": [0, 1],
        "initial_state": 0,
        "alphabet": ["bad", "goal"],
        "accepting_sets": [[1]],
        "transitions": {
            "0": [{"guard": "bad", "to": -1},
                  {"guard": "goal", "to": 1},
                  {"guard": "true", "to": 0}],
            "1": [{"guard": "true", "to": 1}],
        },
    })
    result = max_sat_probability(build_explicit_product(env, spec))
    assert result.initial_value == pytest.approx(9.0 / 16.0, abs=1e-8)


def test_value_iteration_sweeps_are_monotone(monkeypatch):
    env = GridEnv(height=3, width=3, actions=["right", "left", "up", "down"],
                  slip_probability=1.0 / 3.0, initial_state=(1, 0),
                  label_regions=[
                      LabelRegion((0, 1), (0, 3), frozenset({"bad"})),
                      LabelRegion((2, 3), (0, 3), frozenset({"bad"})),
                      LabelRegion((1, 2), (2, 3), frozenset({"goal"})),
                  ])
    spec = parse_ldba_spec({
        "states": [0, 1],
        "initial_state": 0,
        "alphabet": ["bad", "goal"],
        "accepting_sets": [[1]],
        "transitions": {
            "0": [{"guard": "bad", "to": -1},
                  {"guard": "goal", "to": 1},
                  {"guard": "true", "to": 0}],
            "1": [{"guard": "true", "to": 1}],
        },
    })
    prod = build_explicit_product(env, spec)
    snapshots = []
    with warm_sweeps(snapshots.append):
        result = max_sat_probability(prod)
    assert len(snapshots) == result.sweeps >= 1
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert all(a <= b + 1e-15 for a, b in zip(earlier, later))
    # policy iteration starts from the last warm sweep and only raises values
    assert all(a <= b + 1e-15 for a, b in zip(snapshots[-1], result.values))
    monkeypatch.setattr(oracle, "MAX_ITERATIONS", 0)
    with pytest.raises(RuntimeError, match="iteration guard"):
        max_sat_probability(prod)


def test_value_agrees_with_policy_enumeration_on_random_products():
    # Independent route: enumerate every deterministic memoryless policy,
    # analyze each induced chain with networkx + numpy. Single accepting
    # set, where memoryless policies are sufficient.
    rng = make_rng(59)
    for _ in range(12):
        prod = random_explicit_product(rng, max_states=8, n_accepting_sets=1)
        oracle = max_sat_probability(prod).initial_value
        reference = brute_force_value(prod)
        assert oracle == pytest.approx(reference, abs=1e-8)


def test_values_are_probabilities():
    rng = make_rng(61)
    for _ in range(10):
        prod = random_explicit_product(rng, max_states=10,
                                       n_accepting_sets=rng.randint(1, 2))
        result = max_sat_probability(prod)
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in result.values)


# ---------------------------------------------------------------------------
# value iteration against the full Gauss-Seidel sweep
# ---------------------------------------------------------------------------


SETTLED = 1e-10  # tests pick products by the sweeps until no value moves by this much


@contextmanager
def warm_sweeps(on_sweep):
    """Within it, max_sat_probability calls on_sweep with a copy of the values
    after each warm sweep; improvement passes are not reported."""
    sweep = oracle._sweep

    def traced(work, values, choice=None, bar=0.0):
        switched = sweep(work, values, choice, bar)
        if choice is None:
            on_sweep(list(values))
        return switched

    with mock.patch.object(oracle, "_sweep", traced):
        yield


def reference_value_iteration(prod: ExplicitProduct, on_sweep=None, solved=None):
    """Gauss-Seidel that recomputes every state of a component on every sweep.

    The undecided states are swept one strongly connected component at a time,
    in the order Tarjan's search emits them (downstream first), each in node
    order. A component stops at its float fixed point, the first sweep that
    moves no value; with solved given, its values are then set to solved's, as
    the oracle's policy iteration sets them. Returns the values and, per
    component, its states and each sweep's largest move.
    """
    mecs = mec_decompose(prod)
    target = set().union(*(m.states for m in mecs
                           if all(m.states & acc for acc in prod.accepting_sets)))
    values = [0.0] * prod.num_states()
    if not target:
        return values, []
    index = _predecessor_index(prod, target)
    sure, never = _prob1_max(prod, target, index), _prob0_max(prod, target, index)
    for i in sure:
        values[i] = 1.0
    undecided = [i for i in range(prod.num_states()) if i not in sure and i not in never]
    inside = set(undecided)
    components = _strongly_connected_components(undecided, lambda i: [
        j for row in prod.successors[i].values() for j, _ in row if j in inside])
    report = []
    for comp in map(sorted, components):
        deltas = []
        while True:
            delta = 0.0
            for i in comp:
                best = 0.0
                for succ in prod.successors[i].values():
                    acc = 0.0
                    for j, p in succ:
                        acc += p * values[j]
                    if acc > best:
                        best = acc
                diff = best - values[i]
                if diff > delta:
                    delta = diff
                values[i] = best
            deltas.append(delta)
            if on_sweep is not None:
                on_sweep(list(values))
            if delta == 0.0:
                break
        report.append((comp, deltas))
        if solved is not None:
            for i in comp:
                values[i] = solved[i]
    return values, report


def assert_value_iteration_matches_reference(prod) -> int:
    """The WARM_SWEEPS warm sweeps of each component of two or more states are the
    reference's first sweeps of it, snapshot for snapshot; a reference that reaches
    its float fixed point sooner is padded with its last snapshot, as a sweep from
    the fixed point moves nothing. The values are within 1e-12 of the reference run
    to its float fixed point. Returns the sweeps after which no value moves by
    SETTLED, summed over components."""
    snapshots, expected = [], []
    with warm_sweeps(snapshots.append):
        result = max_sat_probability(prod)
    values, report = reference_value_iteration(prod)
    assert max(abs(a - b) for a, b in zip(result.values, values)) <= 1e-12
    _, report = reference_value_iteration(prod, on_sweep=expected.append,
                                          solved=result.values)
    total = warm = at = 0
    for comp, deltas in report:
        total += next(t for t, delta in enumerate(deltas, 1) if delta < SETTLED)
        if len(comp) > 1:  # a one-state component is solved without sweeps
            sweeps = expected[at:at + min(len(deltas), WARM_SWEEPS)]
            sweeps += sweeps[-1:] * (WARM_SWEEPS - len(sweeps))
            assert snapshots[warm:warm + WARM_SWEEPS] == sweeps
            warm += WARM_SWEEPS
        at += len(deltas)
    assert result.sweeps == warm == len(snapshots)
    assert result.components == len(report)
    return total


def random_lake(rng, max_side: int = 5) -> GridEnv:
    """A slippery lake for frozen-lake-reach: one cell per goal, single-cell pits."""
    height, width = rng.randint(3, max_side), rng.randint(3, max_side)
    cells = [(r, c) for r in range(height) for c in range(width)]
    start, goal1, goal2, *rest = rng.sample(cells, len(cells))
    pits = rest[:rng.randint(1, len(rest) // 3)]
    regions = [LabelRegion((r, r + 1), (c, c + 1), frozenset({"unsafe"})) for r, c in pits]
    regions += [LabelRegion((r, r + 1), (c, c + 1), frozenset({label}))
                for label, (r, c) in (("goal1", goal1), ("goal2", goal2))]
    actions = ["up", "down", "left", "right"] + (["stay"] if rng.random() < 0.5 else [])
    rng.shuffle(actions)
    return GridEnv(height=height, width=width, actions=actions,
                   slip_probability=rng.choice([0.1, 1.0 / 3.0, 0.45]),
                   initial_state=start, label_regions=regions)


@pytest.mark.parametrize("size,slip", [(10, 0.2), (8, 0.45)])
def test_value_iteration_matches_reference_on_gated_lakes(size, slip):
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    prod = build_explicit_product(gated_lake(size, slip), spec)
    assert assert_value_iteration_matches_reference(prod) >= 100


@pytest.mark.parametrize("env_name,ldba_name",
                         BUNDLED_PAIRS + [("gridworld-1", "goal1-or-goal2")])
def test_value_iteration_matches_reference_on_bundled_benchmarks(env_name, ldba_name):
    env = load_env_file(resolve_spec_path(env_name, "envs"))
    spec = load_ldba_file(resolve_spec_path(ldba_name, "ldba"))
    assert_value_iteration_matches_reference(build_explicit_product(env, spec))


def test_value_iteration_matches_reference_on_random_lakes():
    # Random products and random envs are almost always decided by
    # prob0/prob1; these lakes keep states undecided, so the sweeps run.
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    rng = make_rng(71)
    solved = 0
    for _ in range(200):
        sweeps = assert_value_iteration_matches_reference(
            build_explicit_product(random_lake(rng), spec))
        solved += sweeps >= 10
        if solved == 10:
            break
    assert solved == 10


def test_value_iteration_matches_reference_on_rows_of_one_to_seven_terms():
    # Rows of up to four terms are evaluated as one padded expression, longer
    # ones term by term. Node 0 is an absorbing accepting node and node 1 an
    # absorbing losing one, so most other nodes stay undecided.
    rng = make_rng(73)
    solved, lengths = 0, set()
    for _ in range(300):
        rows = list(random_explicit_product(rng, max_states=10, max_actions=3,
                                            max_support=7).successors)
        rows[0], rows[1] = {"win": ((0, 1.0),)}, {"lose": ((1, 1.0),)}
        prod = product_from_successors(list(range(len(rows))), len(rows) - 1, rows,
                                       (frozenset({0}),))
        if assert_value_iteration_matches_reference(prod) >= 10:
            solved += 1
            values = max_sat_probability(prod).values
            # the terms value iteration keeps: successors of positive value
            lengths.update(sum(values[j] > 0 for j, _ in succ)
                           for i, row in enumerate(rows) if 0 < values[i] < 1
                           for succ in row.values())
        if solved >= 10 and lengths >= set(range(1, 8)):
            break
    assert solved >= 10
    assert lengths >= set(range(1, 8))


def test_value_iteration_matches_reference_on_rows_beyond_the_four_row_block():
    # A node's first four rows of at most four terms are one padded block; any
    # further row is summed term by term. Nodes of up to seven actions make
    # undecided states with more than four rows of positive worth.
    rng = make_rng(79)
    solved = 0
    for _ in range(300):
        rows = list(random_explicit_product(rng, max_states=10, max_actions=7,
                                            max_support=3).successors)
        rows[0], rows[1] = {"win": ((0, 1.0),)}, {"lose": ((1, 1.0),)}
        prod = product_from_successors(list(range(len(rows))), len(rows) - 1, rows,
                                       (frozenset({0}),))
        if assert_value_iteration_matches_reference(prod) >= 10:
            values = max_sat_probability(prod).values
            solved += any(sum(any(values[j] > 0 for j, _ in succ) for succ in row.values()) > 4
                          for i, row in enumerate(rows) if 0 < values[i] < 1)
        if solved >= 10:
            break
    assert solved >= 10


def test_first_sweep_peak_memory_stays_low():
    # tracemalloc peak from the start of _component_rows to the end of the first
    # sweep on a 24x24 gated lake (1703 states), Python 3.11.7: 1.22 MiB with every
    # row a tuple of (j, p) pairs, 0.71 MiB with flat padded rows; the bound sits
    # midway. The solve peaks higher before the rows are built, so the peak is
    # reset where they start.
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    prod = build_explicit_product(gated_lake(24), spec)
    peaks = []
    component_rows = oracle._component_rows

    class FirstSweepDone(Exception):
        pass

    def rows_from_here(*args):
        tracemalloc.reset_peak()
        return component_rows(*args)

    def first_sweep(values):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise FirstSweepDone

    with warm_sweeps(first_sweep), mock.patch.object(oracle, "_component_rows", rows_from_here):
        tracemalloc.start()
        try:
            with pytest.raises(FirstSweepDone):
                max_sat_probability(prod)
        finally:
            tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] < 0.97 * 2**20


# ---------------------------------------------------------------------------
# policy iteration: chain solve, attractor rows, exact values
# ---------------------------------------------------------------------------


CERTIFIED_LAKE_VALUE = 0.2709139018929371  # exact optimum, solved in fractions


def test_lake_values_are_the_certified_optimum():
    # value iteration alone, stopped once no value moved by 1e-10, was 1.4e-10
    # (gated lake) and 3.4e-10 (hazard lake 0) below this value
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    for env in (gated_lake(), load_hazard_lake(0)):
        result = max_sat_probability(build_explicit_product(env, spec))
        assert result.components == 2  # one per automaton layer
        assert result.sweeps == 2 * WARM_SWEEPS and result.iterations >= 2
        assert abs(result.initial_value - CERTIFIED_LAKE_VALUE) <= 1e-12


def test_policy_iteration_peak_memory_stays_low():
    # tracemalloc peak of policy iteration on hazard lake 2, traced from the last
    # warm sweep of its first component to the end of the solve, Python 3.11.7:
    # 1.22 MiB. Solving both components as one chain took 1.91-2.10 MiB on Python
    # 3.10.13-3.12.1, on top of 1.70 MiB then held. The bound sits midway to
    # 5.15 MiB, at which the build and solve together would pass the 6.85 MiB of
    # frozen-lake-lrg x frozen-lake-seq, the largest bundled product.
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    prod = build_explicit_product(load_hazard_lake(2), spec)
    sweeps = []

    def on_sweep(values):
        sweeps.append(1)
        if len(sweeps) == WARM_SWEEPS:
            tracemalloc.start()

    try:
        with warm_sweeps(on_sweep):
            result = max_sat_probability(prod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.components == 2
    assert result.sweeps == 2 * WARM_SWEEPS and result.iterations >= 2
    assert peak < 3.6 * 2**20


def test_chain_solve_matches_a_dense_solve():
    rng = make_rng(83)
    for _ in range(40):
        n = rng.randint(1, 30)
        out, leave, gain, dense, rhs = [], [], [], np.eye(n), np.zeros(n)
        for k in range(n):
            moves = rng.sample(range(n), rng.randint(0, min(n, 5)))
            weights = [rng.random() for _ in moves] + [rng.random() * 0.2 + 1e-3,
                                                       rng.random() * 0.2]
            total = sum(weights)
            row = {}
            for m, w in zip(moves, weights):
                dense[k, m] -= w / total
                if m != k:
                    row[m] = w / total
            out.append(row)
            leave.append((weights[-2] + weights[-1]) / total)
            gain.append(weights[-2] / total)
            rhs[k] = gain[-1]
        x = _solve_chain(out, leave, gain)
        assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12)


def absorbing_rows(rows, initial: int = 2) -> ExplicitProduct:
    """Node 0 wins for ever and node 1 loses for ever; rows[k] is node k + 2's."""
    rows = [{"win": ((0, 1.0),)}, {"lose": ((1, 1.0),)}] + rows
    return product_from_successors(list(range(len(rows))), initial, rows, (frozenset({0}),))


def test_policy_iteration_agrees_with_policy_enumeration_on_random_products():
    rng = make_rng(89)
    solved = 0
    while solved < 12:
        rows = list(random_explicit_product(rng, max_states=8).successors)[2:]
        if not rows:
            continue
        prod = absorbing_rows(rows)
        result = max_sat_probability(prod)
        if result.iterations:
            solved += 1
            assert abs(result.initial_value - brute_force_value(prod)) <= 1e-12


def layered_rows(rng, sizes: list[int]) -> list[dict]:
    """Rows for absorbing_rows: one layer of states per size, upstream first.

    Each layer is a ring, so it is one component. A state's second row moves at
    random inside its layer and always on past it: into win and lose from the
    last layer, whose values then lie strictly inside (0, 1), and into a later
    layer from the others, so their exits carry such values.
    """
    rows, start, end = [], 2, 2 + sum(sizes)
    for size in sizes:
        layer = range(start, start + size)
        later = list(range(start + size, end))
        for k in layer:
            support = set(rng.sample(list(layer) + later + [0, 1], rng.randint(1, 3)))
            support |= {rng.choice(later)} if later else {0, 1}
            weights = {j: rng.random() + 0.05 for j in sorted(support)}
            total = sum(weights.values())
            rows.append({"ring": ((start + (k - start + 1) % size, 1.0),),
                         "mix": tuple((j, w / total) for j, w in weights.items())})
        start += size
    return rows


def test_components_read_solved_downstream_values_as_constants():
    # Each later layer is solved first and then read as constants in (0, 1) by
    # the chain of the layer before it.
    rng = make_rng(97)
    for _ in range(10):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        rows = layered_rows(rng, sizes)
        prod = absorbing_rows(rows)
        result = max_sat_probability(prod)
        assert result.components == len(sizes)
        assert result.iterations >= len(sizes)
        assert all(0.0 < v < 1.0 for v in result.values[2:])
        assert abs(result.initial_value - brute_force_value(prod)) <= 1e-12
        for node in (2 + sizes[0], len(rows) + 1):  # the second layer's first, the last
            assert abs(result.values[node]
                       - brute_force_value(absorbing_rows(rows, node))) <= 1e-12


def reference_chain(work, choice, where, values):
    """The out, leave and gain of _solve_chain for every state's chosen row, in full."""
    out, leave, gain = [], [], []
    for (k, i, block, more), b in zip(work, choice):
        moves, e, g = {}, 0.0, 0.0
        for j, p in zip(block[8 * b:8 * b + 8:2], block[8 * b + 1:8 * b + 8:2]) if b < 4 \
                else more[b - 4]:
            m = where.get(j)
            if m is None:
                e += p
                g += p * values[j]
            elif m != k and p:
                moves[m] = moves.get(m, 0.0) + p
        out.append(moves)
        leave.append(e)
        gain.append(g)
    return out, leave, gain


def reference_policy_iteration(work, where, values, attract) -> int:
    """_policy_iteration that assembles the whole chain again at every iteration."""
    choice = [0 if block[1] else 4 for _, _, block, _ in work]
    oracle._sweep(work, values, choice)
    out, leave, _ = reference_chain(work, choice, where, values)
    leaves = [e > 0.0 for e in leave]
    changed = True
    while changed:  # a state leaves when its chain moves to one that leaves
        changed = False
        for k, row in enumerate(out):
            if not leaves[k] and any(leaves[m] for m in row):
                leaves[k] = changed = True
    choice = [c if flag else a for c, flag, a in zip(choice, leaves, attract)]
    iterations = 0
    while True:
        iterations += 1
        for (_, i, *_), v in zip(work, _solve_chain(*reference_chain(work, choice, where,
                                                                     values))):
            values[i] = v
        if not oracle._sweep(work, values, choice, 1.0 + oracle.PI_GAIN):
            return iterations


def assert_patched_chain_matches_full_assembly(prod) -> int:
    """Values bit for bit and iterations as with the chain assembled in full; the
    number of states that switched after a chain solve is returned."""
    switches = []
    sweep = oracle._sweep

    def counted(work, values, choice=None, bar=0.0):
        switched = sweep(work, values, choice, bar)
        if bar > 1.0:
            switches.append(len(switched))
        return switched

    with mock.patch.object(oracle, "_sweep", counted):
        result = max_sat_probability(prod)
    with mock.patch.object(oracle, "_policy_iteration", reference_policy_iteration):
        reference = max_sat_probability(prod)
    assert [v.hex() for v in result.values] == [v.hex() for v in reference.values]
    assert (result.iterations, result.sweeps) == (reference.iterations, reference.sweeps)
    return sum(switches)


@pytest.mark.parametrize("seed", range(4))
def test_patched_chain_matches_full_assembly_on_hazard_lakes(seed):
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    prod = build_explicit_product(load_hazard_lake(seed), spec)
    assert assert_patched_chain_matches_full_assembly(prod) > 0


def test_patched_chain_matches_full_assembly_on_random_products():
    rng = make_rng(151)
    switched = solved = 0
    for _ in range(40):
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
        switched += assert_patched_chain_matches_full_assembly(
            absorbing_rows(layered_rows(rng, sizes)))
        rows = list(random_explicit_product(rng, max_states=10, max_actions=3).successors)[2:]
        if rows:
            solved += 1
            switched += assert_patched_chain_matches_full_assembly(absorbing_rows(rows))
    assert switched >= 20 and solved >= 20


def test_chain_solves_never_get_the_chain_kept_between_iterations():
    # _solve_chain consumes its input: each solve gets its own lists and rows.
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    prod = build_explicit_product(load_hazard_lake(0), spec)
    received = []  # held, so no id is reused

    def solve(out, leave, gain):
        received.append((out, leave, gain, list(out)))
        return _solve_chain(out, leave, gain)

    with mock.patch.object(oracle, "_solve_chain", solve):
        result = max_sat_probability(prod)
    assert len(received) == result.iterations >= 4
    lists = [id(x) for out, leave, gain, _ in received for x in (out, leave, gain)]
    rows = [id(row) for *_, kept in received for row in kept]
    assert len(set(lists)) == len(lists)
    assert len(set(rows)) == len(rows)


def test_one_state_components_take_their_best_rows_gain_over_pivot():
    # A chain of single states, each with a self-loop on some rows: every
    # component is one state, solved without sweeps or policy iteration.
    rng = make_rng(103)
    solved = 0
    for _ in range(10):
        length = rng.randint(2, 5)
        rows = []
        for k in range(2, length + 2):
            on = [k + 1] if k < length + 1 else [0]
            row = {}
            for a in range(rng.randint(1, 3)):
                support = sorted({k, 1, *on} if a else set(rng.sample([k, 0, 1, *on], 2)))
                weights = [rng.random() + 0.05 for _ in support]
                row[f"a{a}"] = tuple((j, w / sum(weights)) for j, w in zip(support, weights))
            rows.append(row)
        prod = absorbing_rows(rows)
        result = max_sat_probability(prod)
        assert result.sweeps == result.iterations == 0
        assert result.components == sum(0.0 < v < 1.0 for v in result.values)
        assert abs(result.initial_value - brute_force_value(prod)) <= 1e-12
        solved += result.components
    assert solved >= 10


def test_wall_self_loop_that_ties_the_best_row_gets_an_attractor_row():
    # Each corridor node's first row bumps into a wall and stays. At the fixed
    # point it ties the row that moves on, so the greedy policy would never
    # leave; the attractor row moves on. The last node's worse row back to the
    # start makes the corridor one component, so it is swept and not solved
    # state by state.
    rows = [{"wall": ((k, 1.0),), "on": ((k + 1, 0.9), (1, 0.1))} for k in range(2, 6)]
    rows.append({"wall": ((6, 1.0),), "on": ((0, 0.5), (1, 0.5)), "back": ((2, 1.0),)})
    prod = absorbing_rows(rows)
    snapshots = []
    with warm_sweeps(snapshots.append):
        result = max_sat_probability(prod)
    assert result.components == 1
    assert result.sweeps == WARM_SWEEPS
    warm = snapshots[-1]
    assert snapshots[-2] == warm                          # the warm sweeps settled
    assert all(warm[k] == 0.9 * warm[k + 1] + 0.1 * warm[1] for k in range(2, 6))
    assert abs(result.initial_value - 0.5 * 0.9 ** 4) <= 1e-12
    assert abs(result.initial_value - brute_force_value(prod)) <= 1e-12


def test_states_still_zero_after_the_warm_sweeps_get_attractor_rows():
    # The chain runs against the sweep order, so each sweep moves the value one
    # node back; the first nodes are still 0.0 when the warm sweeps end, and
    # their first row, a self-loop, ties their row that moves on. The last
    # node's worse row back to the start makes the chain one component.
    length = WARM_SWEEPS + 30
    rows = [{"on": ((k + 1, 0.99), (1, 0.01))} for k in range(2, length + 1)]
    rows[-1] = {"on": ((0, 0.99), (1, 0.01)), "back": ((2, 1.0),)}
    for k in (0, 1, 5):
        rows[k] = {"wait": ((k + 2, 1.0),), **rows[k]}
    prod = absorbing_rows(rows)
    snapshots = []
    with warm_sweeps(snapshots.append):
        result = max_sat_probability(prod)
    assert result.components == 1
    assert result.sweeps == WARM_SWEEPS
    assert snapshots[-1][2] == snapshots[-1][3] == snapshots[-1][7] == 0.0
    assert abs(result.initial_value - 0.99 ** (length - 1)) <= 1e-12
    assert abs(result.initial_value - brute_force_value(prod)) <= 1e-12


def test_slip_one_corridor_cannot_alternate_through_a_hazard():
    # Cells a, b, bad in a row; the automaton records the last of a and b and
    # needs both infinitely often, and bad is fatal. At slip 1 every move slips:
    # from b the only way to a also reaches bad with the same probability, so
    # no policy alternates for ever. A kept edge of mass 0.0 made a MEC of the
    # a- and b-nodes and the value 1.0.
    env = GridEnv(height=1, width=3, actions=["up", "down", "left", "right"],
                  slip_probability=1.0, initial_state=(0, 1),
                  label_regions=[LabelRegion((0, 1), (c, c + 1), frozenset({label}))
                                 for c, label in enumerate(("a", "b", "bad"))])
    spec = parse_ldba_spec({
        "states": [0, 1],
        "initial_state": 1,
        "alphabet": ["a", "b", "bad"],
        "accepting_sets": [[0], [1]],
        "transitions": {
            str(q): [{"guard": "bad", "to": -1}, {"guard": "a", "to": 0},
                     {"guard": "b", "to": 1}, {"guard": "true", "to": q}]
            for q in (0, 1)},
    })
    prod = build_explicit_product(env, spec)
    assert all(p > 0.0 for p in prod.prob)
    result = max_sat_probability(prod)
    assert result.initial_value == 0.0
    assert result.accepting_target == frozenset()


def test_a_pair_of_mass_zero_is_no_edge():
    rows = [{"a": ((0, 0.0), (2, 1.0))}, {"a": ((1, 1.0),)}, {"a": ((1, 0.5), (2, 0.5))}]
    prod = product_from_successors([0, 1, 2], 0, rows, (frozenset({1}),))
    assert list(prod.succ) == [2, 1, 1, 2]
    assert max_sat_probability(prod).initial_value == 1.0


# ---------------------------------------------------------------------------
# greedy policy extraction
# ---------------------------------------------------------------------------


def test_greedy_policy_picks_the_better_action():
    prod = hand_mdp()
    result = max_sat_probability(prod)
    policy = greedy_product_policy(prod, result.values)
    assert policy[0] == "b"
    assert policy[1] == "a"


def test_greedy_policy_breaks_ties_toward_the_first_action():
    prod = product_from_successors(
        states=[0, 1],
        initial=0,
        successors=[
            {"x": ((1, 1.0),), "y": ((1, 1.0),)},
            {"x": ((1, 1.0),)},
        ],
        accepting_sets=(frozenset({1}),),
    )
    policy = greedy_product_policy(prod, max_sat_probability(prod).values)
    assert policy[0] == "x"


def test_oracle_optimal_rollout_keeps_sweeping():
    env = load_env_file(bundled_data_dir() / "envs" / "slp-sml.json")
    spec = load_ldba_file(bundled_data_dir() / "ldba" / "slp-easy.json")
    prod = build_explicit_product(env, spec)
    result = max_sat_probability(prod)
    assert result.initial_value == 1.0
    policy = greedy_product_policy(prod, result.values)
    sweeps = product_rollout_sweeps(prod, policy, spec, make_rng(11), 4000)
    assert sweeps >= 200


# ---------------------------------------------------------------------------
# bundled benchmarks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("env_name,ldba_name", BUNDLED_PAIRS)
def test_bundled_benchmarks_are_almost_surely_satisfiable(env_name, ldba_name):
    env = load_env_file(bundled_data_dir() / "envs" / f"{env_name}.json")
    spec = load_ldba_file(bundled_data_dir() / "ldba" / f"{ldba_name}.json")
    result = max_sat_probability(build_explicit_product(env, spec))
    assert result.initial_value == 1.0
