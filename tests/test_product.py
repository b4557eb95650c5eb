"""Product synchronization: frontier fires, epsilon moves, sink."""

from __future__ import annotations

import re

import pytest

from ldba_synth.automaton import SINK_STATE, load_ldba_file, parse_ldba_spec
from ldba_synth.envs import bundled_data_dir, load_env_file
from ldba_synth.evaluation import TestConfig, run_test
from ldba_synth.product import CompiledProduct, ProductError, ProductRun

from conftest import (chain_spec, corridor_env, make_rng, random_automaton,
                      random_env)


def epsilon_spec():
    return parse_ldba_spec({
        "states": [0, 1],
        "initial_state": 0,
        "alphabet": ["a"],
        "accepting_sets": [[1]],
        "epsilon_transitions": {"0": [{"name": "epsilon_1", "to": 1}]},
        "transitions": {
            "0": [{"guard": "true", "to": 0}],
            "1": [{"guard": "a", "to": 1}, {"guard": "true", "to": -1}],
        },
    })


def act(run, name):
    """The id of the named action in the run's current product state."""
    return run.product.action_names(run.state).index(name)


def product_run(env, spec, rng):
    return ProductRun(CompiledProduct(env, spec), rng)


# ---------------------------------------------------------------------------
# scripted walk: exact fires, sink flags, sweeps
# ---------------------------------------------------------------------------


def test_scripted_corridor_walk():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    run = product_run(env, chain_spec(), make_rng(0))
    assert run.product.decode(run.reset()) == ((0, 0), 0)

    next_state, fired, done = run.step(act(run, "right"))  # to (0,1): unlabeled
    assert run.product.decode(next_state) == ((0, 1), 0)
    assert (fired, done) == (False, False)

    next_state, fired, done = run.step(act(run, "right"))  # to (0,2): sees 'a'
    assert run.product.decode(next_state) == ((0, 2), 1)
    assert (fired, done) == (False, False)
    assert run.runtime.sweeps_completed == 0

    next_state, fired, done = run.step(act(run, "right"))  # to (0,3): sees 'b', accepting
    assert run.product.decode(next_state) == ((0, 3), 2)
    assert (fired, done) == (True, False)
    assert run.runtime.sweeps_completed == 1

    next_state, fired, done = run.step(act(run, "right"))  # clamped; accepting loop refires
    assert run.product.decode(next_state) == ((0, 3), 2)
    assert (fired, done) == (True, False)
    assert run.runtime.sweeps_completed == 2


def test_transition_records_source_state_and_action():
    # A step returns the plain triple (next_state, fired, done), no reward; the
    # state it left and its action are the caller's, and the trace gets both.
    env = corridor_env({})
    run = product_run(env, chain_spec(), make_rng(0))
    product = run.product
    state, action = run.reset(), act(run, "right")
    result = run.step(action)
    assert type(result) is tuple
    assert result == (product.encode((0, 1), 0), False, False)
    assert run.state == result[0]

    rows = []
    run_test(lambda _: action, product, TestConfig(rollouts=1, horizon=1),
             trace=lambda *row: rows.append(row))
    assert rows == [(0, 0, state, action, False, False)]    # the pre-step state
    assert product.decode(rows[0][2]) == ((0, 0), 0)
    assert product.action_names(rows[0][2])[rows[0][3]] == "right"


def test_custom_reward_values_flow_through():
    # What a fire pays is the learner's; the run reports the fires it pays for.
    env = corridor_env({1: {"a"}, 2: {"b"}})
    run = product_run(env, chain_spec(), make_rng(0))
    run.reset()
    assert run.step(act(run, "right"))[1:] == (False, False)  # 'a' advances, nothing fires
    assert run.step(act(run, "right"))[1:] == (True, False)   # 'b' fires the frontier
    assert run.step(act(run, "left"))[1:] == (True, False)    # q stays accepting: refires
    assert run.runtime.sweeps_completed == 2


def test_discount_follows_the_frontier_not_the_reward_sign():
    # The learner discounts by eta exactly on the steps that fire the frontier.
    env = corridor_env({1: {"a"}, 2: {"b"}})
    run = product_run(env, chain_spec(), make_rng(0))
    run.reset()
    plan = ["right", "left", "right", "right", "left", "right"]
    steps = [run.step(act(run, action)) for action in plan]
    assert [fired for _, fired, _ in steps] == [False, False, False, True, True, True]
    assert [done for _, _, done in steps] == [False] * 6


# ---------------------------------------------------------------------------
# epsilon actions
# ---------------------------------------------------------------------------


def test_epsilon_action_freezes_env_and_consumes_no_randomness():
    env = corridor_env({0: {"a"}}, slip=1.0 / 3.0)
    rng = make_rng(5)
    run = product_run(env, epsilon_spec(), rng)
    run.reset()
    before = rng.getstate()
    assert run.product.decode(run.state) == ((0, 0), 0)
    next_state, fired, _ = run.step(act(run, "epsilon_1"))
    assert rng.getstate() == before
    assert run.product.decode(next_state) == ((0, 0), 1)
    assert fired is True                         # lands in the accepting set


def test_epsilon_actions_listed_after_base_actions():
    env = corridor_env({0: {"a"}})
    run = product_run(env, epsilon_spec(), make_rng(0))
    product = run.product
    for q, names in ((0, env.actions + ("epsilon_1",)), (1, env.actions),
                     (SINK_STATE, env.actions)):
        state = product.encode((0, 0), q)
        assert product.action_names(state) == names
        assert run.available_actions(state) == range(len(names))


def snapshot(run):
    runtime = run.runtime
    return run.state, run.cell, runtime.state, runtime.frontier, run.rng.getstate()


def test_illegal_actions_raise():
    # A refused id raises before the run draws or moves, and the error names it;
    # a float that equals a legal id is refused too, as no tuple takes it.
    env = corridor_env({}, slip=1.0 / 3.0)
    run = product_run(env, epsilon_spec(), make_rng(0))
    run.reset()
    refused = (-1, -6, 1.0, -1.0, None, "up", 2**70, -2**70)
    for past_end in (5, 4):                      # q 0 offers ids 0-4, q 1 ids 0-3
        if past_end == 4:
            run.step(act(run, "epsilon_1"))      # epsilon_1 is only defined at q 0
        assert len(run.available_actions()) == past_end
        for action in refused + (past_end,):
            before = snapshot(run)
            with pytest.raises(ProductError, match=re.escape(f"illegal action {action!r} ")):
                run.step(action)
            assert snapshot(run) == before, action


def test_step_accepts_exactly_the_legal_range_on_bundled_pairs():
    # The step's own index and sign test accept the ids of available_actions(),
    # range(n) at every automaton state, and nothing else; a bool is the id 0 or 1.
    envs = sorted((bundled_data_dir() / "envs").glob("*.json"))
    ldbas = sorted((bundled_data_dir() / "ldba").glob("*.json"))
    assert len(envs) == 10 and len(ldbas) == 13
    for env_path in envs:
        env = load_env_file(env_path)
        for ldba_path in ldbas:
            product = CompiledProduct(env, load_ldba_file(ldba_path))
            run = ProductRun(product, make_rng(0))
            cell = product.initial // product.nq
            for q in range(product.nq):
                n = len(product.actions[q])
                assert product.legal[q] == range(n)
                accepted = []
                for action in (*range(-n - 2, n + 2), False, True):
                    run.cell, run.state, run.runtime.state = cell, cell * product.nq + q, q
                    try:
                        run.step(action)
                    except ProductError:
                        continue
                    accepted.append(action)
                assert accepted == [*range(n), False, True], (env_path.stem, ldba_path.stem, q)


def test_product_ids_translate_to_the_spec_numbering():
    spec = parse_ldba_spec({
        "states": [5, 2],
        "initial_state": 2,
        "alphabet": ["a"],
        "accepting_sets": [[5]],
        "transitions": {
            "2": [{"guard": "a", "to": 5}, {"guard": "true", "to": 2}],
            "5": [{"guard": "a", "to": 5}, {"guard": "true", "to": -1}],
        },
    })
    run = product_run(corridor_env({1: {"a"}}), spec, make_rng(0))
    product = run.product
    assert product.automaton.states == (5, 2, SINK_STATE)   # declaration order, sink last
    assert run.reset() == product.encode((0, 0), 2) == 1     # cell 0, automaton index 1
    next_state, fired, _ = run.step(act(run, "right"))
    assert (next_state, fired) == (product.encode((0, 1), 5), True)
    assert product.decode(next_state) == ((0, 1), 5)
    next_state, _, done = run.step(act(run, "right"))
    assert (product.decode(next_state), done) == (((0, 2), SINK_STATE), True)
    for cell, q in (((0, 4), 2), ((1, 0), 2), ((0, 0), 0)):
        with pytest.raises(KeyError):
            product.encode(cell, q)
    # Label classes are numbered per spec on first sight: another environment
    # compiled in between adds classes, and the pair compiles to the same ids.
    classes = len(spec.compiled.classes)
    CompiledProduct(corridor_env({0: {"a", "b"}, 2: {"b"}}, width=3), spec)
    assert len(spec.compiled.classes) == classes + 2
    again = CompiledProduct(product.env, spec)
    for name in ("cell_class", "actions", "legal", "epsilon", "initial"):
        assert getattr(again, name) == getattr(product, name), name


# ---------------------------------------------------------------------------
# sink behaviour
# ---------------------------------------------------------------------------


def test_done_exactly_when_sink_is_hit():
    env = corridor_env({0: {"a"}})               # at q=1, leaving 'a' sinks
    run = product_run(env, epsilon_spec(), make_rng(0))
    run.reset()
    assert run.step(act(run, "epsilon_1"))[2] is False   # q=1, env frozen on the a-cell
    next_state, _, done = run.step(act(run, "left"))  # clamped onto 'a': still alive
    assert (run.product.decode(next_state), done) == (((0, 0), 1), False)
    next_state, fired, done = run.step(act(run, "right"))  # (0, 1) is unlabeled: sink
    assert run.product.decode(next_state)[1] == SINK_STATE
    assert done is True
    assert fired is False
    next_state, _, done = run.step(act(run, "left"))  # sink is absorbing
    assert done is True
    assert run.product.decode(next_state)[1] == SINK_STATE


# ---------------------------------------------------------------------------
# invariants on random products
# ---------------------------------------------------------------------------


def test_reward_discount_coupling_randomized():
    rng = make_rng(97)
    for trial in range(30):
        env = random_env(rng)
        labels = sorted({lab for region in env.regions for lab in region.labels})
        spec = random_automaton(rng) if not labels else None
        if spec is None:
            # reuse the env's own labels so guards actually trigger
            doc = {
                "states": [0, 1],
                "initial_state": 0,
                "alphabet": labels,
                "accepting_sets": [[0, 1]],
                "transitions": {
                    "0": [{"guard": labels[0], "to": 1},
                          {"guard": "true", "to": 0}],
                    "1": [{"guard": "true", "to": 0}],
                },
            }
            spec = parse_ldba_spec(doc)
        run = product_run(env, spec, rng)
        run.reset()
        for _ in range(80):
            action = rng.choice(run.available_actions())
            runtime = run.runtime
            before = runtime.frontier, runtime.sweeps_completed
            next_state, fired, done = run.step(action)
            # fired exactly when the frontier lost a set; the sink never fires
            assert fired == ((runtime.frontier, runtime.sweeps_completed) != before)
            assert not (fired and done)
            assert done == (run.product.decode(next_state)[1] == SINK_STATE)
            if done:
                break


def test_env_and_automaton_advance_in_lockstep():
    rng = make_rng(53)
    env = corridor_env({1: {"a"}, 2: {"b"}}, slip=0.2)
    spec = chain_spec()
    run = product_run(env, spec, rng)
    run.reset()
    for _ in range(50):
        action = rng.choice(run.available_actions())
        next_state, _, _ = run.step(action)
        # the automaton component must match feeding the new cell's labels
        assert next_state % run.product.nq == run.runtime.state
        assert run.state == next_state


def test_base_moves_match_the_environment_step_and_its_rng_draws():
    # ProductRun moves the agent on compiled successor cells; GridEnv.step is
    # the reference: same cell and same rng state after every base action.
    rng = make_rng(71)
    for _ in range(20):
        env = random_env(rng)                    # slip 0, 0.1 or 1/3
        run = product_run(env, random_automaton(rng, sink_prob=0.0), make_rng(5))
        reference = make_rng(5)
        run.reset()
        cell = env.initial_state
        for _ in range(60):
            action = rng.randrange(len(env.actions))
            next_state, _, done = run.step(action)
            cell = env.step(cell, env.actions[action], reference)
            assert run.product.decode(next_state)[0] == cell
            assert run.rng.getstate() == reference.getstate()
            if done:
                break


def test_slip_draw_is_randrange_3_draw_for_draw():
    # ProductRun.step writes randrange(3)'s getrandbits loop out; same cells, same state.
    env = corridor_env({}, slip=1.0)
    for seed in range(100):
        run, reference = product_run(env, chain_spec(), make_rng(seed)), make_rng(seed)
        run.reset()
        for _ in range(5):
            outcomes = env.moves[run.cell][0]    # right, its two slips, staying put
            run.step(0)
            reference.random()
            assert run.cell == outcomes[1 + reference.randrange(3)]
        assert run.rng.getstate() == reference.getstate()
