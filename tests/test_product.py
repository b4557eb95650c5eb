"""Product synchronization: reward/discount coupling, epsilon moves, sink."""

from __future__ import annotations

import pytest

from ldba_synth.automaton import SINK_STATE, parse_ldba_spec
from ldba_synth.envs import GridEnv, LabelRegion
from ldba_synth.product import ProductError, ProductRun, RewardSpec

from conftest import make_rng, random_automaton, random_env


def corridor_env(labels_by_col, width=4, slip=0.0):
    """A 1 x width corridor; labels_by_col maps column -> label set."""
    regions = [LabelRegion((0, 1), (c, c + 1), frozenset(labs))
               for c, labs in labels_by_col.items()]
    return GridEnv(height=1, width=width,
                   actions=["right", "left", "up", "down"],
                   slip_probability=slip, initial_state=(0, 0),
                   label_regions=regions)


def chain_spec():
    """Visit an a-cell, then a b-cell; b-state is the accepting loop."""
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


# ---------------------------------------------------------------------------
# reward spec
# ---------------------------------------------------------------------------


def test_reward_spec_defaults():
    spec = RewardSpec(eta=0.9)
    assert spec.positive_reward == 1.0
    assert spec.neutral_reward == 0.0


@pytest.mark.parametrize("eta", [0.0, 1.0, -0.2, 1.7])
def test_reward_spec_rejects_bad_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        RewardSpec(eta=eta)


def test_reward_spec_rejects_nonpositive_reward():
    with pytest.raises(ValueError, match="positive_reward"):
        RewardSpec(eta=0.9, positive_reward=0.0)


# ---------------------------------------------------------------------------
# scripted walk: exact rewards, discounts, sweeps
# ---------------------------------------------------------------------------


def test_scripted_corridor_walk():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    run = ProductRun(env, chain_spec(), RewardSpec(eta=0.5), make_rng(0))
    assert run.reset() == ((0, 0), 0)

    tr = run.step("right")                      # to (0,1): unlabeled
    assert tr.next_state == ((0, 1), 0)
    assert (tr.reward, tr.gamma, tr.fired, tr.done) == (0.0, 1.0, False, False)

    tr = run.step("right")                      # to (0,2): sees 'a'
    assert tr.next_state == ((0, 2), 1)
    assert (tr.reward, tr.gamma, tr.fired, tr.done) == (0.0, 1.0, False, False)
    assert run.runtime.sweeps_completed == 0

    tr = run.step("right")                      # to (0,3): sees 'b', accepting
    assert tr.next_state == ((0, 3), 2)
    assert (tr.reward, tr.gamma, tr.fired, tr.done) == (1.0, 0.5, True, False)
    assert run.runtime.sweeps_completed == 1

    tr = run.step("right")                      # clamped; accepting loop refires
    assert tr.next_state == ((0, 3), 2)
    assert (tr.reward, tr.gamma, tr.fired, tr.done) == (1.0, 0.5, True, False)
    assert run.runtime.sweeps_completed == 2


def test_transition_records_source_state_and_action():
    env = corridor_env({})
    run = ProductRun(env, chain_spec(), RewardSpec(eta=0.5), make_rng(0))
    run.reset()
    tr = run.step("right")
    assert tr.state == ((0, 0), 0)
    assert tr.action == "right"


def test_custom_reward_values_flow_through():
    env = corridor_env({1: {"a"}, 2: {"b"}})
    reward = RewardSpec(eta=0.9, positive_reward=5.0, neutral_reward=-0.25)
    run = ProductRun(env, chain_spec(), reward, make_rng(0))
    run.reset()
    first = run.step("right")                    # 'a' advances but nothing fires
    assert (first.reward, first.gamma) == (-0.25, 1.0)
    tr = run.step("right")                       # 'b' fires the frontier
    assert (tr.reward, tr.gamma) == (5.0, 0.9)
    tr = run.step("left")                        # q stays accepting: refires
    assert (tr.reward, tr.gamma) == (5.0, 0.9)
    assert run.runtime.sweeps_completed == 2


def test_discount_follows_the_frontier_not_the_reward_sign():
    # A positive neutral reward must not discount: eta applies exactly on
    # the steps that fire the frontier.
    env = corridor_env({1: {"a"}, 2: {"b"}})
    reward = RewardSpec(eta=0.9, neutral_reward=0.25)
    run = ProductRun(env, chain_spec(), reward, make_rng(0))
    run.reset()
    plan = ["right", "left", "right", "right", "left", "right"]
    fired = [run.step(action) for action in plan]
    assert [tr.fired for tr in fired] == [False, False, False, True, True, True]
    for tr in fired:
        if tr.fired:
            assert (tr.reward, tr.gamma) == (1.0, 0.9)
        else:
            assert (tr.reward, tr.gamma) == (0.25, 1.0)


# ---------------------------------------------------------------------------
# epsilon actions
# ---------------------------------------------------------------------------


def test_epsilon_action_freezes_env_and_consumes_no_randomness():
    env = corridor_env({0: {"a"}}, slip=1.0 / 3.0)
    rng = make_rng(5)
    run = ProductRun(env, epsilon_spec(), RewardSpec(eta=0.9), rng)
    run.reset()
    before = rng.getstate()
    tr = run.step("epsilon_1")
    assert rng.getstate() == before
    assert tr.state == ((0, 0), 0)
    assert tr.next_state == ((0, 0), 1)
    assert tr.fired is True                      # lands in the accepting set
    assert tr.reward == 1.0


def test_epsilon_actions_listed_after_base_actions():
    env = corridor_env({0: {"a"}})
    run = ProductRun(env, epsilon_spec(), RewardSpec(eta=0.9), make_rng(0))
    assert run.available_actions(((0, 0), 0)) == env.actions + ("epsilon_1",)
    assert run.available_actions(((0, 0), 1)) == env.actions
    assert run.available_actions(((0, 0), SINK_STATE)) == env.actions


def test_illegal_actions_raise():
    env = corridor_env({})
    run = ProductRun(env, epsilon_spec(), RewardSpec(eta=0.9), make_rng(0))
    run.reset()
    with pytest.raises(ProductError, match="illegal action"):
        run.step("epsilon_7")
    run.step("epsilon_1")
    with pytest.raises(ProductError, match="illegal action"):
        run.step("epsilon_1")                    # only defined at state 0
    with pytest.raises(ProductError, match="illegal action"):
        run.step("jump")


# ---------------------------------------------------------------------------
# sink behaviour
# ---------------------------------------------------------------------------


def test_done_exactly_when_sink_is_hit():
    env = corridor_env({0: {"a"}})               # at q=1, leaving 'a' sinks
    run = ProductRun(env, epsilon_spec(), RewardSpec(eta=0.9), make_rng(0))
    run.reset()
    assert run.step("epsilon_1").done is False   # q=1, env frozen on the a-cell
    tr = run.step("left")                        # clamped onto 'a': still alive
    assert (tr.next_state, tr.done) == (((0, 0), 1), False)
    tr = run.step("right")                       # (0, 1) is unlabeled: sink
    assert tr.next_state[1] == SINK_STATE
    assert tr.done is True
    assert tr.fired is False
    tr = run.step("left")                        # sink is absorbing
    assert tr.done is True
    assert tr.next_state[1] == SINK_STATE


# ---------------------------------------------------------------------------
# invariants on random products
# ---------------------------------------------------------------------------


def test_reward_discount_coupling_randomized():
    rng = make_rng(97)
    eta = 0.8
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
        run = ProductRun(env, spec, RewardSpec(eta=eta), rng)
        run.reset()
        for _ in range(80):
            action = rng.choice(run.available_actions())
            tr = run.step(action)
            assert (tr.reward > 0) == tr.fired
            assert tr.gamma == (eta if tr.fired else 1.0)
            assert tr.done == (tr.next_state[1] == SINK_STATE)
            if tr.done:
                break


def test_env_and_automaton_advance_in_lockstep():
    rng = make_rng(53)
    env = corridor_env({1: {"a"}, 2: {"b"}}, slip=0.2)
    spec = chain_spec()
    run = ProductRun(env, spec, RewardSpec(eta=0.5), rng)
    run.reset()
    for _ in range(50):
        action = rng.choice(run.available_actions())
        tr = run.step(action)
        # the automaton component must match feeding the new cell's labels
        assert tr.next_state[1] == run.runtime.state
        assert run.state == tr.next_state
