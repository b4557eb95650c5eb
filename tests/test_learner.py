"""Q-table semantics, update math, convergence to closed-form values."""

from __future__ import annotations

from collections import Counter

import pytest

from ldba_synth.automaton import load_ldba_file, parse_ldba_spec
from ldba_synth.envs import load_env_file, resolve_spec_path
from ldba_synth.learner import (
    GreedyPolicy,
    Hyperparams,
    QTable,
    moving_average,
    q_update,
    select_action,
    train,
)
from ldba_synth.product import CompiledProduct

from conftest import (assert_frontier_payoffs, chain_spec, corridor_env, hazard_spec,
                      make_rng, random_automaton, random_env, record_training_steps)
from test_golden_q import GOLDEN_RUNS


def one_shot_spec():
    """The accepting state is passed through exactly once, then never again."""
    return parse_ldba_spec({
        "states": [0, 1, 2],
        "initial_state": 0,
        "alphabet": ["a"],
        "accepting_sets": [[1]],
        "transitions": {
            "0": [{"guard": "a", "to": 1}, {"guard": "true", "to": 0}],
            "1": [{"guard": "true", "to": 2}],
            "2": [{"guard": "true", "to": 2}],
        },
    })


# ---------------------------------------------------------------------------
# hyper-parameters
# ---------------------------------------------------------------------------


def test_hyperparams_defaults_give_probability_scale_rewards():
    hp = Hyperparams()
    assert hp.frontier_reward() == pytest.approx(1.0 - hp.discount_factor)


def test_hyperparams_explicit_reward_wins():
    hp = Hyperparams(discount_factor=0.9, positive_reward=2.5)
    assert hp.frontier_reward() == 2.5


@pytest.mark.parametrize("field,value", [
    ("episode_num", -1),
    ("iteration_num_max", 0),
    ("discount_factor", 1.0),
    ("discount_factor", 0.0),
    ("learning_rate", 0.0),
    ("learning_rate", 1.1),
    ("epsilon", -0.1),
    ("epsilon", 1.1),
    ("positive_reward", 0.0),
    ("positive_reward", float("nan")),
    ("positive_reward", float("inf")),
    ("q_init", float("nan")),
    ("q_init", float("inf")),
    ("q_init", float("-inf")),
    ("iteration_num_max", "20"),
    ("epsilon", None),
    ("episode_num", 2.5),
    ("seed", True),
    ("seed", -1),
    ("q_init", None),
    ("discount_factor", "0.9"),
])
def test_hyperparams_validation(field, value):
    hp = Hyperparams(**{field: value})
    with pytest.raises(ValueError):
        hp.validate()


# ---------------------------------------------------------------------------
# q table
# ---------------------------------------------------------------------------


def corridor_product():
    """Product ids of chain_spec on a corridor: nq = 4, state 0 is ((0, 0), 0),
    state 5 is ((0, 1), 1), and every state has the four corridor actions."""
    return CompiledProduct(corridor_env({}), chain_spec())


def test_qtable_unseen_entries_read_q_init():
    table = QTable(corridor_product(), q_init=0.3)
    assert table.value(0, 0) == 0.3
    assert table.best_value(0) == 0.3
    table.set(0, 0, 0.1)
    assert table.value(0, 0) == 0.1
    assert table.value(0, 1) == 0.3              # unseen action in a seen row
    assert table.best_value(0) == 0.3


def test_qtable_best_action_breaks_ties_by_lowest_index():
    table = QTable(corridor_product())
    assert table.best_action(5) == 0             # fresh state: the first action
    table.set(0, 1, 0.0)
    table.set(0, 2, 0.0)
    assert table.best_action(0) == 0
    table.set(0, 2, 0.5)
    assert table.best_action(0) == 2
    table.set(0, 1, 0.5)                         # equal max: earliest wins
    assert table.best_action(0) == 1


def test_qtable_len_items_and_equality():
    product = corridor_product()
    a = QTable(product)
    b = QTable(product)
    assert a == b
    a.set(0, 0, 1.0)
    a.set(5, 1, 2.0)
    assert len(a) == 2
    assert sorted(a.items()) == [(((0, 0), 0), "right", 1.0), (((0, 1), 1), "left", 2.0)]
    assert a != b
    b.set(0, 0, 1.0)
    b.set(5, 1, 2.0)
    assert a == b
    assert a != QTable(product, q_init=0.5)


def assert_greedy_index(table, state):
    """greedy[state] is the row's first maximum, and best_value is max(row) bit for bit."""
    row = table.rows[state]
    assert table.greedy[state] == table.best_action(state) == row.index(max(row)), row
    assert table.best_value(state).hex() == max(row).hex(), row


@pytest.mark.parametrize("q_init", [0.0, 0.5, -1.0])
def test_greedy_index_is_the_first_maximum_after_every_write(q_init):
    # Random interleavings of q_update and set over a few rows: exact ties,
    # -0.0 against 0.0, mu = 1, self-loops, and greedy entries that go down.
    rng = make_rng(29)
    product = corridor_product()
    values = (0.0, -0.0, 0.5, -1.0, 1.0, q_init)
    seen = Counter()
    for _ in range(300):
        table = QTable(product, q_init)
        states = rng.sample(range(16), 3)
        for _ in range(30):
            state, next_state, action = rng.choice(states), rng.choice(states), rng.randrange(4)
            greedy = table.greedy.get(state)
            before = table.value(state, action)
            if rng.random() < 0.3:
                table.set(state, action, rng.choice(values))
                assert_greedy_index(table, state)
                continue
            reward, gamma = rng.choice([(0.0, 1.0), (0.0, 0.0), (0.5, 0.9), (1.0, 0.5)])
            q_update(table, state, action, reward, gamma, next_state, rng.choice([1.0, 0.9, 0.5]))
            assert_greedy_index(table, state)
            row, after = table.rows[state], table.value(state, action)
            tied = greedy is not None and row[greedy] == after
            seen["self-loop"] += state == next_state
            seen["greedy went down"] += action == greedy and after < before
            seen["tie below greedy"] += tied and action < greedy
            seen["tie above greedy"] += tied and action > greedy
            seen["signed zeros"] += {"0x0.0p+0", "-0x0.0p+0"} <= {v.hex() for v in row}
        assert table.greedy.keys() == table.rows.keys()
        for state in table.rows:
            assert_greedy_index(table, state)
    assert min(seen.values()) > 0 and len(seen) == 5, seen


@pytest.mark.parametrize("key", sorted(GOLDEN_RUNS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_greedy_index_holds_on_every_row_after_training(key):
    env_name, ldba_name, hp_items = key
    env = load_env_file(resolve_spec_path(env_name, "envs"))
    spec = load_ldba_file(resolve_spec_path(ldba_name, "ldba"))
    table = train(env, spec, Hyperparams(**dict(hp_items))).q_table
    assert table.greedy.keys() == table.rows.keys()
    for state in table.rows:
        assert_greedy_index(table, state)


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------


def test_greedy_selection_consumes_no_randomness():
    table = QTable(corridor_product())
    table.set(0, 1, 1.0)
    rng = make_rng(0)
    before = rng.getstate()
    assert select_action(table, 0, range(4), 0.0, rng) == 1
    assert rng.getstate() == before


def test_full_exploration_is_uniform():
    table = QTable(corridor_product())
    table.set(0, 2, 9.9)                         # values must not matter
    rng = make_rng(1)
    actions = range(4)
    counts = Counter(select_action(table, 0, actions, 1.0, rng)
                     for _ in range(100_000))
    for action in actions:
        assert counts[action] / 100_000 == pytest.approx(0.25, abs=0.01)


def test_intermediate_epsilon_mixes_greedy_and_uniform():
    table = QTable(corridor_product())
    table.set(0, 1, 1.0)
    rng = make_rng(2)
    counts = Counter(select_action(table, 0, range(2), 0.5, rng)
                     for _ in range(100_000))
    # 1: greedy half plus half of the uniform half; 0: a quarter
    assert counts[1] / 100_000 == pytest.approx(0.75, abs=0.01)
    assert counts[0] / 100_000 == pytest.approx(0.25, abs=0.01)


@pytest.mark.parametrize("n", range(1, 10))
def test_exploring_draw_is_randrange_draw_for_draw(n):
    # select_action writes randrange's getrandbits loop out; same draws, same state.
    table = QTable(corridor_product())
    for seed in range(100):
        rng, reference = make_rng(seed), make_rng(seed)
        for _ in range(5):
            action = select_action(table, 0, range(n), 1.0, rng)
            reference.random()
            assert action == reference.randrange(n)
        assert rng.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# update rule
# ---------------------------------------------------------------------------


def test_q_update_hand_computed_values():
    table = QTable(corridor_product())
    new = q_update(table, 0, 0, reward=1.0, gamma=0.5, next_state=5, mu=0.9)
    assert new == pytest.approx(0.9)             # 0.1 * 0 + 0.9 * (1 + 0.5 * 0)
    assert table.value(0, 0) == pytest.approx(0.9)

    table.set(0, 0, 0.4)
    table.set(5, 1, 0.2)
    new = q_update(table, 0, 0, reward=0.4, gamma=0.5, next_state=5, mu=0.5)
    assert new == pytest.approx(0.45)            # 0.5 * 0.4 + 0.5 * (0.4 + 0.5 * 0.2)


def test_q_update_with_unit_learning_rate_overwrites():
    table = QTable(corridor_product())
    table.set(0, 0, 3.0)
    new = q_update(table, 0, 0, reward=0.25, gamma=1.0, next_state=0, mu=1.0)
    assert new == pytest.approx(3.25)


def test_a_step_into_the_sink_earns_its_reward_alone():
    # The sink's row is never visited, so bootstrapping from it would read q_init.
    env = corridor_env({1: {"bad"}})
    hp = Hyperparams(episode_num=1, learning_rate=1.0, epsilon=0.0, q_init=0.5)
    result = train(env, hazard_spec(), hp)
    assert result.stats[0].reached_sink
    assert result.q_table.value(result.q_table.product.initial, 0) == 0.0  # "right"


@pytest.mark.parametrize("positive_reward", [None, 2.5])
def test_updates_pay_the_frontier_reward_exactly_on_fired_steps(monkeypatch,
                                                                 positive_reward):
    # The product reports fires and the sink; train alone turns them into
    # (reward, gamma): (r, eta) on a fire, (0, 0) into the sink, (0, 1) otherwise.
    rng = make_rng(61)
    steps, updates = record_training_steps(monkeypatch)
    seen = Counter()
    for _ in range(15):
        hp = Hyperparams(episode_num=6, iteration_num_max=60, epsilon=0.5,
                         discount_factor=rng.choice([0.5, 0.8, 0.99]),
                         positive_reward=positive_reward, seed=rng.randrange(10_000))
        del steps[:], updates[:]
        train(random_env(rng), random_automaton(rng), hp)
        assert_frontier_payoffs(steps, updates, hp)
        seen.update("fired" if fired else "sink" if done else "plain"
                    for _, _, (_, fired, done) in steps)
    assert min(seen[kind] for kind in ("fired", "sink", "plain")) > 0, seen


# ---------------------------------------------------------------------------
# training end to end on tiny deterministic products
# ---------------------------------------------------------------------------


def test_endless_satisfaction_converges_to_probability_one():
    # Under the firing-step-only discount, the k-th reward is worth
    # eta^(k-1) * rp, so an endlessly firing run is worth rp / (1 - eta);
    # with the default rp = 1 - eta every certainly-satisfying state
    # converges to exactly 1.
    env = corridor_env({2: {"a"}, 3: {"b"}})
    hp = Hyperparams(episode_num=300, iteration_num_max=40,
                     discount_factor=0.5, learning_rate=0.9,
                     epsilon=0.3, seed=0)
    result = train(env, chain_spec(), hp)
    table = result.q_table
    best = table.best_value(table.product.initial)
    assert best == pytest.approx(1.0, abs=1e-5)
    for state in table.rows:
        assert table.best_value(state) <= 1.0 + 1e-9


def test_single_fire_task_converges_to_rp_with_no_eta_dependence():
    env = corridor_env({2: {"a"}})
    for eta, rp in ((0.5, None), (0.8, 2.0)):
        hp = Hyperparams(episode_num=300, iteration_num_max=30,
                         discount_factor=eta, learning_rate=0.9,
                         epsilon=0.3, seed=1, positive_reward=rp)
        expected = rp if rp is not None else 1.0 - eta
        result = train(env, one_shot_spec(), hp)
        best = result.q_table.best_value(result.q_table.product.initial)
        assert best == pytest.approx(expected, abs=1e-5)


def test_q_values_stay_in_the_reward_bound():
    rng = make_rng(23)
    for _ in range(10):
        env = random_env(rng)
        spec = random_automaton(rng)
        hp = Hyperparams(episode_num=40, iteration_num_max=60,
                         discount_factor=0.8, learning_rate=0.9,
                         epsilon=0.4, seed=rng.randrange(10_000))
        result = train(env, spec, hp)
        bound = hp.frontier_reward() / (1.0 - hp.discount_factor)
        for _, _, value in result.q_table.items():
            assert -1e-12 <= value <= bound + 1e-9


def test_training_is_bit_identical_for_equal_seeds():
    env_a = corridor_env({2: {"a"}, 3: {"b"}}, slip=0.25)
    env_b = corridor_env({2: {"a"}, 3: {"b"}}, slip=0.25)
    hp = Hyperparams(episode_num=60, iteration_num_max=50, discount_factor=0.9,
                     learning_rate=0.8, epsilon=0.2, seed=7)
    first = train(env_a, chain_spec(), hp)
    second = train(env_b, chain_spec(), hp)
    assert first.q_table == second.q_table
    assert first.stats == second.stats
    third = train(env_a, chain_spec(),
                  Hyperparams(episode_num=60, iteration_num_max=50,
                              discount_factor=0.9, learning_rate=0.8,
                              epsilon=0.2, seed=8))
    assert third.q_table != first.q_table


def test_positive_reward_scale_leaves_trajectories_untouched():
    env = corridor_env({2: {"a"}, 3: {"b"}}, slip=0.25)
    base = Hyperparams(episode_num=40, iteration_num_max=50, discount_factor=0.9,
                       learning_rate=0.8, epsilon=0.2, seed=3)
    scaled = Hyperparams(episode_num=40, iteration_num_max=50, discount_factor=0.9,
                         learning_rate=0.8, epsilon=0.2, seed=3,
                         positive_reward=1.0)
    a = train(env, chain_spec(), base)
    b = train(env, chain_spec(), scaled)
    factor = 1.0 / (1.0 - 0.9)
    for sa, sb in zip(a.stats, b.stats):
        assert (sa.steps, sa.sweeps_completed, sa.reached_sink) == \
            (sb.steps, sb.sweeps_completed, sb.reached_sink)
        assert sb.cumulative_reward == pytest.approx(sa.cumulative_reward * factor)
    assert a.q_table.written == b.q_table.written
    for state, row in a.q_table.rows.items():
        assert b.q_table.rows[state] == pytest.approx([value * factor for value in row])


def test_episode_stats_account_for_every_fire():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    hp = Hyperparams(episode_num=1, iteration_num_max=10, discount_factor=0.5,
                     learning_rate=0.9, epsilon=0.0, seed=0)
    result = train(env, chain_spec(), hp)
    (ep,) = result.stats
    # greedy on an all-zero table presses the first action, 'right':
    # two unlabeled steps, then the accepting loop fires every step
    assert ep.steps == 10
    assert ep.reached_sink is False
    assert ep.sweeps_completed == 8
    assert ep.cumulative_reward == pytest.approx(8 * 0.5)


def test_zero_episodes_returns_empty_result():
    env = corridor_env({})
    result = train(env, chain_spec(), Hyperparams(episode_num=0))
    assert result.stats == []
    assert len(result.q_table) == 0
    assert result.interrupted is False


def test_keyboard_interrupt_returns_partial_result():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    hp = Hyperparams(episode_num=100, iteration_num_max=10, discount_factor=0.5,
                     learning_rate=0.9, epsilon=0.1, seed=0)

    def blow_up(ep_stats):
        if ep_stats.episode == 3:
            raise KeyboardInterrupt

    result = train(env, chain_spec(), hp, on_episode=blow_up)
    assert result.interrupted is True
    assert len(result.stats) == 4
    assert len(result.q_table) > 0


# ---------------------------------------------------------------------------
# greedy policy wrapper
# ---------------------------------------------------------------------------


def test_greedy_policy_uses_product_action_order():
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
    product = CompiledProduct(corridor_env({}), spec)
    table = QTable(product)
    policy = GreedyPolicy(table)
    base = ("right", "left", "up", "down")
    assert product.actions == [base + ("epsilon_1",), base, base]   # q 0, q 1, sink
    state = product.encode((0, 0), 0)
    assert policy(state) == 0                    # all-zero table: first action
    table.set(state, 4, 0.9)
    assert product.action_names(state)[GreedyPolicy(table)(state)] == "epsilon_1"
    assert policy(state) == 0                    # a policy is a snapshot of its table


def test_greedy_policy_matches_best_action_on_random_tables():
    # The frozen action table answers as QTable.best_action does, on rows
    # with exact ties, rows at q_init != 0, epsilon columns and unseen states.
    rng = make_rng(83)
    seen = Counter()
    for _ in range(60):
        product = CompiledProduct(random_env(rng), random_automaton(rng, epsilon_prob=0.6))
        table = QTable(product, q_init=rng.choice([0.0, 0.5, -1.0]))
        states = rng.sample(range(len(product.cell_class) * product.nq), 6)
        for state in states[:4]:
            width = len(table.row(state))   # some rows keep q_init everywhere
            for _ in range(rng.randint(0, width)):
                table.set(state, rng.randrange(width), rng.choice([0.0, 0.5, rng.random()]))
        policy = GreedyPolicy(table)
        for state in states:
            row = table.rows.get(state)
            assert policy(state) == table.best_action(state)
            seen["unseen" if row is None else "stored"] += 1
            if row is not None:
                seen["tie"] += row.count(max(row)) > 1
                seen["q_init"] += table.q_init != 0.0 and not any(table.written[state])
                seen["epsilon"] += product.epsilon[state % product.nq][policy(state)] is not None
    assert min(seen[key] for key in ("unseen", "stored", "tie", "q_init", "epsilon")) > 0, seen


# ---------------------------------------------------------------------------
# moving average
# ---------------------------------------------------------------------------


def test_moving_average_hand_values():
    assert moving_average([1.0, 2.0, 3.0, 4.0], 2) == [1.0, 1.5, 2.5, 3.5]
    assert moving_average([1.0, 2.0], 5) == [1.0, 1.5]


def test_moving_average_default_window_is_30_percent():
    values = [float(i) for i in range(10)]
    assert moving_average(values, -1) == moving_average(values, 3)
    assert moving_average([2.0], 0) == [2.0]
