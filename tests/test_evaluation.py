"""Rollout scoring, reproducible seeding, and the robustness sweep."""

from __future__ import annotations

import math
from random import Random

import pytest

from ldba_synth import evaluation
from ldba_synth.automaton import load_ldba_file
from ldba_synth.envs import load_env_file, resolve_spec_path
from ldba_synth.evaluation import (
    RolloutOutcome,
    TestConfig,
    robustness_sweep,
    run_test,
)
from ldba_synth.learner import GreedyPolicy, Hyperparams, train
from ldba_synth.product import CompiledProduct, ProductRun

from conftest import chain_spec, corridor_env, hazard_spec


def press(action):
    """A policy that always takes the named corridor action, by its id."""
    action_id = ("right", "left", "up", "down").index(action)
    return lambda state: action_id


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_test_config_defaults_and_validation():
    cfg = TestConfig()
    assert (cfg.rollouts, cfg.horizon, cfg.required_sweeps, cfg.seed) == (100, 4000, 1, 0)
    for bad in (TestConfig(rollouts=0), TestConfig(horizon=0),
                TestConfig(required_sweeps=0), TestConfig(rollouts=2.5),
                TestConfig(horizon=True), TestConfig(seed=None), TestConfig(seed=-1)):
        with pytest.raises(ValueError):
            bad.validate()


# ---------------------------------------------------------------------------
# success definition
# ---------------------------------------------------------------------------


def test_success_requires_enough_sweeps_and_no_sink():
    env = corridor_env({2: {"a"}, 3: {"b"}})
    spec = chain_spec()
    report = run_test(press("right"), CompiledProduct(env, spec),
                      TestConfig(rollouts=3, horizon=20))
    assert report.success_rate == 1.0
    for outcome in report.outcomes:
        assert outcome.success is True
        assert outcome.reached_sink is False
        assert outcome.steps == 20               # no sink: runs the full horizon
        assert outcome.sweeps == 18              # two approach steps, then fires

    # same policy, but demanding more sweeps than the horizon allows
    report = run_test(press("right"), CompiledProduct(env, spec),
                      TestConfig(rollouts=3, horizon=20, required_sweeps=19))
    assert report.success_rate == 0.0
    assert all(o.sweeps == 18 and not o.success for o in report.outcomes)


def test_sink_fails_the_rollout_and_stops_it_early():
    env = corridor_env({1: {"bad"}})
    report = run_test(press("right"), CompiledProduct(env, hazard_spec()),
                      TestConfig(rollouts=2, horizon=50))
    assert report.success_rate == 0.0
    for outcome in report.outcomes:
        assert outcome.reached_sink is True
        assert outcome.steps == 1                # died on the first move
        assert outcome.sweeps == 0


def test_no_sweeps_without_sink_still_fails():
    env = corridor_env({})                       # nothing to satisfy
    report = run_test(press("left"), CompiledProduct(env, chain_spec()),
                      TestConfig(rollouts=2, horizon=10))
    assert report.success_rate == 0.0
    assert all(o.steps == 10 and not o.reached_sink for o in report.outcomes)


def test_success_rate_is_the_outcome_mean():
    env = corridor_env({2: {"a"}, 3: {"b"}}, slip=0.4)
    report = run_test(press("right"), CompiledProduct(env, chain_spec()),
                      TestConfig(rollouts=40, horizon=15, required_sweeps=5))
    assert 0.0 <= report.success_rate <= 1.0
    assert report.success_rate == pytest.approx(
        sum(o.success for o in report.outcomes) / 40)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_rollouts_are_reproducible_and_order_independent():
    product = CompiledProduct(corridor_env({2: {"a"}, 3: {"b"}}, slip=0.3), chain_spec())
    five = run_test(press("right"), product, TestConfig(rollouts=5, horizon=30, seed=4))
    ten = run_test(press("right"), product, TestConfig(rollouts=10, horizon=30, seed=4))
    assert ten.outcomes[:5] == five.outcomes     # per-rollout seeded generators
    again = run_test(press("right"), product, TestConfig(rollouts=5, horizon=30, seed=4))
    assert again == five
    other_seed = run_test(press("right"), product,
                          TestConfig(rollouts=5, horizon=30, seed=5))
    assert other_seed != five


def test_trace_sees_every_transition():
    product = CompiledProduct(corridor_env({2: {"a"}, 3: {"b"}}, slip=0.2), chain_spec())
    rows, config = [], TestConfig(rollouts=3, horizon=12, seed=1)
    report = run_test(press("right"), product, config, trace=lambda *row: rows.append(row))
    assert len(rows) == sum(o.steps for o in report.outcomes)
    for k, outcome in enumerate(report.outcomes):
        chunk = [row[1:] for row in rows if row[0] == k]
        assert [step for step, *_ in chunk] == list(range(len(chunk)))
        # reset before every rollout
        assert product.decode(chunk[0][1]) == ((0, 0), 0)
        # replayed on the rollout's generator: each step leaves from the
        # state the one before it reached, and reports what it fired
        run = ProductRun(product, Random(config.seed * evaluation._SEED_STRIDE + k))
        run.reset()
        for step, state, action, fired, done in chunk:
            assert state == run.state
            assert run.step(action)[1:] == (fired, done)
        assert done == outcome.reached_sink


def reference_rollouts(qtable, config):
    """run_test spelled out, reading qtable.best_action at every step.

    Returns the outcomes, every (rollout, step, state, action, fired, done)
    and each rollout's final generator state.
    """
    outcomes, transitions, rng_states = [], [], []
    for k in range(config.rollouts):
        rng = Random(config.seed * evaluation._SEED_STRIDE + k)
        run = ProductRun(CompiledProduct(qtable.product.env, qtable.product.spec), rng)
        state, steps, sink = run.reset(), 0, False
        while steps < config.horizon and not sink:
            action = qtable.best_action(state)
            next_state, fired, sink = run.step(action)
            transitions.append((k, steps, state, action, fired, sink))
            state, steps = next_state, steps + 1
        sweeps = run.runtime.sweeps_completed
        outcomes.append(RolloutOutcome(not sink and sweeps >= config.required_sweeps,
                                       steps, sweeps, sink))
        rng_states.append(rng.getstate())
    return outcomes, transitions, rng_states


@pytest.mark.parametrize("env_name, ldba_name", [
    ("minecraft", "minecraft-t1"),       # slip
    ("gridworld-1", "goal1-or-goal2"),   # epsilon-moves
])
def test_run_test_matches_a_best_action_reference_loop(monkeypatch, env_name, ldba_name):
    env = load_env_file(resolve_spec_path(env_name, "envs"))
    spec = load_ldba_file(resolve_spec_path(ldba_name, "ldba"))
    hp = Hyperparams(episode_num=40, iteration_num_max=600, epsilon=0.05, seed=2)
    qtable = train(env, spec, hp).q_table
    config = TestConfig(rollouts=12, horizon=600, seed=3)

    generators, seeds, states = [], [], []   # run_test's generators and reseeds

    class RecordedRandom(Random):
        def __init__(self, *args):
            super().__init__(*args)
            generators.append(self)

        def seed(self, a=None, version=2):
            if a is not None:   # a reseed, not the entropy seeding of Random()
                seeds.append(a)
                states.append(self.getstate())   # where the rollout before left it
            super().seed(a, version)

    monkeypatch.setattr(evaluation, "Random", RecordedRandom)
    transitions = []
    report = run_test(GreedyPolicy(qtable), qtable.product, config,
                      trace=lambda *row: transitions.append(row))
    (rng,) = generators   # one generator serves every rollout
    assert seeds == [config.seed * evaluation._SEED_STRIDE + k for k in range(config.rollouts)]
    finals = states[1:] + [rng.getstate()]   # each rollout's final generator state
    expected = reference_rollouts(qtable, config)
    assert (report.outcomes, transitions, finals) == expected

    # each pair exercises what it is here for: slip draws in every rollout,
    # and greedy epsilon-moves on gridworld-1
    assert all(final != Random(seed).getstate() for seed, final in zip(seeds, finals))
    product = qtable.product
    epsilon_steps = sum(product.epsilon[state % product.nq][action] is not None
                        for _, _, state, action, _, _ in transitions)
    assert (epsilon_steps > 0) == (env_name == "gridworld-1")


# ---------------------------------------------------------------------------
# robustness sweep
# ---------------------------------------------------------------------------


def sweep_args():
    env = corridor_env({2: {"a"}, 3: {"b"}}, slip=0.1)
    spec = chain_spec()
    base = Hyperparams(episode_num=15, iteration_num_max=25, epsilon=0.2)
    return env, spec, base


def test_sweep_reports_every_cell_with_stats():
    env, spec, base = sweep_args()
    result = robustness_sweep(env, spec, base, eta_grid=[0.5, 0.9],
                              mu_grid=[0.5, 0.9], trainings=3, tests=5,
                              seed=2, workers=1)
    assert [(c.eta, c.mu) for c in result.cells] == [
        (0.5, 0.5), (0.5, 0.9), (0.9, 0.5), (0.9, 0.9)]
    for cell in result.cells:
        assert len(cell.rates) == 3
        mean = sum(cell.rates) / 3
        assert cell.mean == pytest.approx(mean)
        var = sum((r - mean) ** 2 for r in cell.rates) / 2
        assert cell.stderr == pytest.approx(math.sqrt(var) / math.sqrt(3))
    means = [c.mean for c in result.cells]
    assert result.overall_mean == pytest.approx(sum(means) / 4)
    overall_var = sum((m - result.overall_mean) ** 2 for m in means) / 3
    assert result.overall_std == pytest.approx(math.sqrt(overall_var))


def test_sweep_is_deterministic_across_worker_counts():
    env, spec, base = sweep_args()
    serial = robustness_sweep(env, spec, base, eta_grid=[0.5, 0.9],
                              mu_grid=[0.7], trainings=2, tests=4,
                              seed=3, workers=1)
    parallel = robustness_sweep(env, spec, base, eta_grid=[0.5, 0.9],
                                mu_grid=[0.7], trainings=2, tests=4,
                                seed=3, workers=3)
    assert serial == parallel


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for one that maps in-process; lists the sizes asked for."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return started


def test_sweep_pool_never_exceeds_the_job_count(pool_sizes):
    # The fake pool maps in-process, so the test starts no process.
    env, spec, base = sweep_args()
    pooled = robustness_sweep(env, spec, base, eta_grid=[0.5, 0.9], mu_grid=[0.7],
                              trainings=2, tests=4, seed=3, workers=64)
    assert pool_sizes == [4]
    serial = robustness_sweep(env, spec, base, eta_grid=[0.5, 0.9], mu_grid=[0.7],
                              trainings=2, tests=4, seed=3, workers=1)
    assert pooled == serial


def test_sweep_rejects_nonpositive_trainings():
    env, spec, base = sweep_args()
    with pytest.raises(ValueError, match="trainings"):
        robustness_sweep(env, spec, base, [0.5], [0.5], trainings=0)


def test_sweep_rejects_a_negative_seed_before_any_job(monkeypatch, pool_sizes):
    def fail(job):
        raise AssertionError("no job may start")

    monkeypatch.setattr("ldba_synth.evaluation._sweep_job", fail)
    env, spec, base = sweep_args()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        robustness_sweep(env, spec, base, [0.5], [0.5], trainings=1, tests=1, seed=-1)
    assert pool_sizes == []


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_nonpositive_workers_before_any_job(monkeypatch, pool_sizes, workers):
    def fail(job):
        raise AssertionError("no job may start")

    monkeypatch.setattr("ldba_synth.evaluation._sweep_job", fail)
    env, spec, base = sweep_args()
    with pytest.raises(ValueError, match="workers must be positive"):
        robustness_sweep(env, spec, base, [0.5], [0.5], trainings=1, tests=1, workers=workers)
    assert pool_sizes == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("empty", ["eta_grid", "mu_grid"])
def test_sweep_rejects_an_empty_grid_before_any_job(monkeypatch, pool_sizes, workers,
                                                     empty):
    def fail(job):
        raise AssertionError("no job may start")

    monkeypatch.setattr("ldba_synth.evaluation._sweep_job", fail)
    env, spec, base = sweep_args()
    grids = {"eta_grid": [0.5], "mu_grid": [0.5], empty: []}
    with pytest.raises(ValueError, match=empty):
        robustness_sweep(env, spec, base, trainings=1, tests=1, workers=workers, **grids)
    assert pool_sizes == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("eta_grid, mu_grid, match", [
    ([0.9, 1.5], [0.9], "discount_factor"),   # the good cell comes first
    ([0.9], [0.9, 0.0], "learning_rate"),
])
def test_sweep_rejects_a_bad_grid_cell_before_any_job(monkeypatch, pool_sizes, workers,
                                                       eta_grid, mu_grid, match):
    def fail(job):
        raise AssertionError("no job may start")

    monkeypatch.setattr("ldba_synth.evaluation._sweep_job", fail)
    env, spec, base = sweep_args()
    with pytest.raises(ValueError, match=match):
        robustness_sweep(env, spec, base, eta_grid, mu_grid, trainings=2, tests=1,
                         workers=workers)
    assert pool_sizes == []


def test_sweep_learns_on_the_easy_cell():
    # with a workable (eta, mu) pair the corridor task is learned outright
    env, spec, base = sweep_args()
    result = robustness_sweep(env, spec,
                              Hyperparams(episode_num=60, iteration_num_max=30,
                                          epsilon=0.2),
                              eta_grid=[0.9], mu_grid=[0.9],
                              trainings=2, tests=10, seed=0, workers=1)
    (cell,) = result.cells
    assert cell.mean == 1.0
