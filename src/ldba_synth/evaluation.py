"""Closed-loop policy testing and hyper-parameter robustness sweeps.

A rollout succeeds when the automaton never hits the sink and the
accepting frontier completes at least required_sweeps full sweeps within
the horizon. The rollouts run on the compiled product the caller holds,
the one a policy's Q table was learned on; one product run serves every
rollout and its generator is reseeded per rollout, so results are
reproducible and order-independent. Sweep cells train fresh policies on
distinct seeds and aggregate mean and standard error across trials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from random import Random

from .envs import require_field_types, require_positive
from .learner import GreedyPolicy, Hyperparams, train
from .product import ProductRun

_SEED_STRIDE = 1_000_003


@dataclass
class TestConfig:
    """What one closed-loop test reads; the only home of each test default."""

    rollouts: int = 100
    horizon: int = Hyperparams.iteration_num_max
    required_sweeps: int = 1
    seed: int = 0

    def validate(self):
        require_field_types(self)
        require_positive(rollouts=self.rollouts, horizon=self.horizon,
                         required_sweeps=self.required_sweeps)
        if self.seed < 0:  # Random(-s) seeds as Random(s) does
            raise ValueError("seed must be >= 0")


@dataclass
class RolloutOutcome:
    success: bool
    steps: int
    sweeps: int
    reached_sink: bool


@dataclass
class TestReport:
    success_rate: float
    outcomes: list[RolloutOutcome]


def run_test(policy, product, config: TestConfig, trace=None) -> TestReport:
    """Roll the policy out config.rollouts times on product and score successes.

    trace, when given, is called with (rollout, step, state, action, fired,
    done) for every product step: the product id and action id it left
    from, and the fired and done flags ProductRun.step returned. This is
    how trajectory dumps are made.
    """
    config.validate()
    outcomes = []
    rng = Random()  # reseeded per rollout; seed(s) leaves the state Random(s) starts in
    run = ProductRun(product, rng)
    run_step = run.step
    for k in range(config.rollouts):
        rng.seed(config.seed * _SEED_STRIDE + k)
        state = run.reset()
        for step in range(config.horizon):  # validated >= 1, so step and done are set
            action = policy(state)
            next_state, fired, done = run_step(action)
            if trace is not None:
                trace(k, step, state, action, fired, done)
            state = next_state
            if done:
                break
        sweeps = run.runtime.sweeps_completed
        success = not done and sweeps >= config.required_sweeps
        outcomes.append(RolloutOutcome(success, step + 1, sweeps, done))
    rate = sum(1 for o in outcomes if o.success) / len(outcomes)
    return TestReport(rate, outcomes)


# ---------------------------------------------------------------------------
# robustness sweep
# ---------------------------------------------------------------------------


@dataclass
class CellReport:
    eta: float
    mu: float
    mean: float
    stderr: float
    rates: tuple[float, ...]


@dataclass
class SweepResult:
    cells: list[CellReport]
    overall_mean: float
    overall_std: float


def _sweep_job(args) -> float:
    env, ldba_spec, hp, test_config = args
    qtable = train(env, ldba_spec, hp).q_table
    return run_test(GreedyPolicy(qtable), qtable.product, test_config).success_rate


def _mean_std(values):
    """Mean and sample standard deviation; one value has deviation 0."""
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def robustness_sweep(env, ldba_spec, base_hp: Hyperparams, eta_grid, mu_grid,
                     trainings: int = 3, tests: int = 20, seed: int = 0,
                     required_sweeps: int = TestConfig.required_sweeps,
                     workers: int = 4) -> SweepResult:
    """Train and test over the (eta, mu) grid; the only home of each sweep default."""
    require_positive(trainings=trainings, tests=tests, required_sweeps=required_sweeps,
                     workers=workers)
    if seed < 0:  # checked before any job; Random(-s) seeds as Random(s) does
        raise ValueError("seed must be >= 0")
    for name, values in (("eta_grid", eta_grid), ("mu_grid", mu_grid)):
        if not len(values):
            raise ValueError(f"{name} must name at least one value")
    grid = list(itertools.product(eta_grid, mu_grid))
    jobs = []
    for cell, (eta, mu) in enumerate(grid):
        for t in range(trainings):
            trial_seed = seed + cell * _SEED_STRIDE + t
            hp = replace(base_hp, discount_factor=eta, learning_rate=mu, seed=trial_seed)
            hp.validate()  # a bad cell fails here, before any job runs
            cfg = TestConfig(tests, base_hp.iteration_num_max, required_sweeps, trial_seed)
            jobs.append((env, ldba_spec, hp, cfg))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rates = list(pool.map(_sweep_job, jobs))
    else:
        rates = [_sweep_job(job) for job in jobs]

    cells = []
    for cell, (eta, mu) in enumerate(grid):
        cell_rates = tuple(rates[cell * trainings:(cell + 1) * trainings])
        mean, std = _mean_std(cell_rates)
        stderr = std / math.sqrt(len(cell_rates))
        cells.append(CellReport(eta, mu, mean, stderr, cell_rates))
    overall_mean, overall_std = _mean_std([c.mean for c in cells])
    return SweepResult(cells, overall_mean, overall_std)
