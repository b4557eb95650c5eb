"""Closed-loop policy testing and hyper-parameter robustness sweeps.

A rollout succeeds when the automaton never hits the sink and the
accepting frontier completes at least required_sweeps full sweeps within
the horizon. Rollouts draw from per-rollout seeded generators so results
are reproducible and order-independent; sweep cells train fresh policies
on distinct seeds and aggregate mean and standard error across trials.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from random import Random

from .learner import GreedyPolicy, Hyperparams, train
from .product import ProductRun

_SEED_STRIDE = 1_000_003


@dataclass
class TestConfig:
    rollouts: int = 100
    horizon: int = 4000
    required_sweeps: int = 1
    seed: int = 0

    def validate(self):
        if self.rollouts <= 0:
            raise ValueError("rollouts must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.required_sweeps <= 0:
            raise ValueError("required_sweeps must be positive")


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


def run_test(policy, env, ldba_spec, config: TestConfig,
             reward_spec=None, trace=None) -> TestReport:
    """Roll the policy out config.rollouts times and score successes.

    trace, when given, is called with (rollout, step, transition) for
    every product transition, which is how trajectory dumps are made.
    """
    config.validate()
    if reward_spec is None:
        reward_spec = Hyperparams().reward_spec()
    outcomes = []
    for k in range(config.rollouts):
        rng = Random(config.seed * _SEED_STRIDE + k)
        run = ProductRun(env, ldba_spec, reward_spec, rng)
        state = run.reset()
        sink = False
        steps = 0
        for step in range(config.horizon):
            tr = run.step(policy(state))
            if trace is not None:
                trace(k, step, tr)
            state = tr.next_state
            steps += 1
            if tr.done:
                sink = True
                break
        sweeps = run.runtime.sweeps_completed
        success = (not sink) and sweeps >= config.required_sweeps
        outcomes.append(RolloutOutcome(success, steps, sweeps, sink))
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


def _train_and_test(env, ldba_spec, hp: Hyperparams, test_config: TestConfig) -> float:
    result = train(env, ldba_spec, hp)
    policy = GreedyPolicy(result.q_table, ldba_spec, env.actions)
    report = run_test(policy, env, ldba_spec, test_config, hp.reward_spec())
    return report.success_rate


def _sweep_job(args):
    env, ldba_spec, hp, test_config, key = args
    return key, _train_and_test(env, ldba_spec, hp, test_config)


def _mean_std(values, ddof=1):
    n = len(values)
    mean = sum(values) / n
    if n <= ddof:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - ddof)
    return mean, math.sqrt(var)


def robustness_sweep(env, ldba_spec, base_hp: Hyperparams, eta_grid, mu_grid,
                     trainings: int = 3, tests: int = 20, seed: int = 0,
                     required_sweeps: int = 1, workers: int = 4) -> SweepResult:
    """Train/test over the (eta, mu) grid; deterministic per-trial seeds."""
    if trainings <= 0:
        raise ValueError("trainings must be positive")
    jobs = []
    for ci, eta in enumerate(eta_grid):
        for cj, mu in enumerate(mu_grid):
            for t in range(trainings):
                cell = ci * len(mu_grid) + cj
                hp = replace(base_hp, discount_factor=eta, learning_rate=mu,
                             seed=seed + cell * _SEED_STRIDE + t)
                cfg = TestConfig(rollouts=tests, horizon=base_hp.iteration_num_max,
                                 required_sweeps=required_sweeps,
                                 seed=seed + cell * _SEED_STRIDE + t)
                jobs.append((env, ldba_spec, hp, cfg, (cell, t)))

    rates: dict[tuple[int, int], float] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            for key, rate in pool.map(_sweep_job, jobs):
                rates[key] = rate
    else:
        for job in jobs:
            key, rate = _sweep_job(job)
            rates[key] = rate

    cells = []
    for ci, eta in enumerate(eta_grid):
        for cj, mu in enumerate(mu_grid):
            cell = ci * len(mu_grid) + cj
            cell_rates = tuple(rates[(cell, t)] for t in range(trainings))
            mean, std = _mean_std(cell_rates)
            stderr = std / math.sqrt(len(cell_rates)) if len(cell_rates) > 1 else 0.0
            cells.append(CellReport(eta, mu, mean, stderr, cell_rates))
    overall_mean, overall_std = _mean_std([c.mean for c in cells])
    return SweepResult(cells, overall_mean, overall_std)
