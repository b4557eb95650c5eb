"""End-to-end acceptance gate for the released package.

Each test checks one release criterion and prints a single
``[acceptance] criterion N (...): PASS/FAIL`` verdict line (run with
``-s`` or ``-rA`` to see the lines for passing tests). The verdicts pin
the tolerances and wall-clock budgets the release is held to:

1. exact oracle vs. brute-force policy enumeration on random products,
2. learner/oracle agreement on the bundled crafting benchmark,
3. sequential-milestone coverage on the bundled slippery-grid benchmark,
4. hyper-parameter robustness grid on the bundled icy-lake benchmark,
5. randomized invariant suites (reward coupling, frontier accounting,
   epsilon purity, sink absorption, determinism, value bounds),
6. documented exclusions: the deep-approximator algorithms are refused.

Criteria 2-4 perform real training runs and take several minutes.
"""

from __future__ import annotations

import time

import pytest

from conftest import (assert_frontier_payoffs, brute_force_value, make_rng, random_automaton,
                      random_env, random_explicit_product, record_training_steps, remaining)

from ldba_synth import (SINK_STATE, GreedyPolicy, Hyperparams, LdbaRuntime, ProductRun,
                        TestConfig, build_explicit_product, load_env_file, load_ldba_file,
                        max_sat_probability, resolve_spec_path, robustness_sweep, run_test,
                        train)
from ldba_synth.cli import EXIT_CONFIG, main
from ldba_synth.product import CompiledProduct

pytestmark = pytest.mark.acceptance


def _bundled(env_name: str, ldba_name: str):
    env = load_env_file(resolve_spec_path(env_name, "envs"))
    spec = load_ldba_file(resolve_spec_path(ldba_name, "ldba"))
    return env, spec


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: oracle correctness against an independent reference
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_matches_policy_enumeration():
    """On >= 50 random products (<= 12 states) the exact oracle agrees with
    brute-force enumeration of deterministic memoryless policies to 1e-8.

    The generator draws a single accepting set: that is the regime where
    memoryless policies attain the optimum, so the enumeration is an exact
    independent reference (with several sets it is only a lower bound; the
    divergence is pinned by a dedicated counterexample in test_oracle.py).
    """
    rng = make_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        prod = random_explicit_product(rng, max_states=12, max_actions=2,
                                       n_accepting_sets=1)
        exact = max_sat_probability(prod).initial_value
        reference = brute_force_value(prod)
        worst = max(worst, abs(exact - reference))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _verdict(1, "oracle vs policy enumeration", ok,
             f"50 random products: max deviation {worst:.3e} (tolerance 1e-8), "
             f"{elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# criterion 2: learner agrees with the oracle on the crafting benchmark
# ---------------------------------------------------------------------------


def test_criterion_2_learner_matches_oracle_on_crafting_benchmark():
    """minecraft + minecraft-t1 at the benchmark hyper-parameters: in at
    least 9 of 10 seeded runs max_a Q(p0, a) must reach 0.95 and land within
    0.05 of the oracle value, which is exactly 1.0 on this map."""
    env, spec = _bundled("minecraft", "minecraft-t1")
    oracle = max_sat_probability(build_explicit_product(env, spec)).initial_value

    learned = []
    slowest = 0.0
    for seed in range(10):
        hp = Hyperparams(episode_num=500, iteration_num_max=4000,
                         discount_factor=0.95, learning_rate=0.9, epsilon=0.1,
                         seed=seed)
        start = time.monotonic()
        result = train(env, spec, hp)
        slowest = max(slowest, time.monotonic() - start)
        learned.append(result.q_table.best_value(result.q_table.product.initial))

    agreeing = sum(1 for q in learned if q >= 0.95 and abs(q - oracle) <= 0.05)
    ok = oracle == 1.0 and agreeing >= 9 and slowest < 300.0
    _verdict(2, "learner-oracle agreement", ok,
             f"oracle {oracle:.6f} (must be 1.0), agreement in {agreeing}/10 runs "
             f"(need >= 9), learned Q(p0) in [{min(learned):.4f}, {max(learned):.4f}], "
             f"slowest run {slowest:.0f}s (budget 300s)")


# ---------------------------------------------------------------------------
# criterion 3: sequential-task coverage on the slippery milestone grid
# ---------------------------------------------------------------------------


def test_criterion_3_sequential_milestones_policy_succeeds():
    """slp-sml + slp-hard (four ordered milestones): the trained greedy
    policy completes at least one full milestone sweep in >= 90% of test
    rollouts at the benchmark hyper-parameters."""
    env, spec = _bundled("slp-sml", "slp-hard")
    hp = Hyperparams(episode_num=500, iteration_num_max=1000,
                     discount_factor=0.99, learning_rate=0.9, epsilon=0.2,
                     seed=0)
    start = time.monotonic()
    result = train(env, spec, hp)
    policy = GreedyPolicy(result.q_table)
    config = TestConfig(rollouts=100, horizon=1000, required_sweeps=1, seed=0)
    report = run_test(policy, result.q_table.product, config)
    elapsed = time.monotonic() - start
    ok = report.success_rate >= 0.90 and elapsed < 600.0
    _verdict(3, "sequential milestone coverage", ok,
             f"success rate {report.success_rate:.3f} over 100 rollouts "
             f"(need >= 0.90), {elapsed:.0f}s (budget 600s)")


# ---------------------------------------------------------------------------
# criterion 4: robustness across the hyper-parameter grid
# ---------------------------------------------------------------------------


def test_criterion_4_hyperparameter_robustness_grid():
    """frozen-lake-sml + frozen-lake-reach swept over discount/learning-rate
    in {0.2, 0.4, 0.6, 0.8, 0.99}^2 with 3 trainings x 20 tests per cell:
    the overall average success rate must reach 0.85."""
    env, spec = _bundled("frozen-lake-sml", "frozen-lake-reach")
    base = Hyperparams(episode_num=400, iteration_num_max=2000, epsilon=0.1)
    grid = (0.2, 0.4, 0.6, 0.8, 0.99)
    start = time.monotonic()
    sweep = robustness_sweep(env, spec, base, grid, grid, trainings=3,
                             tests=20, seed=0, required_sweeps=1, workers=4)
    elapsed = time.monotonic() - start
    lo = min(cell.mean for cell in sweep.cells)
    hi = max(cell.mean for cell in sweep.cells)
    ok = sweep.overall_mean >= 0.85 and elapsed < 1800.0
    _verdict(4, "hyper-parameter robustness", ok,
             f"overall success {sweep.overall_mean:.4f} +/- {sweep.overall_std:.4f} "
             f"(need >= 0.85), cell means {lo:.2f}..{hi:.2f} over 25 cells, "
             f"{elapsed:.0f}s (budget 1800s on 4 workers)")


# ---------------------------------------------------------------------------
# criterion 5: invariant suites over randomized specs
# ---------------------------------------------------------------------------


def test_criterion_5_invariant_suites():
    """Randomized re-checks of the core invariants: reward/discount coupling,
    frontier conservation and sweep counting, epsilon purity, sink
    absorption, bit-identical seeded reruns, and Q-value bounds."""
    start = time.monotonic()
    rng = make_rng(20240555)
    coupling_steps = 0
    eps_checks = 0

    try:
        # sink absorption on synchronized runs, then reward/discount coupling
        # on the same pairs, read from the updates that training feeds
        for _ in range(15):
            env = random_env(rng)
            spec = random_automaton(rng)
            seed = rng.randrange(2**32)
            run = ProductRun(CompiledProduct(env, spec), make_rng(seed))
            run.reset()
            sunk = False
            for _ in range(80):
                next_state, fired, done = run.step(rng.choice(run.available_actions()))
                if sunk:
                    assert run.product.decode(next_state)[1] == SINK_STATE
                    assert done and not fired
                sunk = sunk or done
            hp = Hyperparams(episode_num=3, iteration_num_max=80, discount_factor=0.8,
                             epsilon=1.0, seed=seed)
            with pytest.MonkeyPatch.context() as patch:
                steps, updates = record_training_steps(patch)
                train(env, spec, hp)
            assert_frontier_payoffs(steps, updates, hp)
            coupling_steps += len(steps)

        # frontier conservation and sweep counting
        for _ in range(40):
            spec = random_automaton(rng)
            runtime = LdbaRuntime(spec)
            n = len(spec.accepting_sets)
            fires = 0
            for _ in range(120):
                fires += runtime.advance_frontier(
                    spec.compiled.index[rng.choice(spec.states + (SINK_STATE,))])
                assert 1 <= len(remaining(runtime)) <= n
                assert fires == (runtime.sweeps_completed * n
                                 + (n - len(remaining(runtime))))

        # epsilon purity: the environment and its randomness stay frozen
        for _ in range(400):
            if eps_checks >= 25:
                break
            spec = random_automaton(rng, epsilon_prob=0.9)
            env = random_env(rng)
            wheel = make_rng(rng.randrange(2**32))
            run = ProductRun(CompiledProduct(env, spec), wheel)
            run.reset()
            for _ in range(40):
                names = run.product.action_names(run.state)
                eps = [a for a in run.available_actions()
                       if names[a].startswith("epsilon_")]
                if eps:
                    cell, state_before = run.product.decode(run.state)[0], wheel.getstate()
                    next_state, _, done = run.step(rng.choice(eps))
                    assert run.product.decode(next_state)[0] == cell
                    assert wheel.getstate() == state_before
                    eps_checks += 1
                else:
                    _, _, done = run.step(rng.choice(run.available_actions()))
                if done:
                    break
        assert eps_checks >= 25

        # bit-identical seeded reruns
        for _ in range(6):
            env = random_env(rng)
            spec = random_automaton(rng)
            hp = Hyperparams(episode_num=25, iteration_num_max=40,
                             seed=rng.randrange(10**6))
            first = train(env, spec, hp)
            second = train(env, spec, hp)
            assert first.q_table == second.q_table
            assert first.stats == second.stats

        # Q-value bounds: every entry within [0, rp / (1 - eta)]
        for _ in range(6):
            env = random_env(rng)
            spec = random_automaton(rng)
            hp = Hyperparams(episode_num=30, iteration_num_max=50,
                             discount_factor=rng.choice([0.5, 0.9, 0.99]),
                             seed=rng.randrange(10**6))
            result = train(env, spec, hp)
            bound = hp.frontier_reward() / (1.0 - hp.discount_factor)
            for _, _, value in result.q_table.items():
                assert -1e-12 <= value <= bound + 1e-9
    except AssertionError as exc:
        _verdict(5, "invariant suites", False, f"violated: {exc}")
        raise

    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    _verdict(5, "invariant suites", ok,
             f"coupling over {coupling_steps} transitions, frontier accounting, "
             f"epsilon purity ({eps_checks} checks), sink absorption, "
             f"bit-identical reruns, Q bounds all hold, {elapsed:.0f}s (budget 120s)")


# ---------------------------------------------------------------------------
# criterion 6: documented exclusions
# ---------------------------------------------------------------------------


def test_criterion_6_documented_exclusions(capsys):
    """Deep-function-approximator training (and with it the arcade and
    continuous-space benchmarks) plus wall-clock timing comparisons are
    documented as out of scope in the README rather than asserted here; the
    CLI must refuse the corresponding algorithm selectors outright."""
    refused = {}
    for algorithm in ("nfq", "ddpg"):
        code = main(["train", "--env", "minecraft", "--ldba", "minecraft-t1",
                     "--algorithm", algorithm])
        err = capsys.readouterr().err
        refused[algorithm] = (code == EXIT_CONFIG and "out of scope" in err)
    ok = all(refused.values())
    _verdict(6, "documented exclusions", ok,
             f"nfq/ddpg refused with exit code {EXIT_CONFIG} and an "
             f"out-of-scope message: {refused}; arcade/continuous benchmarks "
             f"and wall-clock comparisons documented as out of scope in README")
