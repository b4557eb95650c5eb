"""Command-line front end: train, test, oracle, sweep.

This is the only module that writes files or prints. Exit codes: 0 on
success, 2 on configuration errors (missing or invalid specs, bad
flags), 3 on model/spec incompatibility, 4 when the explicit product
exceeds the state cap. The LDBA_SYNTH_RESULTS environment variable
overrides --save_dir. Interrupting a training run (Ctrl-C) saves the
partial outcomes before exiting.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .automaton import LdbaSpecError, load_ldba_file, spec_to_document
from .envs import EnvSpecError, env_to_document, load_env_file, resolve_spec_path
from .evaluation import TestConfig, robustness_sweep, run_test
from .learner import Hyperparams, QTable, greedy_policy, moving_average, train
from .oracle import (DEFAULT_STATE_CAP, ProductSizeError, build_explicit_product,
                     greedy_product_policy, max_sat_probability)
from .product import RewardSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPATIBLE = 3
EXIT_SIZE_CAP = 4

_OUT_OF_SCOPE = {"nfq", "ddpg"}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# persistence helpers
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def spec_hash(document: dict) -> str:
    compact = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


def save_model(path, env_hash, ldba_hash, hp: Hyperparams, result) -> None:
    entries = [
        {"s": [cell[0], cell[1]], "q": q, "action": action, "value": value}
        for ((cell, q), action, value) in result.q_table.items()
    ]
    entries.sort(key=lambda e: (e["s"][0], e["s"][1], e["q"], e["action"]))
    payload = {
        "format": "ldba-synth-model",
        "env_hash": env_hash,
        "ldba_hash": ldba_hash,
        "seed": hp.seed,
        "hyperparams": asdict(hp),
        "interrupted": result.interrupted,
        "entries": entries,
    }
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def load_model(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"no such model file: {path}")
    except json.JSONDecodeError as err:
        raise CliError(f"model file {path} is not valid JSON (line {err.lineno})")
    if not isinstance(payload, dict) or payload.get("format") != "ldba-synth-model":
        raise CliError(f"model file {path} has an unrecognized format")
    problem = _model_problem(payload)
    if problem:
        raise CliError(f"model file {path} is malformed: {problem}")
    return payload


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _model_problem(payload: dict) -> str | None:
    """What makes a decoded model unusable by `test`, or None."""
    for key in ("env_hash", "ldba_hash"):
        if not isinstance(payload.get(key), str):
            return f"{key!r} must be a string"
    hp = payload.get("hyperparams", {})
    if not isinstance(hp, dict):
        return "'hyperparams' must be an object"
    checks = {
        "iteration_num_max": lambda v: _is_int(v) and v > 0,
        "discount_factor": lambda v: _is_number(v) and 0.0 < v < 1.0,
        "positive_reward": lambda v: v is None or (_is_number(v) and v > 0.0),
        "q_init": _is_number,
    }
    for key, valid in checks.items():
        if key in hp and not valid(hp[key]):
            return f"hyperparameter {key!r} has an invalid value {hp[key]!r}"
    entries = payload.get("entries")
    if not isinstance(entries, list):
        return "'entries' must be a list"
    for k, entry in enumerate(entries):
        cell = entry.get("s") if isinstance(entry, dict) else None
        if not (isinstance(cell, list) and len(cell) == 2 and all(map(_is_int, cell))
                and _is_int(entry.get("q")) and isinstance(entry.get("action"), str)
                and _is_number(entry.get("value"))):
            return f"entry {k} needs s: [int, int], q: int, a string action, a numeric value"
    return None


def model_qtable(payload: dict) -> QTable:
    qtable = QTable(payload.get("hyperparams", {}).get("q_init", 0.0))
    for entry in payload["entries"]:
        state = ((entry["s"][0], entry["s"][1]), entry["q"])
        qtable.set(state, entry["action"], entry["value"])
    return qtable


def write_train_stats(path, stats) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["episode", "return", "steps", "sweeps", "sink"])
        for ep in stats:
            writer.writerow([ep.episode, repr(ep.cumulative_reward), ep.steps,
                             ep.sweeps_completed, int(ep.reached_sink)])


def write_moving_average(path, averages) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["episode", "average_return"])
        for i, value in enumerate(averages):
            writer.writerow([i, repr(value)])


def write_test_results(path, report, config: TestConfig, oracle_reference) -> None:
    payload = {
        "config": {
            "rollouts": config.rollouts,
            "horizon": config.horizon,
            "required_sweeps": config.required_sweeps,
            "seed": config.seed,
        },
        "success_rate": report.success_rate,
        "oracle_reference": oracle_reference,
        "per_rollout": [
            {"success": o.success, "steps": o.steps, "sweeps": o.sweeps,
             "sink": o.reached_sink}
            for o in report.outcomes
        ],
    }
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def write_sweep_csv(path, sweep) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["eta", "mu", "mean", "stderr"])
        for cell in sweep.cells:
            writer.writerow([repr(cell.eta), repr(cell.mu), repr(cell.mean),
                             repr(cell.stderr)])
        writer.writerow(["overall", "", repr(sweep.overall_mean),
                         repr(sweep.overall_std)])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_spec_flags(parser):
    parser.add_argument("--env", required=True,
                        help="environment spec file (or bundled benchmark name)")
    parser.add_argument("--ldba", required=True,
                        help="automaton spec file (or bundled benchmark name)")
    parser.add_argument("--save_dir", default="./results",
                        help="output directory (LDBA_SYNTH_RESULTS overrides)")
    parser.add_argument("--seed", type=int, default=0)


def _add_training_flags(parser):
    parser.add_argument("--algorithm", default="ql")
    parser.add_argument("--episode_num", type=int, default=2500)
    parser.add_argument("--iteration_num_max", type=int, default=4000)
    parser.add_argument("--discount_factor", type=float, default=0.95)
    parser.add_argument("--learning_rate", type=float, default=0.9)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--average_window", type=int, default=-1)
    parser.add_argument("--positive_reward", type=float, default=None,
                        help="frontier reward (default: 1 - discount_factor)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldba-synth",
        description="Policy synthesis for Buchi-automaton tasks on labeled grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run tabular Q-learning and save the model")
    _add_spec_flags(p_train)
    _add_training_flags(p_train)
    p_train.add_argument("--test", action=argparse.BooleanOptionalAction, default=True,
                         help="run a closed-loop test after training")
    p_train.add_argument("--rollouts", type=int, default=100)
    p_train.add_argument("--required_sweeps", type=int, default=1)

    p_test = sub.add_parser("test", help="test a saved model with greedy rollouts")
    _add_spec_flags(p_test)
    p_test.add_argument("--model", default=None,
                        help="model file (default: <save_dir>/learned_model.json)")
    p_test.add_argument("--rollouts", type=int, default=100)
    p_test.add_argument("--horizon", type=int, default=None,
                        help="rollout length (default: the model's iteration_num_max)")
    p_test.add_argument("--required_sweeps", type=int, default=1)
    p_test.add_argument("--trace", default=None,
                        help="also dump rollout trajectories to this CSV file")

    p_oracle = sub.add_parser("oracle",
                              help="exact maximal satisfaction probability")
    _add_spec_flags(p_oracle)
    p_oracle.add_argument("--state_cap", type=int, default=DEFAULT_STATE_CAP)
    p_oracle.add_argument("--dump_values", default=None,
                          help="write per-product-state values to this CSV file")

    p_sweep = sub.add_parser("sweep", help="robustness sweep over eta and mu")
    _add_spec_flags(p_sweep)
    _add_training_flags(p_sweep)
    p_sweep.add_argument("--grid_eta", default="0.2,0.4,0.6,0.8,0.99")
    p_sweep.add_argument("--grid_mu", default="0.2,0.4,0.6,0.8,0.99")
    p_sweep.add_argument("--trainings", type=int, default=3)
    p_sweep.add_argument("--tests", type=int, default=20)
    p_sweep.add_argument("--required_sweeps", type=int, default=1)
    p_sweep.add_argument("--workers", type=int, default=4)
    return parser


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------


def _load_specs(args):
    try:
        env_path = resolve_spec_path(args.env, "envs")
        ldba_path = resolve_spec_path(args.ldba, "ldba")
    except FileNotFoundError as err:
        raise CliError(str(err))
    try:
        env = load_env_file(env_path)
    except EnvSpecError as err:
        raise CliError(f"environment spec {env_path}: {err}")
    try:
        spec = load_ldba_file(ldba_path)
    except LdbaSpecError as err:
        raise CliError(f"automaton spec {ldba_path}: {err}")
    return env, spec


def _output_dir(args) -> Path:
    save_dir = os.environ.get("LDBA_SYNTH_RESULTS") or args.save_dir
    path = Path(save_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise CliError(f"cannot create save_dir {path}: {err}")
    return path


def _check_algorithm(name: str):
    if name in _OUT_OF_SCOPE:
        raise CliError(
            f"algorithm {name!r} is out of scope for this build; only tabular 'ql' "
            "is available")
    if name != "ql":
        raise CliError(f"unknown algorithm {name!r}; only 'ql' is available")


def _hyperparams(args) -> Hyperparams:
    hp = Hyperparams(
        algorithm=args.algorithm,
        episode_num=args.episode_num,
        iteration_num_max=args.iteration_num_max,
        discount_factor=args.discount_factor,
        learning_rate=args.learning_rate,
        epsilon=args.epsilon,
        test=getattr(args, "test", True),
        save_dir=args.save_dir,
        average_window=args.average_window,
        seed=args.seed,
        positive_reward=args.positive_reward,
    )
    try:
        hp.validate()
    except ValueError as err:
        raise CliError(str(err))
    return hp


def _oracle_reference(env, spec, state_cap=DEFAULT_STATE_CAP):
    try:
        prod = build_explicit_product(env, spec, state_cap)
    except ProductSizeError:
        return None
    return max_sat_probability(prod).initial_value


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    _check_algorithm(args.algorithm)
    env, spec = _load_specs(args)
    out = _output_dir(args)
    hp = _hyperparams(args)

    every = max(1, hp.episode_num // 10)
    window = hp.average_window if hp.average_window > 0 else max(
        1, round(0.3 * max(hp.episode_num, 1)))
    returns: list[float] = []

    def progress(ep_stats):
        returns.append(ep_stats.cumulative_reward)
        if (ep_stats.episode + 1) % every == 0:
            avg = sum(returns[-window:]) / len(returns[-window:])
            print(f"[train] episode {ep_stats.episode + 1}/{hp.episode_num}  "
                  f"avg_return={avg:.4f}  sweeps={ep_stats.sweeps_completed}  "
                  f"steps={ep_stats.steps}")

    result = train(env, spec, hp, on_episode=progress)
    if result.interrupted:
        print("[train] interrupted; saving partial outcomes")

    env_hash = spec_hash(env_to_document(env))
    ldba_hash = spec_hash(spec_to_document(spec))
    model_path = out / "learned_model.json"
    save_model(model_path, env_hash, ldba_hash, hp, result)
    write_train_stats(out / "train_stats.csv", result.stats)
    averages = moving_average([ep.cumulative_reward for ep in result.stats],
                              hp.average_window)
    write_moving_average(out / "moving_average.csv", averages)
    print(f"[train] model saved to {model_path}")

    if hp.test and not result.interrupted:
        policy = greedy_policy(result.q_table, spec, env.actions)
        config = TestConfig(rollouts=args.rollouts, horizon=hp.iteration_num_max,
                            required_sweeps=args.required_sweeps, seed=hp.seed)
        report = run_test(policy, env, spec, config, hp.reward_spec())
        write_test_results(out / "test_results.json", report, config,
                           _oracle_reference(env, spec))
        print(f"[test] success rate {report.success_rate:.4f} over "
              f"{config.rollouts} rollouts")

    print("[train] reload with: ldba-synth test "
          f"--env {args.env} --ldba {args.ldba} --model {model_path}")
    return EXIT_OK


def cmd_test(args) -> int:
    env, spec = _load_specs(args)
    out = _output_dir(args)
    model_path = args.model or (out / "learned_model.json")
    payload = load_model(model_path)

    env_hash = spec_hash(env_to_document(env))
    ldba_hash = spec_hash(spec_to_document(spec))
    if payload["env_hash"] != env_hash or payload["ldba_hash"] != ldba_hash:
        raise CliError(
            f"model {model_path} was trained against different specs "
            "(hash mismatch); refusing to test", EXIT_INCOMPATIBLE)

    stored_hp = payload.get("hyperparams", {})
    horizon = args.horizon or stored_hp.get("iteration_num_max", 4000)
    config = TestConfig(rollouts=args.rollouts, horizon=horizon,
                        required_sweeps=args.required_sweeps, seed=args.seed)
    qtable = model_qtable(payload)
    policy = greedy_policy(qtable, spec, env.actions)

    # trace rewards/discounts with the model's own shaping, not the defaults
    eta = stored_hp.get("discount_factor", 0.95)
    rp = stored_hp.get("positive_reward")
    reward = RewardSpec(eta=eta,
                        positive_reward=rp if rp is not None else 1.0 - eta)

    trace_rows = []
    trace = None
    if args.trace:
        def trace(rollout, step, tr):
            (row, col), q = tr.state
            trace_rows.append([rollout, step, row, col, q, tr.action,
                               repr(tr.reward), repr(tr.gamma), int(tr.done)])

    report = run_test(policy, env, spec, config, reward, trace=trace)
    write_test_results(out / "test_results.json", report, config,
                       _oracle_reference(env, spec))
    if args.trace:
        with open(args.trace, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["episode", "step", "row", "col", "q", "action",
                             "reward", "gamma", "done"])
            writer.writerows(trace_rows)
    print(f"[test] success rate {report.success_rate:.4f} over "
          f"{config.rollouts} rollouts")
    return EXIT_OK


def cmd_oracle(args) -> int:
    env, spec = _load_specs(args)
    try:
        prod = build_explicit_product(env, spec, args.state_cap)
    except ProductSizeError as err:
        raise CliError(str(err), EXIT_SIZE_CAP)
    result = max_sat_probability(prod)
    print(f"maximal satisfaction probability from the initial state: "
          f"{result.initial_value:.4f}")
    if args.dump_values:
        with open(args.dump_values, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["state", "row", "col", "q", "value"])
            for i, ((row, col), q) in enumerate(prod.states):
                writer.writerow([i, row, col, q, repr(result.values[i])])
        print(f"[oracle] values written to {args.dump_values}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_algorithm(args.algorithm)
    env, spec = _load_specs(args)
    out = _output_dir(args)
    hp = _hyperparams(args)
    try:
        eta_grid = [float(v) for v in args.grid_eta.split(",") if v]
        mu_grid = [float(v) for v in args.grid_mu.split(",") if v]
    except ValueError:
        raise CliError("grid flags must be comma-separated floats")
    if not eta_grid or not mu_grid:
        raise CliError("grid flags must name at least one value each")

    sweep = robustness_sweep(env, spec, hp, eta_grid, mu_grid,
                             trainings=args.trainings, tests=args.tests,
                             seed=args.seed, required_sweeps=args.required_sweeps,
                             workers=args.workers)
    write_sweep_csv(out / "sweep.csv", sweep)
    print(f"[sweep] overall average success {sweep.overall_mean:.4f} "
          f"+/- {sweep.overall_std:.4f} over {len(sweep.cells)} cells")
    print(f"[sweep] table written to {out / 'sweep.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "test": cmd_test, "oracle": cmd_oracle,
                "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
