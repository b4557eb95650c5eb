"""Command-line front end: train, test, oracle, sweep.

This is the only module that writes files or prints. Exit codes: 0 on
success, 2 on configuration errors (missing or invalid specs, bad
flags), 3 on model/spec incompatibility, 4 when the explicit product
exceeds the state cap, 141 (128 + SIGPIPE) when standard output closes
early, as under ``| head``. The LDBA_SYNTH_RESULTS environment variable
overrides --save_dir. Interrupting a training run (Ctrl-C) saves the
partial outcomes before exiting.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

from .automaton import LdbaSpecError, load_ldba_file, spec_to_document
from .envs import (EnvSpecError, decode_json, env_to_document, is_int, is_number,
                   load_env_file, read_text, require_positive, resolve_spec_path)
from .evaluation import TestConfig, robustness_sweep, run_test
from .learner import GreedyPolicy, Hyperparams, QTable, average_window, moving_average, train
from .oracle import (DEFAULT_STATE_CAP, ProductSizeError, build_explicit_product,
                     check_state_slots, max_sat_probability)
from .product import CompiledProduct

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPATIBLE = 3
EXIT_SIZE_CAP = 4
EXIT_CLOSED_STDOUT = 141

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
    entries = sorted(({"s": [cell[0], cell[1]], "q": q, "action": action, "value": value}
                      for ((cell, q), action, value) in result.q_table.items()),
                     key=lambda e: (e["s"][0], e["s"][1], e["q"], e["action"]))
    payload = {
        "format": "ldba-synth-model",
        "env_hash": env_hash,
        "ldba_hash": ldba_hash,
        "seed": hp.seed,
        "hyperparams": asdict(hp),
        "interrupted": result.interrupted,
        "entries": entries,
    }
    _write_json(path, payload)


def load_model(path) -> dict:
    payload = decode_json(read_text(path, CliError, "model"), CliError, f"model file {path}")
    if not isinstance(payload, dict) or payload.get("format") != "ldba-synth-model":
        raise CliError(f"model file {path} has an unrecognized format")
    problem = _model_problem(payload)
    if problem:
        raise CliError(f"model file {path} is malformed: {problem}")
    return payload


# The stored hyper-parameters `test` reads, checked by Hyperparams.validate; a
# model may omit any of them, other keys are ignored.
_STORED_HYPERPARAMS = ("iteration_num_max", "discount_factor", "positive_reward", "q_init")


def _model_problem(payload: dict) -> str | None:
    """What makes a decoded model unusable by `test`, or None."""
    for key in ("env_hash", "ldba_hash"):
        if not isinstance(payload.get(key), str):
            return f"{key!r} must be a string"
    hp = payload.get("hyperparams", {})
    if not isinstance(hp, dict):
        return "'hyperparams' must be an object"
    try:
        _stored_hyperparams(payload).validate()
    except ValueError as err:
        return f"hyperparameters: {err}"
    entries = payload.get("entries")
    if not isinstance(entries, list):
        return "'entries' must be a list"
    seen = set()  # (row, col, q, action) of each entry so far
    for k, entry in enumerate(entries):
        cell = entry.get("s") if isinstance(entry, dict) else None
        if not (isinstance(cell, list) and len(cell) == 2 and all(map(is_int, cell))
                and is_int(entry.get("q")) and isinstance(entry.get("action"), str)
                and is_number(entry.get("value")) and math.isfinite(entry["value"])):
            return f"entry {k} needs s: [int, int], q: int, a string action, a finite value"
        key = (*cell, entry["q"], entry["action"])
        if key in seen:
            return f"entry {k} repeats s {cell}, q {entry['q']}, action {entry['action']!r}"
        seen.add(key)
    return None


def _stored_hyperparams(payload: dict) -> Hyperparams:
    """The training settings a loaded model records; missing ones take the defaults."""
    stored = payload.get("hyperparams", {})
    return Hyperparams(**{key: stored[key] for key in _STORED_HYPERPARAMS if key in stored})


def model_qtable(payload: dict, product) -> QTable:
    """The Q table of a loaded model over product's ids; a foreign entry exits 2."""
    qtable = QTable(product, _stored_hyperparams(payload).q_init)
    for k, entry in enumerate(payload["entries"]):
        try:
            state = product.encode(tuple(entry["s"]), entry["q"])
            action = product.action_names(state).index(entry["action"])
        except (KeyError, ValueError):
            raise CliError(f"model entry {k} ({entry['s']}, q {entry['q']}, {entry['action']!r})"
                           " is not a state and legal action of this product") from None
        qtable.set(state, action, entry["value"])
    return qtable


def _open_output(path, mode="w"):
    """Open an output file for writing; an unwritable path exits with code 2."""
    try:
        return open(path, mode, newline="", encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot write {path}: {err}")


def _write_json(path, payload) -> None:
    with _open_output(path) as handle:
        handle.write(canonical_json(payload))


def _write_csv(path, header, rows) -> None:
    with _open_output(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_train_stats(path, stats) -> None:
    _write_csv(path, ["episode", "return", "steps", "sweeps", "sink"],
               ([ep.episode, repr(ep.cumulative_reward), ep.steps, ep.sweeps_completed,
                 int(ep.reached_sink)] for ep in stats))


def write_moving_average(path, averages) -> None:
    _write_csv(path, ["episode", "average_return"],
               ([i, repr(value)] for i, value in enumerate(averages)))


def write_test_results(path, report, config: TestConfig, oracle_reference) -> None:
    payload = {
        "config": asdict(config),
        "success_rate": report.success_rate,
        "oracle_reference": oracle_reference,
        "per_rollout": [
            {"success": o.success, "steps": o.steps, "sweeps": o.sweeps,
             "sink": o.reached_sink}
            for o in report.outcomes
        ],
    }
    _write_json(path, payload)


def write_sweep_csv(path, sweep) -> None:
    rows = [[repr(c.eta), repr(c.mu), repr(c.mean), repr(c.stderr)] for c in sweep.cells]
    rows.append(["overall", "", repr(sweep.overall_mean), repr(sweep.overall_std)])
    _write_csv(path, ["eta", "mu", "mean", "stderr"], rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_spec_flags(parser):
    parser.add_argument("--env", required=True, metavar="SPEC",
                        help="environment spec file (or bundled benchmark name)")
    parser.add_argument("--ldba", required=True, metavar="SPEC",
                        help="automaton spec file (or bundled benchmark name)")


def _add_run_flags(parser):
    parser.add_argument("--save_dir", default="./results", metavar="DIR",
                        help="output directory (LDBA_SYNTH_RESULTS overrides)")
    parser.add_argument("--seed", type=int, metavar="N")


def _add_training_flags(parser, grid=False):
    """The training flags; each but --algorithm names a Hyperparams field.

    An unset one takes that field's default. The sweep's grid sets
    discount_factor and learning_rate in every cell.
    """
    parser.add_argument("--algorithm", default="ql", metavar="NAME")
    parser.add_argument("--episode_num", type=int, metavar="N")
    parser.add_argument("--iteration_num_max", type=int, metavar="N")
    if not grid:
        parser.add_argument("--discount_factor", type=float, metavar="ETA")
        parser.add_argument("--learning_rate", type=float, metavar="MU")
    parser.add_argument("--epsilon", type=float, metavar="P")
    parser.add_argument("--positive_reward", type=float, metavar="R",
                        help="frontier reward (default: 1 - discount_factor)")


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every command's parser, or only command's when it names one: the texts are the same."""
    # argparse makes a help formatter per argument; given a width, none asks the terminal
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="ldba-synth", formatter_class=formatter,
        description="Policy synthesis for Buchi-automaton tasks on labeled grids")
    built = (command,) if command in COMMANDS else COMMANDS
    sub = parser.add_subparsers(dest="command", required=True, parser_class=partial(
        argparse.ArgumentParser, formatter_class=formatter),
        metavar="{%s}" % ",".join(COMMANDS) if len(built) == 1 else None)

    if "train" in built:
        p = sub.add_parser("train", help="run tabular Q-learning and save the model")
        _add_spec_flags(p)
        _add_run_flags(p)
        _add_training_flags(p)
        p.add_argument("--average_window", type=int, default=-1, metavar="N",
                       help="moving-average window (default: 30%% of the episodes)")
        p.add_argument("--test", action=argparse.BooleanOptionalAction, default=True,
                       help="run a closed-loop test after training")
        p.add_argument("--rollouts", type=int, metavar="N")
        p.add_argument("--required_sweeps", type=int, metavar="N")

    if "test" in built:
        p = sub.add_parser("test", help="test a saved model with greedy rollouts")
        _add_spec_flags(p)
        _add_run_flags(p)
        p.add_argument("--model", default=None, metavar="FILE",
                       help="model file (default: <save_dir>/learned_model.json)")
        p.add_argument("--rollouts", type=int, metavar="N")
        p.add_argument("--horizon", type=int, default=None, metavar="N",
                       help="rollout length (default: the model's iteration_num_max)")
        p.add_argument("--required_sweeps", type=int, metavar="N")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="also dump rollout trajectories to this CSV file")

    if "oracle" in built:
        p = sub.add_parser("oracle", help="exact maximal satisfaction probability")
        _add_spec_flags(p)
        p.add_argument("--state_cap", type=int, default=DEFAULT_STATE_CAP, metavar="N")
        p.add_argument("--dump_values", default=None, metavar="FILE",
                       help="write per-product-state values to this CSV file")

    if "sweep" in built:
        p = sub.add_parser("sweep", help="robustness sweep over eta and mu")
        _add_spec_flags(p)
        _add_run_flags(p)
        _add_training_flags(p, grid=True)
        p.add_argument("--grid_eta", default="0.2,0.4,0.6,0.8,0.99", metavar="LIST")
        p.add_argument("--grid_mu", default="0.2,0.4,0.6,0.8,0.99", metavar="LIST")
        p.add_argument("--trainings", type=int, metavar="N")
        p.add_argument("--tests", type=int, metavar="N")
        p.add_argument("--required_sweeps", type=int, metavar="N")
        p.add_argument("--workers", type=int, metavar="N")
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
        return load_env_file(env_path), load_ldba_file(ldba_path)
    except EnvSpecError as err:
        raise CliError(f"environment spec {env_path}: {err}")
    except LdbaSpecError as err:
        raise CliError(f"automaton spec {ldba_path}: {err}")


def _save_dir(args) -> Path:
    return Path(os.environ.get("LDBA_SYNTH_RESULTS") or args.save_dir)


def _created(path: Path) -> Path:
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


def _checked(check, *args, **kwargs) -> None:
    """Run a range check; an out-of-range value exits with code 2."""
    try:
        check(*args, **kwargs)
    except ValueError as err:
        raise CliError(str(err))


def _given(args, *names) -> dict:
    """The flags among names that the command line sets, by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _options(cls, args, **defaults):
    """A checked cls from the flags given; unset fields take defaults, else cls's own."""
    options = cls(**{**defaults, **_given(args, *(f.name for f in fields(cls)))})
    _checked(options.validate)
    return options


def _oracle_reference(env, spec):
    return max_sat_probability(build_explicit_product(env, spec)).initial_value


def _test_and_report(out, qtable, config, trace=None) -> None:
    """Roll out qtable's greedy policy on its product, write test_results.json, print the rate."""
    product = qtable.product
    report = run_test(GreedyPolicy(qtable), product, config, trace=trace)
    write_test_results(out / "test_results.json", report, config,
                       _oracle_reference(product.env, product.spec))
    print(f"[test] success rate {report.success_rate:.4f} over "
          f"{config.rollouts} rollouts")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    _check_algorithm(args.algorithm)
    env, spec = _load_specs(args)
    check_state_slots(env, spec)  # exits 4 before save_dir or a per-cell table is made
    hp = _options(Hyperparams, args)
    # The test settings are checked before training, with --no-test too.
    config = _options(TestConfig, args, horizon=hp.iteration_num_max, seed=hp.seed)
    out = _created(_save_dir(args))

    every = max(1, hp.episode_num // 10)
    window = average_window(args.average_window, hp.episode_num)
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
                              args.average_window)
    write_moving_average(out / "moving_average.csv", averages)
    print(f"[train] model saved to {model_path}")

    if args.test and not result.interrupted:
        _test_and_report(out, result.q_table, config)

    print("[train] reload with: ldba-synth test "
          f"--env {args.env} --ldba {args.ldba} --model {model_path}")
    return EXIT_OK


def cmd_test(args) -> int:
    env, spec = _load_specs(args)
    check_state_slots(env, spec)
    out = _save_dir(args)
    model_path = args.model or (out / "learned_model.json")
    payload = load_model(model_path)

    env_hash = spec_hash(env_to_document(env))
    ldba_hash = spec_hash(spec_to_document(spec))
    if payload["env_hash"] != env_hash or payload["ldba_hash"] != ldba_hash:
        raise CliError(
            f"model {model_path} was trained against different specs "
            "(hash mismatch); refusing to test", EXIT_INCOMPATIBLE)

    stored = _stored_hyperparams(payload)
    config = _options(TestConfig, args, horizon=stored.iteration_num_max)
    product = CompiledProduct(env, spec)
    qtable = model_qtable(payload, product)
    _created(out)

    # The trace file is opened before the rollouts, so a bad path fails fast.
    with _open_output(args.trace) if args.trace else nullcontext() as handle:
        trace = None
        if handle:
            writer = csv.writer(handle)
            writer.writerow(["episode", "step", "row", "col", "q", "action",
                             "reward", "gamma", "done"])
            fire, sink, plain = stored.payoffs()  # what the model was trained on

            def trace(rollout, step, state, action, fired, done):
                (row, col), q = product.decode(state)
                writer.writerow([rollout, step, row, col, q,
                                 product.action_names(state)[action],
                                 *(fire if fired else sink if done else plain), int(done)])

        _test_and_report(out, qtable, config, trace)
    return EXIT_OK


def cmd_oracle(args) -> int:
    _checked(require_positive, state_cap=args.state_cap)
    env, spec = _load_specs(args)
    dump = args.dump_values
    if dump:  # a bad path fails before the build; the file is written after the solve
        existed = os.path.lexists(dump)
        _open_output(dump, "a").close()  # appending truncates nothing
        if not existed:
            os.remove(dump)
    prod = build_explicit_product(env, spec, args.state_cap)
    result = max_sat_probability(prod)
    print(f"maximal satisfaction probability from the initial state: "
          f"{result.initial_value:.4f}")
    if dump:
        # csv.writer's lines, as no field holds a comma, a quote or a line end; the
        # sink node, id SINK = -1, reads the last entry of cells and of qs
        cells = [f"{row},{col}" for row, col in env.cells] + ["-1,-1"]
        qs = list(map(str, spec.compiled.states))
        nq = len(qs)  # the product's ids are cell * nq + q
        with _open_output(dump) as handle:
            handle.write("state,row,col,q,value\r\n")
            handle.writelines(f"{i},{cells[node // nq]},{qs[node % nq]},{value!r}\r\n"
                              for i, (node, value) in enumerate(zip(prod.states, result.values)))
        print(f"[oracle] values written to {dump}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_algorithm(args.algorithm)
    env, spec = _load_specs(args)
    check_state_slots(env, spec)
    hp = _options(Hyperparams, args)
    counts = _given(args, "trainings", "tests", "required_sweeps", "workers")
    _checked(require_positive, **counts)
    try:
        eta_grid = [float(v) for v in args.grid_eta.split(",") if v]
        mu_grid = [float(v) for v in args.grid_mu.split(",") if v]
    except ValueError:
        raise CliError("grid flags must be comma-separated floats")
    if not eta_grid or not mu_grid:
        raise CliError("grid flags must name at least one value each")
    # Every grid cell is checked before save_dir is made or any job starts.
    for eta, mu in itertools.product(eta_grid, mu_grid):
        _checked(replace(hp, discount_factor=eta, learning_rate=mu).validate)
    out = _created(_save_dir(args))

    sweep = robustness_sweep(env, spec, hp, eta_grid, mu_grid, **counts,
                             **_given(args, "seed"))
    write_sweep_csv(out / "sweep.csv", sweep)
    print(f"[sweep] overall average success {sweep.overall_mean:.4f} "
          f"+/- {sweep.overall_std:.4f} over {len(sweep.cells)} cells")
    print(f"[sweep] table written to {out / 'sweep.csv'}")
    return EXIT_OK


# the commands in their help order, with their handlers
COMMANDS = {"train": cmd_train, "test": cmd_test, "oracle": cmd_oracle, "sweep": cmd_sweep}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (CliError, ProductSizeError) as err:  # the latter: a product over the cap
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, CliError) else EXIT_SIZE_CAP


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the flush at exit now goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
