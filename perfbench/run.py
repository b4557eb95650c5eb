#!/usr/bin/env python3
"""Benchmark of the ldba-synth command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload craft-learn --seed 0 --seconds 35 --trace 0

One process runs one workload: it times the set-up (import plus spec
parsing), then repeats closed-loop cycles of ``train``/``test``/``oracle``
commands through ``ldba_synth.cli.main`` until ``--seconds`` have passed,
and reports medians over the cycles, times in reference units (see
reference.py). ``--trace 1`` instead alternates an untraced and a traced
cycle and reports per-layer metrics. Outputs are checked against
invariants and, for seeds in ``goldens.json``, against values pinned
when the benchmark was added. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process, both modes.
See README.md in this directory for the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
GOLDENS = HERE / "goldens.json"

# (name, unit, direction); fail_ratio and the learning quality are printed
# next to these but are not timed, so they gate through `correct` instead.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_steps_per_ref", "steps/ref", "higher"),
    ("test_steps_per_ref", "steps/ref", "higher"),
    ("oracle_refs", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
AS_MEASURED = (
    ("train_steps_per_s", "steps/s", "higher"),
    ("test_steps_per_s", "steps/s", "higher"),
    ("oracle_s", "s", "lower"),
)
QUALITY = (
    ("oracle_gap", "probability", "lower"),
    ("test_success_rate", "fraction", "higher"),
    ("fail_ratio", "fraction", "lower"),
)
SETUP_REPS = 5
SETUP_REPS_PER_CYCLE = 3
TRAIN_SEEDS = 4
VALUE_TOL = 1e-9
# Bundled learn pairs whose oracle value is exactly 1.0 at the seed commit.
VALUE_ONE_PAIRS = {("minecraft", "minecraft-t1"), ("slp-sml", "slp-hard"),
                   ("slp-sml", "slp-easy")}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every command at toy size (self-test)")
    return parser.parse_args(argv)


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": platform.processor() or platform.machine(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(pairs, env_paths):
    """Import ldba_synth and its CLI afresh and parse every spec; timed.

    The package is dropped from sys.modules first, so its module bodies
    execute again; the standard library stays imported. Returns the
    seconds taken, the package, its modules and the parsed specs.
    """
    for name in [n for n in sys.modules if n.split(".")[0] == "ldba_synth"]:
        del sys.modules[name]
    gc.collect()  # start from a clean heap, not from the last cycle's garbage
    start = perf_counter()
    pkg = importlib.import_module("ldba_synth")
    importlib.import_module("ldba_synth.cli")
    specs = {
        (env, ldba): (pkg.load_env_file(pkg.resolve_spec_path(env_paths[env], "envs")),
                      pkg.load_ldba_file(pkg.resolve_spec_path(ldba, "ldba")))
        for env, ldba in pairs
    }
    seconds = perf_counter() - start
    modules = {name: sys.modules["ldba_synth." + name]
               for name in ("cli", "automaton", "envs", "product", "learner",
                            "oracle", "evaluation")}
    return seconds, pkg, modules, specs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Failures:
    """Failed operations, keyed by (cycle, operation) so each counts once."""

    def __init__(self):
        self.by_op: dict[tuple, list[str]] = {}

    def add(self, cycle: int, op: str, message: str) -> None:
        self.by_op.setdefault((cycle, op), []).append(message)

    def count(self) -> int:
        return len(self.by_op)

    def messages(self) -> list[str]:
        return [f"cycle {c} {op}: {m}" for (c, op), ms in self.by_op.items() for m in ms]


LEARN_KEYS = ("q_sha256", "train_steps", "rollouts_sha256", "rollout_steps")


def learn_record(outputs: dict) -> dict:
    """What one train seed must reproduce: Q table, rollouts, step counts."""
    train, test = outputs.get("train", {}), outputs.get("test", {})
    return {key: train.get(key, test.get(key)) for key in LEARN_KEYS}


def check_cycle(k: int, cycle, learn_ref, solve_ref, workload, failures: Failures) -> None:
    """Exit codes, invariants, and equality with earlier cycles of the run.

    learn_ref is the first cycle with the same train seed, solve_ref the
    first cycle of the run; either is None for the cycle itself.
    """
    for op, message in cycle.errors:
        failures.add(k, op, message)
    out = cycle.outputs
    test = out.get("test")
    learn_pair = (workload.learn.env, workload.learn.ldba)
    if test is not None:
        if not 0.0 <= test["success_rate"] <= 1.0:
            failures.add(k, "test", f"success rate {test['success_rate']} outside [0, 1]")
        if learn_pair in VALUE_ONE_PAIRS and test["oracle_reference"] != 1.0:
            failures.add(k, "test", f"oracle reference {test['oracle_reference']!r} on "
                                    f"{learn_pair}, expected 1.0")
    for i, solved in enumerate(out.get("solve", [])):
        if solved is None:
            continue
        value, pair = solved["value"], workload.solve[i]
        if not 0.0 <= value <= 1.0:
            failures.add(k, f"oracle{i}", f"oracle value {value} outside [0, 1]")
        if pair in VALUE_ONE_PAIRS and value != 1.0:
            failures.add(k, f"oracle{i}", f"oracle value {value!r} on {pair}, expected 1.0")
        if pair == learn_pair and test is not None and test["oracle_reference"] != value:
            failures.add(k, "test", f"test oracle reference {test['oracle_reference']!r} "
                                    f"differs from the oracle command's {value!r}")
    if learn_ref is not None:
        mine, first = learn_record(out), learn_record(learn_ref.outputs)
        for key in LEARN_KEYS:
            if mine[key] != first[key]:
                op = "train" if key.startswith(("q_", "train")) else "test"
                failures.add(k, op, f"{key} differs from an earlier cycle with this seed")
    if solve_ref is not None:
        for i, (mine, first) in enumerate(zip(out["solve"], solve_ref.outputs["solve"])):
            if mine != first:
                failures.add(k, f"oracle{i}", "result differs from the run's first cycle")


def golden_record(learn_refs: dict, solve_outputs: list, counts: list[dict]) -> dict:
    """What goldens.json pins for one workload and run seed."""
    return {
        "learn": {str(ts): learn_record(c.outputs) for ts, c in learn_refs.items()},
        "solve": [dict(value=s["value"], **c) for s, c in zip(solve_outputs, counts)],
    }


def check_golden(record: dict, golden: dict, failures: Failures) -> None:
    for ts, got in record["learn"].items():
        want = golden["learn"].get(ts)
        for key in LEARN_KEYS if want is not None else ():
            if got[key] != want[key]:
                op = "train" if key.startswith(("q_", "train")) else "test"
                failures.add(0, op, f"train seed {ts}: {key} {got[key]} != golden {want[key]}")
    for i, (got, want) in enumerate(zip(record["solve"], golden["solve"])):
        if abs(got["value"] - want["value"]) > VALUE_TOL:
            failures.add(0, f"oracle{i}", f"value {got['value']!r} != golden {want['value']!r}")
        for key in ("states", "edges", "mecs"):
            if got[key] != want[key]:
                failures.add(0, f"oracle{i}", f"{key} {got[key]} != golden {want[key]}")


def check_counts(k: int, layer: dict, outputs: dict, counts: list[dict],
                 learn_counts: dict, repeats: int, failures: Failures) -> None:
    """The traced cycle's counts must equal what the outputs say exactly."""
    train, test = outputs.get("train"), outputs.get("test")
    if train is None or test is None:
        return
    steps = train["train_steps"] + test["rollout_steps"]
    expected = {
        "product.step_calls": steps,
        "automaton.step_calls": steps,
        "automaton.frontier_calls": steps,
        "learner.select_action_calls": train["train_steps"],
        "learner.q_update_calls": train["train_steps"],
        "learner.policy_calls": test["rollout_steps"],
        "learner.episodes": train["episodes"],
        "learner.sink_episodes": train["sink_episodes"],
        "learner.q_entries": train["q_entries"],
        "evaluation.rollouts": test["rollouts"],
        "evaluation.rollout_steps": test["rollout_steps"],
        "product.reset_calls": train["episodes"] + test["rollouts"],
        # one reference solve inside `test` plus every oracle command
        **{f"oracle.{key}": learn_counts[key] + repeats * sum(c[key] for c in counts)
           for key in ("states", "edges", "mecs")},
    }
    for name, want in expected.items():
        if layer[name] != want:
            failures.add(k, "trace", f"{name} = {layer[name]}, outputs say {want}")
    if layer["envs.step_calls"] > steps:
        failures.add(k, "trace", "more environment steps than product steps")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: int, size: str,
            workdir: Path) -> dict:
    from hazard import write_hazard_lake
    from probes import LAYER_METRICS, Probes
    from tracer import Tracer, calibrate
    from workload import HAZARD, TINY_HAZARD_SIZE, q_p0, run_cycle, solve_counts

    env_paths = {env: env for env, _ in workload.pairs()}
    if workload.hazard_size:
        lake_size = TINY_HAZARD_SIZE if size == "tiny" else workload.hazard_size
        env_paths[HAZARD] = str(write_hazard_lake(workdir / "hazard-lake.json", seed,
                                                  lake_size))
    learn = workload.tiny_learn if size == "tiny" else workload.learn
    # Untraced, cycles rotate over TRAIN_SEEDS train seeds derived from the
    # run seed, so that a run's medians do not hinge on one training run.
    # Traced, every cycle uses the first, so that counts repeat exactly.
    train_seeds = [seed * TRAIN_SEEDS + j for j in range(1 if trace else TRAIN_SEEDS)]
    # Set-up is repeated before the first cycle and, untraced, after every
    # cycle, so that its median spans the run like the other metrics do.
    setup_times = []
    for _ in range(SETUP_REPS):
        seconds_taken, pkg, modules, specs = set_up(workload.pairs(), env_paths)
        setup_times.append(seconds_taken)
    failures = Failures()
    cycles, layers, traced_cycles = [], [], []
    learn_refs: dict[int, object] = {}

    def next_cycle(tag: str, train_seed: int):
        out = workdir / f"{tag}{len(cycles) + len(traced_cycles)}"
        cycle = run_cycle(modules["cli"], workload, learn, env_paths, train_seed, out,
                          yardstick=not trace)
        shutil.rmtree(out, ignore_errors=True)
        train = cycle.outputs.get("train")
        if train is not None:
            env, spec = specs[(learn.env, learn.ldba)]
            train["q_p0"] = q_p0(train, env, spec)
            del train["entries"]
        return cycle

    cost = calibrate() if trace else None
    start = perf_counter()
    while len(cycles) < len(train_seeds) or _time_left(start, len(cycles), seconds):
        train_seed = train_seeds[len(cycles) % len(train_seeds)]
        cycle = next_cycle("c", train_seed)
        first = cycles[0] if cycles else None
        check_cycle(len(cycles) + len(traced_cycles), cycle, learn_refs.get(train_seed),
                    first, workload, failures)
        learn_refs.setdefault(train_seed, cycle)
        cycles.append(cycle)
        if trace:
            probes = Probes(modules, Tracer(cost))
            with probes:
                traced = next_cycle("t", train_seed)
            k = len(cycles) + len(traced_cycles)
            check_cycle(k, traced, cycle, cycle, workload, failures)
            traced_cycles.append(traced)
            layers.append((k, probes.metrics(traced.wall_s / cycle.wall_s), traced))
        else:
            for _ in range(SETUP_REPS_PER_CYCLE):
                seconds_taken, pkg, modules, specs = set_up(workload.pairs(), env_paths)
                setup_times.append(seconds_taken)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times)

    # Edge and MEC counts are not in the CLI's outputs: count them directly,
    # outside the timed region, from the same specs.
    counts = [solve_counts(pkg, *specs[pair]) for pair in workload.solve]
    learn_counts = solve_counts(pkg, *specs[(learn.env, learn.ldba)])
    for i, (solved, c) in enumerate(zip(cycles[0].outputs["solve"], counts)):
        if solved is not None and solved["states"] != c["states"]:
            failures.add(0, f"oracle{i}", f"{solved['states']} states dumped, {c['states']} built")
    record = None
    if not any(c.errors for c in learn_refs.values()):
        record = golden_record(learn_refs, cycles[0].outputs["solve"], counts)
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8")) if GOLDENS.is_file() else {}
        golden = goldens.get(size, {}).get(workload.name, {}).get(str(seed))
        if golden is not None:
            check_golden(record, golden, failures)
    for k, layer, traced in layers:
        check_counts(k, layer, traced.outputs, counts, learn_counts,
                     workload.solve_repeats, failures)

    attempted = sum(c.attempted for c in cycles + traced_cycles)
    result = {"workload": workload.name, "seed": seed, "trace": trace, "size": size,
              "cycles": len(cycles), "attempted": attempted, "failed": failures.count(),
              "errors": failures.messages(), "record": record, "machine": machine_info()}
    if trace:
        # median_low keeps counts whole: every traced cycle repeats them
        result["metrics"] = {name: (statistics.median_low(layer[name] for _, layer, _ in layers),
                                    unit) for name, unit in LAYER_METRICS}
    else:
        result["metrics"] = end_to_end(setup_s, cycles, peak_rss_mb)
        result["seconds"] = as_measured(cycles)
    result["quality"] = quality(list(learn_refs.values()), attempted, failures.count())
    return result


def _time_left(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round ends nearer to `seconds` than stopping now."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s: float, cycles, peak_rss_mb: float) -> dict:
    ok = [c for c in cycles if "test" in c.outputs]
    train = [c.outputs["train"]["train_steps"] for c in ok]
    test = [c.outputs["test"]["rollout_steps"] for c in ok]
    return {
        "setup_s": (setup_s, "s"),
        "train_steps_per_ref": (_median(n / c.train_ref for n, c in zip(train, ok)),
                                "steps/ref"),
        "test_steps_per_ref": (_median(n / c.test_ref for n, c in zip(test, ok)),
                               "steps/ref"),
        "oracle_refs": (_median(c.oracle_ref for c in cycles), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def as_measured(cycles) -> dict:
    """The same medians in wall seconds, printed but not gated (host-speed bound)."""
    ok = [c for c in cycles if "test" in c.outputs]
    return {
        "train_steps_per_s": (_median(c.outputs["train"]["train_steps"] / c.train_s
                                      for c in ok), "steps/s"),
        "test_steps_per_s": (_median(c.outputs["test"]["rollout_steps"] / c.test_s
                                     for c in ok), "steps/s"),
        "oracle_s": (_median(c.oracle_s for c in cycles), "s"),
        "reference_chunk_s": (_median(c.train_s / c.train_ref for c in ok), "s"),
    }


def quality(learn_refs, attempted: int, failed: int) -> dict:
    """Learning quality, averaged over the run's train seeds, and fail ratio."""
    gaps, rates = [], []
    for cycle in learn_refs:
        train, test = cycle.outputs.get("train"), cycle.outputs.get("test")
        if train is not None and test is not None and test["oracle_reference"] is not None:
            gaps.append(test["oracle_reference"] - train["q_p0"])
            rates.append(test["success_rate"])
    mean = statistics.fmean
    return {"oracle_gap": (mean(gaps) if gaps else None, "probability"),
            "test_success_rate": (mean(rates) if rates else None, "fraction"),
            "fail_ratio": (failed / attempted if attempted else 1.0, "fraction")}


# ---------------------------------------------------------------------------
# reporting and entry point
# ---------------------------------------------------------------------------


def print_report(result: dict, directions: dict) -> None:
    m = result["machine"]
    print(f"# ldba-synth benchmark: workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} size={result['size']} cycles={result['cycles']}")
    print(f"# machine: nproc={m['nproc']} python={m['python']} cpu={m['cpu']} "
          f"platform={m['platform']}")
    tables = (("metric", result["metrics"]), ("seconds", result.get("seconds", {})),
              ("quality", result["quality"]))
    for kind, table in tables:
        for name, (value, unit) in table.items():
            direction = directions.get(name)
            note = f"  ({direction} is better)" if direction else ""
            print(f"{kind:8s} {name:34s} {value!r:>24} {unit}{note}")
    print(f"# attempted={result['attempted']} failed={result['failed']}")
    for message in result["errors"][:20]:
        print(f"# FAILED {message}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process, one at a time."""
    from workload import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", repr(args.seconds),
                    "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace={trace} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            last = json.loads(lines[-1])
            merged["correct"] &= last["correct"]
            merged["attempted"] += last["attempted"]
            merged["failed"] += last["failed"]
            for metric, value in last["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


class Terminated(BaseException):
    """Raised on SIGTERM; not an Exception, so no command handler swallows it."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None) -> int:
    if not (SRC / "ldba_synth" / "__init__.py").is_file():
        print(f"error: no ldba_synth sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workload import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("LDBA_SYNTH_RESULTS", None)
    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                         args.size, workdir)
    except Terminated as stop:
        print("error: terminated before the run finished", file=sys.stderr)
        return 128 + stop.args[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    directions = {name: d for name, _, d in END_TO_END + AS_MEASURED + QUALITY}
    print_report(result, directions)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
