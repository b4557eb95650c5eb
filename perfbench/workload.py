"""Workload definitions and one closed-loop cycle of ldba-synth commands.

A cycle runs a workload's commands one at a time, in-process through
``ldba_synth.cli.main(argv)``: ``train --no-test``, then ``test --model``
on the model just saved, then one ``oracle`` per problem. Each command is
one operation; it fails on a non-zero exit, an exception, or a check on
its outputs. Outputs go to a per-cycle directory and are read back from
the files the CLI writes, never from the program's internals.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import Yardstick

HAZARD = "hazard-lake"  # env placeholder, replaced by the generated file


@dataclass(frozen=True)
class Learn:
    """One train + test pair; flags follow the acceptance criteria."""

    env: str
    ldba: str
    episodes: int
    horizon: int
    eta: float
    mu: float
    epsilon: float
    rollouts: int

    def train_argv(self, env_path: str, seed: int, out: Path) -> list[str]:
        return ["train", "--env", env_path, "--ldba", self.ldba, "--no-test",
                "--episode_num", str(self.episodes),
                "--iteration_num_max", str(self.horizon),
                "--discount_factor", repr(self.eta),
                "--learning_rate", repr(self.mu),
                "--epsilon", repr(self.epsilon),
                "--seed", str(seed), "--save_dir", str(out)]

    def test_argv(self, env_path: str, seed: int, out: Path) -> list[str]:
        return ["test", "--env", env_path, "--ldba", self.ldba,
                "--model", str(out / "learned_model.json"),
                "--rollouts", str(self.rollouts),
                "--seed", str(seed), "--save_dir", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    learn: Learn
    solve: tuple[tuple[str, str], ...]  # (env, ldba) per oracle command
    tiny_learn: Learn
    hazard_size: int = 0  # 0: no generated lake
    # Repeats of each oracle command per cycle: a solve of a few tens of
    # milliseconds is too short to time steadily on its own.
    solve_repeats: int = 1

    def pairs(self) -> list[tuple[str, str]]:
        """Every (env, ldba) the workload parses, learn pair first."""
        seen = [(self.learn.env, self.learn.ldba)]
        for pair in self.solve:
            if pair not in seen:
                seen.append(pair)
        return seen


WORKLOADS = {
    "craft-learn": Workload(
        "craft-learn",
        Learn("minecraft", "minecraft-t1", episodes=50, horizon=4000, eta=0.95,
              mu=0.9, epsilon=0.1, rollouts=25),
        (("minecraft", "minecraft-t1"),),
        Learn("minecraft", "minecraft-t1", episodes=2, horizon=300, eta=0.95,
              mu=0.9, epsilon=0.1, rollouts=2),
        solve_repeats=10,
    ),
    "milestone-learn": Workload(
        "milestone-learn",
        Learn("slp-sml", "slp-hard", episodes=500, horizon=1000, eta=0.99,
              mu=0.9, epsilon=0.2, rollouts=100),
        (("slp-sml", "slp-hard"),),
        Learn("slp-sml", "slp-hard", episodes=2, horizon=300, eta=0.99,
              mu=0.9, epsilon=0.2, rollouts=2),
        solve_repeats=10,
    ),
    "oracle-solve": Workload(
        "oracle-solve",
        Learn("slp-sml", "slp-easy", episodes=150, horizon=1000, eta=0.95, mu=0.9,
              epsilon=0.1, rollouts=100),
        (("gridworld-1", "goal1-or-goal2"), ("frozen-lake-lrg", "frozen-lake-seq"),
         (HAZARD, "frozen-lake-reach")),
        Learn("slp-sml", "slp-easy", episodes=2, horizon=300, eta=0.95, mu=0.9,
              epsilon=0.1, rollouts=2),
        hazard_size=28,
    ),
}

TINY_HAZARD_SIZE = 10


def digest(obj) -> str:
    """sha256 of the canonical compact JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CommandRun:
    seconds: float  # wall time less the yardstick's samples
    refs: float  # the same time in reference chunks (0.0 without yardstick)
    error: str | None


def run_command(cli, argv: list[str], yardstick: bool) -> CommandRun:
    """Run one CLI command with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    yard = Yardstick() if yardstick else contextlib.nullcontext()
    start = perf_counter()
    try:
        with yard, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects flags by exiting
        code = exc.code
    except Exception:  # the benchmark records the failure and goes on
        code = None
        error = traceback.format_exc(limit=3)
    wall = perf_counter() - start
    seconds, refs = wall, 0.0
    if yardstick:
        seconds, refs = wall - yard.sampled_s, yard.refs(wall)
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    if error is not None:
        error = f"{argv[0]} {' '.join(argv[1:5])}: {error}"
    return CommandRun(seconds, refs, error)


@dataclass
class Cycle:
    """Measured times and decoded outputs of one workload cycle.

    ``*_s`` are seconds and ``*_ref`` the same times in reference chunks,
    both excluding the yardstick's own samples; see reference.py.
    """

    attempted: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)  # (operation, message)
    wall_s: float = 0.0
    train_s: float = 0.0
    test_s: float = 0.0
    oracle_s: float = 0.0
    train_ref: float = 0.0
    test_ref: float = 0.0
    oracle_ref: float = 0.0
    outputs: dict = field(default_factory=dict)

    def fail(self, op: str, message: str) -> None:
        self.errors.append((op, message))


def run_cycle(cli, workload: Workload, learn: Learn, env_paths: dict, seed: int,
              out: Path, yardstick: bool = True) -> Cycle:
    """One train, one test and every oracle command of the workload."""
    out.mkdir(parents=True, exist_ok=True)
    cycle = Cycle()
    env_path = env_paths[learn.env]

    cycle.attempted += 1
    run = run_command(cli, learn.train_argv(env_path, seed, out), yardstick)
    cycle.train_s, cycle.train_ref = run.seconds, run.refs
    if run.error:
        cycle.fail("train", run.error)
    else:
        cycle.outputs["train"] = read_train_outputs(out)

    cycle.attempted += 1
    if "train" in cycle.outputs:
        run = run_command(cli, learn.test_argv(env_path, seed, out), yardstick)
        cycle.test_s, cycle.test_ref = run.seconds, run.refs
        if run.error:
            cycle.fail("test", run.error)
        else:
            cycle.outputs["test"] = read_test_outputs(out / "test_results.json")
    else:
        cycle.fail("test", "skipped: train failed")

    solves = []
    for k, (env, ldba) in enumerate(workload.solve):
        dump = out / f"oracle_{k}.csv"
        argv = ["oracle", "--env", env_paths[env], "--ldba", ldba,
                "--dump_values", str(dump)]
        solved = None
        for _ in range(workload.solve_repeats):
            cycle.attempted += 1
            run = run_command(cli, argv, yardstick)
            cycle.oracle_s += run.seconds
            cycle.oracle_ref += run.refs
            if run.error:
                cycle.fail(f"oracle{k}", run.error)
                continue
            again = read_oracle_dump(dump)
            if solved is not None and again != solved:
                cycle.fail(f"oracle{k}", f"repeated solve gave {again}, first {solved}")
            solved = solved or again
        solves.append(solved)
    cycle.outputs["solve"] = solves
    cycle.wall_s = cycle.train_s + cycle.test_s + cycle.oracle_s
    return cycle


def read_train_outputs(out: Path) -> dict:
    model = json.loads((out / "learned_model.json").read_text(encoding="utf-8"))
    with open(out / "train_stats.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {
        "q_sha256": digest(model["entries"]),
        "q_entries": len(model["entries"]),
        "q_init": model["hyperparams"]["q_init"],
        "entries": model["entries"],
        "train_steps": sum(int(r["steps"]) for r in rows),
        "episodes": len(rows),
        "sink_episodes": sum(int(r["sink"]) for r in rows),
    }


def read_test_outputs(path: Path) -> dict:
    report = json.loads(path.read_text(encoding="utf-8"))
    outcomes = report["per_rollout"]
    return {
        "rollouts_sha256": digest(outcomes),
        "rollouts": len(outcomes),
        "rollout_steps": sum(o["steps"] for o in outcomes),
        "success_rate": report["success_rate"],
        "oracle_reference": report["oracle_reference"],
    }


def read_oracle_dump(path: Path) -> dict:
    """Initial-state value (state 0 is the initial one) and state count."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    initial = next(r for r in rows if r["state"] == "0")
    return {"value": float(initial["value"]), "states": len(rows)}


def q_p0(train_out: dict, env, spec) -> float:
    """max_a Q(p0, a) of the saved model, unseen entries reading q_init."""
    row, col = env.initial_state
    q0 = spec.initial_state
    actions = tuple(env.actions) + tuple(spec.epsilon_names(q0))
    values = {e["action"]: e["value"] for e in train_out["entries"]
              if e["s"] == [row, col] and e["q"] == q0}
    return max(values.get(a, train_out["q_init"]) for a in actions)


def solve_counts(ldba_synth, env, spec) -> dict:
    """States, (state, action, successor) edges and MECs of one problem."""
    prod = ldba_synth.build_explicit_product(env, spec)
    edges = sum(len(succ) for row in prod.successors for succ in row.values())
    return {"states": prod.num_states(), "edges": edges,
            "mecs": len(ldba_synth.mec_decompose(prod))}
