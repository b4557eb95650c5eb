"""The per-step call contract that the traced benchmark relies on.

perfbench/probes.py wraps these names from outside and checks its call
counts exactly against what the output files say. The same contract is
checked here, so a change that inlines one of these layers fails the
fast suite and not only the benchmark's self-test.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

import pytest

from ldba_synth import automaton, cli, envs, learner, product
from ldba_synth.cli import EXIT_OK, main

# (owner, attribute) pairs wrapped by name, as perfbench/probes.py does
WRAPPED = {
    "product.step": (product.ProductRun, "step"),
    "product.reset": (product.ProductRun, "reset"),
    "automaton.step": (automaton.LdbaRuntime, "step"),
    "automaton.frontier": (automaton.LdbaRuntime, "advance_frontier"),
    "envs.step": (envs.GridEnv, "step"),
    "learner.select_action": (learner, "select_action"),
    "learner.q_update": (learner, "q_update"),
    "learner.policy": (learner.GreedyPolicy, "__call__"),
}


@pytest.fixture
def calls(monkeypatch):
    """Count calls of every wrapped name; also keep what cli.train returns."""
    counts = Counter()
    for name, (owner, attr) in WRAPPED.items():
        def counted(*args, _fn=owner.__dict__[attr], _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    trained = []

    def train(*args, _fn=cli.train, **kwargs):
        trained.append(_fn(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(cli, "train", train)
    return counts, trained


@pytest.mark.parametrize("env, ldba", [
    ("gridworld-1", "goal1-or-goal2"),   # epsilon-moves
    ("slp-sml", "slp-hard"),             # four ordered accepting sets
])
def test_one_call_per_layer_per_step(tmp_path, capsys, calls, env, ldba):
    counts, trained = calls
    out = tmp_path / "results"
    specs = ["--env", env, "--ldba", ldba, "--save_dir", str(out), "--seed", "3"]
    assert main(["train", *specs, "--no-test", "--episode_num", "12",
                 "--iteration_num_max", "150", "--epsilon", "0.3"]) == EXIT_OK
    assert main(["test", *specs, "--rollouts", "6"]) == EXIT_OK

    with open(out / "train_stats.csv", newline="", encoding="utf-8") as handle:
        episodes = [int(row["steps"]) for row in csv.DictReader(handle)]
    report = json.loads((out / "test_results.json").read_text(encoding="utf-8"))
    rollouts = [o["steps"] for o in report["per_rollout"]]
    entries = json.loads((out / "learned_model.json").read_text(encoding="utf-8"))["entries"]
    train_steps, test_steps = sum(episodes), sum(rollouts)
    steps = train_steps + test_steps

    assert (len(episodes), len(rollouts)) == (12, 6)
    assert counts["product.step"] == steps
    assert counts["automaton.step"] == steps
    assert counts["automaton.frontier"] == steps
    assert counts["learner.select_action"] == train_steps
    assert counts["learner.q_update"] == train_steps
    assert counts["learner.policy"] == test_steps
    assert counts["product.reset"] == len(episodes) + len(rollouts)
    assert len(trained[0].q_table) == len(entries)
    assert counts["envs.step"] <= steps
