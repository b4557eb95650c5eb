"""The call contract that the traced benchmark relies on.

perfbench/probes.py wraps these names from outside and checks its call
counts exactly against what the output files say. The same contract is
checked here, so a change that inlines one of these layers fails the
fast suite and not only the benchmark's self-test. That holds for the
per-step layers and for the oracle's phases.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

import pytest

from ldba_synth import automaton, cli, envs, learner, oracle, product
from ldba_synth.cli import EXIT_OK, main
from ldba_synth.oracle import ExplicitProduct, max_sat_probability

from conftest import product_from_successors

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


def test_oracle_phases_called_once_each_on_the_built_product(monkeypatch):
    built, phases = [], []

    def build(*args, _fn=cli.build_explicit_product, **kwargs):
        built.append(_fn(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_explicit_product", build)
    # perfbench times the kernel as envs.enumerate_model_s by wrapping this name
    kernels = []

    def enumerate_model(self, _fn=envs.GridEnv.enumerate_model):
        kernels.append(self)
        return _fn(self)

    monkeypatch.setattr(envs.GridEnv, "enumerate_model", enumerate_model)
    for name in ("mec_decompose", "_prob1_max", "_prob0_max"):
        def phase(*args, _fn=getattr(oracle, name), _name=name, **kwargs):
            phases.append((_name, args[0], _fn(*args, **kwargs)))
            return phases[-1][2]
        monkeypatch.setattr(oracle, name, phase)
    assert main(["oracle", "--env", "gridworld-1", "--ldba", "goal1-or-goal2"]) == EXIT_OK

    assert [name for name, _, _ in phases] == ["mec_decompose", "_prob1_max", "_prob0_max"]
    assert len(built) == 1 and len(kernels) == 1
    assert all(prod is built[0] for _, prod, _ in phases)
    sure, never = phases[1][2], phases[2][2]
    assert isinstance(sure, set) and isinstance(never, set)
    assert sure and never and not sure & never


def two_node_product(accepting: int) -> ExplicitProduct:
    """Node 0 moves to node 1, which loops; only the loop of node 1 is an end
    component, so the product has an accepting MEC exactly when accepting is 1."""
    return product_from_successors(
        states=[0, 1], initial=0,
        successors=[{"go": ((1, 1.0),)}, {"stay": ((1, 1.0),)}],
        accepting_sets=(frozenset({accepting}),))


@pytest.mark.parametrize("accepting, builds", [(1, 1), (0, 0)])
def test_predecessor_index_built_at_most_once_per_solve(monkeypatch, accepting, builds):
    counted = []

    def index(*args, _fn=oracle._predecessor_index):
        counted.append(args)
        return _fn(*args)

    monkeypatch.setattr(oracle, "_predecessor_index", index)
    assert max_sat_probability(two_node_product(accepting)).initial_value == accepting
    assert len(counted) == builds


def test_train_and_test_roll_out_on_the_product_they_hold(tmp_path, capsys, monkeypatch):
    # One compile for the Q table, whose product the closed-loop test reuses,
    # and one in the oracle reference's build; nothing compiles the pair again.
    # The grid's move table is built once, for the product runs and the kernel.
    compiled, tested, tabled = [], [], []

    def moves(env, _fn=envs.GridEnv.__dict__["moves"].func):
        tabled.append(env)
        return _fn(env)

    def init(self, *args, _fn=product.CompiledProduct.__init__):
        compiled.append(self)
        _fn(self, *args)

    def run_test(policy, prod, *args, _fn=cli.run_test, **kwargs):
        tested.append(prod)
        return _fn(policy, prod, *args, **kwargs)

    monkeypatch.setattr(product.CompiledProduct, "__init__", init)
    monkeypatch.setattr(cli, "run_test", run_test)
    monkeypatch.setattr(envs.GridEnv.__dict__["moves"], "func", moves)
    specs = ["--env", "gridworld-1", "--ldba", "goal1-or-goal2",
             "--save_dir", str(tmp_path / "results"), "--rollouts", "3"]
    assert main(["train", *specs, "--episode_num", "5", "--iteration_num_max", "100"]) == EXIT_OK
    assert len(compiled) == 2 and tested == compiled[:1]   # training's, then the reference's
    assert tabled == [compiled[0].env]
    del compiled[:], tested[:], tabled[:]
    assert main(["test", *specs]) == EXIT_OK
    assert len(compiled) == 2 and tested == compiled[:1]   # the loader's, then the reference's
    assert tabled == [compiled[0].env]
