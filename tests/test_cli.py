"""Command-line behaviour: artifacts, exit codes, persistence formats."""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import pytest

import ldba_synth
from ldba_synth.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_CONFIG,
    EXIT_INCOMPATIBLE,
    EXIT_OK,
    EXIT_SIZE_CAP,
    CliError,
    build_parser,
    canonical_json,
    load_model,
    main,
    model_qtable,
    save_model,
    spec_hash,
)
from ldba_synth.envs import load_env_file, parse_env_spec, resolve_spec_path
from ldba_synth.automaton import load_ldba_file, parse_ldba_spec
from ldba_synth.evaluation import TestConfig, robustness_sweep
from ldba_synth.learner import Hyperparams, train
from ldba_synth.oracle import build_explicit_product, max_sat_probability
from ldba_synth.product import SINK, CompiledProduct, ProductRun

ENV_DOC = {
    "height": 1,
    "width": 4,
    "actions": ["right", "left", "up", "down"],
    "slip_probability": 0.0,
    "initial_state": [0, 0],
    "label_regions": [
        {"rows": [0, 1], "cols": [2, 3], "label": ["a"]},
        {"rows": [0, 1], "cols": [3, 4], "label": ["b"]},
    ],
}

LDBA_DOC = {
    "states": [0, 1, 2],
    "initial_state": 0,
    "alphabet": ["a", "b"],
    "accepting_sets": [[2]],
    "transitions": {
        "0": [{"guard": "a", "to": 1}, {"guard": "true", "to": 0}],
        "1": [{"guard": "b", "to": 2}, {"guard": "true", "to": 1}],
        "2": [{"guard": "true", "to": 2}],
    },
}


@pytest.fixture
def spec_files(tmp_path):
    env_path = tmp_path / "corridor.json"
    ldba_path = tmp_path / "visit-a-then-b.json"
    env_path.write_text(canonical_json(ENV_DOC), encoding="utf-8")
    ldba_path.write_text(canonical_json(LDBA_DOC), encoding="utf-8")
    return env_path, ldba_path


def subcommand_parsers(parser=None):
    (subcommands,) = [action for action in (parser or build_parser())._actions
                      if isinstance(action, argparse._SubParsersAction)]
    return subcommands.choices


def train_args(spec_files, out_dir, *extra):
    env_path, ldba_path = spec_files
    return ["train", "--env", str(env_path), "--ldba", str(ldba_path),
            "--save_dir", str(out_dir), "--episode_num", "30",
            "--iteration_num_max", "20", "--discount_factor", "0.5",
            "--seed", "1", *extra]


# ---------------------------------------------------------------------------
# persistence helpers
# ---------------------------------------------------------------------------


def test_canonical_json_is_sorted_indented_newline_terminated():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_spec_hash_ignores_key_order_but_not_content():
    a = {"x": 1, "y": [2, 3]}
    b = {"y": [2, 3], "x": 1}
    assert spec_hash(a) == spec_hash(b)
    assert len(spec_hash(a)) == 64
    assert spec_hash(a) != spec_hash({"x": 1, "y": [2, 4]})


def test_model_save_load_round_trip(tmp_path):
    env = parse_env_spec(ENV_DOC)
    spec = parse_ldba_spec(LDBA_DOC)
    hp = Hyperparams(episode_num=20, iteration_num_max=15, discount_factor=0.5,
                     seed=3)
    result = train(env, spec, hp)
    path = tmp_path / "model.json"
    save_model(path, "env000", "ldba000", hp, result)
    payload = load_model(path)
    assert payload["format"] == "ldba-synth-model"
    assert payload["env_hash"] == "env000"
    assert payload["seed"] == 3
    assert payload["hyperparams"]["discount_factor"] == 0.5
    assert payload["interrupted"] is False
    keys = [(e["s"][0], e["s"][1], e["q"], e["action"])
            for e in payload["entries"]]
    assert keys == sorted(keys)
    assert model_qtable(payload, result.q_table.product) == result.q_table


def test_load_model_failure_modes(tmp_path):
    with pytest.raises(CliError, match="no such model"):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(CliError, match="not valid JSON"):
        load_model(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(CliError, match="unrecognized format"):
        load_model(wrong)


GOOD_ENTRY = {"s": [0, 0], "q": 0, "action": "right", "value": 0.5}


def model_payload(**fields):
    payload = {"format": "ldba-synth-model", "env_hash": "e", "ldba_hash": "l",
               "hyperparams": {}, "entries": [GOOD_ENTRY]}
    payload.update(fields)
    return {key: value for key, value in payload.items() if value is not None}


MALFORMED_MODELS = {
    "format-only": {"format": "ldba-synth-model"},
    "no-env-hash": model_payload(env_hash=None),
    "numeric-ldba-hash": model_payload(ldba_hash=7),
    "no-entries": model_payload(entries=None),
    "entries-object": model_payload(entries={"s": [0, 0]}),
    "entry-not-object": model_payload(entries=[GOOD_ENTRY, 3]),
    "short-cell": model_payload(entries=[dict(GOOD_ENTRY, s=[0])]),
    "float-cell": model_payload(entries=[dict(GOOD_ENTRY, s=[0, 1.5])]),
    "bool-q": model_payload(entries=[dict(GOOD_ENTRY, q=True)]),
    "missing-q": model_payload(entries=[{"s": [0, 0], "action": "right", "value": 0.5}]),
    "numeric-action": model_payload(entries=[dict(GOOD_ENTRY, action=1)]),
    "string-value": model_payload(entries=[dict(GOOD_ENTRY, value="0.5")]),
    "nan-value": model_payload(entries=[dict(GOOD_ENTRY, value=float("nan"))]),
    "infinite-value": model_payload(entries=[dict(GOOD_ENTRY, value=float("inf"))]),
    "minus-infinite-value": model_payload(entries=[dict(GOOD_ENTRY, value=float("-inf"))]),
    "duplicate-entry": model_payload(entries=[GOOD_ENTRY, dict(GOOD_ENTRY, value=0.25)]),
    "hyperparams-list": model_payload(hyperparams=[]),
    "bad-discount": model_payload(hyperparams={"discount_factor": 1.5}),
    "bad-horizon": model_payload(hyperparams={"iteration_num_max": "20"}),
    "nan-q-init": model_payload(hyperparams={"q_init": float("nan")}),
    "infinite-positive-reward": model_payload(hyperparams={"positive_reward": float("inf")}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_load_model_rejects_malformed_payloads(tmp_path, name):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]), encoding="utf-8")
    with pytest.raises(CliError, match="malformed") as info:
        load_model(path)
    assert info.value.code == EXIT_CONFIG


@pytest.mark.parametrize("name", ["format-only", "entry-not-object", "bad-discount",
                                  "nan-q-init", "nan-value", "duplicate-entry"])
def test_test_with_malformed_model_exits_config(spec_files, tmp_path, capsys, name):
    env_path, ldba_path = spec_files
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]), encoding="utf-8")
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "out"), "--model", str(path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: model file")
    assert not (tmp_path / "out").exists()


def test_repeated_entry_field_exits_config(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_payload()).replace('"value": 0.5', '"value": 0.5, "value": 9'),
                    encoding="utf-8")
    with pytest.raises(CliError, match="repeats the key 'value'") as info:
        load_model(path)
    assert info.value.code == EXIT_CONFIG
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "out"), "--model", str(path)])
    assert rc == EXIT_CONFIG
    assert "repeats the key 'value'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_deeply_nested_model_exits_config(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    path = tmp_path / "model.json"
    path.write_text('{"entries": ' + "[" * 100000, encoding="utf-8")
    with pytest.raises(CliError, match="nested too deeply") as info:
        load_model(path)
    assert info.value.code == EXIT_CONFIG
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "out"), "--model", str(path)])
    assert rc == EXIT_CONFIG
    assert "nested too deeply" in capsys.readouterr().err


def test_load_model_accepts_a_well_formed_payload(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_payload()), encoding="utf-8")
    product = CompiledProduct(parse_env_spec(ENV_DOC), parse_ldba_spec(LDBA_DOC))
    qtable = model_qtable(load_model(path), product)
    assert qtable.value(product.encode((0, 0), 0), 0) == 0.5     # "right"


# Entries that name no state and legal action of the product; each would
# have been skipped or aliased onto another state's row.
FOREIGN_ENTRIES = {
    "cell-past-the-row-end": dict(GOOD_ENTRY, s=[0, 4]),
    "cell-below-the-grid": dict(GOOD_ENTRY, s=[1, 0]),
    "negative-cell": dict(GOOD_ENTRY, s=[0, -1]),
    "unknown-q": dict(GOOD_ENTRY, q=3),
    "epsilon-action-q-lacks": dict(GOOD_ENTRY, action="epsilon_1"),
    "unknown-action": dict(GOOD_ENTRY, action="jump"),
}


@pytest.mark.parametrize("name", sorted(FOREIGN_ENTRIES))
def test_model_entries_off_the_product_exit_config_before_rollouts(
        spec_files, tmp_path, capsys, monkeypatch, name):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    assert main(train_args(spec_files, out, "--no-test")) == EXIT_OK
    model_path = out / "learned_model.json"
    model = json.loads(model_path.read_text(encoding="utf-8"))
    model["entries"].append(FOREIGN_ENTRIES[name])
    model_path.write_text(canonical_json(model), encoding="utf-8")
    capsys.readouterr()

    def no_rollouts(*args, **kwargs):
        raise AssertionError("rollouts ran on a model with a foreign entry")

    monkeypatch.setattr("ldba_synth.cli.run_test", no_rollouts)
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--model", str(model_path), "--save_dir", str(tmp_path / "fresh")])
    assert rc == EXIT_CONFIG
    assert "is not a state and legal action of this product" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()
    product = CompiledProduct(parse_env_spec(ENV_DOC), parse_ldba_spec(LDBA_DOC))
    with pytest.raises(CliError, match=f"model entry {len(model['entries']) - 1} "):
        model_qtable(model, product)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_model_stats_and_test_report(spec_files, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(train_args(spec_files, out)) == EXIT_OK
    printed = capsys.readouterr().out
    assert "[train] model saved to" in printed
    assert "[test] success rate 1.0000" in printed
    assert "reload with: ldba-synth test" in printed

    model = json.loads((out / "learned_model.json").read_text(encoding="utf-8"))
    assert model["format"] == "ldba-synth-model"
    assert model["hyperparams"]["episode_num"] == 30

    with open(out / "train_stats.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["episode", "return", "steps", "sweeps", "sink"]
    assert len(rows) == 31
    for row in rows[1:]:
        assert float(row[1]) >= 0.0              # returns parse and are sums of rp
        assert row[4] in ("0", "1")

    with open(out / "moving_average.csv", newline="", encoding="utf-8") as handle:
        avg_rows = list(csv.reader(handle))
    assert avg_rows[0] == ["episode", "average_return"]
    assert len(avg_rows) == 31

    report = json.loads((out / "test_results.json").read_text(encoding="utf-8"))
    assert report["success_rate"] == 1.0
    assert report["oracle_reference"] == 1.0
    assert len(report["per_rollout"]) == 100
    assert set(report["per_rollout"][0]) == {"success", "steps", "sweeps", "sink"}
    assert report["config"]["horizon"] == 20


def test_train_can_skip_the_closed_loop_test(spec_files, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(train_args(spec_files, out, "--no-test")) == EXIT_OK
    assert not (out / "test_results.json").exists()
    assert (out / "learned_model.json").exists()
    assert "[test]" not in capsys.readouterr().out


def test_environment_variable_overrides_save_dir(spec_files, tmp_path,
                                                 monkeypatch):
    decoy = tmp_path / "decoy"
    actual = tmp_path / "actual"
    monkeypatch.setenv("LDBA_SYNTH_RESULTS", str(actual))
    assert main(train_args(spec_files, decoy, "--no-test")) == EXIT_OK
    assert (actual / "learned_model.json").exists()
    assert not decoy.exists()


@pytest.mark.parametrize("name,message", [
    ("nfq", "out of scope"),
    ("ddpg", "out of scope"),
    ("dqn", "unknown algorithm"),
])
def test_unsupported_algorithms_exit_config(spec_files, tmp_path, capsys,
                                            name, message):
    out = tmp_path / "results"
    rc = main(train_args(spec_files, out, "--algorithm", name))
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_unset_training_flags_take_the_hyperparams_defaults(spec_files, tmp_path):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    rc = main(["train", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(out), "--episode_num", "0", "--no-test"])
    assert rc == EXIT_OK
    model = json.loads((out / "learned_model.json").read_text(encoding="utf-8"))
    assert model["hyperparams"] == asdict(Hyperparams(episode_num=0))


SUBCOMMAND_FLAGS = {
    "train": {"--env", "--ldba", "--save_dir", "--seed", "--algorithm", "--episode_num",
              "--iteration_num_max", "--discount_factor", "--learning_rate", "--epsilon",
              "--positive_reward", "--average_window", "--test", "--no-test", "--rollouts",
              "--required_sweeps"},
    "test": {"--env", "--ldba", "--save_dir", "--seed", "--model", "--rollouts",
             "--horizon", "--required_sweeps", "--trace"},
    "oracle": {"--env", "--ldba", "--state_cap", "--dump_values"},
    "sweep": {"--env", "--ldba", "--save_dir", "--seed", "--algorithm", "--episode_num",
              "--iteration_num_max", "--epsilon", "--positive_reward", "--grid_eta",
              "--grid_mu", "--trainings", "--tests", "--required_sweeps", "--workers"},
}


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    flags = {name: {opt for action in sub._actions for opt in action.option_strings}
             - {"-h", "--help"} for name, sub in subcommand_parsers().items()}
    assert flags == SUBCOMMAND_FLAGS
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--env", "robot-surve", "--ldba", "robot-surve", "--seed", "1"])
    assert info.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


def test_run_option_flags_take_no_parser_default():
    """A flag that names a Hyperparams or TestConfig field or a robustness_sweep
    parameter leaves its default to that one home."""
    homes = ({f.name for f in fields(Hyperparams)} | {f.name for f in fields(TestConfig)}
             | set(inspect.signature(robustness_sweep).parameters))
    checked = set()
    for name, sub in subcommand_parsers().items():
        for action in sub._actions:
            if action.dest in homes:
                assert action.default is None, f"{name} --{action.dest}"
                checked.add(action.dest)
    assert {"seed", "rollouts", "horizon", "required_sweeps", "trainings", "tests",
            "workers", "episode_num"} <= checked


def test_train_tests_with_the_testconfig_defaults(spec_files, tmp_path, monkeypatch):
    """Changing a default where it lives changes what train's test runs."""
    @dataclass
    class QuickHyperparams(Hyperparams):
        episode_num: int = 3
        iteration_num_max: int = 12

    @dataclass
    class QuickTestConfig(TestConfig):
        rollouts: int = 5
        required_sweeps: int = 2

    monkeypatch.setattr("ldba_synth.cli.Hyperparams", QuickHyperparams)
    monkeypatch.setattr("ldba_synth.cli.TestConfig", QuickTestConfig)
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    rc = main(["train", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "test_results.json").read_text(encoding="utf-8"))
    horizon = QuickHyperparams().iteration_num_max
    assert report["config"] == asdict(QuickTestConfig(horizon=horizon))
    assert len(report["per_rollout"]) == 5


@pytest.mark.parametrize("argv", [
    "train --rollouts 0",
    "train --required_sweeps 0",
    "test --rollouts 0",
    "test --horizon -5",
    "test --horizon 0",
    "test --required_sweeps 0",
    "sweep --trainings 0",
    "sweep --tests 0",
    "sweep --required_sweeps 0",
    "sweep --workers 0",
    "sweep --workers -3",
    "oracle --state_cap 0",
    "oracle --state_cap -1",
])
def test_out_of_range_test_flags_exit_config_before_any_work(
        spec_files, tmp_path, capsys, monkeypatch, argv):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    assert main(train_args(spec_files, out, "--no-test")) == EXIT_OK
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("train", "run_test", "robustness_sweep", "build_explicit_product"):
        monkeypatch.setattr(f"ldba_synth.cli.{name}", no_work)
    command, flag, value = argv.split()
    save_dir = [] if command == "oracle" else ["--save_dir", str(out)]
    rc = main([command, "--env", str(env_path), "--ldba", str(ldba_path),
               *save_dir, flag, value])
    assert rc == EXIT_CONFIG
    assert f"{flag[2:]} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--grid_eta", "1.5", "discount_factor must lie strictly inside (0, 1)"),
    ("--grid_eta", "0.5,0", "discount_factor must lie strictly inside (0, 1)"),
    ("--grid_mu", "0", "learning_rate must lie in (0, 1]"),
    ("--grid_mu", "0.9,1.2", "learning_rate must lie in (0, 1]"),
])
def test_sweep_rejects_out_of_range_grid_values_before_any_work(
        spec_files, tmp_path, capsys, monkeypatch, flag, value, message):
    env_path, ldba_path = spec_files

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid was checked")

    for name in ("train", "run_test", "robustness_sweep"):
        monkeypatch.setattr(f"ldba_synth.cli.{name}", no_work)
    rc = main(["sweep", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "results"), flag, value])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_invalid_hyperparams_exit_config(spec_files, tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(train_args(spec_files, out, "--discount_factor", "1.5"))
    assert rc == EXIT_CONFIG
    assert "discount_factor" in capsys.readouterr().err


@pytest.mark.parametrize("value,message", [
    ("nan", "positive_reward must be positive"),
    ("inf", "positive_reward must be finite"),
], ids=["nan", "inf"])
def test_non_finite_hyperparams_exit_config_before_save_dir(spec_files, tmp_path, capsys,
                                                             value, message):
    out = tmp_path / "results"
    rc = main(train_args(spec_files, out, "--positive_reward", value))
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_values_that_would_overflow_exit_config_before_save_dir(tmp_path, capsys):
    # r/(1 - eta) overflows to inf, and at mu = 1 an update's 0 * inf would write NaN
    out = tmp_path / "results"
    rc = main(["train", "--env", "minecraft", "--ldba", "minecraft-t1",
               "--positive_reward", "1e308", "--learning_rate", "1.0", "--episode_num", "20",
               "--iteration_num_max", "2000", "--no-test", "--save_dir", str(out)])
    assert rc == EXIT_CONFIG
    assert "values would reach inf" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_checks_the_value_scale_of_every_cell_before_save_dir(spec_files, tmp_path,
                                                                     capsys, monkeypatch):
    # 1e306 / (1 - 0.95) is finite, 1e306 / (1 - 0.995) is not
    env_path, ldba_path = spec_files

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid was checked")

    monkeypatch.setattr("ldba_synth.cli.robustness_sweep", no_work)
    out = tmp_path / "results"
    rc = main(["sweep", "--env", str(env_path), "--ldba", str(ldba_path), "--save_dir", str(out),
               "--positive_reward", "1e306", "--grid_eta", "0.5,0.995", "--grid_mu", "0.9"])
    assert rc == EXIT_CONFIG
    assert "values would reach inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_no_test_still_checks_test_flags_before_save_dir(spec_files, tmp_path, capsys, value):
    out = tmp_path / "results"
    rc = main(train_args(spec_files, out, "--no-test", "--rollouts", value))
    assert rc == EXIT_CONFIG
    assert "rollouts must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "test", "sweep"])
def test_negative_seed_exits_config_before_save_dir(spec_files, tmp_path, capsys,
                                                     monkeypatch, command):
    # Random(-s) seeds as Random(s) does: --seed -1 would silently repeat --seed 1
    env_path, ldba_path = spec_files
    model = []
    if command == "test":
        assert main(train_args(spec_files, tmp_path / "model", "--no-test")) == EXIT_OK
        capsys.readouterr()
        model = ["--model", str(tmp_path / "model" / "learned_model.json")]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    for name in ("train", "run_test", "robustness_sweep"):
        monkeypatch.setattr(f"ldba_synth.cli.{name}", no_work)
    out = tmp_path / "results"
    rc = main([command, "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(out), *model, "--seed", "-1"])
    assert rc == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, unreadable", [
    ("--model", "directory"),
    ("--model", "latin-1"),
    ("--env", "latin-1"),
    ("--ldba", "latin-1"),
])
def test_unreadable_input_files_exit_config_before_save_dir(spec_files, tmp_path, capsys,
                                                            flag, unreadable):
    env_path, ldba_path = spec_files
    trained = tmp_path / "trained"
    assert main(train_args(spec_files, trained, "--no-test")) == EXIT_OK
    capsys.readouterr()
    latin_1 = tmp_path / "latin-1.json"
    latin_1.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    files = {"--env": env_path, "--ldba": ldba_path, "--model": trained / "learned_model.json"}
    files[flag] = tmp_path if unreadable == "directory" else latin_1
    out = tmp_path / "results"
    rc = main(["test", *(str(part) for item in files.items() for part in item),
               "--save_dir", str(out)])
    assert rc == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, blocked", [
    ("train", "learned_model.json"),
    ("test", "test_results.json"),
])
def test_json_output_that_is_a_directory_exits_config(spec_files, tmp_path, capsys,
                                                      command, blocked):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    if command == "test":
        assert main(train_args(spec_files, out, "--no-test")) == EXIT_OK
    (out / blocked).mkdir(parents=True)
    argv = (train_args(spec_files, out, "--no-test") if command == "train" else
            ["test", "--env", str(env_path), "--ldba", str(ldba_path), "--save_dir", str(out)])
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert f"cannot write {out / blocked}" in capsys.readouterr().err


def test_missing_spec_exits_config(tmp_path, capsys):
    rc = main(["train", "--env", "no-such-env", "--ldba", "no-such-task",
               "--save_dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def test_test_subcommand_reloads_the_model(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    assert main(train_args(spec_files, out, "--no-test")) == EXIT_OK
    capsys.readouterr()

    trace_path = tmp_path / "trace.csv"
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(out), "--rollouts", "7",
               "--trace", str(trace_path)])
    assert rc == EXIT_OK
    assert "[test] success rate 1.0000 over 7 rollouts" in capsys.readouterr().out

    report = json.loads((out / "test_results.json").read_text(encoding="utf-8"))
    assert report["config"]["rollouts"] == 7
    assert report["config"]["horizon"] == 20     # model's iteration_num_max

    with open(trace_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["episode", "step", "row", "col", "q", "action",
                       "reward", "gamma", "done"]
    body = rows[1:]
    assert len(body) == 7 * 20                   # every rollout runs the horizon
    assert {row[0] for row in body} == {str(k) for k in range(7)}
    assert all(float(row[7]) in (0.5, 1.0) for row in body)  # gamma column


def test_trace_pays_each_step_as_training_does(tmp_path, capsys, monkeypatch):
    # A fired row shows the model's (r, eta), a row into the sink (0, 0), as
    # training discounts it, and any other row (0, 1).
    flags = []   # each step's (fired, done), as the product run reported it

    def step(run, action, _fn=ProductRun.step):
        result = _fn(run, action)
        flags.append(result[-2:])
        return result

    out, trace_path = tmp_path / "paid", tmp_path / "trace.csv"
    pair = ["--env", "gridworld-1", "--ldba", "goal1-or-goal2", "--save_dir", str(out)]
    assert main(["train", *pair, "--episode_num", "20", "--iteration_num_max", "300",
                 "--positive_reward", "0.5", "--discount_factor", "0.9", "--no-test"]) == EXIT_OK
    monkeypatch.setattr(ProductRun, "step", step)
    assert main(["test", *pair, "--rollouts", "5", "--trace", str(trace_path)]) == EXIT_OK
    capsys.readouterr()

    with open(trace_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(flags)
    paid = {}
    for row, (fired, done) in zip(rows, flags):
        kind = "fired" if fired else "sink" if done else "other"
        paid.setdefault(kind, set()).add((row["reward"], row["gamma"], row["done"]))
    assert paid == {"fired": {("0.5", "0.9", "0")}, "sink": {("0.0", "0.0", "1")},
                    "other": {("0.0", "1.0", "0")}}


def test_test_reads_models_saved_in_the_older_format(spec_files, tmp_path):
    """Models whose hyperparams still hold algorithm, test, save_dir,
    average_window and learning_rate_decay test exactly like models saved
    without them."""
    env_path, ldba_path = spec_files
    new, old = tmp_path / "new", tmp_path / "old"
    assert main(train_args(spec_files, new, "--no-test")) == EXIT_OK
    model = json.loads((new / "learned_model.json").read_text(encoding="utf-8"))
    model["hyperparams"].update(algorithm="ql", test=False, save_dir=str(new),
                                average_window=-1, learning_rate_decay=0.0)
    old.mkdir()
    (old / "learned_model.json").write_text(canonical_json(model), encoding="utf-8")
    for out in (new, old):
        rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
                   "--save_dir", str(out), "--rollouts", "9", "--seed", "2"])
        assert rc == EXIT_OK
    results = (new / "test_results.json").read_text(encoding="utf-8")
    assert json.loads(results)["config"]["horizon"] == 20
    assert (old / "test_results.json").read_text(encoding="utf-8") == results


def test_test_unwritable_trace_exits_config_before_rollouts(spec_files, tmp_path,
                                                             capsys, monkeypatch):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    assert main(train_args(spec_files, out, "--no-test")) == EXIT_OK
    capsys.readouterr()

    def no_rollouts(*args, **kwargs):
        raise AssertionError("rollouts ran before the trace path was checked")

    monkeypatch.setattr("ldba_synth.cli.run_test", no_rollouts)
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(out),
               "--trace", str(tmp_path / "missing" / "trace.csv")])
    assert rc == EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err


def test_test_rejects_model_trained_on_other_specs(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    assert main(train_args(spec_files, out, "--no-test")) == EXIT_OK

    other_env = dict(ENV_DOC, width=5)
    other_path = tmp_path / "wider.json"
    other_path.write_text(canonical_json(other_env), encoding="utf-8")
    rc = main(["test", "--env", str(other_path), "--ldba", str(ldba_path),
               "--save_dir", str(out)])
    assert rc == EXIT_INCOMPATIBLE
    assert "hash mismatch" in capsys.readouterr().err
    rc = main(["test", "--env", str(other_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "fresh"),
               "--model", str(out / "learned_model.json")])
    assert rc == EXIT_INCOMPATIBLE
    assert not (tmp_path / "fresh").exists()


def test_test_without_model_exits_config(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "empty")])
    assert rc == EXIT_CONFIG
    assert "no such model" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_prints_four_decimal_value(spec_files, capsys):
    env_path, ldba_path = spec_files
    rc = main(["oracle", "--env", str(env_path), "--ldba", str(ldba_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "maximal satisfaction probability from the initial state: 1.0000" in out


def test_oracle_resolves_bundled_benchmark_names(capsys):
    rc = main(["oracle", "--env", "robot-surve", "--ldba", "robot-surve"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "maximal satisfaction probability from the initial state: 1.0000" in out


def test_oracle_dumps_per_state_values(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    dump = tmp_path / "values.csv"
    rc = main(["oracle", "--env", str(env_path), "--ldba", str(ldba_path),
               "--dump_values", str(dump)])
    assert rc == EXIT_OK
    with open(dump, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["state", "row", "col", "q", "value"]
    assert len(rows) > 1
    assert all(0.0 <= float(row[4]) <= 1.0 for row in rows[1:])
    assert {row[3] for row in rows[1:]} >= {"0", "1", "2"}


def test_oracle_unwritable_dump_values_exits_config(spec_files, tmp_path, capsys,
                                                    monkeypatch):
    env_path, ldba_path = spec_files

    def no_build(*args, **kwargs):
        raise AssertionError("the product was built before the dump path was checked")

    monkeypatch.setattr("ldba_synth.cli.build_explicit_product", no_build)
    rc = main(["oracle", "--env", str(env_path), "--ldba", str(ldba_path),
               "--dump_values", str(tmp_path / "missing" / "values.csv")])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("env, ldba", [("gated-lake", "frozen-lake-reach"),
                                       ("robot-surve", "goal1-or-goal2")])
def test_oracle_dump_is_the_csv_writer_rendering_of_the_values(tmp_path, capsys, env, ldba):
    dump = tmp_path / "values.csv"
    assert main(["oracle", "--env", env, "--ldba", ldba, "--dump_values", str(dump)]) == EXIT_OK
    env_spec = load_env_file(resolve_spec_path(env, "envs"))
    spec = load_ldba_file(resolve_spec_path(ldba, "ldba"))
    prod = build_explicit_product(env_spec, spec)
    values = max_sat_probability(prod).values
    decode = CompiledProduct(env_spec, spec).decode
    rendered = io.StringIO(newline="")
    writer = csv.writer(rendered)
    writer.writerow(["state", "row", "col", "q", "value"])
    for i, (node, value) in enumerate(zip(prod.states, values)):
        (row, col), q = decode(node)
        writer.writerow([i, row, col, q, repr(value)])
    expected = rendered.getvalue().encode("utf-8")
    assert dump.read_bytes() == expected
    assert expected.startswith(b"state,row,col,q,value\r\n") and expected.endswith(b"\r\n")
    assert expected.count(b"\r\n") == len(prod.states) + 1
    sink = prod.states.index(SINK)
    assert f"\r\n{sink},-1,-1,-1,0.0\r\n".encode() in expected


def test_failed_oracle_leaves_the_dump_path_as_it_was(tmp_path, capsys):
    old, fresh = tmp_path / "old.csv", tmp_path / "fresh.csv"
    old.write_bytes(b"old\r\nbytes\n")
    for dump in (old, fresh):
        rc = main(["oracle", "--env", "gridworld-1", "--ldba", "goal1-or-goal2",
                   "--state_cap", "10", "--dump_values", str(dump)])
        assert rc == EXIT_SIZE_CAP
    assert old.read_bytes() == b"old\r\nbytes\n"
    assert not fresh.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [None, "train", "test", "oracle", "sweep"])
def test_help_fits_the_terminal_width_as_argparse_renders_it(monkeypatch, capsys, command):
    rendered = {}
    for columns in (60, 120):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as info:
            main([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        rendered[columns] = capsys.readouterr().out
        # argparse's own formatter, which asks the terminal for its width each time
        parser = subcommand_parsers()[command] if command else build_parser()
        parser.formatter_class = argparse.HelpFormatter
        assert rendered[columns] == parser.format_help()
        assert all(len(line) <= columns - 2 for line in rendered[columns].splitlines())
    assert rendered[60] != rendered[120]


def _outcome(call, argv, capsys):
    """(exit code, stdout, stderr) of call(argv), which may exit through SystemExit."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("command", ["train", "test", "oracle", "sweep"])
def test_a_command_builds_only_its_parser_with_the_same_texts(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(subcommand_parsers(build_parser(command))) == [command]
    specs = ["--env", "robot-surve", "--ldba", "robot-surve"]
    # help; a missing flag, which prints the command's usage line; an unknown flag,
    # which the top-level parser reports with its own usage, naming every command
    for argv in ([command, "--help"], [command], [command, *specs, "--bogus"]):
        got = _outcome(main, argv, capsys)
        assert got == _outcome(build_parser().parse_args, argv, capsys)
        assert got[0] in (0, EXIT_CONFIG) and (got[1] or got[2])
    assert "{train,test,oracle,sweep}" in got[2] and "--bogus" in got[2]


def test_an_unknown_command_still_lists_every_command(capsys):
    code, _, err = _outcome(main, ["bogus"], capsys)
    assert code == EXIT_CONFIG
    assert "invalid choice: 'bogus' (choose from 'train', 'test', 'oracle', 'sweep')" in err


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    built = []
    monkeypatch.setattr("ldba_synth.cli.build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    monkeypatch.setattr(sys, "argv", ["ldba-synth", "oracle", "--env", "minecraft",
                                      "--ldba", "minecraft-t1"])
    assert main() == EXIT_OK
    assert built == ["oracle"]
    assert "maximal satisfaction probability" in capsys.readouterr().out


def test_oracle_state_cap_exits_4(spec_files, capsys):
    env_path, ldba_path = spec_files
    rc = main(["oracle", "--env", str(env_path), "--ldba", str(ldba_path),
               "--state_cap", "3"])
    assert rc == EXIT_SIZE_CAP
    assert "state slots" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "test", "sweep"])
def test_a_grid_over_the_default_cap_exits_4_before_any_work(tmp_path, capsys, command):
    # 10**12 x 4 cells, times minecraft-t1's 3 states plus the sink: no per-cell
    # list of this grid could be made, so the check comes before any, and before
    # the save_dir is made
    huge = tmp_path / "huge.json"
    huge.write_text(canonical_json({**ENV_DOC, "height": 10**12}), encoding="utf-8")
    out = tmp_path / "results"
    rc = main([command, "--env", str(huge), "--ldba", "minecraft-t1", "--save_dir", str(out)])
    assert rc == EXIT_SIZE_CAP
    assert "16000000000000 state slots, above the cap of 1000000" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_refuses_more_slots_than_32_bit_node_ids_whatever_the_cap(tmp_path, capsys):
    # the 16000000000000 slots of this grid are under a cap of 10**14, but a
    # product numbers its nodes with 32-bit ints
    huge = tmp_path / "huge.json"
    huge.write_text(canonical_json({**ENV_DOC, "height": 10**12}), encoding="utf-8")
    rc = main(["oracle", "--env", str(huge), "--ldba", "minecraft-t1",
               "--state_cap", str(10**14)])
    assert rc == EXIT_SIZE_CAP
    assert ("16000000000000 state slots, above the cap of 2147483647"
            in capsys.readouterr().err)


def _subprocess_env() -> dict:
    """os.environ with this checkout's ldba_synth first on PYTHONPATH."""
    src = str(Path(ldba_synth.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_exits_with_its_code_and_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "ldba_synth.cli", "oracle", "--env", "minecraft",
         "--ldba", "minecraft-t1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env())
    proc.stdout.close()  # the reader leaves before the first line is written
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_CLOSED_STDOUT
    assert "Traceback" not in stderr


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_cell_table_with_overall_row(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    out = tmp_path / "results"
    rc = main(["sweep", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(out), "--grid_eta", "0.5,0.9",
               "--grid_mu", "0.9", "--trainings", "2", "--tests", "3",
               "--episode_num", "10", "--iteration_num_max", "15",
               "--epsilon", "0.2", "--workers", "1", "--seed", "0"])
    assert rc == EXIT_OK
    assert "[sweep] overall average success" in capsys.readouterr().out

    with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["eta", "mu", "mean", "stderr"]
    assert len(rows) == 4                        # two cells plus the overall row
    assert [row[0] for row in rows[1:3]] == ["0.5", "0.9"]
    assert rows[3][0] == "overall"
    assert rows[3][1] == ""
    cell_means = [float(row[2]) for row in rows[1:3]]
    assert float(rows[3][2]) == pytest.approx(sum(cell_means) / 2)


def test_sweep_rejects_malformed_grids(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    rc = main(["sweep", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "results"), "--grid_eta", "0.5,abc"])
    assert rc == EXIT_CONFIG
    assert "comma-separated floats" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["train"])                          # --env/--ldba are required


STDLIB_ONLY_SCRIPT = """
import sys
from ldba_synth.cli import main

specs = ["--env", "robot-surve", "--ldba", "robot-surve", "--save_dir", sys.argv[1]]
assert main(["train", *specs, "--episode_num", "5", "--iteration_num_max", "50"]) == 0
assert main(["test", *specs, "--rollouts", "2"]) == 0
assert main(["oracle", "--env", "gridworld-1", "--ldba", "goal1-or-goal2"]) == 0
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_runtime_imports_only_the_standard_library(tmp_path):
    # the package declares no dependencies; numpy alone would add about
    # 11 MB to a run's peak RSS, and the process pool, which only a parallel
    # sweep starts, about 1.5 MB
    proc = subprocess.run([sys.executable, "-c", STDLIB_ONLY_SCRIPT, str(tmp_path / "out")],
                          capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.splitlines()[-1].split())
    assert "ldba_synth" in imported
    assert not imported & {"numpy", "networkx", "hypothesis", "concurrent", "multiprocessing"}
