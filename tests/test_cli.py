"""Command-line behaviour: artifacts, exit codes, persistence formats."""

from __future__ import annotations

import csv
import json

import pytest

from ldba_synth.cli import (
    EXIT_CONFIG,
    EXIT_INCOMPATIBLE,
    EXIT_OK,
    EXIT_SIZE_CAP,
    CliError,
    canonical_json,
    load_model,
    main,
    model_qtable,
    save_model,
    spec_hash,
)
from ldba_synth.envs import parse_env_spec
from ldba_synth.automaton import parse_ldba_spec
from ldba_synth.learner import Hyperparams, train

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
    assert model_qtable(payload) == result.q_table


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
    "hyperparams-list": model_payload(hyperparams=[]),
    "bad-discount": model_payload(hyperparams={"discount_factor": 1.5}),
    "bad-horizon": model_payload(hyperparams={"iteration_num_max": "20"}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_load_model_rejects_malformed_payloads(tmp_path, name):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]), encoding="utf-8")
    with pytest.raises(CliError, match="malformed") as info:
        load_model(path)
    assert info.value.code == EXIT_CONFIG


@pytest.mark.parametrize("name", ["format-only", "entry-not-object", "bad-discount"])
def test_test_with_malformed_model_exits_config(spec_files, tmp_path, capsys, name):
    env_path, ldba_path = spec_files
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]), encoding="utf-8")
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "out"), "--model", str(path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: model file")


def test_load_model_accepts_a_well_formed_payload(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_payload()), encoding="utf-8")
    assert model_qtable(load_model(path)).value(((0, 0), 0), "right") == 0.5


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


def test_invalid_hyperparams_exit_config(spec_files, tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(train_args(spec_files, out, "--discount_factor", "1.5"))
    assert rc == EXIT_CONFIG
    assert "discount_factor" in capsys.readouterr().err


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


def test_test_without_model_exits_config(spec_files, tmp_path, capsys):
    env_path, ldba_path = spec_files
    rc = main(["test", "--env", str(env_path), "--ldba", str(ldba_path),
               "--save_dir", str(tmp_path / "empty")])
    assert rc == EXIT_CONFIG
    assert "no such model" in capsys.readouterr().err


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


def test_oracle_state_cap_exits_4(spec_files, capsys):
    env_path, ldba_path = spec_files
    rc = main(["oracle", "--env", str(env_path), "--ldba", str(ldba_path),
               "--state_cap", "3"])
    assert rc == EXIT_SIZE_CAP
    assert "state slots" in capsys.readouterr().err


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
               "--save_dir", str(tmp_path), "--grid_eta", "0.5,abc"])
    assert rc == EXIT_CONFIG
    assert "comma-separated floats" in capsys.readouterr().err


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["train"])                          # --env/--ldba are required
