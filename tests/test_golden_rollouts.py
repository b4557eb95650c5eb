"""Golden train-then-test runs: saved model, rollouts and trace pinned bit for bit.

The digests were recorded from the reference implementation. A run trains
through the CLI, tests the saved model with `test --trace`, and hashes
three artifacts: the model file's bytes, the `per_rollout` list of
`test_results.json`, and the trace CSV's bytes. Together they cover the
greedy policy, the closed-loop tester and the translation of product
states and actions into the names the files hold. One pair exercises
epsilon-moves, the other a frontier of four ordered accepting sets.
The gridworld-1 trace holds 11 rows into the sink; each shows reward 0
and gamma 0, the payoff training gives that step.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ldba_synth.cli import EXIT_OK, main

GOLDEN_RUNS = {
    # (env, ldba, train flags, test flags): (model, per_rollout, trace) sha256
    ("gridworld-1", "goal1-or-goal2",
     ("--episode_num", "40", "--iteration_num_max", "600", "--epsilon", "0.05",
      "--seed", "2"),
     ("--rollouts", "12", "--seed", "3")): (
        "3fd9b28b738533b10e95da707e29f855fa163391820a25fd405a50597a56c6bd",
        "4f8aeef752694885dadd042827ad6db840b4bed9400a8492b8b0a72d158e5983",
        "1fccdd6be166a94d589f362da9113b4c4a18bc9c976b040d3665dc7728fa6ab0"),
    ("slp-sml", "slp-hard",
     ("--episode_num", "30", "--iteration_num_max", "400", "--discount_factor", "0.99",
      "--epsilon", "0.2", "--seed", "5"),
     ("--rollouts", "10", "--horizon", "300", "--seed", "4")): (
        "809afc2bdac1a521ee7d6b52d6d1c489267c771047f90f71a1f9f67e7db04285",
        "d6eaa7182fb754f3a177eaf2d821be74fbb9e413393574ef7ad35f3264023995",
        "a008d88fc8e6ef8db91e765c1db13b63f0cce94e4b2f5a1ff80cb3ce4fe955f2"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(tmp_path, key) -> tuple[str, str, str]:
    env, ldba, train_flags, test_flags = key
    out = tmp_path / "results"
    trace = tmp_path / "trace.csv"
    specs = ["--env", env, "--ldba", ldba, "--save_dir", str(out)]
    assert main(["train", *specs, "--no-test", *train_flags]) == EXIT_OK
    assert main(["test", *specs, "--trace", str(trace), *test_flags]) == EXIT_OK
    report = json.loads((out / "test_results.json").read_text(encoding="utf-8"))
    rollouts = json.dumps(report["per_rollout"], separators=(",", ":")).encode("utf-8")
    return (_sha256((out / "learned_model.json").read_bytes()), _sha256(rollouts),
            _sha256(trace.read_bytes()))


@pytest.mark.parametrize("key", sorted(GOLDEN_RUNS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_train_then_test_reproduces_golden_artifacts(tmp_path, capsys, key):
    assert run_digests(tmp_path, key) == GOLDEN_RUNS[key]
