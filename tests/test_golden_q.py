"""Golden training runs: Q tables and episode stats pinned bit for bit.

The digests were recorded from the reference implementation; any change
to the per-step path (product synchronization, frontier bookkeeping,
action order, update arithmetic or rng consumption) that alters a single
Q value or episode shows up here. One pair exercises epsilon-moves, the
other a frontier of four ordered accepting sets.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ldba_synth.automaton import load_ldba_file
from ldba_synth.envs import load_env_file, resolve_spec_path
from ldba_synth.learner import Hyperparams, train

GOLDEN_RUNS = {
    # (env, ldba, hyper-parameters): (Q-table sha256, episode-stats sha256)
    ("gridworld-1", "goal1-or-goal2",
     (("episode_num", 60), ("iteration_num_max", 1500), ("discount_factor", 0.95),
      ("learning_rate", 0.9), ("epsilon", 0.01), ("seed", 1))): (
        "2a8839b400b6ee76edbf6016de4bd6d2fe68f3dec5a96cec33e98c81a13ee59e",
        "8e6d2519e5309d6c37ed19835b1e4ef98d40f4106c5b9f181a6bf80b98036562"),
    ("slp-sml", "slp-hard",
     (("episode_num", 30), ("iteration_num_max", 400), ("discount_factor", 0.99),
      ("learning_rate", 0.9), ("epsilon", 0.2), ("seed", 5))): (
        "2c2b0a5e3736e79cc5bf4fc533eb3bbd404367723040071fadf5e550f221e78a",
        "0c07488be0d4d9afb20e6860b6592cea51f228a0d2a0736a6f179b4730d7d84a"),
}


def _sha256(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def q_digest(qtable) -> str:
    entries = sorted(
        (cell[0], cell[1], q, action, value.hex())
        for ((cell, q), action, value) in qtable.items()
    )
    return _sha256(entries)


def episode_digest(stats) -> str:
    return _sha256([(ep.steps, ep.sweeps_completed, ep.reached_sink) for ep in stats])


@pytest.mark.parametrize("key", sorted(GOLDEN_RUNS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_training_reproduces_golden_q_table(key):
    env_name, ldba_name, hp_items = key
    env = load_env_file(resolve_spec_path(env_name, "envs"))
    spec = load_ldba_file(resolve_spec_path(ldba_name, "ldba"))
    result = train(env, spec, Hyperparams(**dict(hp_items)))
    expected_q, expected_episodes = GOLDEN_RUNS[key]
    assert episode_digest(result.stats) == expected_episodes
    assert q_digest(result.q_table) == expected_q
