"""Property-based fuzzing of the spec parsers and the model loader.

Each target is fed random JSON text, random JSON values and valid
documents with a few parts replaced or deleted. A target may accept the
input or reject it with its documented error type; any other exception
fails the test.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ldba_synth.automaton import LdbaSpecError, parse_ldba_spec
from ldba_synth.cli import CliError, load_model, model_qtable
from ldba_synth.envs import EnvSpecError, parse_env_spec
from ldba_synth.product import CompiledProduct

# Small numbers only: a valid grid of height 10**9 is a memory problem,
# not a parsing one.
SCALARS = (st.none() | st.booleans() | st.integers(-3, 6)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(["", "a", "0", "-1", "true", "epsilon_0", "up", "!", "goal"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["", "0", "1", "a", "to", "guard",
                                                       "name", "rows", "cols", "label"]),
                                     inner, max_size=4)),
    max_leaves=10)

ENV_DOC = {
    "height": 3,
    "width": 4,
    "actions": ["up", "down", "left", "right"],
    "slip_probability": 0.1,
    "initial_state": [0, 0],
    "label_regions": [{"rows": [1, 2], "cols": [1, 3], "label": ["a"]},
                      {"rows": [2, 3], "cols": [3, 4], "label": "b"}],
}

LDBA_DOC = {
    "states": [0, 1],
    "initial_state": 0,
    "alphabet": ["a", "b"],
    "accepting_sets": [[1]],
    "epsilon_transitions": {"0": [{"name": "epsilon_0", "to": 1}, "epsilon_1"]},
    "transitions": {
        "0": [{"guard": "a & !b", "to": 1}, {"guard": "b", "to": -1},
              {"guard": "true", "to": 0}],
        "1": [{"guard": "true", "to": 1}],
    },
}

MODEL_DOC = {
    "format": "ldba-synth-model",
    "env_hash": "0" * 64,
    "ldba_hash": "1" * 64,
    "seed": 0,
    "hyperparams": {"iteration_num_max": 20, "discount_factor": 0.5,
                    "positive_reward": None, "q_init": 0.0},
    "interrupted": False,
    "entries": [{"s": [0, 1], "q": 0, "action": "right", "value": 0.25},
                {"s": [0, 2], "q": 1, "action": "up", "value": 0.5}],
}


PRODUCT = CompiledProduct(parse_env_spec(ENV_DOC), parse_ldba_spec(LDBA_DOC))


def _slots(node, slots):
    """Every (container, key) pair inside a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        slots.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, slots)
    return slots


@st.composite
def mutated(draw, base):
    """A copy of base with one to three parts replaced by random JSON or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            container[key] = draw(JSON_VALUES)
        else:
            del container[key]
    return doc


def documents(base):
    return (mutated(base) | JSON_VALUES
            | st.text(alphabet='{}[]":,0123456789aeflnrstu -', max_size=40))


def _accepts_or_rejects(parse, error, document):
    try:
        parse(document)
    except error:
        pass


@settings(max_examples=200, deadline=None)
@given(documents(ENV_DOC))
def test_env_parser_raises_only_spec_errors(document):
    _accepts_or_rejects(parse_env_spec, EnvSpecError, document)


@settings(max_examples=200, deadline=None)
@given(documents(LDBA_DOC))
def test_ldba_parser_raises_only_spec_errors(document):
    _accepts_or_rejects(parse_ldba_spec, LdbaSpecError, document)


@settings(max_examples=150, deadline=None)
@given(documents(MODEL_DOC))
def test_model_loader_raises_only_cli_errors(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
        try:
            model_qtable(load_model(path), PRODUCT)
        except CliError:
            return
