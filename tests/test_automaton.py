"""Guard grammar, automaton validation, stepping, and frontier accounting."""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldba_synth.automaton import (
    MAX_GUARD_OPERATORS,
    GuardAnd,
    GuardNot,
    GuardOr,
    GuardProp,
    GuardTrue,
    LdbaRuntime,
    LdbaSpecError,
    SINK_STATE,
    load_ldba_file,
    parse_guard,
    parse_ldba_spec,
    serialize_ldba_spec,
    spec_to_document,
    step_state,
)
from ldba_synth.envs import bundled_data_dir

from conftest import LABEL_POOL, make_rng, random_automaton, random_automaton_document


def all_label_subsets(pool=LABEL_POOL):
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_guard_atoms():
    assert parse_guard("true").evaluate(frozenset()) is True
    assert parse_guard("a").evaluate(frozenset({"a"})) is True
    assert parse_guard("a").evaluate(frozenset({"b"})) is False
    assert parse_guard("!a").evaluate(frozenset()) is True
    assert parse_guard("!a").evaluate(frozenset({"a"})) is False


def test_guard_precedence_or_binds_loosest():
    g = parse_guard("a | b & c")
    assert isinstance(g, GuardOr)
    assert g.evaluate({"a"}) is True
    assert g.evaluate({"b"}) is False
    assert g.evaluate({"b", "c"}) is True
    assert g.evaluate({"c"}) is False


def test_guard_precedence_not_binds_tightest():
    g = parse_guard("!a & b")
    assert isinstance(g, GuardAnd)
    assert g.evaluate({"b"}) is True
    assert g.evaluate({"a", "b"}) is False
    assert g.evaluate(set()) is False


def test_guard_parentheses_override():
    g = parse_guard("!(a | b)")
    assert g.evaluate(set()) is True
    assert g.evaluate({"a"}) is False
    assert g.evaluate({"b"}) is False
    h = parse_guard("(a | b) & c")
    assert h.evaluate({"a", "c"}) is True
    assert h.evaluate({"a"}) is False


def test_guard_doubled_operators_are_synonyms():
    for labels in all_label_subsets(("a", "b")):
        assert (parse_guard("a && b").evaluate(labels)
                == parse_guard("a & b").evaluate(labels))
        assert (parse_guard("a || b").evaluate(labels)
                == parse_guard("a | b").evaluate(labels))


def test_guard_to_string_round_trip():
    samples = [
        "true", "a", "!a", "a & b", "a | b", "a | b & c",
        "(a | b) & c", "!(a & b) | c", "a & !b & c", "!!a",
    ]
    for text in samples:
        g = parse_guard(text)
        again = parse_guard(g.to_string())
        for labels in all_label_subsets(("a", "b", "c")):
            assert g.evaluate(labels) == again.evaluate(labels), text
        assert again == g


def test_guard_equality_and_hash():
    assert parse_guard("a & b") == parse_guard("a && b")
    assert parse_guard("a") != parse_guard("b")
    assert hash(parse_guard("a | b")) == hash(parse_guard("a || b"))
    assert isinstance(parse_guard("true"), GuardTrue)
    assert isinstance(parse_guard("wood"), GuardProp)


@pytest.mark.parametrize("bad", ["", "a &", "(a", "a b", "& a", "a |", "()", "!"])
def test_guard_rejects_malformed(bad):
    with pytest.raises(LdbaSpecError):
        parse_guard(bad)


def test_guard_rejects_uppercase():
    with pytest.raises(LdbaSpecError, match="unexpected character"):
        parse_guard("Wood")


@pytest.mark.parametrize("deep", [
    "!" * 5000 + "a",
    "(" * 3000 + "a" + ")" * 3000,
    " & ".join(["a"] * 5000),
    " || ".join(["!a"] * 3000),
    "!(" * 1000 + "a" + ")" * 1000,
])
def test_deep_guards_raise_spec_error(deep):
    with pytest.raises(LdbaSpecError, match="more than"):
        parse_guard(deep)


def test_guards_at_the_operator_limit_parse():
    limit = MAX_GUARD_OPERATORS
    assert parse_guard("!" * limit + "a").evaluate(set()) is (limit % 2 == 1)
    assert parse_guard("(" * limit + "a" + ")" * limit) == GuardProp("a")
    assert parse_guard(" & ".join(["a"] * (limit + 1))).propositions() == {"a"}
    with pytest.raises(LdbaSpecError, match="more than"):
        parse_guard(" && ".join(["a"] * (limit + 2)))


def _exercise(guard):
    """Every recursive Guard method must run on a parsed guard."""
    guard.to_string()
    guard.propositions()
    hash(guard)
    for labels in all_label_subsets(("a", "b")):
        guard.evaluate(labels)


GUARD_PIECES = ["a", "b", "true", "!", "&", "&&", "|", "||", "(", ")", " "]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abtrue!&|() _1Z", max_size=120))
def test_guard_parser_raises_only_spec_errors_on_random_text(text):
    try:
        guard = parse_guard(text)
    except LdbaSpecError:
        return
    _exercise(guard)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 * MAX_GUARD_OPERATORS), st.sampled_from(["!", "(", "!("]),
       st.lists(st.sampled_from(GUARD_PIECES), max_size=400))
def test_guard_parser_raises_only_spec_errors_on_deep_text(depth, opener, pieces):
    text = opener * depth + "".join(pieces) + ")" * depth
    try:
        guard = parse_guard(text)
    except LdbaSpecError:
        return
    _exercise(guard)


# ---------------------------------------------------------------------------
# document validation
# ---------------------------------------------------------------------------


def minimal_document(**overrides) -> dict:
    doc = {
        "states": [0, 1],
        "initial_state": 0,
        "alphabet": ["a"],
        "accepting_sets": [[1]],
        "transitions": {
            "0": [{"guard": "a", "to": 1}, {"guard": "true", "to": 0}],
            "1": [{"guard": "true", "to": 1}],
        },
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_document():
    spec = parse_ldba_spec(minimal_document())
    assert spec.states == (0, 1)
    assert spec.initial_state == 0
    assert spec.accepting_sets == (frozenset({1}),)
    assert step_state(spec, 0, {"a"}) == 1
    assert step_state(spec, 0, set()) == 0


def test_parse_accepts_json_text():
    text = json.dumps(minimal_document())
    spec = parse_ldba_spec(text)
    assert spec.states == (0, 1)
    with pytest.raises(LdbaSpecError, match="syntax error"):
        parse_ldba_spec(text[:-5])


def test_reject_listed_sink():
    with pytest.raises(LdbaSpecError, match="implicit"):
        parse_ldba_spec(minimal_document(states=[-1, 0, 1]))


def test_reject_missing_catch_all():
    doc = minimal_document()
    doc["transitions"]["1"] = [{"guard": "a", "to": 1}]
    with pytest.raises(LdbaSpecError, match="catch-all"):
        parse_ldba_spec(doc)


def test_reject_guard_proposition_outside_alphabet():
    doc = minimal_document()
    doc["transitions"]["0"][0]["guard"] = "zinc"
    with pytest.raises(LdbaSpecError, match="not in the alphabet"):
        parse_ldba_spec(doc)


def test_reject_accepting_sink():
    with pytest.raises(LdbaSpecError, match="never accepting"):
        parse_ldba_spec(minimal_document(accepting_sets=[[-1]]))


def test_reject_unknown_initial_state():
    with pytest.raises(LdbaSpecError, match="initial_state"):
        parse_ldba_spec(minimal_document(initial_state=7))


def test_reject_states_without_rows():
    doc = minimal_document(states=[0, 1, 2])
    with pytest.raises(LdbaSpecError, match="without transition rows"):
        parse_ldba_spec(doc)


def test_reject_duplicate_epsilon_names():
    doc = minimal_document()
    doc["epsilon_transitions"] = {
        "0": [{"name": "epsilon_0", "to": 1}],
        "1": [{"name": "epsilon_0", "to": 0}],
    }
    with pytest.raises(LdbaSpecError, match="not unique"):
        parse_ldba_spec(doc)


def test_reject_reserved_prefix_in_alphabet():
    with pytest.raises(LdbaSpecError, match="reserved"):
        parse_ldba_spec(minimal_document(alphabet=["a", "epsilon_9"]))


def test_epsilon_bare_name_shorthand_targets_index():
    doc = minimal_document()
    doc["epsilon_transitions"] = {"0": ["epsilon_1"]}
    spec = parse_ldba_spec(doc)
    assert spec.epsilon_transitions[0] == (("epsilon_1", 1),)
    assert spec.epsilon_targets["epsilon_1"] == 1
    assert spec.epsilon_names(0) == ("epsilon_1",)
    assert spec.epsilon_names(1) == ()


def test_transition_can_target_sink():
    doc = minimal_document()
    doc["transitions"]["0"].insert(0, {"guard": "!a", "to": -1})
    spec = parse_ldba_spec(doc)
    assert step_state(spec, 0, set()) == SINK_STATE


# ---------------------------------------------------------------------------
# stepping semantics
# ---------------------------------------------------------------------------


def test_first_match_wins_in_declaration_order():
    doc = minimal_document(
        states=[0, 1, 2],
        alphabet=["a", "b"],
        accepting_sets=[[2]],
        transitions={
            "0": [
                {"guard": "a", "to": 1},
                {"guard": "a | b", "to": 2},
                {"guard": "true", "to": 0},
            ],
            "1": [{"guard": "true", "to": 1}],
            "2": [{"guard": "true", "to": 2}],
        },
    )
    spec = parse_ldba_spec(doc)
    assert step_state(spec, 0, {"a", "b"}) == 1
    assert step_state(spec, 0, {"b"}) == 2
    assert step_state(spec, 0, set()) == 0


def test_sink_is_absorbing_for_every_label_set():
    spec = parse_ldba_spec(minimal_document())
    for labels in all_label_subsets(("a",)):
        assert step_state(spec, SINK_STATE, labels) == SINK_STATE


def test_epsilon_label_must_be_alone():
    doc = minimal_document()
    doc["epsilon_transitions"] = {"0": [{"name": "epsilon_0", "to": 1}]}
    spec = parse_ldba_spec(doc)
    assert step_state(spec, 0, {"epsilon_0"}) == 1
    with pytest.raises(LdbaSpecError, match="alone"):
        step_state(spec, 0, {"epsilon_0", "a"})
    with pytest.raises(LdbaSpecError, match="not available"):
        step_state(spec, 1, {"epsilon_0"})


def test_runtime_step_matches_pure_step_state():
    rng = make_rng(7)
    for trial in range(30):
        spec = random_automaton(rng)
        runtime = LdbaRuntime(spec)
        q = spec.initial_state
        for _ in range(60):
            labels = frozenset(
                lab for lab in spec.alphabet if rng.random() < 0.4)
            expected = step_state(spec, q, labels)
            assert runtime.step(labels) == expected
            q = expected


# ---------------------------------------------------------------------------
# frontier accounting
# ---------------------------------------------------------------------------


def test_frontier_reset_state():
    spec = parse_ldba_spec(minimal_document())
    run = LdbaRuntime(spec)
    run.step({"a"})
    run.advance_frontier(run.state)
    assert run.state == 1
    assert run.reset() == 0
    assert run.state == 0
    assert run.remaining == list(spec.accepting_sets)
    assert run.sweeps_completed == 0


def test_frontier_removes_one_set_per_call():
    doc = minimal_document(accepting_sets=[[1], [1]])
    run = LdbaRuntime(parse_ldba_spec(doc))
    assert run.advance_frontier(1) is True
    assert run.remaining == [frozenset({1})]
    assert run.sweeps_completed == 0
    assert run.advance_frontier(1) is True
    assert run.remaining == [frozenset({1}), frozenset({1})]
    assert run.sweeps_completed == 1
    assert run.advance_frontier(0) is False


def test_frontier_removes_first_matching_set_in_declaration_order():
    doc = minimal_document(
        states=[0, 1, 2],
        accepting_sets=[[1], [1, 2], [2]],
        transitions={
            "0": [{"guard": "true", "to": 0}],
            "1": [{"guard": "true", "to": 1}],
            "2": [{"guard": "true", "to": 2}],
        },
    )
    run = LdbaRuntime(parse_ldba_spec(doc))
    assert run.advance_frontier(2) is True
    assert run.remaining == [frozenset({1}), frozenset({2})]
    assert run.advance_frontier(1) is True
    assert run.remaining == [frozenset({2})]
    assert run.advance_frontier(1) is False
    assert run.advance_frontier(2) is True
    assert run.sweeps_completed == 1
    assert run.remaining == [frozenset({1}), frozenset({1, 2}), frozenset({2})]


def test_frontier_conservation_and_sweep_rate_randomized():
    rng = make_rng(11)
    for trial in range(40):
        spec = random_automaton(rng, max_states=5)
        run = LdbaRuntime(spec)
        n_sets = len(spec.accepting_sets)
        fires_since_sweep = 0
        total_fires = 0
        last_sweeps = 0
        for _ in range(300):
            q = rng.choice(spec.states)
            fired = run.advance_frontier(q)
            assert 1 <= len(run.remaining) <= n_sets
            # remaining is always an ordered subsequence of the full family
            it = iter(spec.accepting_sets)
            assert all(any(acc == cand for cand in it) for acc in run.remaining)
            if fired:
                fires_since_sweep += 1
                total_fires += 1
            if run.sweeps_completed > last_sweeps:
                assert run.sweeps_completed == last_sweeps + 1
                assert fires_since_sweep == n_sets
                fires_since_sweep = 0
                last_sweeps = run.sweeps_completed
        # every completed sweep consumed exactly one fire per accepting set
        assert total_fires == run.sweeps_completed * n_sets + fires_since_sweep


def test_sink_never_fires_frontier():
    rng = make_rng(13)
    for _ in range(20):
        spec = random_automaton(rng)
        run = LdbaRuntime(spec)
        assert run.advance_frontier(SINK_STATE) is False


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip_randomized():
    rng = make_rng(17)
    for _ in range(40):
        spec = random_automaton(rng)
        text = serialize_ldba_spec(spec)
        again = parse_ldba_spec(text)
        assert again == spec
        assert serialize_ldba_spec(again) == text


def test_spec_to_document_is_json_clean():
    rng = make_rng(19)
    spec = random_automaton(rng)
    doc = spec_to_document(spec)
    assert json.loads(json.dumps(doc)) == doc


def test_bundled_automata_are_canonical_byte_for_byte():
    data_dir = bundled_data_dir() / "ldba"
    paths = sorted(data_dir.glob("*.json"))
    assert len(paths) == 13
    for path in paths:
        text = path.read_text(encoding="utf-8")
        spec = load_ldba_file(path)
        assert serialize_ldba_spec(spec) == text, path.name


def test_bundled_goal_alternative_uses_epsilon_choice():
    spec = load_ldba_file(bundled_data_dir() / "ldba" / "goal1-or-goal2.json")
    assert spec.epsilon_names(0) == ("epsilon_1", "epsilon_2")
    assert spec.accepting_sets == (frozenset({1, 2}),)
    assert step_state(spec, 0, {"epsilon_1"}) == 1
    assert step_state(spec, 0, {"epsilon_2"}) == 2
