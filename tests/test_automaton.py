"""Guard grammar, automaton validation, stepping, and frontier accounting."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldba_synth.automaton import (
    MAX_GUARD_OPERATORS,
    LdbaRuntime,
    LdbaSpecError,
    SINK_STATE,
    guard_propositions,
    guard_text,
    holds,
    load_ldba_file,
    parse_guard,
    parse_ldba_spec,
    spec_to_document,
    step_state,
)
from ldba_synth.cli import canonical_json
from ldba_synth.envs import bundled_data_dir

from conftest import LABEL_POOL, make_rng, random_automaton, remaining


def all_label_subsets(pool=LABEL_POOL):
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_guard_atoms():
    assert holds(parse_guard("true"), frozenset()) is True
    assert holds(parse_guard("a"), frozenset({"a"})) is True
    assert holds(parse_guard("a"), frozenset({"b"})) is False
    assert holds(parse_guard("!a"), frozenset()) is True
    assert holds(parse_guard("!a"), frozenset({"a"})) is False


def test_guard_precedence_or_binds_loosest():
    g = parse_guard("a | b & c")
    assert g[0] == "or"
    assert holds(g, {"a"}) is True
    assert holds(g, {"b"}) is False
    assert holds(g, {"b", "c"}) is True
    assert holds(g, {"c"}) is False


def test_guard_precedence_not_binds_tightest():
    g = parse_guard("!a & b")
    assert g[0] == "and"
    assert holds(g, {"b"}) is True
    assert holds(g, {"a", "b"}) is False
    assert holds(g, set()) is False


def test_guard_parentheses_override():
    g = parse_guard("!(a | b)")
    assert holds(g, set()) is True
    assert holds(g, {"a"}) is False
    assert holds(g, {"b"}) is False
    h = parse_guard("(a | b) & c")
    assert holds(h, {"a", "c"}) is True
    assert holds(h, {"a"}) is False


def test_guard_doubled_operators_are_synonyms():
    for labels in all_label_subsets(("a", "b")):
        assert (holds(parse_guard("a && b"), labels)
                == holds(parse_guard("a & b"), labels))
        assert (holds(parse_guard("a || b"), labels)
                == holds(parse_guard("a | b"), labels))


def test_guard_to_string_round_trip():
    samples = [
        "true", "a", "!a", "a & b", "a | b", "a | b & c",
        "(a | b) & c", "!(a & b) | c", "a & !b & c", "!!a", "a & (b & c)", "(a | b) | c",
    ]
    for text in samples:
        g = parse_guard(text)
        again = parse_guard(guard_text(g))
        for labels in all_label_subsets(("a", "b", "c")):
            assert holds(g, labels) == holds(again, labels), text
        assert again == g


def test_guard_equality_and_hash():
    assert parse_guard("a & b") == parse_guard("a && b")
    assert parse_guard("a") != parse_guard("b")
    assert hash(parse_guard("a | b")) == hash(parse_guard("a || b"))
    for spaced in (" a", "a ", "a\n", " ( a ) "):
        assert parse_guard(spaced) == parse_guard("a")
    assert parse_guard("true") == ("true",)
    assert parse_guard("wood") == ("prop", "wood")


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
    assert holds(parse_guard("!" * limit + "a"), set()) is (limit % 2 == 1)
    assert parse_guard("(" * limit + "a" + ")" * limit) == ("prop", "a")
    assert guard_propositions(parse_guard(" & ".join(["a"] * (limit + 1)))) == {"a"}
    with pytest.raises(LdbaSpecError, match="more than"):
        parse_guard(" && ".join(["a"] * (limit + 2)))


def _exercise(guard):
    """Every recursive guard function must run on a parsed guard, and the guard
    re-parsed from its canonical text must equal it and agree with it on
    every label set."""
    again = parse_guard(guard_text(guard))
    assert again == guard
    hash(guard)
    pool = tuple(sorted(guard_propositions(guard) | {"a", "b"}))[:8]
    for labels in all_label_subsets(pool):
        assert holds(again, labels) == holds(guard, labels)


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
    for reserved in ("epsilon_9", "true"):
        with pytest.raises(LdbaSpecError, match="reserved"):
            parse_ldba_spec(minimal_document(alphabet=["a", reserved]))


# "$" also matches before a final newline, and "\d" matches any Unicode digit
@pytest.mark.parametrize("name", ["epsilon_1\n", "epsilon_\u0661", "epsilon_1"])
@pytest.mark.parametrize("shorthand", [True, False], ids=["shorthand", "name_to"])
def test_epsilon_names_are_ascii_digits_only(name, shorthand):
    doc = minimal_document()
    doc["epsilon_transitions"] = {"0": [name if shorthand else {"name": name, "to": 1}]}
    if name == "epsilon_1":
        assert parse_ldba_spec(doc).epsilon_transitions[0] == (("epsilon_1", 1),)
    else:
        with pytest.raises(LdbaSpecError, match="epsilon name"):
            parse_ldba_spec(doc)


def test_reject_alphabet_name_with_a_trailing_newline():
    with pytest.raises(LdbaSpecError, match="bad proposition name"):
        parse_ldba_spec(minimal_document(alphabet=["a", "b\n"]))


def _targeting(target, epsilon=False):
    doc = minimal_document()
    if epsilon:
        doc["epsilon_transitions"] = {"0": [{"name": "epsilon_1", "to": target}]}
    else:
        doc["transitions"]["0"][0]["to"] = target
    return doc


# JSON true would otherwise read as state 1, since Python's bool is an int
@pytest.mark.parametrize("doc", [
    minimal_document(states=[0, True]),
    minimal_document(initial_state=True),
    minimal_document(accepting_sets=[[True]]),
    _targeting(True),
    _targeting(True, epsilon=True),
], ids=["states", "initial_state", "accepting_set", "transition_to", "epsilon_to"])
def test_reject_booleans_as_states(doc):
    with pytest.raises(LdbaSpecError):
        parse_ldba_spec(doc)


# int() also reads these as a declared state, so one state could get two rows
@pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "\u0661", "1.0"])
@pytest.mark.parametrize("field", ["transitions", "epsilon_transitions"])
def test_reject_noncanonical_state_keys(field, key):
    doc = minimal_document(states=[0, 1, 10])
    doc["transitions"]["10"] = [{"guard": "true", "to": 10}]
    doc["epsilon_transitions"] = {"1": [{"name": "epsilon_0", "to": 0}]}
    doc[field][key] = ([{"guard": "true", "to": -1}] if field == "transitions"
                       else [{"name": "epsilon_9", "to": -1}])
    with pytest.raises(LdbaSpecError, match="is not a declared state"):
        parse_ldba_spec(doc)


def test_repeated_transition_key_raises_spec_error():
    # json.loads alone keeps the later "1": state 1 would take a row into the sink
    row = '"1": [{"guard": "true", "to": 1}]'
    text = json.dumps(minimal_document()).replace(row, row + ', "1": [{"guard": "true", "to": -1}]')
    with pytest.raises(LdbaSpecError, match="repeats the key '1'"):
        parse_ldba_spec(text)


def test_deeply_nested_json_raises_spec_error():
    with pytest.raises(LdbaSpecError, match="nested too deeply"):
        parse_ldba_spec('{"states": ' + "[" * 100000)


def test_epsilon_bare_name_shorthand_targets_index():
    doc = minimal_document()
    doc["epsilon_transitions"] = {"0": ["epsilon_1"]}
    spec = parse_ldba_spec(doc)
    assert spec.epsilon_transitions[0] == (("epsilon_1", 1),)
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


def test_runtime_step_matches_pure_step_state():
    rng = make_rng(7)
    for trial in range(30):
        spec = random_automaton(rng)
        runtime = LdbaRuntime(spec)
        compiled = spec.compiled
        q = spec.initial_state
        for _ in range(60):
            labels = frozenset(
                lab for lab in spec.alphabet if rng.random() < 0.4)
            expected = step_state(spec, q, labels)
            assert compiled.states[runtime.step(compiled.label_class(labels))] == expected
            q = expected


def test_compiled_tables_number_states_in_declaration_order_with_the_sink_last():
    spec = parse_ldba_spec(minimal_document(
        states=[7, 3], initial_state=3, accepting_sets=[[7]],
        epsilon_transitions={"3": [{"name": "epsilon_0", "to": 7}]},
        transitions={"3": [{"guard": "a", "to": 7}, {"guard": "true", "to": 3}],
                     "7": [{"guard": "a", "to": 7}, {"guard": "true", "to": -1}]}))
    compiled = spec.compiled
    assert compiled.states == (7, 3, SINK_STATE)
    assert compiled.index == {7: 0, 3: 1, SINK_STATE: 2}
    assert compiled.accmask == [1, 0, 0]
    a, plain = (compiled.label_class(labels) for labels in ({"a"}, set()))
    eps = compiled.epsilon[1][0]
    assert compiled.label_class(frozenset({"a"})) == a      # one class per label set
    assert [row[a] for row in compiled.delta] == [0, 0, 2]
    assert [row[plain] for row in compiled.delta] == [2, 1, 2]
    assert [row[eps] for row in compiled.delta] == [None, 0, 2]   # 7 offers no epsilon_0
    run = LdbaRuntime(spec)
    assert run.state == 1                                   # state 3
    assert (run.step(plain), run.step(a)) == (1, 0)
    assert run.advance_frontier(run.state) is True


# ---------------------------------------------------------------------------
# frontier accounting
# ---------------------------------------------------------------------------


def test_frontier_reset_state():
    spec = parse_ldba_spec(minimal_document())
    run = LdbaRuntime(spec)
    run.step(spec.compiled.label_class({"a"}))
    run.advance_frontier(run.state)
    assert run.state == 1
    assert run.reset() == 0
    assert run.state == 0
    assert remaining(run) == list(spec.accepting_sets)
    assert run.sweeps_completed == 0


def test_frontier_removes_one_set_per_call():
    doc = minimal_document(accepting_sets=[[1], [1]])
    run = LdbaRuntime(parse_ldba_spec(doc))
    assert run.advance_frontier(1) is True
    assert remaining(run) == [frozenset({1})]
    assert run.sweeps_completed == 0
    assert run.advance_frontier(1) is True
    assert remaining(run) == [frozenset({1}), frozenset({1})]
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
    assert remaining(run) == [frozenset({1}), frozenset({2})]
    assert run.advance_frontier(1) is True
    assert remaining(run) == [frozenset({2})]
    assert run.advance_frontier(1) is False
    assert run.advance_frontier(2) is True
    assert run.sweeps_completed == 1
    assert remaining(run) == [frozenset({1}), frozenset({1, 2}), frozenset({2})]


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
            fired = run.advance_frontier(spec.compiled.index[q])
            assert 1 <= len(remaining(run)) <= n_sets
            # remaining is always an ordered subsequence of the full family
            it = iter(spec.accepting_sets)
            assert all(any(acc == cand for cand in it) for acc in remaining(run))
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
        assert run.advance_frontier(spec.compiled.index[SINK_STATE]) is False


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip_randomized():
    rng = make_rng(17)
    for _ in range(40):
        spec = random_automaton(rng)
        text = canonical_json(spec_to_document(spec))
        again = parse_ldba_spec(text)
        assert again == spec
        assert canonical_json(spec_to_document(again)) == text


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
        assert canonical_json(spec_to_document(spec)) == text, path.name


def test_bundled_goal_alternative_uses_epsilon_choice():
    spec = load_ldba_file(bundled_data_dir() / "ldba" / "goal1-or-goal2.json")
    assert spec.epsilon_names(0) == ("epsilon_1", "epsilon_2")
    assert spec.accepting_sets == (frozenset({1, 2}),)
    compiled = spec.compiled
    assert [compiled.states[compiled.delta[0][c]] for c in compiled.epsilon[0]] == [1, 2]
