"""Slippery-grid dynamics, labeling, spec parsing, and the explicit kernel."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldba_synth.cli import EXIT_CONFIG, canonical_json, main
from ldba_synth.envs import (
    ACTION_DELTAS,
    PERPENDICULAR,
    EnvSpecError,
    GridEnv,
    LabelRegion,
    bundled_data_dir,
    env_to_document,
    load_env_file,
    parse_env_spec,
    resolve_spec_path,
)

from conftest import gated_lake, landing, make_rng, random_env, reference_kernel


def grid(height=5, width=5, slip=0.0, actions=("up", "down", "left", "right", "stay"),
         initial=(2, 2), regions=()):
    return GridEnv(height=height, width=width, actions=list(actions),
                   slip_probability=slip, initial_state=initial,
                   label_regions=list(regions))


# ---------------------------------------------------------------------------
# movement
# ---------------------------------------------------------------------------


def test_action_deltas_cover_the_five_moves():
    assert set(ACTION_DELTAS) == {"up", "down", "left", "right", "stay"}
    assert ACTION_DELTAS["stay"] == (0, 0)
    assert ACTION_DELTAS["up"] == (-1, 0)
    assert ACTION_DELTAS["down"] == (1, 0)
    assert ACTION_DELTAS["left"] == (0, -1)
    assert ACTION_DELTAS["right"] == (0, 1)


def test_deterministic_moves_and_wall_clamping():
    env = grid(slip=0.0, initial=(0, 0))
    rng = make_rng(0)
    assert env.step((0, 0), "up", rng) == (0, 0)      # clamped at the top wall
    assert env.step((0, 0), "left", rng) == (0, 0)    # clamped at the left wall
    assert env.step((0, 0), "down", rng) == (1, 0)
    assert env.step((1, 0), "right", rng) == (1, 1)
    assert env.step((1, 1), "stay", rng) == (1, 1)


def test_step_rejects_unknown_action():
    env = grid(actions=("up", "down", "left", "right"))
    with pytest.raises(EnvSpecError, match="not available"):
        env.step((2, 2), "stay", make_rng(0))


def test_stay_never_slips():
    env = grid(slip=1.0, initial=(2, 2))
    rng = make_rng(42)
    for _ in range(200):
        assert env.step((2, 2), "stay", rng) == (2, 2)


def test_constructor_validation():
    with pytest.raises(EnvSpecError, match="4 or 5"):
        grid(actions=("up", "down", "left"))
    with pytest.raises(EnvSpecError, match="unknown action"):
        grid(actions=("up", "down", "left", "jump"))
    with pytest.raises(EnvSpecError, match="slip_probability"):
        grid(slip=1.5)
    with pytest.raises(EnvSpecError, match="out of bounds"):
        grid(initial=(9, 0))


# ---------------------------------------------------------------------------
# slip distribution: sampling path vs analytic kernel
# ---------------------------------------------------------------------------


def test_interior_slip_distribution_is_pinned():
    env = grid(slip=0.15)
    index = env.cell_id
    row = dict(env.enumerate_model()[index[(2, 2)]]["up"])
    expected = {
        index[(1, 2)]: 0.85,   # intended move
        index[(2, 1)]: 0.05,   # perpendicular slip
        index[(2, 3)]: 0.05,   # perpendicular slip
        index[(2, 2)]: 0.05,   # stay slip
    }
    assert set(row) == set(expected)
    for j, p in expected.items():
        assert row[j] == pytest.approx(p, abs=1e-12)


def test_wall_clamp_merges_slip_mass():
    env = grid(slip=0.15)
    index = env.cell_id
    # at the corner, 'up' is blocked and the 'left' slip is blocked too
    row = dict(env.enumerate_model()[index[(0, 0)]]["up"])
    assert row[index[(0, 0)]] == pytest.approx(0.95, abs=1e-12)
    assert row[index[(0, 1)]] == pytest.approx(0.05, abs=1e-12)


def test_kernel_rows_are_distributions():
    rng = make_rng(3)
    for _ in range(25):
        env = random_env(rng)
        kernel = env.enumerate_model()
        assert len(kernel) == len(env.cells) == env.height * env.width
        for i, row in enumerate(kernel):
            assert set(row) == set(env.actions)
            for action, mass in row.items():
                total = sum(p for _, p in mass)
                assert total == pytest.approx(1.0, abs=1e-12)
                for j, p in mass:
                    assert 0.0 < p <= 1.0
                    assert 0 <= j < len(env.cells)


def test_step_frequencies_match_kernel():
    env = grid(slip=0.15)
    kernel = env.enumerate_model()
    rng = make_rng(101)
    n = 100_000
    for action in ("up", "right", "stay"):
        counts = Counter()
        for _ in range(n):
            counts[env.step((2, 2), action, rng)] += 1
        analytic = {env.cells[j]: p
                    for j, p in kernel[env.cell_id[(2, 2)]][action]}
        assert set(counts) <= set(analytic)
        for state, p in analytic.items():
            assert counts[state] / n == pytest.approx(p, abs=0.01)


def test_step_frequencies_match_kernel_on_random_env():
    rng = make_rng(29)
    env = random_env(rng, max_side=4)
    kernel = env.enumerate_model()
    start = env.initial_state
    action = env.actions[0]
    n = 40_000
    counts = Counter()
    for _ in range(n):
        counts[env.step(start, action, rng)] += 1
    analytic = {env.cells[j]: p
                for j, p in kernel[env.cell_id[start]][action]}
    assert set(counts) <= set(analytic)
    for state, p in analytic.items():
        assert counts[state] / n == pytest.approx(p, abs=0.015)


def test_cells_are_numbered_row_major_and_the_kernel_reads_the_move_table():
    rng = make_rng(5)
    for _ in range(10):
        env = random_env(rng)                    # slip 0, 0.1 or 1/3
        assert env.cells == [(r, c) for r in range(env.height) for c in range(env.width)]
        assert all(env.cell_id[cell] == i for i, cell in enumerate(env.cells))
        for moves, row in zip(env.moves, env.enumerate_model(), strict=True):
            for action, outcomes in zip(env.actions, moves, strict=True):
                assert len(outcomes) == (1 if action == "stay" else 4)
                support = set(outcomes) if env.slip_probability else {outcomes[0]}
                assert {j for j, _ in row[action]} == support


def test_move_table_matches_the_clamped_moves_position_by_position():
    # a slip draws outcomes[1 + r], so the order of the perpendicular cells counts,
    # not only the merged masses that the kernel tests compare
    rng = make_rng(37)
    shapes = [(1, 1), (1, 4), (4, 1), (2, 2)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(8)]
    for height, width in shapes:
        for actions in (["up", "down", "left", "right"], ["up", "down", "left", "right", "stay"]):
            rng.shuffle(actions)
            env = GridEnv(height=height, width=width, actions=actions, slip_probability=0.2,
                          initial_state=(0, 0), label_regions=[])
            # as GridEnv.step draws them: the intended move, then perpendicular + ("stay",)
            order = {a: (a, *PERPENDICULAR[a], "stay") if PERPENDICULAR[a] else (a,)
                     for a in env.actions}
            expected = [tuple(tuple(landing(env, cell, d) for d in order[a])
                              for a in env.actions) for cell in env.cells]
            assert env.moves == expected


@pytest.mark.parametrize("slip", [0.0, 0.15, 1.0 / 3.0, 0.45, 1.0])
def test_kernel_matches_a_dict_merge_reference(slip):
    # lines and single cells clamp on both sides, wider grids have corners and
    # interior cells, whose four outcomes are all distinct
    rng = make_rng(31)
    shapes = [(1, 1), (1, 4), (4, 1), (2, 2), (3, 3)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(5)]
    for height, width in shapes:
        for actions in (["up", "down", "left", "right"], ["up", "down", "left", "right", "stay"]):
            rng.shuffle(actions)
            env = GridEnv(height=height, width=width, actions=actions, slip_probability=slip,
                          initial_state=(0, 0), label_regions=[])
            kernel = env.enumerate_model()
            assert kernel == reference_kernel(env)
            # at slip 1 the intended cell is dropped, not kept with mass 0.0
            assert all(p > 0.0 for row in kernel for pairs in row.values() for _, p in pairs)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7),
       st.sampled_from([0.0, 0.45, 1.0]) | st.floats(0.0, 1.0),
       st.permutations(["up", "down", "left", "right"]), st.booleans())
def test_kernel_rows_keep_the_sorted_order_of_the_dict_merge(height, width, slip, actions,
                                                            stay):
    # 1-wide and 1-tall grids have no wall-free slipping move; wider ones do, whose
    # four cells the kernel writes in a fixed order per direction instead of sorting
    env = GridEnv(height=height, width=width, actions=actions + ["stay"] * stay,
                  slip_probability=slip, initial_state=(0, 0), label_regions=[])
    kernel = env.enumerate_model()
    assert kernel == reference_kernel(env)  # tuple(sorted(...)) of the merged masses
    for row in kernel:
        for pairs in row.values():
            cells = [j for j, _ in pairs]
            assert cells == sorted(set(cells))
            assert all(p > 0.0 for _, p in pairs)
            assert abs(sum(p for _, p in pairs) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------


def test_labels_empty_outside_regions():
    env = grid(regions=[LabelRegion((0, 1), (0, 1), frozenset({"a"}))])
    assert env.state_label((0, 0)) == frozenset({"a"})
    assert env.state_label((4, 4)) == frozenset()


def test_later_region_overwrites_earlier():
    env = grid(regions=[
        LabelRegion((0, 2), (0, 2), frozenset({"a"})),
        LabelRegion((1, 3), (1, 3), frozenset({"b"})),
    ])
    assert env.state_label((0, 0)) == frozenset({"a"})
    assert env.state_label((1, 1)) == frozenset({"b"})
    assert env.state_label((2, 2)) == frozenset({"b"})


def test_region_can_carry_multiple_labels():
    env = grid(regions=[LabelRegion((0, 1), (0, 2), frozenset({"goal", "goal2"}))])
    assert env.state_label((0, 1)) == frozenset({"goal", "goal2"})


def test_reserved_epsilon_prefix_rejected_on_labels(tmp_path, capsys):
    with pytest.raises(EnvSpecError, match="epsilon_"):
        grid(regions=[LabelRegion((0, 1), (0, 1), frozenset({"epsilon_3"}))])
    # no guard can test these, so a region carrying one could never be read
    for label in ("Goal", "", "a b", "goal\n", "goal!", 7, "true"):
        with pytest.raises(EnvSpecError, match="proposition name"):
            grid(regions=[LabelRegion((0, 1), (0, 1), frozenset({label}))])
        if isinstance(label, str):
            region = {"rows": [0, 1], "cols": [0, 1], "label": ["goal", label]}
            with pytest.raises(EnvSpecError, match="proposition name"):
                parse_env_spec(minimal_env_document(label_regions=[region]))
    path = tmp_path / "env.json"
    region = {"rows": [0, 1], "cols": [0, 1], "label": "Goal"}
    path.write_text(json.dumps(minimal_env_document(label_regions=[region])), encoding="utf-8")
    assert main(["oracle", "--env", str(path), "--ldba", "minecraft-t1"]) == EXIT_CONFIG
    assert "proposition name" in capsys.readouterr().err


def test_region_bounds_are_half_open():
    env = grid(regions=[LabelRegion((1, 3), (2, 4), frozenset({"a"}))])
    inside = [(1, 2), (1, 3), (2, 2), (2, 3)]
    for cell in inside:
        assert env.state_label(cell) == frozenset({"a"})
    for cell in [(0, 2), (3, 2), (1, 1), (1, 4)]:
        assert env.state_label(cell) == frozenset()
    # off the grid is no cell: a negative row does not wrap around to the last
    for cell in [(-1, 0), (0, env.width)]:
        with pytest.raises(KeyError):
            env.state_label(cell)


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------


def minimal_env_document(**overrides) -> dict:
    doc = {
        "height": 3,
        "width": 4,
        "actions": ["down", "right", "up", "left"],
        "slip_probability": 0.1,
        "initial_state": [0, 0],
        "label_regions": [
            {"rows": [2, 3], "cols": [3, 4], "label": "goal"},
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_env_spec_happy_path():
    env = parse_env_spec(minimal_env_document())
    assert (env.height, env.width) == (3, 4)
    assert env.actions == ("down", "right", "up", "left")
    assert env.slip_probability == 0.1
    assert env.initial_state == (0, 0)
    assert env.state_label((2, 3)) == frozenset({"goal"})


def test_parse_env_spec_accepts_json_text_and_label_lists():
    doc = minimal_env_document()
    doc["label_regions"][0]["label"] = ["goal", "goal2"]
    env = parse_env_spec(json.dumps(doc))
    assert env.state_label((2, 3)) == frozenset({"goal", "goal2"})


def test_parse_env_spec_requires_every_key():
    for key in ("height", "width", "actions", "slip_probability", "initial_state"):
        doc = minimal_env_document()
        del doc[key]
        with pytest.raises(EnvSpecError, match=key):
            parse_env_spec(doc)


def test_parse_env_spec_rejects_float_coordinates():
    doc = minimal_env_document(initial_state=[0.5, 0])
    with pytest.raises(EnvSpecError, match="integer coordinates"):
        parse_env_spec(doc)


# JSON true would otherwise read as 1, since Python's bool is an int
@pytest.mark.parametrize("key,value,message", [
    ("height", True, "height"),
    ("width", True, "width"),
    ("slip_probability", True, "slip_probability"),
    ("initial_state", [0, True], "integer coordinates"),
    ("label_regions", [{"rows": [True, 3], "cols": [3, 4], "label": "goal"}], "region rows"),
])
def test_parse_env_spec_rejects_booleans_as_numbers(key, value, message):
    with pytest.raises(EnvSpecError, match=message):
        parse_env_spec(minimal_env_document(**{key: value}))


def test_parse_env_spec_rejects_a_repeated_key():
    text = json.dumps(minimal_env_document()).replace('"width": 4', '"width": 4, "width": 9')
    with pytest.raises(EnvSpecError, match="repeats the key 'width'"):
        parse_env_spec(text)


def test_parse_env_spec_rejects_deeply_nested_json():
    with pytest.raises(EnvSpecError, match="nested too deeply"):
        parse_env_spec("[" * 100000)


def test_parse_env_spec_rejects_bad_regions():
    doc = minimal_env_document(label_regions=[{"rows": [0, 1], "label": "a"}])
    with pytest.raises(EnvSpecError, match="label_regions"):
        parse_env_spec(doc)


def test_env_document_round_trip_preserves_everything():
    rng = make_rng(31)
    for _ in range(20):
        env = random_env(rng)
        again = parse_env_spec(env_to_document(env))
        assert (again.height, again.width) == (env.height, env.width)
        assert again.actions == env.actions
        assert again.slip_probability == env.slip_probability
        assert again.initial_state == env.initial_state
        for r in range(env.height):
            for c in range(env.width):
                assert again.state_label((r, c)) == env.state_label((r, c))


def test_bundled_envs_are_canonical_byte_for_byte():
    data_dir = bundled_data_dir() / "envs"
    paths = sorted(data_dir.glob("*.json"))
    assert len(paths) == 10
    for path in paths:
        text = path.read_text(encoding="utf-8")
        env = load_env_file(path)
        assert canonical_json(env_to_document(env)) == text, path.name


def test_bundled_gated_lake_is_the_golden_lake():
    text = resolve_spec_path("gated-lake", "envs").read_text(encoding="utf-8")
    assert text == canonical_json(env_to_document(gated_lake()))


def test_resolve_spec_path_prefers_direct_files(tmp_path):
    target = tmp_path / "custom.json"
    target.write_text("{}", encoding="utf-8")
    assert resolve_spec_path(str(target), "envs") == target


def test_resolve_spec_path_falls_back_to_bundled_names():
    path = resolve_spec_path("minecraft", "envs")
    assert path.name == "minecraft.json"
    assert path.is_file()
    assert resolve_spec_path("slp-hard.json", "ldba").name == "slp-hard.json"
    with pytest.raises(FileNotFoundError, match="no bundled envs spec"):
        resolve_spec_path("atlantis", "envs")


def test_bundled_benchmark_dimensions():
    env = load_env_file(bundled_data_dir() / "envs" / "minecraft.json")
    assert (env.height, env.width) == (10, 10)
    assert len(env.actions) == 5
    lake = load_env_file(bundled_data_dir() / "envs" / "frozen-lake-sml.json")
    assert (lake.height, lake.width) == (12, 10)
    assert lake.slip_probability == pytest.approx(1.0 / 3.0)
    assert np.prod((lake.height, lake.width)) == 120
