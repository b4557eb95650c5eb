"""Golden oracle solves: values, qualitative sets and MECs pinned bit for bit.

The digests were recorded from the reference implementation; any change
to the product construction, the MEC decomposition, the prob0/prob1
precomputations, the order of the undecided states, the Gauss-Seidel
arithmetic or the policy iteration after it that alters a single value or
set shows up here. One case exercises epsilon-moves and 151 MECs; the other
three are slippery lakes where the quantitative solve, not the qualitative
phase, decides the initial value. Two are the benchmark's hazard lakes
(perfbench/hazard.py): lake 0, whose two components of 716 undecided states
are the largest undecided solve the benchmark runs, and lake 6, whose
initial value stops 3.6e-12 below the certified optimum of the others.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ldba_synth.automaton import load_ldba_file
from ldba_synth.envs import GridEnv, load_env_file, resolve_spec_path
from ldba_synth.oracle import (
    _predecessor_index,
    _prob0_max,
    _prob1_max,
    build_explicit_product,
    max_sat_probability,
)

from conftest import gated_lake, load_hazard_lake


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bundled_env(name: str) -> GridEnv:
    return load_env_file(resolve_spec_path(name, "envs"))


GOLDEN_SOLVES = {
    # case: (env factory, ldba, {part: sha256})
    "gridworld-1-goal1-or-goal2": (lambda: bundled_env("gridworld-1"), "goal1-or-goal2", {
        "values":
            "4497b7d7bafb81ce46ef0559d8cc4d4d0ae2ab3660a60550ed60f61ed01d290c",
        "sure":
            "c700c1719213d33597c4a1f4e3d0615b534ecb81acd951153cdf3dbe6256cace",
        "never":
            "502be1505c82710ff274b4b6a5683b294c38c359a92bedd34016dba5f9db1a5e",
        "mecs":
            "bceb6993ee43d8b5325bf560efcb6f579855551ccb13cd701355ee206a0ad099",
    }),
    "gated-lake-frozen-lake-reach": (gated_lake, "frozen-lake-reach", {
        "values":
            "e4c168dbc90eb6d60de4b672e01ddfbdb38bf1a3b8d651cdb5062c672b56c330",
        "sure":
            "af4fb03762d1b9f3a570586d05b9d6a3f89488623017eea74cd9f40872eaf06a",
        "never":
            "3bcf2afdb32ea342100e69fd054bb7052791450672fdfa8a269e36a5fa7d5b7a",
        "mecs":
            "a065b94829acf183c95b836ed848a5ba6c119451f6fc6b5424bb2b08d3d8c70b",
    }),
    "hazard-lake-0-frozen-lake-reach": (lambda: load_hazard_lake(0), "frozen-lake-reach", {
        "values":
            "f7d38fd87aeb2b955fe9957f9e586f96dc8a381ea2dd92f03831885d9bc3819b",
        "sure":
            "4abc5b1bc11a5a4457c1b1bf4c748a0e4a8ab757dfb78aff57c153ba19c0fd69",
        "never":
            "9cab0519f56f13acec86572516e8ebe7b99aa40011ec3171c9c8af90c08cae7a",
        "mecs":
            "7468dc61a5ae475fa3a7627c1f8fd9b77b02ed1483920d21d944635a839d1073",
    }),
    "hazard-lake-6-frozen-lake-reach": (lambda: load_hazard_lake(6), "frozen-lake-reach", {
        "values":
            "95a7b49e31f5b26d4509a416df7f9a94fee68dc8c88f54ec1de652eb4af0cc37",
        "sure":
            "f5a29e4d53d9dc3603cacd6983dfb8654301929b8561d4b270276444f9c89829",
        "never":
            "5436cc4750cf070868dc8194674f290f21aa7d184577bb0b5b694093da216ecd",
        "mecs":
            "a4cb32ed51b87fcf4310474f2bacae4d21521ad14aac27c3a2a19dc6b48ab5c9",
    }),
}


def solve_digests(prod) -> dict[str, str]:
    result = max_sat_probability(prod)
    target = set(result.accepting_target)
    mecs = [(sorted(m.states), sorted(m.actions.items())) for m in result.mecs]
    index = _predecessor_index(prod, target)
    return {
        "values": _sha256(repr(result.values)),
        "sure": _sha256(repr(sorted(_prob1_max(prod, target, index)))),
        "never": _sha256(repr(sorted(_prob0_max(prod, target, index)))),
        "mecs": _sha256(json.dumps(mecs, separators=(",", ":"))),
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVES))
def test_oracle_reproduces_golden_solve(case):
    make_env, ldba_name, expected = GOLDEN_SOLVES[case]
    spec = load_ldba_file(resolve_spec_path(ldba_name, "ldba"))
    assert solve_digests(build_explicit_product(make_env(), spec)) == expected


def test_gated_lake_is_decided_by_value_iteration():
    spec = load_ldba_file(resolve_spec_path("frozen-lake-reach", "ldba"))
    result = max_sat_probability(build_explicit_product(gated_lake(), spec))
    assert result.sweeps >= 100
    assert 0.0 < result.initial_value < 1.0


def test_gridworld_goal1_or_goal2_has_151_mecs():
    spec = load_ldba_file(resolve_spec_path("goal1-or-goal2", "ldba"))
    prod = build_explicit_product(bundled_env("gridworld-1"), spec)
    assert len(max_sat_probability(prod).mecs) == 151
