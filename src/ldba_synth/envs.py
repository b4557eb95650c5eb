"""Slippery grid-world environments with labeled cells.

A grid is height x width with moves up/down/left/right and optionally
stay. With probability slip_probability a move slips: the agent goes to
one of the two cells perpendicular to the intended direction or stays
put, each with slip_probability/3 ('stay' has no perpendiculars, so it
never slips). Moves off the boundary leave the agent in place. Labels
come from an ordered region list where later regions overwrite earlier
ones on the cells they cover; a region may carry several labels at once.
Per-cell facts are lists over the row-major cell ids, each built on first
read, so parsing a grid only validates it.

Environments never terminate episodes on their own; the product layer
decides termination. The module performs no I/O beyond loading spec
files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import cache, cached_property
from operator import itemgetter
from pathlib import Path

ACTION_DELTAS = {
    "up": (-1, 0),
    "down": (1, 0),
    "left": (0, -1),
    "right": (0, 1),
    "stay": (0, 0),
}

PERPENDICULAR = {
    "up": ("left", "right"),
    "down": ("left", "right"),
    "left": ("up", "down"),
    "right": ("up", "down"),
    "stay": (),
}

# sorts a wall-free move's four pairs (intended, perpendicular, stay) by cell id: by (dr, dc)
IN_ID_ORDER = {a: itemgetter(*sorted(range(4), key=lambda k: ACTION_DELTAS[(a, *p, "stay")[k]]))
               for a, p in PERPENDICULAR.items() if p}


def proposition_name_problem(name) -> str | None:
    """Why name may not be a cell label or automaton proposition, or None if it may."""
    if not (isinstance(name, str) and re.fullmatch(r"[a-z0-9_]+", name)):
        return "it must match [a-z0-9_]+"
    if name.startswith("epsilon_"):
        return "the epsilon_ prefix is reserved for epsilon moves"
    if name == "true":
        return "true is reserved for the catch-all guard"
    return None


class EnvSpecError(ValueError):
    """Raised when an environment document is invalid."""


def _require(cond: bool, message: str):
    if not cond:
        raise EnvSpecError(message)


def is_int(value) -> bool:
    """A JSON integer; Python's bool is an int, JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require_positive(**values):
    """Raise ValueError naming the first of values that is not positive."""
    for name, value in values.items():
        if not value > 0:  # NaN is not positive either
            raise ValueError(f"{name} must be positive")


def require_field_types(options) -> None:
    """Raise ValueError naming the first field of dataclass options whose value
    has the wrong type: an int field takes is_int, any other is_number, and a
    field whose default is None also None. Ranges, finiteness included, are
    the caller's to check after this."""
    for field in fields(options):
        value = getattr(options, field.name)
        if field.type in ("int", int):
            if not is_int(value):
                raise ValueError(f"{field.name} must be an integer")
        elif not (is_number(value) or value is None and field.default is None):
            raise ValueError(f"{field.name} must be a number")


@dataclass
class LabelRegion:
    rows: tuple[int, int]
    cols: tuple[int, int]
    labels: frozenset[str]


class GridEnv:
    """A labeled slippery grid; it holds no run state."""

    def __init__(self, height, width, actions, slip_probability, initial_state,
                 label_regions):
        _require(is_int(height) and height > 0, "height must be a positive int")
        _require(is_int(width) and width > 0, "width must be a positive int")
        _require(isinstance(actions, (list, tuple)) and len(actions) in (4, 5),
                 "actions must list 4 or 5 action names")
        for name in actions:
            _require(isinstance(name, str) and name in ACTION_DELTAS, f"unknown action {name!r}")
        _require(len(set(actions)) == len(actions), "duplicate actions")
        _require(is_number(slip_probability) and 0.0 <= slip_probability <= 1.0,
                 "slip_probability must be in [0, 1]")
        row0, col0 = initial_state
        _require(0 <= row0 < height and 0 <= col0 < width, "initial_state out of bounds")

        self.height = height
        self.width = width
        self.actions = tuple(actions)
        self.slip_probability = float(slip_probability)
        self.initial_state = (row0, col0)
        self.regions = list(label_regions)
        for region in self.regions:
            (rlo, rhi), (clo, chi) = region.rows, region.cols
            _require(0 <= rlo < rhi <= height, f"region rows {region.rows} out of bounds")
            _require(0 <= clo < chi <= width, f"region cols {region.cols} out of bounds")
        for label in set().union(*(region.labels for region in self.regions)):
            problem = proposition_name_problem(label)
            _require(problem is None, f"label {label!r} is not a proposition name: {problem}")

    @cached_property
    def cells(self) -> list[tuple[int, int]]:
        """The cells numbered row-major: ``cells[i]`` is cell i's (row, col)."""
        return [(r, c) for r in range(self.height) for c in range(self.width)]

    @cached_property
    def cell_id(self) -> dict[tuple[int, int], int]:
        return {cell: i for i, cell in enumerate(self.cells)}

    @cached_property
    def cell_labels(self) -> list[frozenset[str]]:
        """``cell_labels[i]``: the labels of the last region covering cell i, or none."""
        w = self.width
        labels = [frozenset()] * (self.height * w)
        for region in self.regions:
            (rlo, rhi), (clo, chi) = region.rows, region.cols
            for i in range(rlo * w, rhi * w, w):
                labels[i + clo:i + chi] = [region.labels] * (chi - clo)
        return labels

    @cached_property
    def moves(self) -> list[tuple[tuple[int, ...], ...]]:
        """``moves[i][a]``: the cell ids base action a leads to from cell i; the intended
        one first, then, for a move that can slip, the two perpendicular ones and staying put."""
        w, ids = self.width, list(range(self.height * self.width))  # one int per cell id
        left, right = [0] + ids[:-1], ids[1:] + [0]  # neighbours are i -+ 1 and i -+ w
        for i in range(0, len(ids), w):  # the ends of a row stay put going off it
            left[i], right[i + w - 1] = ids[i], ids[i + w - 1]
        to = {"up": ids[:w] + ids[:-w], "down": ids[w:] + ids[-w:], "left": left,
              "right": right, "stay": ids}
        outcomes = [(a,) + PERPENDICULAR[a] + ("stay",) * bool(PERPENDICULAR[a])
                    for a in self.actions]
        return list(zip(*(zip(*(to[d] for d in ds)) for ds in outcomes)))

    def state_label(self, cell) -> frozenset[str]:
        """The labels of cell (row, col); KeyError off the grid."""
        return self.cell_labels[self.cell_id[cell]]

    def step(self, cell, action, rng) -> tuple[int, int]:
        """Sample the cell action leads to from cell; rng is drawn for slips only. It
        clamps at the walls itself, as the tests' reference sampler for ``moves``."""
        if action not in self.actions:
            raise EnvSpecError(f"action {action!r} is not available in this environment")
        outcome = action
        if self.slip_probability > 0.0 and rng.random() < self.slip_probability:
            perp = PERPENDICULAR[action]
            outcome = (perp + ("stay",))[rng.randrange(3)] if perp else "stay"
        dr, dc = ACTION_DELTAS[outcome]
        r, c = cell[0] + dr, cell[1] + dc
        return (r, c) if 0 <= r < self.height and 0 <= c < self.width else cell

    def enumerate_model(self) -> list[dict[str, tuple[tuple[int, float], ...]]]:
        """``kernel[i][a]``: the (j, P(j|i,a)) pairs over cell ids, sorted; they sum to 1.

        Every P(j|i,a) is positive: an outcome of mass 0.0 is no edge."""
        slip = self.slip_probability
        keep, third = 1.0 - slip, slip / 3.0
        # (j, mass) pairs made once per cell j, shared by every row that holds one
        kept = [(j, keep) for j in range(self.height * self.width)]
        slipped = [(j, third) for j, _ in kept]
        kernel = []
        for moves in self.moves:
            row = {}
            for action, outcomes in zip(self.actions, moves):
                if slip == 0.0 or len(outcomes) == 1:
                    row[action] = ((outcomes[0], 1.0),)
                elif keep and outcomes.count(outcomes[3]) == 1:  # no wall: four cells, no merge
                    j0, j1, j2, j3 = outcomes
                    row[action] = IN_ID_ORDER[action]((kept[j0], slipped[j1], slipped[j2],
                                                       slipped[j3]))
                else:  # a wall merges cells; at slip 1 the intended cell may have no mass
                    mass = {outcomes[0]: keep}
                    for j in outcomes[1:]:
                        mass[j] = mass.get(j, 0.0) + third
                    row[action] = tuple(sorted(pair for pair in mass.items() if pair[1]))
            kernel.append(row)
        return kernel


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def parse_env_spec(document) -> GridEnv:
    """Build a GridEnv from a JSON string or decoded dict."""
    if isinstance(document, str):
        document = decode_json(document, EnvSpecError)
    _require(isinstance(document, dict), "environment document must be a JSON object")
    for key in ("height", "width", "actions", "slip_probability", "initial_state"):
        _require(key in document, f"missing environment key {key!r}")

    regions = []
    _require(isinstance(document.get("label_regions", []), list), "'label_regions' must be a list")
    for raw in document.get("label_regions", []):
        _require(isinstance(raw, dict) and {"rows", "cols", "label"} <= set(raw),
                 "label_regions entries must be {rows, cols, label} objects")
        rows, cols = raw["rows"], raw["cols"]
        for name, bounds in (("rows", rows), ("cols", cols)):
            _require(isinstance(bounds, list) and len(bounds) == 2
                     and all(map(is_int, bounds)), f"region {name} must be [lo, hi)")
        label = raw["label"]
        labels = label if isinstance(label, list) else [label]
        _require(labels and all(isinstance(lab, str) for lab in labels),
                 "region label must be a string or list of strings")
        regions.append(LabelRegion((rows[0], rows[1]), (cols[0], cols[1]), frozenset(labels)))

    initial = document["initial_state"]
    _require(isinstance(initial, list) and len(initial) == 2
             and all(map(is_int, initial)),
             "initial_state must be [row, col] with integer coordinates")
    return GridEnv(
        height=document["height"],
        width=document["width"],
        actions=document["actions"],
        slip_probability=document["slip_probability"],
        initial_state=(initial[0], initial[1]),
        label_regions=regions,
    )


def env_to_document(env: GridEnv) -> dict:
    return {
        "height": env.height,
        "width": env.width,
        "actions": list(env.actions),
        "slip_probability": env.slip_probability,
        "initial_state": list(env.initial_state),
        "label_regions": [
            {"rows": list(region.rows), "cols": list(region.cols),
             "label": sorted(region.labels)}
            for region in env.regions
        ],
    }


def read_text(path, error, kind) -> str:
    """The UTF-8 text of a kind file; one that cannot be read raises error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"no such {kind} file: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise error(f"cannot read {kind} file {path}: {err}") from None


def decode_json(text: str, error, subject: str = "document"):
    """Decoded JSON text; bad syntax, deep nesting or a repeated key raises error."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            raise error(f"{subject} repeats the key {max(keys, key=keys.count)!r}")
        return obj
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise error(f"{subject} is not valid JSON (syntax error: {err})") from None
    except RecursionError:
        raise error(f"{subject} is nested too deeply") from None


def load_env_file(path) -> GridEnv:
    return parse_env_spec(read_text(path, EnvSpecError, "environment"))


@cache  # resolved once per process
def bundled_data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def resolve_spec_path(arg: str, kind: str) -> Path:
    """Resolve a CLI path argument, falling back to a bundled benchmark name.

    kind is 'envs' or 'ldba'. Raises FileNotFoundError naming both lookups.
    """
    direct = Path(arg)
    if direct.is_file():
        return direct
    name = arg if arg.endswith(".json") else arg + ".json"
    bundled = bundled_data_dir() / kind / name
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(
        f"no such file {direct} and no bundled {kind} spec named {name}")
