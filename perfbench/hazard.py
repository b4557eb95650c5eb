"""Seeded hazard-lake generator for the oracle-solve workload.

The lake is a square slippery grid for the bundled ``frozen-lake-reach``
task (reach goal1, then goal2, never touch ``unsafe``). Its work for the
oracle comes from a fixed skeleton; the seed only scatters extra pits:

- goal1 (2x2, bottom-left corner) and goal2 (2x2, top-right corner) are
  each walled off by pits, leaving one gate cell with a pit on both
  sides. Under slip, every pass through a gate risks a pit, so no state
  before the last goal reaches it almost surely: prob0/prob1 leave almost
  every state undecided and value iteration has to solve them all.
- Seeded pits are single cells, kept only when no other pit and no
  skeleton cell lies in their 8-neighbourhood and they are off the
  border. Isolated pits cannot close a pocket, and a closed pocket is what
  made the sweep count of purely random lakes swing from 400 to 3300
  across seeds. With isolation the skeleton sets the slowest mode, so
  sweeps and undecided states stay within a few percent across seeds.

The program only ever sees the JSON document this module writes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SIZE = 28
PIT_DENSITY = 0.1
SLIP = 0.45


def hazard_lake(seed: int, size: int = SIZE) -> dict:
    """Environment document of the hazard lake for one seed."""
    if size < 8:
        raise ValueError("a hazard lake needs size >= 8")
    n = size
    goal1 = {(r, c) for r in (n - 2, n - 1) for c in (0, 1)}
    goal2 = {(r, c) for r in (0, 1) for c in (n - 2, n - 1)}
    # Gate of goal1 is (n-3, 1), of goal2 is (1, n-3); the cell before each
    # gate stays free so that the gate can be entered straight on.
    walls = {(n - 3, 0), (n - 3, 2), (n - 2, 2), (n - 1, 2),
             (0, n - 3), (2, n - 3), (2, n - 2), (2, n - 1)}
    open_cells = {(0, 0), (0, 1), (1, 0), (1, 1),
                  (n - 3, 1), (n - 4, 1), (1, n - 3), (1, n - 4)}
    skeleton = goal1 | goal2 | walls | open_cells

    rng = random.Random(seed)
    pits = set(walls)
    for r in range(n):
        for c in range(n):
            draw = rng.random()
            if draw >= PIT_DENSITY or not (0 < r < n - 1 and 0 < c < n - 1):
                continue
            near = {(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)}
            if near & skeleton or near & pits:
                continue
            pits.add((r, c))

    regions = [{"rows": [r, r + 1], "cols": [c, c + 1], "label": ["unsafe"]}
               for r, c in sorted(pits)]
    regions.append({"rows": [n - 2, n], "cols": [0, 2], "label": ["goal1"]})
    regions.append({"rows": [0, 2], "cols": [n - 2, n], "label": ["goal2"]})
    return {
        "height": n,
        "width": n,
        "actions": ["down", "right", "up", "left"],
        "slip_probability": SLIP,
        "initial_state": [0, 0],
        "label_regions": regions,
    }


def write_hazard_lake(path: Path, seed: int, size: int = SIZE) -> Path:
    path.write_text(json.dumps(hazard_lake(seed, size), indent=1) + "\n",
                    encoding="utf-8")
    return path
