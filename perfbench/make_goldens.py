#!/usr/bin/env python3
"""Regenerate goldens.json from the checkout this script runs in.

    python3 perfbench/make_goldens.py --seeds 0-9

For each workload and run seed it runs one untimed cycle per train seed
at full size and pins the outputs: per train seed, the sha256 of the
saved Q-table entries, the sha256 of the per-rollout outcomes and both
step counts; per oracle problem, the initial value and the state, edge
and MEC counts. Run it only on a commit whose outputs are meant to be the
reference; every later run of the benchmark on a pinned seed must
reproduce them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range lo-hi")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    if not (run.SRC / "ldba_synth" / "__init__.py").is_file():
        print(f"error: no ldba_synth sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from workload import WORKLOADS

    goldens = {"full": {}}
    run.WORK.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        pinned = goldens["full"].setdefault(name, {})
        for seed in range(lo, hi + 1):
            workdir = Path(tempfile.mkdtemp(prefix=f"golden-{name}-", dir=run.WORK))
            try:
                result = run.measure(workload, seed, 0.0, 0, "full", workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result["record"] is None:
                print(f"error: {name} seed {seed} failed: {result['errors'][:3]}",
                      file=sys.stderr)
                return 1
            pinned[str(seed)] = result["record"]
            print(f"{name} seed {seed}: pinned", flush=True)
    run.WORK.rmdir()
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
