"""Regenerate the benchmark's stored references.

    python3 perfbench/make_reference.py

Writes two files next to this script:

* ``pool.json`` — a fixed uniform sample of the paper's 629 x 316
  partition (``POOL_SEED``), each cell labelled with the verdict tree
  and the reach-step count of its depth-2 verification. The fine
  workloads draw their cells from it and compare every cell they verify
  against its stored tree, at any seed.
* ``reference.json`` — the coarse grid's verdict trees and coverage at
  the default seed.

Verification runs serially in lockstep waves, in this process, with the
committed banks read through a temporary ``REPRO_CACHE``. Takes about
five minutes for 1500 cells on one core. Run it only when the verifier
is meant to change its verdicts; the benchmark then reports the new
ones as correct.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path above)
from env import prepare_cache, repo_root  # noqa: E402

POOL_SEED = 20210621
POOL_SIZE = 1500


def label(workload, cells, chunk: int = 100) -> list:
    from repro.acasxu import build_system
    from repro.core import verify_partition

    system = build_system(workloads.scenario_config(workload))
    settings = workloads.runner_settings(workload)
    results = []
    for start in range(0, len(cells), chunk):
        report = verify_partition(
            lambda: system, cells[start : start + chunk], settings
        )
        results.extend(report.cells)
        print(f"  {len(results)}/{len(cells)} cells", file=sys.stderr)
    return results


def main() -> int:
    root = repo_root()
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory(prefix="perfbench-ref-") as tmp:
        os.environ["REPRO_CACHE"] = str(prepare_cache(root, Path(tmp)))
        started = time.perf_counter()

        coarse = workloads.WORKLOADS["coarse-serial"]
        cells = workloads.coarse_cells(coarse, workloads.DEFAULT_SEED)
        results = label(coarse, cells)
        reference = {
            "coarse-serial": {
                "seed": workloads.DEFAULT_SEED,
                "trees": [workloads.verdict_tree(r) for r in results],
                "coverage_pct": 100.0
                * sum(r.coverage_fraction() for r in results)
                / len(results),
            }
        }

        fine = workloads.WORKLOADS["fine-serial"]
        flat = random.Random(POOL_SEED).sample(
            range(workloads.PAPER_ARCS * workloads.PAPER_HEADINGS), POOL_SIZE
        )
        coords = [divmod(k, workloads.PAPER_HEADINGS) for k in flat]
        cells = [workloads.fine_cell(a, h) for a, h in coords]
        results = label(fine, cells)
        pool = [
            {
                "arc": a,
                "heading": h,
                "tree": workloads.verdict_tree(r),
                "work": workloads.tree_stats(r)["integrations"],
            }
            for (a, h), r in zip(coords, results)
        ]
        print(f"labelled in {time.perf_counter() - started:.0f}s", file=sys.stderr)

    with open(HERE / "pool.json", "w") as handle:
        json.dump({"seed": POOL_SEED, "cells": pool}, handle, separators=(",", ":"))
        handle.write("\n")
    with open(HERE / "reference.json", "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
