"""Regenerate the committed perf baseline (``benchmarks/baseline.json``).

Runs the deterministic smoke campaign — tiny networks, an 8x3
partition, depth-1 refinement, one worker, the committed cache bank —
under a metrics recorder and writes the resulting
:class:`repro.obs.RunRecord` where the CI regression gate
(``benchmarks/regression.py``) expects it:

    PYTHONPATH=src python benchmarks/make_baseline.py

Everything about the campaign is fixed (partition shape, substeps M,
join bound Gamma, refinement depth, the cached network bank), so two
runs on the same machine produce the same verdicts and closely
comparable timings. Refresh after any deliberate perf change, and
commit the new file alongside it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# The committed cache bank keeps the baseline deterministic (no retrain).
os.environ.setdefault("REPRO_CACHE", str(REPO_ROOT / ".cache"))
sys.path.insert(0, str(REPO_ROOT / "src"))


def build_baseline_record(arcs: int = 8, headings: int = 3):
    """Run the smoke campaign and fold it into a ledger record."""
    from repro.core import ReachSettings, RefinementPolicy, RunnerSettings
    from repro.experiments import ExperimentConfig, run_experiment
    from repro.acasxu import TINY_SCENARIO
    from repro.obs import Recorder, record_from_report, use_recorder

    config = ExperimentConfig(
        name="baseline-smoke",
        scenario=TINY_SCENARIO,
        num_arcs=arcs,
        num_headings=headings,
        runner=RunnerSettings(
            reach=ReachSettings(substeps=10, max_symbolic_states=5),
            refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=1),
            # One worker verifies the whole partition as one lockstep
            # chunk, as `repro verify --workers 1` does, so the CI
            # regression gate compares like with like.
            workers=1,
        ),
    )
    started = time.perf_counter()
    recorder = Recorder()
    with use_recorder(recorder):
        report = run_experiment(config)
    wall = time.perf_counter() - started
    return record_from_report(
        report,
        kind="baseline",
        config={
            "scenario": "tiny",
            "arcs": arcs,
            "headings": headings,
            "depth": 1,
            "substeps": 10,
            "gamma": 5,
            "workers": 1,
        },
        wall_seconds=wall,
        extra={"generator": "benchmarks/make_baseline.py"},
    )


def main(argv: list[str] | None = None) -> int:
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(Path(__file__).parent / "baseline.json")
    )
    parser.add_argument("--arcs", type=int, default=8)
    parser.add_argument("--headings", type=int, default=3)
    args = parser.parse_args(argv)

    record = build_baseline_record(args.arcs, args.headings)
    with open(args.out, "w") as out:
        json.dump(record.to_dict(), out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"baseline written to {args.out}")
    print(record.summary_line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
