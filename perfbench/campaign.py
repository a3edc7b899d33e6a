"""One campaign in a fresh process.

    python3 perfbench/campaign.py SPEC.json

``SPEC.json`` names the workload, seed, output file and scratch
directory (see ``run.py``). The process times its own set-up (``import
repro``, ``build_system``, cell generation), times the calibration
kernel of ``hostspeed.py`` just before and just after the campaign,
runs the campaign through the public API, optionally audits the proved
leaves by concrete simulation, and writes one JSON result. With
``"trace": true`` the layer wrappers of ``tracing.py`` are installed
after set-up.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path above; imports no repro)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def audit(system, results, seed: int, points: int) -> list[str]:
    """Simulate the corners and ``points`` seeded interior points of
    every PROVED_SAFE / SAFE_WITHIN_HORIZON leaf; return the ids of the
    top-level cells with a trajectory that enters E. A corner shared by
    sibling leaves is simulated once."""
    import itertools

    import numpy as np

    from repro.baselines.simulate import simulate
    from repro.core import Verdict

    safe = (Verdict.PROVED_SAFE, Verdict.SAFE_WITHIN_HORIZON)
    rng = np.random.default_rng(seed)
    failed = []
    for top in results:
        starts: dict[tuple, tuple] = {}
        for leaf in top.leaves():
            if leaf.verdict not in safe:
                continue
            lo, hi = leaf.box.lo, leaf.box.hi
            wide = [d for d in range(len(lo)) if hi[d] > lo[d]]
            for corner in itertools.product((0, 1), repeat=len(wide)):
                x = lo.copy()
                for d, bit in zip(wide, corner):
                    x[d] = hi[d] if bit else lo[d]
                starts[(tuple(x), leaf.command)] = (x, leaf.command)
            for _ in range(points):
                x = lo + rng.random(len(lo)) * (hi - lo)
                starts[(tuple(x), leaf.command)] = (x, leaf.command)
        if any(
            simulate(system, x, command, stop_on_error=True).reached_error
            for x, command in starts.values()
        ):
            failed.append(top.cell_id)
    return failed


def journal_stats(path: Path) -> dict:
    if not path.exists():
        return {"appends": 0, "bytes": 0}
    data = path.read_bytes()
    return {"appends": data.count(b"\n"), "bytes": len(data)}


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    clock = time.perf_counter
    spawned_at = spec["spawned_at"]

    t0 = clock()
    import repro  # noqa: F401
    import repro.acasxu
    import repro.core

    t1 = clock()
    workload = workloads.WORKLOADS[spec["workload"]]
    scenario = workloads.scenario_config(workload)
    system = repro.acasxu.build_system(scenario)
    t2 = clock()
    cells, expected = workloads.make_cells(workload, spec["seed"])
    settings = workloads.runner_settings(workload)
    t3 = clock()
    out = {
        "setup_s": time.time() - spawned_at,
        "setup.import_s": t1 - t0,
        "setup.build_system_s": t2 - t1,
        "setup.partition_s": t3 - t2,
    }
    # Imported only now: it loads numpy, whose import belongs to the
    # timed ``import repro`` above.
    import hostspeed

    probed = clock()
    before = statistics.median(hostspeed.sample())
    out["probe_overhead_s"] = 2.0 * (clock() - probed)
    if spec.get("setup_only"):
        out["probe_s"] = before
        _write(spec["out"], out)
        return 0

    scratch = Path(spec["scratch"])
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer(scratch / "spans")
        tracer.out_dir.mkdir(parents=True, exist_ok=True)
        tracing.install(tracer)

    def system_factory():
        # Runs in every pool worker; under tracing the wrappers are
        # already there through the fork, and installing is idempotent.
        if tracer is not None:
            tracing.install(tracer)
        return repro.acasxu.build_system(scenario)

    coordinator = importlib.import_module("repro.core.coordinator")
    runner = importlib.import_module("repro.core.runner")

    journal = scratch / "journal.jsonl"
    cpu_before = cpu_seconds()
    started = clock()
    if workload.nodes:
        report = coordinator.run_distributed(
            system_factory,
            cells,
            journal,
            settings=settings,
            dist=workloads.distributed_settings(len(cells)),
            nodes=workload.nodes,
        )
    else:
        report = runner.verify_partition(lambda: system, cells, settings)
    campaign_s = clock() - started
    cpu_s = cpu_seconds() - cpu_before
    after = statistics.median(hostspeed.sample())

    results = report.cells
    stats = [workloads.tree_stats(r) for r in results]
    dist = report.settings_summary.get("distributed", {})
    refined_children = [c for r in results for c in _internal_children(r)]
    out.update(
        {
            "campaign_s": campaign_s,
            "cpu_s": cpu_s,
            "probe_s": (before + after) / 2.0,
            "cells": len(results),
            "coverage_pct": report.coverage_percent(),
            "trees": [workloads.verdict_tree(r) for r in results],
            "expected": expected,
            "quarantined": [r.cell_id for r in results if r.quarantined or _any_quarantined(r)],
            "retries": sum(max(0, r.attempts - 1) for r in results),
            "counts": {
                key: sum(s[key] for s in stats)
                for key in ("reach_runs", "refinements", "steps", "joins", "integrations")
            },
            "refine_children": len(refined_children),
            "refine_proved": sum(1 for c in refined_children if c.proved),
            "journal": journal_stats(journal),
            "coordinator": {
                key: dist.get(key, 0)
                for key in (
                    "grants",
                    "expired_leases",
                    "stolen_cells",
                    "fenced_frames",
                    "duplicate_results",
                )
            },
            "peak_rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer is not None:
        tracer.dump()
        out["layers"] = tracing.layer_metrics(
            tracer.out_dir,
            os.getpid(),
            campaign_s,
            nodes=workload.nodes,
        )
        out["layers"]["verify.macs_per_row"] = _macs_per_row(system)
    if spec.get("audit_points") is not None:
        audit_started = clock()
        out["audit_failed"] = audit(system, results, spec["seed"], spec["audit_points"])
        out["audit_s"] = clock() - audit_started
    _write(spec["out"], out)
    return 0


def _internal_children(result):
    """Every child cell created by a refinement, at any depth."""
    for child in result.children:
        yield child
        yield from _internal_children(child)


def _any_quarantined(result) -> bool:
    return any(leaf.quarantined for leaf in result.leaves())


def _macs_per_row(system) -> int:
    """Multiply-accumulates of one plain forward pass: sum over layers
    of inputs x outputs (the symbolic propagation computes more)."""
    network = system.controller.networks[0]
    return int(sum(w.size for w in network.weights))


def _write(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
