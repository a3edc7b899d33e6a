"""Campaign benchmark: serial and distributed ACAS Xu campaigns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every campaign runs in a fresh
process (``campaign.py``), so set-up includes ``import repro`` and the
controller's memo starts cold, as for a ``repro verify`` user.

``--trace 0`` repeats the campaign while ``--seconds`` allow (at least
once) and reports medians of the end-to-end metrics. Set-up times, and
the times of serial campaigns, are scaled to a host of fixed speed
(``hostspeed.py``): multiplied by ``hostspeed.REFERENCE_S`` over the
calibration kernel's time measured in the same process next to them.
``--trace 1`` runs it once untraced and once with the layer wrappers of
``tracing.py``, and reports the per-layer metrics plus the tracing
overhead.

Either way the verdicts are checked: each cell's verdict tree against
the stored reference, coverage against the reference, a concrete
simulation audit of every proved leaf, zero duplicate results, and
counts that must repeat exactly between runs of one seed and code.
The last line of standard output is one JSON object; progress and
diagnostics go to standard error. Exit code 2 means the benchmark could
not run (for example outside a checkout of the repository).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from env import (  # noqa: E402
    check_checkout,
    child_env,
    networks_intact,
    prepare_cache,
    repo_root,
    tables_ready,
    work_root,
)

#: Seeded interior points simulated per proved leaf, besides its corners.
AUDIT_POINTS = 2
#: Set-up samples per measured run (campaigns plus set-up-only starts).
SETUP_SAMPLES = 5
#: Hard limit on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "cells_per_s": "1/s",
    "cpu_s_per_cell": "s",
    "peak_rss_mb": "MB",
    "coverage_pct": "%",
    "passed_frac": "frac",
}

LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.build_system_s": "s",
    "setup.partition_s": "s",
    "runner.reach_runs": "count",
    "runner.refinements": "count",
    "runner.refine_yield": "frac",
    "runner.waves": "count",
    "runner.self_s": "s",
    "reach.calls": "count",
    "reach.steps": "count",
    "reach.wave_rows": "rows/call",
    "reach.self_s": "s",
    "symbolic.resize_calls": "count",
    "symbolic.joins": "count",
    "symbolic.resize_s": "s",
    "symbolic.s_per_join": "s",
    "plant.calls": "count",
    "plant.rows": "count",
    "plant.flow_s": "s",
    "plant.s_per_row": "s",
    "sets.contains_calls": "count",
    "sets.contains_s": "s",
    "sets.disjoint_s": "s",
    "controller.calls": "count",
    "controller.rows": "count",
    "controller.s": "s",
    "controller.inclusive_s": "s",
    "controller.memo_hit_ratio": "frac",
    "pre.s": "s",
    "verify.rows": "count",
    "verify.s": "s",
    "verify.macs_computed": "MAC",
    "post.s": "s",
    "supervisor.cells": "count",
    "supervisor.retries": "count",
    "supervisor.busy_frac": "frac",
    "coordinator.grants": "count",
    "coordinator.expired_leases": "count",
    "coordinator.stolen_cells": "count",
    "coordinator.fenced_frames": "count",
    "coordinator.duplicate_results": "count",
    "node.busy_frac": "frac",
    "node.self_s": "s",
    "wire.frames": "count",
    "wire.bytes": "B",
    "checkpoint.appends": "count",
    "checkpoint.journal_bytes": "B",
    "checkpoint.bytes_per_cell": "B",
    "trace.campaign_s": "s",
    "trace.untraced_campaign_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "frac",
    "trace.processes": "count",
}

#: Counts that must repeat exactly between runs of one seed and code.
EXACT_COUNTS = ("reach_runs", "steps", "joins", "integrations")
EXACT_TRACED = ("plant.rows", "controller.rows", "verify.rows")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Campaign processes
# ----------------------------------------------------------------------
def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                todo.extend(int(c) for c in task.read_text().split())
            except OSError:
                pass
    return out


def _tree_rss_mb(pid: int) -> float:
    total = 0
    for p in _descendants(pid):
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total += int(line.split()[1])
                    break
        except OSError:
            pass
    return total / 1024.0


class Launcher:
    """Starts campaign processes in the run's scratch directory."""

    def __init__(self, env: dict, tmp: Path, deadline: float):
        self.env, self.tmp, self.deadline = env, tmp, deadline
        self.count = 0

    def run(self, spec: dict) -> dict:
        self.count += 1
        scratch = self.tmp / f"campaign-{self.count}"
        scratch.mkdir()
        spec = dict(spec, out=str(scratch / "result.json"), scratch=str(scratch))
        spec_path = scratch / "spec.json"
        stderr_path = scratch / "stderr.txt"
        spec_path.write_text(json.dumps(dict(spec, spawned_at=time.time())))
        with open(stderr_path, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "campaign.py"), str(spec_path)],
                cwd=scratch,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=stderr,
                stderr=stderr,
                start_new_session=True,
            )
            peak = 0.0
            try:
                while proc.poll() is None:
                    if time.monotonic() > self.deadline:
                        raise BenchError("run exceeded its time limit")
                    peak = max(peak, _tree_rss_mb(proc.pid))
                    time.sleep(0.1)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            tail = stderr_path.read_text()[-2000:]
            raise BenchError(f"campaign process failed ({proc.returncode}):\n{tail}")
        result = json.loads(Path(spec["out"]).read_text())
        result["peak_rss_mb"] = max(peak, result.get("peak_rss_self_mb", 0.0))
        return result


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def tree_coverage(tree: str) -> float:
    """Coverage fraction of a verdict tree string (the paper's c)."""

    def parse(i: int) -> tuple[float, int]:
        code = tree[i]
        i += 1
        if i < len(tree) and tree[i] == "(":
            i += 1
            parts = []
            while tree[i] != ")":
                value, i = parse(i)
                parts.append(value)
            i += 1
            return (1.0 if code == "P" else sum(parts) / len(parts)), i
        return (1.0 if code == "P" else 0.0), i

    return parse(0)[0]


def expected_of(workload, seed: int, result: dict) -> tuple[list, float | None]:
    """Reference trees and coverage for this campaign, where stored."""
    if workload.grid is None:
        trees = result["expected"]
    else:
        reference = json.loads(workloads.REFERENCE_PATH.read_text())[workload.name]
        if seed != reference["seed"]:
            return [None] * result["cells"], None
        trees = reference["trees"]
    return trees, 100.0 * sum(tree_coverage(t) for t in trees) / len(trees)


def check(workload, seed: int, runs: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over the run's campaigns."""
    problems: list[str] = []
    attempted = failed = 0
    first = runs[0]
    trees, coverage = expected_of(workload, seed, first)
    for result in runs:
        bad = set(result["quarantined"]) | set(result.get("audit_failed", []))
        for i, (got, want) in enumerate(zip(result["trees"], trees)):
            if want is not None and got != want:
                bad.add(f"cell-{i}")
        if len(result["trees"]) != len(trees):
            problems.append("campaign returned the wrong number of cells")
        if coverage is not None and abs(result["coverage_pct"] - coverage) > 1e-9:
            problems.append(
                f"coverage {result['coverage_pct']:.6f} % != reference {coverage:.6f} %"
            )
        duplicates = result["coordinator"]["duplicate_results"]
        attempted += result["cells"]
        failed += min(result["cells"], len(bad) + duplicates)
        if bad:
            problems.append(f"{len(bad)} cells failed the check: {sorted(bad)[:5]}")
        if duplicates:
            problems.append(f"{duplicates} duplicate results")
        if result["trees"] != first["trees"]:
            problems.append("nondeterminism: verdict trees differ between runs")
    return attempted, failed, problems


def exact_counts(result: dict) -> dict:
    counts = {key: result["counts"][key] for key in EXACT_COUNTS}
    counts["checkpoint.appends"] = result["journal"]["appends"]
    if "layers" in result:
        counts.update({key: result["layers"][key] for key in EXACT_TRACED})
    return counts


def code_digest(root: Path) -> str:
    """Digest of the program and of the benchmark (which picks the cells)."""
    digest = hashlib.sha256()
    paths = sorted((root / "src" / "repro").rglob("*.py"))
    paths += sorted(p for p in HERE.iterdir() if p.suffix in (".py", ".json"))
    for path in paths:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeats(root: Path, workload, seed: int, runs: list[dict]) -> list[str]:
    """Counts of every campaign of this run, and of earlier runs of the
    same seed and code (kept under ``.perfbench/counts``), must agree
    exactly."""
    store = work_root(root) / "counts" / code_digest(root)
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload.name}-{seed}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for result in runs:
        for key, value in exact_counts(result).items():
            if key in seen and seen[key] != value:
                problems.append(f"nondeterminism: {key} was {seen[key]}, now {value}")
            seen.setdefault(key, value)
    path.write_text(json.dumps(seen, sort_keys=True))
    return problems


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def host_scale(result: dict) -> float:
    """Factor that takes the set-up time of one process to a host of the
    reference speed."""
    return hostspeed.REFERENCE_S / result["probe_s"]


def campaign_scales(workload, processes: list[dict], count: int) -> list[float]:
    """Factors that take the times of the first ``count`` of a run's
    processes (its campaigns, in launch order) to a host of the
    reference speed.

    The host's speed during campaign ``i`` is the median kernel time of
    process ``i`` and of the processes launched just before and after
    it: one process's samples, taken at two moments, missed the host's
    speed over the campaign by about as much as the raw times vary.

    A distributed campaign is not scaled (factor 1). The kernel runs on
    one core, between campaigns; a distributed campaign keeps both cores
    busy with its nodes and waits on leases and frames. Its time did not
    follow the kernel: while the kernel sped up from 28 ms to 15 ms over
    ten runs, it stayed at 26 to 35 s.
    """
    if workload.nodes:
        return [1.0] * count
    probes = [r["probe_s"] for r in processes]
    return [
        hostspeed.REFERENCE_S / statistics.median(probes[max(0, i - 1) : i + 2])
        for i in range(count)
    ]


def measured_run(launcher: Launcher, workload, seed: int, seconds: float) -> tuple:
    spec = {"workload": workload.name, "seed": seed}
    started = time.monotonic()
    runs = [launcher.run(dict(spec, audit_points=AUDIT_POINTS))]
    while True:
        last = runs[-1]
        estimate = last["setup_s"] + last["campaign_s"] + last["probe_overhead_s"]
        if time.monotonic() - started + estimate > seconds:
            break
        runs.append(launcher.run(spec))
    starts = list(runs)
    while len(starts) < SETUP_SAMPLES:
        starts.append(launcher.run(dict(spec, setup_only=True)))
    log(
        f"{len(runs)} campaigns: "
        + ", ".join(f"{r['campaign_s']:.2f}s" for r in runs)
        + "; set-up "
        + ", ".join(f"{r['setup_s']:.2f}s" for r in starts)
        + "; kernel "
        + ", ".join(f"{1000 * r['probe_s']:.2f}ms" for r in starts)
        + f"; audit {runs[0].get('audit_s', 0.0):.2f}s"
    )
    scales = campaign_scales(workload, starts, len(runs))
    scaled = [(k * r["campaign_s"], k * r["cpu_s"], r) for k, r in zip(scales, runs)]
    metrics = {
        "setup_s": statistics.median(host_scale(r) * r["setup_s"] for r in starts),
        "campaign_s": statistics.median(wall for wall, _, _ in scaled),
        "cells_per_s": statistics.median(r["cells"] / wall for wall, _, r in scaled),
        "cpu_s_per_cell": statistics.median(cpu / r["cells"] for _, cpu, r in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "coverage_pct": runs[0]["coverage_pct"],
    }
    return runs, metrics, E2E_UNITS


def traced_run(launcher: Launcher, workload, seed: int) -> tuple:
    spec = {"workload": workload.name, "seed": seed}
    plain = launcher.run(dict(spec, audit_points=AUDIT_POINTS))
    traced = launcher.run(dict(spec, trace=True))
    plain_scale, traced_scale = campaign_scales(workload, [plain, traced], 2)
    layers = traced["layers"]
    counts = traced["counts"]
    cells = traced["cells"]
    journal = traced["journal"]
    metrics = {
        "setup.import_s": traced["setup.import_s"],
        "setup.build_system_s": traced["setup.build_system_s"],
        "setup.partition_s": traced["setup.partition_s"],
        "runner.reach_runs": counts["reach_runs"],
        "runner.refinements": counts["refinements"],
        "runner.refine_yield": traced["refine_proved"] / max(1, traced["refine_children"]),
        "reach.steps": counts["steps"],
        "supervisor.retries": traced["retries"],
        "verify.macs_computed": layers["verify.rows"] * layers["verify.macs_per_row"],
        "checkpoint.appends": journal["appends"],
        "checkpoint.journal_bytes": journal["bytes"],
        "checkpoint.bytes_per_cell": journal["bytes"] / cells,
        "trace.campaign_s": traced_scale * traced["campaign_s"],
        "trace.untraced_campaign_s": plain_scale * plain["campaign_s"],
    }
    metrics["trace.overhead_s"] = (
        metrics["trace.campaign_s"] - metrics["trace.untraced_campaign_s"]
    )
    for key, value in traced["coordinator"].items():
        metrics[f"coordinator.{key}"] = value
    for key in LAYER_UNITS:
        if key not in metrics:
            metrics[key] = layers[key]
    return [plain, traced], metrics, LAYER_UNITS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = repo_root()
    problem = check_checkout(root)
    if problem is not None:
        log(f"cannot run: {problem}")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = work_root(root)
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        cache = prepare_cache(root, work)
        launcher = Launcher(child_env(root, cache, tmp), tmp, deadline)
        if not tables_ready(cache):
            # Untimed warm-up: the first run in a checkout builds the
            # paper bank's tables.npz, which only a fine workload loads.
            launcher.run({"workload": "fine-serial", "seed": args.seed, "setup_only": True})
        if not networks_intact(root, cache):
            raise BenchError("the committed networks were retrained")
        if args.trace:
            runs, metrics, units = traced_run(launcher, workload, args.seed)
        else:
            runs, metrics, units = measured_run(
                launcher, workload, args.seed, args.seconds
            )
        attempted, failed, problems = check(workload, args.seed, runs)
        problems += check_repeats(root, workload, args.seed, runs)
        if not args.trace:
            metrics["passed_frac"] = 1.0 - failed / attempted
    except BenchError as error:
        log(str(error))
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        log(problem)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
