"""Layer tracing from outside the program.

:func:`install` replaces the public callables of each layer (module
functions at their call sites, class methods) with wrappers that
record one span per call: name, start, end, parent span and a work
count (rows, joins, bytes). Nothing inside ``repro`` is edited.

Spans stay in memory. Each process writes one file when it ends: the
campaign process explicitly, forked pool workers and node agents from
a ``multiprocessing`` finalizer registered right after the fork (the
forked child also drops the spans it inherited). :func:`layer_metrics`
merges the files and derives the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span store of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.installed = False

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, result)``
        gives the span's work count."""
        spans, ids, stack_of = self.spans, self._ids, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = count(args, result) if count is not None and result is not None else 1
                spans.append((span_id, parent, name, start, end, n, threading.get_ident()))

        return traced

    def after_fork(self) -> None:
        """In a forked child: forget the parent's spans and write this
        process's own when it exits."""
        from multiprocessing import util

        self.spans.clear()
        self._local = threading.local()
        util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's spans to ``out_dir/spans-<pid>.json``."""
        pid = os.getpid()
        path = self.out_dir / f"spans-{pid}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            json.dump({"pid": pid, "spans": self.spans}, handle)
        os.replace(tmp, path)


def _patch(tracer: Tracer, owner, attr: str, name: str, count=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def _rows(args, result) -> int:
    # (self, lo, hi), (self, boxes, commands), (system, initial_sets, ...)
    # and (factory, tasks, ...)
    return len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables (idempotent)."""
    if tracer.installed:
        return
    from multiprocessing import util

    from repro.acasxu.controller import AcasPre
    # Modules by full name: ``repro.core`` re-exports functions that
    # shadow some submodule names (``reach``).
    coordinator, node, reach, runner, supervisor, wire = (
        importlib.import_module(f"repro.core.{name}")
        for name in ("coordinator", "node", "reach", "runner", "supervisor", "wire")
    )
    from repro.core.system import ArgminPost, Controller, Plant
    from repro.sets.geometric import BallSet, OutsideBallSet
    from repro.verify.symbolic import SymbolicPropagator

    # runner: the campaign entry points
    _patch(tracer, runner, "verify_partition", "runner")
    _patch(tracer, coordinator, "run_distributed", "runner")
    # reach: both drivers, at the runner's call sites and the module's
    _patch(tracer, runner, "reach_many", "reach.many", _rows)
    _patch(tracer, reach, "reach_many", "reach.many", _rows)
    _patch(tracer, reach, "reach", "reach.one")
    # symbolic: RESIZE (Algorithm 2) as reach calls it; count = joins
    _patch(tracer, reach, "resize", "symbolic.resize", lambda a, r: int(r))
    # plant
    _patch(tracer, Plant, "flow_batch", "plant.flow", lambda a, r: a[3].count)
    _patch(tracer, Plant, "flow", "plant.flow")
    # sets: target T (contains_box), erroneous E (disjoint_box[_batch])
    _patch(tracer, OutsideBallSet, "contains_box", "sets.contains")
    _patch(tracer, BallSet, "disjoint_box_batch", "sets.disjoint")
    _patch(tracer, BallSet, "disjoint_box", "sets.disjoint")
    # controller and its Pre# / F# / Post# stages
    _patch(tracer, Controller, "execute_abstract_batch", "controller", _rows)
    _patch(tracer, Controller, "execute_abstract", "controller")
    _patch(tracer, AcasPre, "abstract_batch", "pre", _rows)
    _patch(tracer, AcasPre, "abstract", "pre")
    _patch(tracer, SymbolicPropagator, "output_bounds_batch", "verify", _rows)
    _patch(tracer, SymbolicPropagator, "output_bounds", "verify")
    _patch(tracer, ArgminPost, "abstract", "post")
    # supervisor: the pool as its callers reach it, and the in-worker
    # cell (busy time)
    _patch(tracer, runner, "run_supervised", "supervisor.pool", _rows)
    _patch(tracer, supervisor, "run_supervised", "supervisor.pool", _rows)
    _patch(tracer, supervisor, "run_cell_guarded", "supervisor.cell")
    # wire: frames at their call sites; bytes where they are encoded
    _patch(tracer, coordinator, "send_frame", "wire.send")
    _patch(tracer, node, "send_frame", "wire.send")
    _patch(tracer, node, "recv_frame", "wire.recv")
    _patch(tracer, wire, "encode_frame", "wire.encode", lambda a, r: len(r))
    # node: the agent's lifetime
    _patch(tracer, node, "run_node", "node.agent")
    util.register_after_fork(tracer, Tracer.after_fork)
    tracer.installed = True


# ----------------------------------------------------------------------
# Merging and derived metrics
# ----------------------------------------------------------------------
def load_spans(out_dir: Path) -> dict[int, list[tuple]]:
    """``{pid: spans}`` from every process's file."""
    by_pid = {}
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        with open(path) as handle:
            payload = json.load(handle)
        by_pid[payload["pid"]] = [tuple(s) for s in payload["spans"]]
    return by_pid


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = {}
    for span_id, _parent, _name, start, end, _n, _tid in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda c: c[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(out_dir: Path, campaign_pid: int, campaign_s: float, nodes: int) -> dict:
    """Per-layer numbers over every process's spans; ``nodes`` is the
    node count (of one pool worker each), 0 for a serial campaign."""
    by_pid = load_spans(out_dir)
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    # Self times of the campaign process's main-thread spans: they
    # partition its root "runner" span, so they add up to campaign_s.
    campaign_self = 0.0
    reach_top = 0
    for pid, spans in by_pid.items():
        names = {s[0]: s[2] for s in spans}
        selfs = self_times(spans)
        main_tid = next((s[6] for s in spans if s[2] == "runner"), None)
        for span_id, parent, name, start, end, n, tid in spans:
            self_s[name] = self_s.get(name, 0.0) + selfs[span_id]
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + n
            # A batched reach() runs reach_many inside: count it once.
            if name.startswith("reach.") and not names.get(parent, "").startswith(
                "reach."
            ):
                reach_top += 1
            if pid == campaign_pid and tid == main_tid:
                campaign_self += selfs[span_id]

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def w(*names: str) -> int:
        return sum(work.get(n, 0) for n in names)

    campaign_s = max(campaign_s, 1e-9)
    joins = w("symbolic.resize")
    plant_rows = w("plant.flow")
    controller_rows = w("controller")
    verify_rows = w("verify")
    return {
        "runner.self_s": s("runner"),
        "runner.waves": c("reach.many"),
        "reach.calls": reach_top,
        "reach.wave_rows": plant_rows / max(1, c("plant.flow")),
        "reach.self_s": s("reach.many", "reach.one"),
        "symbolic.resize_calls": c("symbolic.resize"),
        "symbolic.joins": joins,
        "symbolic.resize_s": s("symbolic.resize"),
        "symbolic.s_per_join": s("symbolic.resize") / max(1, joins),
        "plant.calls": c("plant.flow"),
        "plant.rows": plant_rows,
        "plant.flow_s": s("plant.flow"),
        "plant.s_per_row": s("plant.flow") / max(1, plant_rows),
        "sets.contains_calls": c("sets.contains"),
        "sets.contains_s": s("sets.contains"),
        "sets.disjoint_s": s("sets.disjoint"),
        "controller.calls": c("controller"),
        "controller.rows": controller_rows,
        "controller.s": s("controller"),
        "controller.inclusive_s": inclusive.get("controller", 0.0),
        "controller.memo_hit_ratio": 1.0 - verify_rows / max(1, controller_rows),
        "pre.s": s("pre"),
        "verify.rows": verify_rows,
        "verify.s": s("verify"),
        "post.s": s("post"),
        "supervisor.cells": w("supervisor.pool"),
        "supervisor.busy_frac": inclusive.get("supervisor.cell", 0.0)
        / (max(1, nodes) * campaign_s),
        "node.busy_frac": inclusive.get("supervisor.pool", 0.0) / (nodes * campaign_s)
        if nodes
        else 0.0,
        "node.self_s": s("node.agent"),
        "wire.frames": c("wire.send"),
        "wire.bytes": w("wire.encode"),
        "trace.processes": len(by_pid),
        "trace.accounted_frac": campaign_self / campaign_s,
    }
