"""Parallel verification over an initial-set partition (Section 7.1).

The paper observes that the ``K0`` initial cells are independent
verification problems, so the partition is embarrassingly parallel.
Every cell is verified by one driver, :func:`verify_cells`: the cells
of a *chunk* advance through the control steps in lockstep waves
(:func:`~repro.core.reach.reach_many`), refinement children included.
:func:`run_cells` is the one chunk executor behind every campaign: it
runs chunks in this process for one worker and on the *supervised*
pool (:mod:`repro.core.supervisor` — fork-based, so the closed-loop
system object does not need to be picklable) otherwise. The execution
layer is fault-tolerant: a crashed chunk is bisected until the failing
cell is alone, which is then retried and quarantined as ``ABORTED``,
cells exceeding their wall-clock budget become ``TIMED_OUT``, a
campaign deadline or SIGINT/SIGTERM drains in-flight chunks and
returns a partial report.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from contextlib import ExitStack, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ..intervals import Box
from ..obs import get_recorder
from ..obs.live import HeartbeatReporter
from .checkpoint import _cell_key, _JournalWriter, replay_journal
from .partition import RefinementPolicy
from .reach import ReachSettings, Verdict, reach_many
from .symbolic import SymbolicSet, SymbolicState
from .result import CellResult, VerificationReport
from .supervisor import (
    BudgetExceeded,
    SupervisorOutcome,
    Task,
    announce_interrupt,
    budget_guard,
    chunk_label,
    chunk_size,
    publish_finished,
    run_cell_guarded,
    run_supervised,
    trap_shutdown_signals,
)
from .system import ClosedLoopSystem

logger = logging.getLogger("repro.core.runner")

#: Optional counterexample search invoked on failed cells before
#: refinement: (system, box, command) -> concrete unsafe initial state,
#: or None. Section 8 suggests coupling the procedure with an efficient
#: falsification strategy; a found witness proves the cell genuinely
#: unsafe, so refining it further would be wasted work.
WitnessSearch = Callable[[ClosedLoopSystem, Box, int], Optional[np.ndarray]]


@dataclass(frozen=True)
class RunnerSettings:
    """Per-cell reachability settings, the refinement policy, and the
    fault-tolerance budgets enforced by the supervised runner.

    Cells are dispatched in chunks (see :func:`run_cells`) of
    ``ceil(pending / workers)`` cells, so one worker verifies its whole
    queue as one lockstep wave. A campaign with ``cell_timeout`` or
    ``deadline`` set dispatches one top-level cell per chunk, so both
    budgets keep their per-cell meaning.
    """

    reach: ReachSettings = field(default_factory=ReachSettings)
    refinement: RefinementPolicy | None = None
    #: Processes verifying chunks: 1 runs them in this process, more
    #: run them on the supervised fork pool.
    workers: int = 1
    witness_search: WitnessSearch | None = None
    #: Wall-clock budget per top-level cell in seconds, refinement
    #: included (None = unbounded). Enforced in-process via SIGALRM and,
    #: for workers hung in native code, by a supervisor kill; either way
    #: the cell degrades to ``Verdict.TIMED_OUT``.
    cell_timeout: float | None = None
    #: Campaign wall-clock budget in seconds (None = unbounded). Once
    #: exceeded, no further cells are dispatched; in-flight chunks drain
    #: and the report is partial.
    deadline: float | None = None
    #: How many times a cell whose worker died is retried (on a fresh
    #: worker, with exponential backoff) before being quarantined as
    #: ``Verdict.ABORTED``. A multi-cell chunk is first bisected, with
    #: no attempt burned, until the failing cell is alone.
    max_retries: int = 1
    #: Base of the exponential retry backoff, in seconds.
    retry_backoff: float = 0.25
    #: Wall-clock budget for the ``witness_search`` hook per cell
    #: (None = unbounded); a timed-out search counts as "no witness
    #: found" and refinement proceeds.
    witness_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.witness_timeout is not None and self.witness_timeout <= 0:
            raise ValueError("witness_timeout must be positive (or None)")

    def to_dict(self) -> dict:
        """The settings as JSON: what a coordinator's ``welcome`` frame
        carries to every node agent (:meth:`from_dict` reads it back).
        A callable cannot cross a socket, so settings holding a
        ``witness_search`` or a refinement ``influence_fn`` raise
        ``ValueError``."""
        refinement = self.refinement
        for name, value in (
            ("witness_search", self.witness_search),
            ("refinement.influence_fn", refinement and refinement.influence_fn),
        ):
            if value is not None:
                raise ValueError(f"{name} is a callable and cannot be sent to node agents")
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunnerSettings":
        """Inverse of :meth:`to_dict`."""
        payload = dict(payload)
        refinement = payload.pop("refinement")
        if refinement is not None:
            refinement = RefinementPolicy(**{**refinement, "dims": tuple(refinement["dims"])})
        return cls(
            reach=ReachSettings(**payload.pop("reach")), refinement=refinement, **payload
        )


def _search_witness(
    system: ClosedLoopSystem,
    result: CellResult,
    settings: RunnerSettings,
    depth: int,
) -> bool:
    """Run the falsification hook on a failed cell (Section 8 coupling).

    Returns True when a concrete counterexample was found — the cell is
    genuinely unsafe, so split refinement cannot rescue it and the
    caller should skip it. A timed-out search counts as "no witness"."""
    rec = get_recorder()
    cell_id = result.cell_id
    witness = None
    try:
        with budget_guard(settings.witness_timeout, scope="witness"):
            with rec.span("witness_search", cell_id=cell_id):
                witness = settings.witness_search(system, result.box, result.command)
    except BudgetExceeded as exc:
        if exc.scope != "witness":
            raise
        # A stuck falsifier must not stall the cell: treat it as
        # "no witness found" and fall through to refinement.
        result.tags["witness_timeout"] = exc.seconds
        rec.inc("runner.witness_timeouts")
        rec.event("runner.witness_timeout", cell_id=cell_id, budget_seconds=exc.seconds)
        logger.warning(
            "witness search on %s exceeded its %.3gs budget; refining instead",
            cell_id, exc.seconds,
        )
    if witness is None:
        return False
    result.tags["witness"] = [float(v) for v in np.asarray(witness)]
    rec.inc("runner.witnesses")
    rec.event("runner.witness", cell_id=cell_id, depth=depth)
    return True


def verify_cells(
    system: ClosedLoopSystem,
    tasks: Sequence[Task],
    settings: RunnerSettings,
) -> list[CellResult]:
    """Verify a chunk of ``(cell_id, box, command, tags)`` cells in
    lockstep waves, split-refining failures (Section 7.1); one result
    tree per task, in order.

    Wave 0 holds the chunk's cells; each refinement round collects every
    failed cell's children (bisected per the policy, down to
    ``max_depth``) into the next wave. Within a wave,
    :func:`~repro.core.reach.reach_many` advances all cells through the
    control steps together, so each step issues one batched integrator
    call over the whole wave. Verdicts, refinement decisions and the
    result trees do not depend on how cells are grouped into chunks;
    only the per-cell ``elapsed_seconds`` attribution does. Tags are
    left to the caller (:func:`~repro.core.supervisor.run_cell_guarded`).
    """
    rec = get_recorder()
    policy = settings.refinement
    top_results: list[CellResult | None] = [None] * len(tasks)
    # Every cell of a wave has the same depth. Owner: the top-level
    # slot of a chunk cell, the parent's result of a refinement child.
    wave: list[tuple[str, Box, int, int | CellResult]] = [
        (cell_id, box, command, slot)
        for slot, (cell_id, box, command, _tags) in enumerate(tasks)
    ]
    depth = 0
    while wave:
        initials = [SymbolicSet([SymbolicState(box, command)]) for _, box, command, _ in wave]
        with rec.span("refine", depth=depth, cells=len(wave)) if depth else nullcontext():
            outcomes = reach_many(system, initials, settings.reach)
        next_wave = []
        for (cell_id, box, command, owner), outcome in zip(wave, outcomes):
            result = CellResult(
                cell_id=cell_id,
                box=box,
                command=command,
                verdict=outcome.verdict,
                depth=depth,
                elapsed_seconds=outcome.elapsed_seconds,
                steps_completed=outcome.steps_completed,
                joins_performed=outcome.joins_performed,
                integrations=outcome.integrations,
            )
            rec.inc(f"runner.verdict.{outcome.verdict.value}")
            # The cell's share of the wave, as a span: the "cell" phase
            # and the slowest-cells list of `repro stats`.
            rec.record_span(
                "cell", outcome.elapsed_seconds,
                cell_id=cell_id, depth=depth, command=command,
            )
            witnessed = False
            if result.verdict is not Verdict.PROVED_SAFE and settings.witness_search:
                witnessed = _search_witness(system, result, settings, depth)
            if (
                not witnessed
                and result.verdict is not Verdict.PROVED_SAFE
                and policy is not None
                and depth < policy.max_depth
            ):
                rec.inc("runner.refinements")
                for i, child_box in enumerate(policy.children(box)):
                    next_wave.append((f"{cell_id}.{i}", child_box, command, result))
            if isinstance(owner, int):
                top_results[owner] = result
            else:
                owner.children.append(result)
        wave = next_wave
        depth += 1
    return top_results  # type: ignore[return-value]


def verify_cell(
    system: ClosedLoopSystem,
    box: Box,
    command: int,
    settings: RunnerSettings,
    cell_id: str = "cell",
) -> CellResult:
    """Verify one initial cell, split-refining on failure: the wave
    driver :func:`verify_cells` over a chunk of one."""
    return verify_cells(system, [(cell_id, box, command, {})], settings)[0]


# ----------------------------------------------------------------------
# The chunk executor
# ----------------------------------------------------------------------
def run_cells(
    system_factory: Callable[[], ClosedLoopSystem],
    tasks: Sequence[Task],
    settings: RunnerSettings,
    on_result: Callable[[int, CellResult], None] | None = None,
) -> SupervisorOutcome:
    """Verify ``tasks`` in chunks: on the supervised pool
    (:func:`~repro.core.supervisor.run_supervised`) when
    ``settings.workers > 1``, else in this process.

    Both paths size chunks with
    :func:`~repro.core.supervisor.chunk_size`, verify each with
    :func:`~repro.core.supervisor.run_cell_guarded`, record one
    ``cell.dispatched`` and one ``cell.finished`` per cell, stop
    dispatching on a deadline or SIGINT/SIGTERM, and call
    ``on_result(task_index, result)`` as each cell finishes. In this
    process a raising chunk is bisected by ``run_cell_guarded``; a
    crash takes the campaign down with it, as any in-process code would.
    """
    if settings.workers > 1:
        return run_supervised(system_factory, tasks, settings, on_result=on_result)
    outcome = SupervisorOutcome()
    if not tasks:
        return outcome
    rec = get_recorder()
    system = system_factory()
    # The serial driver is its own "worker 0": a heartbeat thread beats
    # from this process, when the recorder asks for beats, so stall
    # detection (`repro watch`) works for single-worker campaigns too.
    rec.event("worker.ready", worker=0, pid=os.getpid())
    reporter = None
    if rec.heartbeat_interval is not None:
        reporter = HeartbeatReporter(
            lambda payload: rec.event("worker.heartbeat", worker=0, **payload),
            rec.heartbeat_interval,
        ).start()
    pending = deque(range(len(tasks)))
    try:
        with trap_shutdown_signals() as stop:
            deadline_at = (
                time.monotonic() + settings.deadline if settings.deadline else None
            )
            while pending:
                if stop.requested:
                    outcome.interrupted = stop.reason
                elif deadline_at is not None and time.monotonic() >= deadline_at:
                    outcome.interrupted = "deadline"
                if outcome.interrupted:
                    announce_interrupt(outcome.interrupted, len(pending))
                    break
                chunk = [
                    pending.popleft() for _ in range(chunk_size(len(pending), 1, settings))
                ]
                for seq in chunk:
                    rec.event(
                        "cell.dispatched", worker=0, cell_id=tasks[seq][0], seq=seq,
                        attempt=0,
                    )
                if reporter is not None:
                    reporter.begin_cell(chunk_label([tasks[seq][0] for seq in chunk]))
                results = run_cell_guarded(system, [tasks[seq] for seq in chunk], settings)
                for seq, result in zip(chunk, results):
                    if reporter is not None:
                        reporter.end_cell()
                    publish_finished(0, seq, result)
                    outcome.results[seq] = result
                    if on_result is not None:
                        on_result(seq, result)
    finally:
        if reporter is not None:
            reporter.stop()
    return outcome


def finish_report(
    results: dict[int, CellResult],
    settings: RunnerSettings,
    interrupted: str | None,
    run_started: float,
    **summary,
) -> VerificationReport:
    """The report tail every campaign shares: the finished cells in
    partition order, the settings summary (plus ``summary`` entries),
    the recorder's metrics snapshot, and the ``campaign.finished``
    event."""
    report = VerificationReport(cells=[results[i] for i in sorted(results)])
    report.wall_seconds = time.perf_counter() - run_started
    report.settings_summary = {
        "substeps": settings.reach.substeps,
        "max_symbolic_states": settings.reach.max_symbolic_states,
        "refinement_depth": settings.refinement.max_depth if settings.refinement else 0,
        "workers": settings.workers,
        "cell_timeout": settings.cell_timeout,
        "deadline": settings.deadline,
        "max_retries": settings.max_retries,
    }
    if interrupted:
        report.settings_summary["interrupted"] = interrupted
    report.settings_summary.update(summary)
    rec = get_recorder()
    if rec.enabled:
        report.metrics = rec.metrics.snapshot()
    rec.event(
        "campaign.finished",
        interrupted=interrupted,
        verdicts=report.verdict_counts(),
        coverage=report.coverage_percent(),
        wall_seconds=report.wall_seconds,
    )
    return report


def verify_partition(
    system_factory: Callable[[], ClosedLoopSystem],
    cells: Sequence[tuple[Box, int]] | Sequence[tuple[Box, int, dict]],
    settings: RunnerSettings | None = None,
    journal: str | Path | None = None,
    fsync: bool = False,
) -> VerificationReport:
    """Verify every initial cell of a partition.

    ``cells`` is a sequence of ``(box, command)`` or
    ``(box, command, tags)`` tuples. ``system_factory`` builds the
    closed-loop system — called once in serial mode, once per worker in
    parallel mode (fork start method, so closures are fine). A worker
    whose factory call raises surfaces as a ``RuntimeError`` naming the
    worker and the underlying error.

    The cells run in chunks through :func:`run_cells`, on the
    supervised pool when ``settings.workers > 1``: crashes bisect the
    chunk, then retry and quarantine the failing cell as ``ABORTED``,
    budget overruns become ``TIMED_OUT``, and a deadline or
    SIGINT/SIGTERM yields a partial report
    (``settings_summary["interrupted"]`` names the reason). Progress
    is emitted on the current recorder (:func:`repro.obs.get_recorder`):
    one ``cell.finished`` event per cell, which
    :class:`repro.obs.CampaignSnapshot` folds into rate, ETA and
    verdict counts.

    With a ``journal`` path the campaign is resumable (see
    :mod:`repro.core.checkpoint`): cells already in the journal are
    reused verbatim, the rest are appended as soon as their chunk
    finishes (fsync'd one by one with ``fsync=True``), and quarantined
    cells are left out so a restart retries them.

    When a live :class:`repro.obs.Recorder` is installed, workers
    stream spans to per-worker JSONL files (merged into the parent's
    trace at the end) and ship per-cell metric deltas back; the merged
    snapshot lands in ``report.metrics``.
    """
    settings = settings or RunnerSettings()
    run_started = time.perf_counter()
    tasks = []
    for i, cell in enumerate(cells):
        box, command = cell[0], cell[1]
        tags = dict(cell[2]) if len(cell) > 2 else {}
        tasks.append((f"cell-{i}", box, command, tags))

    get_recorder().event(
        "campaign.started",
        total=len(tasks),
        workers=settings.workers,
        pid=os.getpid(),
    )
    results: dict[int, CellResult] = {}
    remaining = list(range(len(tasks)))
    summary = {}
    with ExitStack() as stack:
        on_result = None
        if journal is not None:
            keys = [_cell_key(box, command) for _, box, command, _ in tasks]
            results = replay_journal(journal, keys, [task[3] for task in tasks])
            remaining = [i for i in remaining if i not in results]
            writer = stack.enter_context(_JournalWriter(journal, fsync))
            summary["journal"] = str(journal)

            def on_result(seq: int, result: CellResult) -> None:
                writer.append(keys[remaining[seq]], result)

        outcome = run_cells(
            system_factory, [tasks[i] for i in remaining], settings, on_result
        )
    for seq, result in outcome.results.items():
        results[remaining[seq]] = result
    return finish_report(results, settings, outcome.interrupted, run_started, **summary)
