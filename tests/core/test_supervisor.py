"""The supervised pool: budget guards, crash retry/quarantine, worker
kills, campaign deadlines, chunk dispatch and crash bisection, and the
fault-tolerant serial path."""

import signal
import time
from dataclasses import replace

import pytest

from repro.core import (
    BudgetExceeded,
    DistributedSettings,
    RefinementPolicy,
    RunnerSettings,
    Verdict,
    budget_guard,
    canonical_journal_bytes,
    grid_partition,
    run_cell_guarded,
    run_distributed,
    run_supervised,
    verify_partition,
)
from repro.core.checkpoint import _normalize_result_dict
from repro.core.supervisor import chunk_size
from repro.intervals import Box
from repro.obs import Recorder, use_recorder
from repro.testing import injected_faults
from repro.testing.faults import CRASH_EXIT_CODE

from .fixtures import make_system


def cells_for(boxes, command=1):
    return [(box, command) for box in boxes]


def four_cells():
    return cells_for(grid_partition(Box([1.6], [2.4]), [4]))


class TestBudgetGuard:
    def test_noop_without_budget(self):
        with budget_guard(None):
            pass
        with budget_guard(0):
            pass

    def test_fires_with_its_scope(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            with budget_guard(0.05, scope="cell"):
                time.sleep(5.0)
        assert excinfo.value.scope == "cell"
        assert excinfo.value.seconds == pytest.approx(0.05)

    def test_nested_inner_guard_fires_first(self):
        fired = []
        with budget_guard(30.0, scope="cell"):
            try:
                with budget_guard(0.05, scope="witness"):
                    time.sleep(5.0)
            except BudgetExceeded as exc:
                fired.append(exc.scope)
            # The outer guard survives the inner one firing.
            time.sleep(0.05)
        assert fired == ["witness"]

    def test_restores_previous_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with budget_guard(10.0, scope="x"):
            assert signal.getsignal(signal.SIGALRM) is not previous
        assert signal.getsignal(signal.SIGALRM) is previous


class TestRunCellGuarded:
    def test_timeout_quarantines_as_timed_out(self):
        settings = RunnerSettings(cell_timeout=0.2)
        with injected_faults("slow:cell-0:30"):
            result = run_cell_guarded(
                make_system(), [("cell-0", Box([2.0], [2.2]), 1, {})], settings
            )[0]
        assert result.verdict is Verdict.TIMED_OUT
        assert result.quarantined
        assert result.tags["failure"]["kind"] == "timeout"
        assert result.tags["failure"]["enforced"] == "budget-guard"
        assert result.attempts == 1

    def test_exception_quarantines_as_aborted(self):
        # A null system makes verify_cells raise immediately.
        result = run_cell_guarded(
            None, [("cell-0", Box([2.0], [2.2]), 1, {})], RunnerSettings()
        )[0]
        assert result.verdict is Verdict.ABORTED
        assert result.tags["failure"]["kind"] == "exception"
        assert "AttributeError" in result.tags["failure"]["error"]

    def test_healthy_cell_records_attempts(self):
        result = run_cell_guarded(
            make_system(), [("cell-0", Box([2.0], [2.2]), 1, {})], RunnerSettings(),
            attempt=2,
        )[0]
        assert result.proved
        assert result.attempts == 3


class TestSerialFaultTolerance:
    def test_cell_timeout_isolated_to_one_cell(self):
        settings = RunnerSettings(cell_timeout=0.2)
        with injected_faults("slow:cell-1:30"):
            report = verify_partition(make_system, four_cells(), settings)
        assert report.total_cells == 4
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-1"].verdict is Verdict.TIMED_OUT
        assert all(
            by_id[f"cell-{i}"].verdict is Verdict.PROVED_SAFE for i in (0, 2, 3)
        )
        counts = report.verdict_counts()
        assert counts["timed-out"] == 1
        assert counts["proved"] == 3

    def test_deadline_returns_partial_report(self):
        settings = RunnerSettings(deadline=0.2)
        with injected_faults("slow:cell-0:0.3"):
            # cell-0 runs past the deadline (no cell budget), so cells
            # 1..3 are never dispatched.
            report = verify_partition(make_system, four_cells(), settings)
        assert report.total_cells == 1
        assert report.settings_summary["interrupted"] == "deadline"

    def test_progress_exception_does_not_abort_campaign(self):
        # Progress is a recorder subscriber; one that raises is dropped
        # from the fan-out and counted, and the campaign carries on.
        seen = []

        def exploding_progress(event):
            seen.append(event["name"])
            raise ValueError("broken progress bar")

        rec = Recorder()
        rec.subscribe(exploding_progress)
        with use_recorder(rec):
            report = verify_partition(make_system, four_cells())
        assert seen == ["campaign.started"]
        assert rec.dropped_subscribers == 1
        assert report.total_cells == 4
        assert report.coverage_percent() == pytest.approx(100.0)


class TestWitnessTimeout:
    def test_stuck_witness_search_degrades_to_refinement(self):
        system = make_system(horizon_steps=4, target="none", error_bound=2.5)

        def stuck_search(system, box, command):
            time.sleep(30.0)
            return None  # pragma: no cover

        settings = RunnerSettings(
            witness_search=stuck_search, witness_timeout=0.2
        )
        started = time.perf_counter()
        result = run_cell_guarded(system, [("cell-0", Box([2.0], [3.0]), 0, {})], settings)[0]
        assert time.perf_counter() - started < 5.0
        assert not result.proved
        assert not result.quarantined  # timed-out search != timed-out cell
        assert result.tags["witness_timeout"] == pytest.approx(0.2)

    def test_witness_timeout_nests_inside_cell_budget(self):
        system = make_system(horizon_steps=4, target="none", error_bound=2.5)

        def stuck_search(system, box, command):
            time.sleep(30.0)
            return None  # pragma: no cover

        settings = RunnerSettings(
            witness_search=stuck_search, witness_timeout=0.2, cell_timeout=10.0
        )
        result = run_cell_guarded(system, [("cell-0", Box([2.0], [3.0]), 0, {})], settings)[0]
        # The witness guard fired, not the cell guard.
        assert result.verdict is not Verdict.TIMED_OUT
        assert "witness_timeout" in result.tags


class TestSupervisedPool:
    def test_matches_serial_results(self):
        tasks = [
            (f"cell-{i}", box, 1, {})
            for i, box in enumerate(grid_partition(Box([1.6], [2.4]), [4]))
        ]
        outcome = run_supervised(make_system, tasks, RunnerSettings(workers=2))
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert all(r.proved for r in outcome.results.values())
        assert outcome.interrupted is None

    def test_crash_retried_on_fresh_worker(self):
        settings = RunnerSettings(workers=2, max_retries=1, retry_backoff=0.01)
        with injected_faults("crash:cell-1"):  # first attempt only
            report = verify_partition(make_system, four_cells(), settings)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-1"].verdict is Verdict.PROVED_SAFE
        assert by_id["cell-1"].attempts == 2
        assert report.coverage_percent() == pytest.approx(100.0)

    def test_crash_exhausts_retries_then_aborts(self):
        settings = RunnerSettings(workers=2, max_retries=1, retry_backoff=0.01)
        with injected_faults("crash:cell-1:*"):  # every attempt
            report = verify_partition(make_system, four_cells(), settings)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-1"].verdict is Verdict.ABORTED
        assert by_id["cell-1"].tags["failure"]["kind"] == "crash"
        assert by_id["cell-1"].tags["failure"]["exitcode"] == CRASH_EXIT_CODE
        assert by_id["cell-1"].attempts == 2
        assert all(
            by_id[f"cell-{i}"].verdict is Verdict.PROVED_SAFE for i in (0, 2, 3)
        )
        assert report.verdict_counts()["aborted"] == 1

    def test_hung_worker_killed_by_supervisor(self):
        settings = RunnerSettings(workers=2, cell_timeout=0.3)
        with injected_faults("hang:cell-0:60"):
            report = verify_partition(make_system, four_cells(), settings)
        by_id = {c.cell_id: c for c in report.cells}
        assert by_id["cell-0"].verdict is Verdict.TIMED_OUT
        assert by_id["cell-0"].tags["failure"]["enforced"] == "supervisor-kill"
        assert all(
            by_id[f"cell-{i}"].verdict is Verdict.PROVED_SAFE for i in (1, 2, 3)
        )

    def test_factory_error_is_a_clear_runtime_error(self):
        def broken_factory():
            raise ValueError("no such network bank")

        tasks = [("cell-0", Box([2.0], [2.2]), 1, {})]
        with pytest.raises(RuntimeError, match="could not build the system"):
            run_supervised(broken_factory, tasks, RunnerSettings(workers=2))

    def test_deadline_drains_and_returns_partial(self):
        settings = RunnerSettings(workers=2, deadline=0.2)
        with injected_faults("slow:cell-0:0.4,slow:cell-1:0.4"):
            report = verify_partition(make_system, four_cells(), settings)
        assert report.settings_summary["interrupted"] == "deadline"
        # The in-flight cells drained; the undispatched ones did not run.
        assert 1 <= report.total_cells < 4

    def test_empty_task_list(self):
        outcome = run_supervised(make_system, [], RunnerSettings(workers=2))
        assert outcome.results == {}


class TestPoolTelemetry:
    """Event plumbing through the supervised pool: worker heartbeats
    travel the result pipe, and the supervisor records lifecycle
    events on the ambient recorder."""

    def collect(self, faults=None, **settings_kwargs):
        rec = self.rec = Recorder(heartbeat_interval=0.05)
        events = []
        rec.subscribe(events.append)
        settings = RunnerSettings(workers=2, **settings_kwargs)
        tasks = [
            (f"cell-{i}", box, 1, {})
            for i, box in enumerate(grid_partition(Box([1.6], [2.4]), [4]))
        ]
        with use_recorder(rec):
            if faults:
                with injected_faults(faults):
                    outcome = run_supervised(make_system, tasks, settings)
            else:
                outcome = run_supervised(make_system, tasks, settings)
        return outcome, events

    def test_lifecycle_and_heartbeat_events_published(self):
        import os

        outcome, events = self.collect(faults="slow:cell-0:0.2")
        names = [e["name"] for e in events]
        assert names.count("worker.spawned") == 2
        assert names.count("worker.ready") == 2
        assert names.count("cell.dispatched") == 4
        assert names.count("cell.finished") == 4
        beats = [e for e in events if e["name"] == "worker.heartbeat"]
        assert beats, "no heartbeats crossed the worker pipe"
        beat = beats[0]
        # Worker-originated: the PID is a child's, not the parent's.
        assert beat["pid"] != os.getpid() and beat["pid"] > 0
        assert {"rss_bytes", "cells_completed", "cell_elapsed"} <= set(beat)
        finished = [e for e in events if e["name"] == "cell.finished"]
        assert all(e["verdict_class"] == "proved" for e in finished)
        assert len(outcome.results) == 4

    def test_crash_publishes_retry_then_quarantine(self):
        outcome, events = self.collect(
            faults="crash:cell-1:*", max_retries=1, retry_backoff=0.01
        )
        names = [e["name"] for e in events]
        # Each crash and respawn is recorded once.
        counters = self.rec.metrics.counters
        assert names.count("worker.crash") == counters["runner.worker_crashes"] > 0
        assert names.count("worker.respawn") == counters["runner.worker_respawns"] > 0
        assert "cell.retried" in names
        quarantined = [e for e in events if e["name"] == "cell.quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["cell_id"] == "cell-1"
        assert quarantined[0]["reason"] == "crash"

    def test_no_bus_no_heartbeat_threads(self):
        """Without a recorder heartbeat interval the pool passes
        heartbeat=None to the workers — telemetry must cost nothing
        when off."""
        tasks = [("cell-0", Box([2.0], [2.2]), 1, {})]
        outcome = run_supervised(make_system, tasks, RunnerSettings(workers=2))
        assert outcome.results[0].proved


class TestChunkDispatch:
    """A pool of one worker takes all eight cells as one chunk; a crash
    bisects the chunk down to the crashing cell, and only that cell
    burns attempts."""

    def eight_cells(self):
        return cells_for(grid_partition(Box([1.6], [2.4]), [8]))

    def refined(self):
        # Cell 7 reaches only SAFE_WITHIN_HORIZON and gets refined.
        cells = cells_for(grid_partition(Box([1.6], [4.8]), [8]))
        settings = RunnerSettings(refinement=RefinementPolicy(dims=(0,), max_depth=1))
        return (lambda: make_system(horizon_steps=3)), cells, settings

    def test_chunk_sizing_rule(self):
        plain, budgeted = RunnerSettings(), RunnerSettings(deadline=60.0)
        assert chunk_size(8, 1, plain) == 8
        assert chunk_size(8, 2, plain) == 4
        assert chunk_size(7, 3, plain) == 3
        assert chunk_size(1, 2, plain) == 1
        assert chunk_size(8, 1, budgeted) == 1
        assert chunk_size(8, 1, RunnerSettings(cell_timeout=5.0)) == 1

    def test_crash_once_bisects_then_retries_the_cell(self):
        settings = RunnerSettings(workers=1, max_retries=1, retry_backoff=0.01)
        tasks = [(f"cell-{i}", box, cmd, {}) for i, (box, cmd) in enumerate(self.eight_cells())]
        with use_recorder(Recorder()) as rec:
            with injected_faults("crash:cell-3"):
                outcome = run_supervised(make_system, tasks, settings)
            # 8 -> 4 -> 2 -> 1 cells, then the lone cell-3 crashes once.
            assert rec.metrics.counters["runner.chunk_splits"] == 3
            assert rec.metrics.counters["runner.cell_retries"] == 1
        results = [outcome.results[i] for i in range(8)]
        assert all(r.verdict is Verdict.PROVED_SAFE for r in results)
        assert results[3].attempts == 2
        assert all(r.attempts == 1 for i, r in enumerate(results) if i != 3)

    def test_crash_always_quarantines_only_that_cell(self):
        settings = RunnerSettings(workers=1, max_retries=1, retry_backoff=0.01)
        tasks = [(f"cell-{i}", box, cmd, {}) for i, (box, cmd) in enumerate(self.eight_cells())]
        with injected_faults("crash:cell-3:*"):
            outcome = run_supervised(make_system, tasks, settings)
        verdicts = {outcome.results[i].cell_id: outcome.results[i].verdict for i in range(8)}
        assert verdicts.pop("cell-3") is Verdict.ABORTED
        assert set(verdicts.values()) == {Verdict.PROVED_SAFE}
        assert outcome.results[3].tags["failure"]["kind"] == "crash"

    def test_exception_in_chunk_bisects_in_process(self):
        """In process, a raising chunk is split until the raising cell
        is alone; the other cells keep their organic verdicts."""
        system = make_system()
        chunk = [(f"cell-{i}", box, cmd, {}) for i, (box, cmd) in enumerate(self.eight_cells())]
        chunk[5] = ("cell-5", Box([2.0], [2.2]), 99, {})  # no such command
        results = run_cell_guarded(system, chunk, RunnerSettings())
        assert [r.cell_id for r in results] == [f"cell-{i}" for i in range(8)]
        assert results[5].verdict is Verdict.ABORTED
        assert all(r.proved for i, r in enumerate(results) if i != 5)

    def test_chunked_pool_matches_serial_wave_driver(self):
        factory, cells, settings = self.refined()
        serial = verify_partition(factory, cells, settings)
        pooled = verify_partition(factory, cells, replace(settings, workers=2))
        one_worker_pool = run_supervised(
            factory,
            [(f"cell-{i}", box, cmd, {}) for i, (box, cmd) in enumerate(cells)],
            settings,
        )
        assert any(cell.children for cell in serial.cells)
        for trees in (pooled.cells, [one_worker_pool.results[i] for i in range(8)]):
            for a, b in zip(serial.cells, trees):
                assert _normalize_result_dict(a.to_dict()) == _normalize_result_dict(
                    b.to_dict()
                )

    def test_journal_bytes_identical_across_modes(self, tmp_path):
        factory, cells, settings = self.refined()
        journals = []
        for name, workers in (("serial", 1), ("pool", 2)):
            journal = tmp_path / f"{name}.jsonl"
            verify_partition(
                factory,
                cells,
                replace(settings, workers=workers),
                journal=journal,
            )
            journals.append(canonical_journal_bytes(journal))
        journal = tmp_path / "distributed.jsonl"
        run_distributed(
            factory,
            cells,
            journal,
            settings=settings,
            dist=DistributedSettings(num_shards=4, expected_nodes=2, lease_timeout=5.0),
            nodes=2,
        )
        journals.append(canonical_journal_bytes(journal))
        assert journals[0]
        assert journals[0] == journals[1] == journals[2]
