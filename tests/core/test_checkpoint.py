"""Tests for journaled (resumable) partition verification."""

import json

import pytest

from repro.core import (
    Coordinator,
    canonical_journal_bytes,
    grid_partition,
    load_journal,
    verify_partition,
)
from repro.intervals import Box
from repro.obs import CampaignSnapshot, Recorder, use_recorder

from .fixtures import make_system


def cells():
    return [(box, 1, {"idx": i}) for i, box in enumerate(
        grid_partition(Box([1.6], [2.4]), [4])
    )]


class TestCheckpointing:
    def test_first_run_matches_plain_runner(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        factory = make_system
        checkpointed = verify_partition(factory, cells(), journal=journal)
        plain = verify_partition(factory, cells())
        assert checkpointed.total_cells == plain.total_cells
        assert checkpointed.coverage_percent() == pytest.approx(
            plain.coverage_percent()
        )
        assert journal.exists()
        assert len(load_journal(journal)) == 4

    def test_resume_skips_finished_cells(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        calls = {"count": 0}

        def factory():
            calls["count"] += 1
            return make_system()

        verify_partition(factory, cells(), journal=journal)
        assert calls["count"] == 1
        # Second run: everything cached, the system is never rebuilt.
        report = verify_partition(factory, cells(), journal=journal)
        assert calls["count"] == 1
        assert report.total_cells == 4
        assert report.coverage_percent() == pytest.approx(100.0)

    def test_partial_journal_resumes_remaining(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        all_cells = cells()
        verify_partition(lambda: make_system(), all_cells[:2], journal=journal)
        assert len(load_journal(journal)) == 2
        report = verify_partition(lambda: make_system(), all_cells, journal=journal)
        assert report.total_cells == 4
        assert len(load_journal(journal)) == 4

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells()[:2], journal=journal)
        with open(journal, "a") as handle:
            handle.write('{"key": "torn')  # simulated crash mid-write
        finished = load_journal(journal)
        assert len(finished) == 2
        # And the runner recovers, re-verifying only what is missing.
        report = verify_partition(lambda: make_system(), cells(), journal=journal)
        assert report.total_cells == 4

    def test_changed_partition_invalidates_entries(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells(), journal=journal)
        shifted = [(Box([3.0], [3.2]), 1)]
        report = verify_partition(lambda: make_system(), shifted, journal=journal)
        # The shifted cell was not in the journal: it got verified anew.
        assert report.total_cells == 1
        assert len(load_journal(journal)) == 5

    def test_progress_callback(self, tmp_path):
        # Progress rides the recorder's events: verified and
        # journal-cached cells alike are recorded as cell.finished.
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells()[:2], journal=journal)
        rec = Recorder()
        snapshot = CampaignSnapshot("resume").attach(rec)
        cached = []
        rec.subscribe(
            lambda e: e["name"] == "cell.finished" and cached.append(e.get("cached"))
        )
        with use_recorder(rec):
            verify_partition(lambda: make_system(), cells(), journal=journal)
        assert (snapshot.done, snapshot.total) == (4, 4)
        assert cached == [True, True, None, None]

    def test_tags_preserved_on_resume(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        verify_partition(lambda: make_system(), cells(), journal=journal)
        report = verify_partition(lambda: make_system(), cells(), journal=journal)
        assert report.cells[2].tags["idx"] == 2

    def test_resumed_journal_matches_fresh_run(self, tmp_path):
        fresh = tmp_path / "fresh.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        verify_partition(lambda: make_system(), cells(), journal=fresh)
        verify_partition(lambda: make_system(), cells()[:2], journal=resumed)
        verify_partition(lambda: make_system(), cells(), journal=resumed)
        assert canonical_journal_bytes(resumed) == canonical_journal_bytes(fresh)

    def test_coordinator_replays_the_same_journal(self, tmp_path):
        # A coordinator restarted on a finished journal replays it like
        # verify_partition does and grants nothing.
        journal = tmp_path / "journal.jsonl"
        single = verify_partition(lambda: make_system(), cells(), journal=journal)
        written = journal.read_bytes()
        rec = Recorder()
        events = []
        rec.subscribe(events.append)
        coordinator = Coordinator(cells(), journal)
        coordinator.start()
        with use_recorder(rec):
            report = coordinator.serve()
            assert rec.metrics.counters["checkpoint.cells_skipped"] == 4
        assert journal.read_bytes() == written
        assert report.verdict_counts() == single.verdict_counts()
        assert [c.tags for c in report.cells] == [c.tags for c in single.cells]
        assert report.settings_summary["distributed"]["grants"] == 0
        finished = [e for e in events if e["name"] == "cell.finished"]
        assert [e["cached"] for e in finished] == [True] * 4
        assert events[-1]["name"] == "campaign.finished"
