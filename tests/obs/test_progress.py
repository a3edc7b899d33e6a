"""CampaignProgress: the one-line display rendered from a
CampaignSnapshot as a recorder subscriber."""

import io

import pytest

from repro.core import CellResult, Verdict
from repro.intervals import Box
from repro.obs import CampaignProgress, CampaignSnapshot, Recorder, format_eta


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Campaign:
    """A recorder with a snapshot and a progress display, fed hand-made
    events stamped by a fake wall clock."""

    def __init__(self, total, stream=None, min_interval=1.0, start=0.0):
        self.clock = FakeClock(start)
        self.recorder = Recorder()
        self.snapshot = CampaignSnapshot("progress").attach(self.recorder)
        self.stream = stream or io.StringIO()
        self.progress = CampaignProgress(
            self.snapshot, stream=self.stream, min_interval=min_interval,
            clock=self.clock,
        ).attach(self.recorder)
        self.emit("campaign.started", total=total)

    def emit(self, name, **fields):
        # Bypass event()'s wall-clock stamp: feed the subscribers
        # directly, in subscription order, with the fake clock's time.
        event = {"ts": self.clock(), "kind": "event", "name": name, **fields}
        self.snapshot.on_event(event)
        self.progress.on_event(event)

    def finish(self, n, verdict_class="proved"):
        for _ in range(n):
            self.emit("cell.finished", worker=None, verdict_class=verdict_class)

    def line(self):
        return self.progress.render()


class TestFormatEta:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0.0, "0s"),
            (47.0, "47s"),
            (192.0, "3m12s"),
            (2 * 3600 + 5 * 60, "2h05m"),
            (27 * 3600, "1d03h"),
            (-5.0, "0s"),  # clamped, never negative
        ],
    )
    def test_boundaries(self, seconds, expected):
        assert format_eta(seconds) == expected


class TestRateAndEta:
    def test_rate_is_cells_per_second(self):
        campaign = Campaign(total=100)
        campaign.clock.advance(10.0)
        campaign.finish(20)
        line = campaign.line()
        assert "2.00 cell/s" in line
        assert "ETA 40s" in line

    def test_rate_zero_before_first_completion(self):
        campaign = Campaign(total=100)
        campaign.clock.advance(5.0)
        line = campaign.line()
        assert "cell/s" not in line
        assert "ETA" not in line

    def test_eta_shrinks_as_done_grows(self):
        campaign = Campaign(total=100)
        campaign.clock.advance(10.0)
        campaign.finish(10)
        first_eta = campaign.snapshot.eta_seconds(campaign.clock())
        campaign.clock.advance(10.0)
        campaign.finish(30)
        assert campaign.snapshot.eta_seconds(campaign.clock()) < first_eta

    def test_elapsed_tracks_clock(self):
        # The rate is measured from campaign.started on the display's
        # clock, not from when the display was built.
        campaign = Campaign(total=100, start=100.0)
        campaign.clock.advance(7.5)
        campaign.finish(15)
        assert "2.00 cell/s" in campaign.line()


class TestRollingVerdicts:
    def test_counts_by_outcome(self):
        campaign = Campaign(total=4)
        campaign.finish(2, "proved")
        campaign.finish(1, "unproved")
        campaign.finish(1, "witnessed")
        assert "proved 2 unproved 1 witnessed 1" in campaign.line()

    def test_partial_coverage_counts_as_unproved(self):
        parent = CellResult(
            cell_id="c", box=Box([0.0], [1.0]), command=0,
            verdict=Verdict.POSSIBLY_UNSAFE,
        )
        for i, verdict in enumerate((Verdict.PROVED_SAFE, Verdict.POSSIBLY_UNSAFE)):
            parent.children.append(CellResult(
                cell_id=f"c.{i}", box=Box([0.0], [1.0]), command=0,
                verdict=verdict, depth=1,
            ))
        campaign = Campaign(total=1)
        campaign.finish(1, parent.verdict_class())
        assert "proved 0 unproved 1 witnessed 0" in campaign.line()

    def test_update_without_result_keeps_counts(self):
        # Only cell.finished moves the counts and prints a line.
        campaign = Campaign(total=2)
        campaign.emit("cell.dispatched", worker=0, cell_id="cell-0")
        campaign.emit("worker.heartbeat", worker=0)
        assert campaign.stream.getvalue() == ""
        assert "cells 0/2" in campaign.line()
        assert "proved 0 unproved 0 witnessed 0" in campaign.line()

    def test_quarantine_counts_appear_only_when_nonzero(self):
        campaign = Campaign(total=3)
        campaign.finish(1, "proved")
        assert "aborted" not in campaign.line()
        campaign.finish(1, "aborted")
        campaign.finish(1, "timed-out")
        assert campaign.line().endswith("witnessed 0 aborted 1 timed-out 1")


class TestRendering:
    def test_render_contents(self):
        campaign = Campaign(total=10)
        campaign.clock.advance(10.0)
        campaign.finish(5)
        line = campaign.line()
        assert "cells 5/10 (50.0%)" in line
        assert "cell/s" in line
        assert "ETA" in line
        assert "proved 5" in line

    def test_prints_throttled_but_final_always(self):
        campaign = Campaign(total=3, min_interval=1000.0)
        campaign.finish(1)  # first one prints (interval from -inf)
        campaign.finish(1)  # throttled
        campaign.finish(1)  # final: always prints
        lines = campaign.stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("cells 3/3")

    def test_no_eta_once_finished(self):
        campaign = Campaign(total=4)
        campaign.clock.advance(2.0)
        campaign.finish(4)
        assert "ETA" not in campaign.line()


class TestStalledMarker:
    def test_stalled_count_shown_when_nonzero(self):
        campaign = Campaign(total=10)
        for worker in (0, 1):
            campaign.emit("cell.dispatched", worker=worker, cell_id=f"cell-{worker}")
        campaign.clock.advance(60.0)  # silent far past stall_after
        campaign.finish(1)
        assert campaign.line().endswith(" | 2 stalled")

    def test_hidden_when_zero_or_absent(self):
        campaign = Campaign(total=10)
        campaign.emit("cell.dispatched", worker=0, cell_id="cell-0")
        campaign.emit("worker.heartbeat", worker=0)
        campaign.finish(1)
        assert "stalled" not in campaign.line()
        assert "stalled" not in Campaign(total=10).line()

    def test_raising_provider_is_swallowed(self):
        # A display whose stream breaks is dropped by the recorder; the
        # snapshot keeps folding events.
        class BrokenStream:
            def write(self, text):
                raise OSError("stderr gone")

        rec = Recorder()
        snapshot = CampaignSnapshot("progress").attach(rec)
        CampaignProgress(snapshot, stream=BrokenStream()).attach(rec)
        rec.event("campaign.started", total=2)
        rec.event("cell.finished", worker=None, verdict_class="proved")
        rec.event("cell.finished", worker=None, verdict_class="proved")
        assert rec.dropped_subscribers == 1
        assert snapshot.done == 2
