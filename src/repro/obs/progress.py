"""The one-line campaign progress display.

A recorder subscriber: every campaign emits one ``cell.finished``
event per cell, a :class:`~repro.obs.live.CampaignSnapshot` folds
those events into rate, ETA, verdict counts and stall state, and
:class:`CampaignProgress` renders that snapshot as one throttled
stderr line::

    cells 120/216 (55.6%) | 3.4 cell/s | ETA 28s | proved 97 unproved 20 witnessed 3
"""

from __future__ import annotations

import sys
import time
from typing import IO, TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .live import CampaignSnapshot
    from .recorder import NullRecorder


def format_eta(seconds: float) -> str:
    """Compact human duration (``47s``, ``3m12s``, ``2h05m``, ``1d03h``)."""
    seconds = max(0.0, seconds)
    if seconds < 60.0:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    if hours < 24:
        return f"{hours}h{minutes:02d}m"
    days, hours = divmod(hours, 24)
    return f"{days}d{hours:02d}h"


class CampaignProgress:
    """Prints ``snapshot`` as one line on each ``cell.finished`` event.

    Attach it to the recorder *after* the snapshot, so the line already
    counts the event that triggered it. ``min_interval`` throttles
    printing so huge partitions do not drown stderr; the line for the
    last cell always prints. ``stream`` defaults to the current
    ``sys.stderr``; ``clock`` (wall time, like the events' ``ts``)
    drives throttling and the rate.
    """

    def __init__(
        self,
        snapshot: "CampaignSnapshot",
        stream: IO[str] | None = None,
        min_interval: float = 1.0,
        clock: Callable[[], float] = time.time,
    ):
        self.snapshot = snapshot
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self._last_print = float("-inf")

    def attach(self, recorder: "NullRecorder") -> "CampaignProgress":
        recorder.subscribe(self.on_event)
        return self

    def on_event(self, event: dict) -> None:
        if event.get("name") != "cell.finished":
            return
        now = self._clock()
        if (
            now - self._last_print >= self.min_interval
            or self.snapshot.done >= self.snapshot.total
        ):
            self._last_print = now
            print(self.render(now), file=self.stream)

    def render(self, now: float | None = None) -> str:
        now = self._clock() if now is None else now
        snap = self.snapshot
        pct = 100.0 * snap.done / snap.total if snap.total else 0.0
        parts = [f"cells {snap.done}/{snap.total} ({pct:.1f}%)"]
        rate = snap.rate(now)
        if rate > 0.0:
            parts.append(f"{rate:.2f} cell/s")
            if snap.done < snap.total:
                parts.append(f"ETA {format_eta(snap.eta_seconds(now))}")
        counts = snap.verdicts
        verdicts = (
            f"proved {counts['proved']} unproved {counts['unproved']} "
            f"witnessed {counts['witnessed']}"
        )
        # Quarantine counts only appear once something went wrong, so
        # healthy campaigns keep the familiar three-way line.
        for cls in ("aborted", "timed-out"):
            if counts[cls]:
                verdicts += f" {cls} {counts[cls]}"
        parts.append(verdicts)
        # Live stall detection (heartbeat-silent busy workers) shows up
        # in the one-line output too, so non-`watch` users see it.
        stalled = snap.stalled_count(now)
        if stalled:
            parts.append(f"{stalled} stalled")
        return " | ".join(parts)
