"""JSONL trace reading, writing and cross-process merging.

A trace is a sequence of JSON objects, one per line:

    {"ts": <unix time>, "kind": "span",  "name": "integrate", "dur": 0.0123, ...}
    {"ts": <unix time>, "kind": "event", "name": "cache.corrupt", ...}

Span events carry a ``dur`` in seconds plus free-form fields (step
index, command, cell id, worker pid...). Readers must tolerate torn
final lines — traces are appended live and campaigns get killed.
"""

from __future__ import annotations

import heapq
import json
import logging
from pathlib import Path
from typing import Iterable, Iterator

logger = logging.getLogger("repro.obs")


def read_trace(path: str | Path, on_malformed=None) -> Iterator[dict]:
    """Yield events from a JSONL trace, skipping malformed lines.

    Traces are appended live and campaigns get killed, so a torn final
    line (or a corrupted middle one) must never abort the read.
    ``on_malformed(lineno, line)`` — when given — is called for every
    skipped line, letting callers count drops instead of silently
    swallowing them (``repro stats`` reports the count).
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                logger.warning("%s:%d: skipping malformed trace line", path, lineno)
                if on_malformed is not None:
                    on_malformed(lineno, line)
                continue
            if isinstance(event, dict):
                yield event
            elif on_malformed is not None:
                on_malformed(lineno, line)


def write_events(path: str | Path, events: Iterable[dict]) -> int:
    """Append ``events`` to a JSONL file; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "a") as out:
        for event in events:
            out.write(json.dumps(event, default=str) + "\n")
            count += 1
    return count


def merge_traces(
    target: str | Path,
    sources: Iterable[str | Path],
    delete_sources: bool = False,
) -> int:
    """Merge worker trace files into ``target``, ordered by timestamp.

    Each source is assumed internally time-ordered (true for files
    appended by one process), so a k-way heap merge suffices. Returns
    the number of events merged. :meth:`repro.obs.Recorder.merge_trace`
    uses it to fold per-worker files back into the parent's trace.
    """
    sources = [Path(s) for s in sources]
    streams = [read_trace(s) for s in sources]
    merged = heapq.merge(*streams, key=lambda e: e.get("ts", 0.0))
    count = write_events(target, merged)
    if delete_sources:
        for source in sources:
            source.unlink(missing_ok=True)
    return count
