"""The checkpoint journal: resumable campaigns.

The paper's full experiment ran for ~12 days; any run at that scale
needs to survive interruption. A campaign given a journal path
(:func:`~repro.core.runner.verify_partition` with ``journal=``, and
every distributed campaign) appends each finished cell to an
append-only JSON-lines file as soon as it comes back, and a restart
replays the journal (:func:`replay_journal`) and skips every cell
already in it, matched by cell geometry and command, so a changed
partition invalidates stale entries.

Cells come back when their chunk finishes: an unbudgeted
single-worker run verifies all its cells as one chunk, so set a
budget or use more workers when a crash must cost less than the whole
run. Quarantined cells (``ABORTED`` / ``TIMED_OUT``) are deliberately
*not* journaled: a restarted campaign retries them instead of
trusting a verdict that only says "something went wrong last time".
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Sequence

from ..intervals import Box
from ..obs import get_recorder
from ..testing.faults import get_fault_injector
from .result import CellResult
from .supervisor import publish_finished

logger = logging.getLogger("repro.core.checkpoint")


def _cell_key(box: Box, command: int) -> str:
    payload = {
        "lo": [round(float(v), 12) for v in box.lo],
        "hi": [round(float(v), 12) for v in box.hi],
        "command": command,
    }
    return json.dumps(payload, sort_keys=True)


def load_journal(path: str | Path) -> dict[str, CellResult]:
    """Read finished cells from a journal (missing file = empty).

    Malformed lines — a torn final write from an interrupted run, a
    partially-synced page after a crash — are *skipped with a warning*
    rather than aborting the resume: one bad line must not cost a
    campaign its journal. Skips are logged and emitted as
    ``journal.malformed_line`` events on the current recorder.
    """
    path = Path(path)
    rec = get_recorder()
    finished: dict[str, CellResult] = {}
    if not path.exists():
        return finished
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                if isinstance(entry, dict) and "lease" in entry and "key" not in entry:
                    # Coordinator lease-state record (see core.coordinator):
                    # not a cell, and deliberately ignored here so journals
                    # from distributed runs resume fine under old readers.
                    continue
                key = entry["key"]
                result = CellResult.from_dict(entry["result"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                logger.warning(
                    "%s:%d: skipping malformed journal line (%s)", path, lineno, exc
                )
                rec.event(
                    "journal.malformed_line",
                    path=str(path),
                    line=lineno,
                    error=type(exc).__name__,
                )
                continue
            finished[key] = result
    return finished


def replay_journal(
    path: str | Path, keys: Sequence[str], tags: Sequence[dict]
) -> dict[int, CellResult]:
    """The cells of a partition already finished in the journal at
    ``path``, by partition index.

    ``keys[i]`` is cell ``i``'s :func:`_cell_key` and ``tags[i]`` its
    tags, merged into the cached result. Each cached cell is counted
    (``checkpoint.cells_skipped``) and recorded as ``cell.finished``
    with ``worker=None`` and ``cached=True``, so snapshot consumers
    can tell it from a verified one; a non-empty journal also records
    a ``journal.resume`` event.
    """
    finished = load_journal(path)
    rec = get_recorder()
    cached: dict[int, CellResult] = {}
    for i, key in enumerate(keys):
        result = finished.get(key)
        if result is None:
            continue
        result.tags.update(tags[i])
        cached[i] = result
        rec.inc("checkpoint.cells_skipped")
        publish_finished(None, i, result, cached=True)
    if finished:
        rec.event("journal.resume", path=str(path), finished_cells=len(finished))
        logger.info(
            "resumed from %s: %d/%d cells skipped", path, len(cached), len(keys)
        )
    return cached


class _JournalWriter:
    """Appends finished cells to the journal at ``path`` as they
    arrive (a context manager; the file and its directory are created
    on demand).

    Quarantined results are skipped (see module docs). The torn-write
    fault (``torn-journal`` in :mod:`repro.testing.faults`) truncates an
    append mid-line with no trailing newline, mimicking a power loss;
    the next append then starts on a fresh line, as a restarted
    process's first append would.
    """

    def __init__(self, path: str | Path, fsync: bool):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.handle = open(path, "a")
        self.fsync = fsync
        self._torn_pending = False

    def __enter__(self) -> "_JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.handle.close()

    def append(
        self, key: str, result: CellResult, extra: dict | None = None
    ) -> None:
        rec = get_recorder()
        if result.quarantined:
            # Not a verdict worth remembering: the next run retries it.
            rec.inc("checkpoint.cells_quarantined")
            rec.event(
                "checkpoint.cell_quarantined",
                cell_id=result.cell_id,
                verdict=result.verdict.value,
            )
            return
        entry = {"key": key, "result": result.to_dict()}
        if extra:
            # Provenance fields (shard/epoch from distributed runs). Old
            # readers only look at "key"/"result" and skip the rest.
            entry.update(extra)
        line = json.dumps(entry)
        injector = get_fault_injector()
        torn = False
        if injector is not None:
            line, torn = injector.tear_journal_line(line)
        if self._torn_pending:
            self.handle.write("\n")
            self._torn_pending = False
        self.handle.write(line if torn else line + "\n")
        self._torn_pending = torn
        self.handle.flush()
        if self.fsync:
            os.fsync(self.handle.fileno())
        rec.inc("checkpoint.cells_verified")

    def append_record(self, record: dict) -> None:
        """Append a non-cell bookkeeping record (e.g. a coordinator
        lease grant). Never torn by fault injection — lease records are
        coordinator-side state, not the cell write path under test."""
        if self._torn_pending:
            self.handle.write("\n")
            self._torn_pending = False
        self.handle.write(json.dumps(record) + "\n")
        self.handle.flush()
        if self.fsync:
            os.fsync(self.handle.fileno())


def load_lease_records(path: str | Path) -> list[dict]:
    """Read coordinator lease-state records from a journal, in append
    order (missing file = empty). Malformed lines are skipped, same
    policy as :func:`load_journal`; cell entries are ignored."""
    path = Path(path)
    records: list[dict] = []
    if not path.exists():
        return records
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "lease" in entry and "key" not in entry:
                lease = entry["lease"]
                if isinstance(lease, dict):
                    records.append(lease)
    return records


def _normalize_result_dict(payload: dict) -> dict:
    """Zero the wall-clock fields of a serialized CellResult so two
    runs of the same mathematics compare equal. Verdicts, depths, step
    counts, joins and integrations are deterministic; elapsed seconds
    and crash-retry attempt counts are not."""
    payload = dict(payload)
    payload["elapsed_seconds"] = 0.0
    payload["attempts"] = 0
    if payload.get("children"):
        payload["children"] = [
            _normalize_result_dict(child) for child in payload["children"]
        ]
    return payload


def canonical_journal_bytes(path: str | Path) -> bytes:
    """A journal's *mathematical content* as canonical bytes.

    Entries are sorted by cell key and re-serialized with sorted keys
    after zeroing volatile fields (elapsed wall-clock, retry attempts),
    so two journals covering the same partition with the same verdicts
    produce identical bytes — regardless of completion order, worker
    count, or whether the campaign ran single-host or distributed.
    This is the equivalence the distributed acceptance drill asserts.
    """
    finished = load_journal(path)
    lines = [
        json.dumps(
            {"key": key, "result": _normalize_result_dict(finished[key].to_dict())},
            sort_keys=True,
        )
        for key in sorted(finished)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
