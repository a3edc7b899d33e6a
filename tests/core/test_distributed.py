"""End-to-end acceptance drill for distributed sharded campaigns.

One coordinator plus three localhost node agents (forked by
:func:`~repro.core.coordinator.run_distributed`) verify the same
partition a single-host checkpointed run does, first cleanly and then
through a node-loss drill: one shard's node crashes mid-shard and
another's suffers a netsplit (heartbeats dropped, results buffered and
flushed late as a zombie flood). The contract under test:

* the campaign completes with full coverage despite the failures;
* no cell is double-counted — every key is journaled exactly once and
  the coordinator accepts no duplicate results;
* journaled cells are *not* recomputed after a steal (the stolen grant
  excludes them);
* the zombie's late flood is provably discarded (fenced frames > 0);
* the merged journal's canonical bytes are identical to the
  single-host journal's — distribution changes scheduling, never math.

Cell cost is tuned via ``substeps`` so shards take long enough that
lease expiry, work-stealing and the zombie flush all land while the
campaign is still running; the timings below keep a comfortable margin
over the 1.5 s netsplit window.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core import (
    DistributedSettings,
    ReachSettings,
    RunnerSettings,
    assign_shards,
    canonical_journal_bytes,
    grid_partition,
    run_distributed,
    verify_partition,
)
from repro.core.checkpoint import _cell_key
from repro.intervals import Box

from .fixtures import make_system

NUM_CELLS = 192
NUM_SHARDS = 6
# ~35 ms per cell: slow enough that a shard outlives the lease timeout
# below, fast enough that the whole drill stays in CI budget.
REACH = ReachSettings(substeps=60)


def campaign_cells():
    boxes = grid_partition(Box([1.6], [2.4]), [NUM_CELLS])
    return [(box, 1, {"idx": i}) for i, box in enumerate(boxes)]


def cell_records(journal_path):
    """The journal's cell entries (lease records skipped), in file order."""
    records = []
    for line in Path(journal_path).read_text().splitlines():
        entry = json.loads(line)
        if "key" in entry:
            records.append(entry)
    return records


@pytest.fixture(scope="module")
def single_host(tmp_path_factory):
    """Reference single-host checkpointed run over the same partition."""
    journal = tmp_path_factory.mktemp("single") / "journal.jsonl"
    report = verify_partition(
        make_system,
        campaign_cells(),
        RunnerSettings(workers=2, reach=REACH),
        journal=journal,
    )
    assert report.total_cells == NUM_CELLS
    return report, canonical_journal_bytes(journal)


class TestCleanRun:
    def test_distributed_matches_single_host(self, tmp_path, single_host):
        single_report, single_bytes = single_host
        journal = tmp_path / "journal.jsonl"
        report = run_distributed(
            make_system,
            campaign_cells(),
            journal,
            settings=RunnerSettings(reach=REACH),
            dist=DistributedSettings(
                num_shards=NUM_SHARDS, expected_nodes=3, lease_timeout=5.0
            ),
            nodes=3,
        )
        assert report.settings_summary.get("interrupted") is None
        assert report.total_cells == NUM_CELLS
        assert report.verdict_counts() == single_report.verdict_counts()
        assert canonical_journal_bytes(journal) == single_bytes

        stats = report.settings_summary["distributed"]
        assert stats["shards"] == NUM_SHARDS
        assert stats["grants"] == NUM_SHARDS
        assert stats["expired_leases"] == 0
        assert stats["fenced_frames"] == 0
        assert stats["duplicate_results"] == 0
        assert sorted(stats["nodes_seen"]) == ["node-0", "node-1", "node-2"]

    def test_cell_ids_match_single_host(self, tmp_path, single_host):
        """Grants carry global indices, so distributed results are
        indistinguishable from single-host ones cell-by-cell."""
        single_report, _ = single_host
        journal = tmp_path / "journal.jsonl"
        report = run_distributed(
            make_system,
            campaign_cells()[:12],
            journal,
            settings=RunnerSettings(reach=REACH),
            dist=DistributedSettings(
                num_shards=3, expected_nodes=2, lease_timeout=5.0
            ),
            nodes=2,
        )
        for mine, theirs in zip(report.cells, single_report.cells[:12]):
            assert mine.cell_id == theirs.cell_id
            assert mine.verdict == theirs.verdict
            assert mine.tags == theirs.tags


class TestNodeLossDrill:
    def test_crash_and_netsplit_recovery(self, tmp_path, single_host):
        single_report, single_bytes = single_host
        cells = campaign_cells()
        keys = [_cell_key(box, command) for box, command, _tags in cells]
        shards = assign_shards(keys, NUM_SHARDS)
        # Initial grants are deterministic (sorted idle nodes x sorted
        # claimable shards), so these two shards land on *different*
        # nodes: one node dies mid-shard, another goes into a netsplit
        # and later floods the coordinator with stale frames.
        crash_shard = shards[0].shard_id
        split_shard = shards[1].shard_id
        journal = tmp_path / "journal.jsonl"

        start = time.perf_counter()
        report = run_distributed(
            make_system,
            cells,
            journal,
            settings=RunnerSettings(reach=REACH),
            dist=DistributedSettings(
                num_shards=NUM_SHARDS,
                expected_nodes=3,
                lease_timeout=1.0,
                reassign_backoff=0.1,
            ),
            nodes=3,
            node_env={
                "REPRO_FAULTS": (
                    f"node-crash:{crash_shard},node-netsplit:{split_shard}:1.5"
                )
            },
        )
        elapsed = time.perf_counter() - start

        # Completes with full coverage despite losing a node outright.
        assert report.settings_summary.get("interrupted") is None
        assert report.total_cells == NUM_CELLS
        assert report.verdict_counts() == single_report.verdict_counts()

        stats = report.settings_summary["distributed"]
        # Both faulted shards had their leases expired and re-granted.
        assert stats["expired_leases"] >= 2
        assert stats["stolen_cells"] > 0
        # The crash node journaled half its shard before dying; the
        # steal grant excluded those cells rather than recomputing them.
        assert stats["steal_excluded"] > 0
        # The netsplit node's buffered flood arrived under a stale
        # epoch and every frame of it was fenced, not merged.
        assert stats["fenced_frames"] > 0, (
            f"no zombie frames fenced (wall {elapsed:.1f}s) — "
            "netsplit flush landed after campaign end?"
        )
        # No cell was ever accepted twice.
        assert stats["duplicate_results"] == 0

        # Journal-level no-double-counting: every key exactly once.
        records = cell_records(journal)
        journaled_keys = [record["key"] for record in records]
        assert len(journaled_keys) == NUM_CELLS
        assert len(set(journaled_keys)) == NUM_CELLS
        assert set(journaled_keys) == set(keys)

        # Provenance: journaled results name the node that computed
        # them, and the faulted shards' cells came from >1 epoch.
        assert all(record.get("node") for record in records)
        epochs = {
            record["epoch"]
            for record in records
            if record.get("shard") == crash_shard
        }
        assert len(epochs) > 1

        # The merged journal is mathematically identical to single-host.
        assert canonical_journal_bytes(journal) == single_bytes


class TestNodePoolSettings:
    def test_every_campaign_field_reaches_the_node_pool(self, tmp_path):
        """`verify --distributed 2 --listen` with two remote agents: each
        node's pool runs the campaign's own settings except `workers`
        (the node's) and `deadline` (the coordinator's), and the
        campaign gets the same ledger record and summary label as a
        forked one."""
        import os
        import subprocess
        import sys
        import threading
        from dataclasses import replace

        import repro
        from repro.core import RefinementPolicy, run_node
        from repro.core.node import NodeSettings
        from repro.obs import latest_run

        ledger = tmp_path / "ledger"
        log = tmp_path / "coordinator.log"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        argv = [
            sys.executable, "-m", "repro", "verify", "--scenario", "tiny",
            "--arcs", "3", "--headings", "2", "--depth", "2", "--substeps", "7",
            "--gamma", "3", "--max-retries", "2", "--workers", "3",
            "--deadline", "600", "--distributed", "2",
            "--listen", "127.0.0.1:0", "--no-live", "--ledger-dir", str(ledger),
            "--journal", str(tmp_path / "journal.jsonl"),
        ]
        with open(log, "w") as stderr:
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr, text=True, env=env
            )
        try:
            address = None
            for _ in range(300):
                for line in log.read_text().splitlines():
                    if line.startswith("coordinator listening on "):
                        address = line.split()[3]
                if address or proc.poll() is not None:
                    break
                time.sleep(0.1)
            assert address, log.read_text()

            def build():
                from repro.acasxu import TINY_SCENARIO, build_system

                return build_system(TINY_SCENARIO)

            outcomes = []
            agents = [
                threading.Thread(
                    target=lambda i=i: outcomes.append(
                        run_node(NodeSettings(address, f"remote-{i}"), build)
                    )
                )
                for i in range(2)
            ]
            for agent in agents:
                agent.start()
            for agent in agents:
                agent.join(timeout=120)
            stdout, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, log.read_text()

        campaign = RunnerSettings(
            reach=ReachSettings(substeps=7, max_symbolic_states=3),
            refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=2),
            workers=3,
            deadline=600.0,
            max_retries=2,
        )
        assert len(outcomes) == 2
        assert sum(outcome.cells_computed for outcome in outcomes) == 6
        for outcome in outcomes:
            pool = outcome.settings
            assert (pool.workers, pool.deadline) == (1, None)
            assert replace(pool, workers=3, deadline=600.0) == campaign

        assert "wall time:" in stdout and "(2 nodes x 1 workers)" in stdout
        record = latest_run(ledger)
        assert record.kind == "verify"
        assert record.config["substeps"] == 7
        assert record.config["max_retries"] == 2
        assert sorted(record.nodes) == ["remote-0", "remote-1"]


class TestSettingsOverTheWire:
    def test_callable_settings_are_rejected(self, tmp_path):
        """Callables cannot reach a node agent, so the coordinator
        refuses them up front rather than letting agents drop them."""
        from repro.core import Coordinator, RefinementPolicy

        witness = RunnerSettings(witness_search=lambda system, box, command: None)
        with pytest.raises(ValueError, match="witness_search"):
            Coordinator(campaign_cells(), tmp_path / "journal.jsonl", settings=witness)
        influence = RunnerSettings(
            refinement=RefinementPolicy(
                dims=(0,), mode="influence", influence_fn=lambda box: [1.0]
            )
        )
        with pytest.raises(ValueError, match="influence_fn"):
            Coordinator(campaign_cells(), tmp_path / "journal.jsonl", settings=influence)

    def test_settings_round_trip_through_the_codec(self):
        from repro.core import RefinementPolicy

        settings = RunnerSettings(
            reach=ReachSettings(substeps=7, max_symbolic_states=3, early_exit_on_unsafe=False),
            refinement=RefinementPolicy(dims=(0, 2), max_depth=3, mode="influence"),
            workers=4,
            cell_timeout=7.0,
            deadline=60.0,
            max_retries=3,
            retry_backoff=0.5,
            witness_timeout=2.0,
        )
        wire = json.loads(json.dumps(settings.to_dict()))
        assert RunnerSettings.from_dict(wire) == settings
