"""Workload definitions: which cells each campaign verifies, and how.

Everything here is a pure function of the workload name and the seed,
so the same seed always gives the same cells. ``repro`` is imported
inside the functions that need it: the campaign process times its own
``import repro`` and must not pay for it before the clock starts.

Fine workloads draw from ``pool.json``, a fixed uniform sample of the
paper's 629 x 316 partition labelled once (``make_reference.py``) with
the verdict tree and the number of validated integrations (its work)
of each cell's depth-2 verification. The per-seed order is a
*stratified* permutation over the pool sorted by work (see
:func:`stratified_order`), and each fine workload takes a prefix of
it. Without the stratification, one cell in seven costs ~200x the
others (it fails at depth 0 and all 73 runs of its depth-2 tree are
spent), and the campaign time of a 50-cell sample swings by a factor
of two between seeds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"
REFERENCE_PATH = HERE / "reference.json"

#: The seed whose verdicts and coverage are stored in ``reference.json``.
DEFAULT_SEED = 0

#: The paper's partition (Section 7.1): 0.01 rad arcs and headings.
PAPER_ARCS = 629
PAPER_HEADINGS = 316

#: Resolution of the scrambled sequence that orders the fine pool.
SCRAMBLE_BITS = 20


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "tiny" | "paper"
    depth: int
    #: Top-level cells in one campaign.
    cells: int
    #: Node agents (of one worker each) of a loopback
    #: ``run_distributed`` campaign; 0 runs serially.
    nodes: int = 0
    #: Coarse grid only: arcs x headings over the whole ring.
    grid: tuple[int, int] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coarse-serial", "tiny", depth=1, cells=48, grid=(12, 4)),
        Workload("fine-serial", "paper", depth=2, cells=100),
        Workload("fine-dist2", "paper", depth=2, cells=48, nodes=2),
    )
}


def scenario_config(workload: Workload):
    from repro.acasxu import PAPER_SCENARIO, TINY_SCENARIO

    return TINY_SCENARIO if workload.scenario == "tiny" else PAPER_SCENARIO


def runner_settings(workload: Workload):
    """The settings ``repro verify`` builds by default for this mode.

    With one worker (serially, and per node of a distributed run) and
    no budget, the CLI runs lockstep waves (``batch_cells``) and not
    ``batch_states``. Those two fields are passed only while the
    settings classes still have them, so deleting them from the program
    needs no edit here.
    """
    from repro.core import ReachSettings, RefinementPolicy, RunnerSettings

    reach_kw = {"substeps": 10, "max_symbolic_states": 5}
    if _has_field(ReachSettings, "batch_states"):
        reach_kw["batch_states"] = False
    runner_kw = {}
    if _has_field(RunnerSettings, "batch_cells"):
        runner_kw["batch_cells"] = True
    return RunnerSettings(
        reach=ReachSettings(**reach_kw),
        refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=workload.depth),
        **runner_kw,
    )


def distributed_settings(cell_count: int):
    """Shard count of a distributed campaign: two buckets per cell
    (``repro verify --num-shards``), so most shards hold one cell.

    With the default 8 shards, one shard can hold several of the heavy
    cells (about 10 s each on the per-cell driver), and the campaign
    time of a 48-cell sample then depends on where they hash: it varied
    from 31 s to 47 s between seeds. Fine shards keep the coordinator,
    lease and wire layers busy and leave ``node.busy_frac`` to show the
    idle time that remains.
    """
    from repro.core import DistributedSettings

    return DistributedSettings(num_shards=2 * cell_count)


def _has_field(cls, name: str) -> bool:
    return any(f.name == name for f in dataclasses.fields(cls))


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def load_pool() -> list[dict]:
    with open(POOL_PATH) as handle:
        return json.load(handle)["cells"]


def stratified_order(pool: list[dict], seed: int) -> list[int]:
    """Indices into ``pool``: the seeded stratified permutation.

    The pool is sorted by work (ties broken at random) and read at the
    points of an Owen-scrambled van der Corput sequence: the first
    ``2**m`` points fall one in each of ``2**m`` equal slices of that
    order, at independent random offsets. So every prefix is a uniform
    sample of the pool that holds light and heavy cells in their pool
    proportions, and its total work hardly depends on the seed.
    """
    rng = random.Random(seed)
    by_work = sorted(range(len(pool)), key=lambda i: (pool[i]["work"], rng.random()))
    flips: dict[tuple[int, int], int] = {}

    def point(k: int) -> float:
        # Bit j of the radical inverse of k, flipped by a random bit
        # drawn once per (depth, leading bits) node of the binary tree.
        x = 0
        for j in range(SCRAMBLE_BITS):
            bit = (k >> j) & 1
            node = (j, k & ((1 << j) - 1))
            if node not in flips:
                flips[node] = rng.getrandbits(1)
            x = (x << 1) | (bit ^ flips[node])
        return x / (1 << SCRAMBLE_BITS)

    out: list[int] = []
    seen: set[int] = set()
    k = 0
    while len(out) < len(pool):
        i = by_work[int(point(k) * len(pool))]
        k += 1
        if i not in seen:
            seen.add(i)
            out.append(i)
    return out


def fine_cell(arc: int, heading: int):
    """Cell ``(arc, heading)`` of the paper's partition, built exactly
    as :func:`repro.acasxu.initial_cells` builds it."""
    import numpy as np

    from repro.acasxu import COC_INDEX, initial_cell
    from repro.intervals import Interval

    arc_edges = np.linspace(-math.pi, math.pi, PAPER_ARCS + 1)
    head_edges = np.linspace(-math.pi / 2.0, math.pi / 2.0, PAPER_HEADINGS + 1)
    arc_iv = Interval(arc_edges[arc], arc_edges[arc + 1])
    head_iv = Interval(head_edges[heading], head_edges[heading + 1])
    tags = {"arc": arc, "heading": heading, "arc_angle": float(arc_iv.mid)}
    return initial_cell(arc_iv, head_iv), COC_INDEX, tags


def coarse_cells(workload: Workload, seed: int):
    """The coarse grid, rotated by a seeded fraction of one arc width."""
    from repro.acasxu import initial_cells

    arcs, headings = workload.grid
    shift = random.Random(seed).random() * 2.0 * math.pi / arcs
    return initial_cells(
        arcs, headings, arc_range=(-math.pi + shift, math.pi + shift)
    )


def make_cells(workload: Workload, seed: int):
    """``(cells, expected)``: the campaign's cells, and per cell the
    pool's stored verdict tree (``None`` for the coarse grid, whose
    reference exists for the default seed only)."""
    if workload.grid is not None:
        cells = coarse_cells(workload, seed)
        return cells, [None] * len(cells)
    pool = load_pool()
    chosen = [pool[i] for i in stratified_order(pool, seed)[: workload.cells]]
    cells = [fine_cell(c["arc"], c["heading"]) for c in chosen]
    return cells, [c["tree"] for c in chosen]


# ----------------------------------------------------------------------
# Verdict trees
# ----------------------------------------------------------------------
VERDICT_CODES = {
    "proved-safe": "P",
    "safe-within-horizon": "H",
    "possibly-unsafe": "U",
    "aborted": "A",
    "timed-out": "T",
}


def verdict_tree(result) -> str:
    """Compact verdict tree of one cell: ``U(PPPPPPPP)`` is a cell not
    proved at depth 0 whose eight children all were."""
    code = VERDICT_CODES[result.verdict.value]
    if not result.children:
        return code
    return code + "(" + "".join(verdict_tree(c) for c in result.children) + ")"


def tree_stats(result) -> dict:
    """Counts that must repeat exactly for one cell's tree."""
    stats = {
        "reach_runs": 1,
        "refinements": 1 if result.children else 0,
        "steps": result.steps_completed,
        "joins": result.joins_performed,
        "integrations": result.integrations,
    }
    for child in result.children:
        for key, value in tree_stats(child).items():
            stats[key] += value
    return stats
