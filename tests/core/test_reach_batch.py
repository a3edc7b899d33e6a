"""The lockstep driver against the per-state oracle.

The SoA kernels promise bitwise-identical results, so these tests
compare full driver outputs — verdicts, step counts, final symbolic
sets down to the endpoint bytes — between the test-only per-state loop
(:mod:`tests.core.scalar_reach`) and the lockstep driver the program
runs (:func:`~repro.core.reach.reach` is ``reach_many`` over one set),
plus the controller memo semantics the batched path shares with the
scalar one.
"""

import numpy as np

from repro.core import (
    ReachSettings,
    RefinementPolicy,
    RunnerSettings,
    SymbolicSet,
    SymbolicState,
    reach,
    verify_partition,
)
from repro.core.checkpoint import _normalize_result_dict
from repro.core.reach import reach_many
from repro.intervals import Box
from repro.obs import Recorder, use_recorder

from .fixtures import make_system, runaway_network
from .scalar_reach import scalar_reach, scalar_verify_cell


def initial_set(lo: float = 2.0, hi: float = 2.2, command: int = 0) -> SymbolicSet:
    return SymbolicSet([SymbolicState(Box([lo], [hi]), command)])


def assert_same_result(a, b, check_counters: bool = True) -> None:
    assert a.verdict == b.verdict
    assert a.steps_completed == b.steps_completed
    assert a.has_terminated == b.has_terminated
    assert a.termination_step == b.termination_step
    assert a.unsafe_time == b.unsafe_time
    assert a.unsafe_command == b.unsafe_command
    assert len(a.step_sets) == len(b.step_sets)
    for set_a, set_b in zip(a.step_sets, b.step_sets):
        assert len(set_a) == len(set_b)
        for sa, sb in zip(set_a, set_b):
            assert sa.command == sb.command
            assert sa.box.lo.tobytes() == sb.box.lo.tobytes()
            assert sa.box.hi.tobytes() == sb.box.hi.tobytes()
    assert len(a.tube) == len(b.tube)
    for ta, tb in zip(a.tube, b.tube):
        assert (ta.t_start, ta.t_end, ta.command) == (tb.t_start, tb.t_end, tb.command)
        assert ta.box.lo.tobytes() == tb.box.lo.tobytes()
        assert ta.box.hi.tobytes() == tb.box.hi.tobytes()
    if check_counters:
        assert a.joins_performed == b.joins_performed
        assert a.integrations == b.integrations
        assert a.controller_evaluations == b.controller_evaluations


RECORD = ReachSettings(substeps=4, record_sets=True)


class TestReachBatchStates:
    def test_regulated_loop_bitwise(self):
        system = make_system()
        assert_same_result(
            scalar_reach(system, initial_set(), RECORD),
            reach(system, initial_set(), RECORD),
        )

    def test_unsafe_loop_bitwise(self):
        system = make_system(network=runaway_network(), error_bound=4.0)
        oracle = scalar_reach(system, initial_set(), RECORD)
        lockstep = reach(system, initial_set(), RECORD)
        assert oracle.verdict.name == "POSSIBLY_UNSAFE"
        assert_same_result(oracle, lockstep)

    def test_multi_state_initial_set(self):
        system = make_system()
        multi = SymbolicSet(
            [
                SymbolicState(Box([2.0], [2.1]), 0),
                SymbolicState(Box([-2.1], [-2.0]), 1),
                SymbolicState(Box([0.5], [0.6]), 0),
            ]
        )
        assert_same_result(
            scalar_reach(system, multi.copy(), RECORD),
            reach(system, multi.copy(), RECORD),
        )


class TestReachMany:
    def test_matches_per_set_scalar_runs(self):
        system = make_system()
        initials = [
            initial_set(2.0, 2.2),
            initial_set(-2.2, -2.0, command=1),
            initial_set(3.0, 3.1),
        ]
        oracles = [scalar_reach(system, s.copy(), RECORD) for s in initials]
        batched = reach_many(system, [s.copy() for s in initials], RECORD)
        assert len(batched) == len(oracles)
        for a, b in zip(oracles, batched):
            assert_same_result(a, b, check_counters=True)

    def test_early_exit_counts_controller_evaluations(self):
        # A wave where one state goes unsafe while another state of the
        # same cell has already been processed: the per-state loop
        # evaluates the controller for the earlier state before
        # returning, and the wave driver must count the same work.
        system = make_system(network=runaway_network(), error_bound=4.0)
        multi = SymbolicSet(
            [
                SymbolicState(Box([0.1], [0.2]), 0),
                SymbolicState(Box([2.0], [2.2]), 0),
            ]
        )
        settings = ReachSettings(substeps=4)
        oracle = scalar_reach(system, multi.copy(), settings)
        [batched] = reach_many(system, [multi.copy()], settings)
        assert oracle.verdict.name == "POSSIBLY_UNSAFE"
        assert_same_result(oracle, batched, check_counters=True)


class TestLockstepPartition:
    CELLS = [
        (Box([2.0], [2.2]), 0, {"kind": "regulated"}),
        (Box([-2.2], [-2.0]), 1, {"kind": "mirror"}),
        (Box([4.0], [4.8]), 0, {"kind": "near-error"}),
        (Box([0.2], [0.4]), 0, {"kind": "inside-target"}),
    ]

    def test_batch_cells_matches_scalar(self):
        """The wave driver (all cells and their refinement children in
        shared waves) builds the same result trees as a depth-first
        per-state recursion, counters included."""
        system = make_system(horizon_steps=3)
        settings = RunnerSettings(
            reach=ReachSettings(substeps=4),
            refinement=RefinementPolicy(dims=(0,), max_depth=2),
        )
        report = verify_partition(lambda: system, self.CELLS, settings)
        assert any(cell.children for cell in report.cells)
        for i, ((box, command, tags), cell) in enumerate(zip(self.CELLS, report.cells)):
            oracle = scalar_verify_cell(system, box, command, settings, f"cell-{i}")
            oracle.tags.update(tags)
            assert _normalize_result_dict(cell.to_dict()) == _normalize_result_dict(
                oracle.to_dict()
            )


class TestControllerMemo:
    def test_memo_hit_on_repeated_box(self):
        system = make_system()
        controller = system.controller
        box = Box([0.5], [0.75])
        recorder = Recorder()
        with use_recorder(recorder):
            first = controller.execute_abstract(box, 0)
            second = controller.execute_abstract(box, 0)
        assert first == second
        counters = recorder.metrics.snapshot()["counters"]
        assert counters.get("verify.memo_hits", 0) == 1

    def test_batch_path_shares_the_memo(self):
        system = make_system()
        controller = system.controller
        boxes = [Box([0.5], [0.75]), Box([-0.75], [-0.5])]
        recorder = Recorder()
        with use_recorder(recorder):
            scalar_out = [
                controller.execute_abstract(b, 0) for b in boxes
            ]
            batch_out = controller.execute_abstract_batch(boxes, [0, 0])
        assert batch_out == scalar_out
        counters = recorder.metrics.snapshot()["counters"]
        # Every batch row was already memoized by the scalar calls.
        assert counters.get("verify.memo_hits", 0) == len(boxes)

    def test_lru_eviction(self):
        from repro.core import ArgminPost, CommandSet, Controller, IdentityPre
        from tests.core.fixtures import regulation_network

        controller = Controller(
            networks=[regulation_network()],
            commands=CommandSet(np.array([[1.0], [-1.0]])),
            pre=IdentityPre(),
            post=ArgminPost(),
            selector=lambda command: 0,
            memo_size=2,
        )
        boxes = [Box([float(i)], [float(i) + 0.5]) for i in range(3)]
        for box in boxes:
            controller.execute_abstract(box, 0)
        assert len(controller._memo) == 2
        recorder = Recorder()
        with use_recorder(recorder):
            # boxes[0] was evicted (LRU), boxes[2] is still cached.
            controller.execute_abstract(boxes[0], 0)
            hits_after_miss = recorder.metrics.snapshot()["counters"].get(
                "verify.memo_hits", 0
            )
            controller.execute_abstract(boxes[2], 0)
            hits_after_hit = recorder.metrics.snapshot()["counters"].get(
                "verify.memo_hits", 0
            )
        assert hits_after_miss == 0
        assert hits_after_hit == 1

    def test_memo_disabled(self):
        from repro.core import ArgminPost, CommandSet, Controller, IdentityPre
        from tests.core.fixtures import regulation_network

        no_memo = Controller(
            networks=[regulation_network()],
            commands=CommandSet(np.array([[1.0], [-1.0]])),
            pre=IdentityPre(),
            post=ArgminPost(),
            selector=lambda command: 0,
            memo_size=0,
        )
        box = Box([0.5], [0.75])
        recorder = Recorder()
        with use_recorder(recorder):
            no_memo.execute_abstract(box, 0)
            no_memo.execute_abstract(box, 0)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters.get("verify.memo_hits", 0) == 0
        assert len(no_memo._memo) == 0
