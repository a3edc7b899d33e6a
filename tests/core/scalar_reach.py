"""Test-only oracle: the per-state reachability loop.

:func:`repro.core.reach.reach_many` is the only driver the program
has. This module keeps the plain state-by-state loop of Algorithm 3
over the scalar interval kernels, so ``test_reach_batch.py`` can still
compare the lockstep driver byte for byte against an independent
implementation.
"""

from __future__ import annotations

from repro.core.reach import ReachResult, ReachSettings, TubeSegment, Verdict
from repro.core.runner import RunnerSettings
from repro.core.result import CellResult
from repro.core.symbolic import SymbolicSet, SymbolicState, resize
from repro.core.system import ClosedLoopSystem
from repro.sets import resolve_for_command


def scalar_reach(
    system: ClosedLoopSystem,
    initial: SymbolicSet,
    settings: ReachSettings | None = None,
) -> ReachResult:
    """Algorithm 3 state by state: one scalar ``Plant.flow`` and one
    ``execute_abstract`` per symbolic state, no batching anywhere."""
    settings = settings or ReachSettings()
    if len(initial) == 0:
        raise ValueError("the initial symbolic set is empty")
    result = ReachResult(
        verdict=Verdict.SAFE_WITHIN_HORIZON,
        has_terminated=False,
        termination_step=None,
        steps_completed=0,
    )
    current = initial.copy()
    target, erroneous, period = system.target, system.erroneous, system.period
    unsafe_found = False
    if settings.record_sets:
        result.step_sets.append(current.copy())

    for j in range(system.horizon_steps):
        result.joins_performed += resize(current, settings.max_symbolic_states)
        active = [
            s
            for s in current
            if not resolve_for_command(target, s.command).contains_box(s.box)
        ]
        if not active:
            result.has_terminated = True
            result.termination_step = j
            break

        next_set = SymbolicSet()
        for state in active:
            erroneous_now = resolve_for_command(erroneous, state.command)
            pipe = system.plant.flow(
                j * period,
                (j + 1) * period,
                state.box,
                system.commands.value(state.command),
                settings.substeps,
            )
            result.integrations += len(pipe.steps)
            for step in pipe.steps:
                if settings.record_sets:
                    result.tube.append(
                        TubeSegment(step.t_start, step.t_end, step.range_box, state.command)
                    )
                if not erroneous_now.disjoint_box(step.range_box):
                    unsafe_found = True
                    if result.unsafe_time is None:
                        result.unsafe_time = step.t_start
                        result.unsafe_command = state.command
                    if settings.early_exit_on_unsafe:
                        result.verdict = Verdict.POSSIBLY_UNSAFE
                        result.steps_completed = j
                        return result
            next_commands = system.controller.execute_abstract(state.box, state.command)
            result.controller_evaluations += 1
            for command in next_commands:
                next_set.add(SymbolicState(pipe.end_box, command))

        current = next_set
        result.steps_completed = j + 1
        if settings.record_sets:
            result.step_sets.append(current.copy())
        # Algorithm 3 line 23: all fresh states inside T => terminated.
        if all(
            resolve_for_command(target, s.command).contains_box(s.box)
            for s in current
        ):
            result.has_terminated = True
            result.termination_step = j + 1
            break

    if unsafe_found:
        result.verdict = Verdict.POSSIBLY_UNSAFE
    elif result.has_terminated:
        result.verdict = Verdict.PROVED_SAFE
    return result


def scalar_verify_cell(
    system: ClosedLoopSystem,
    box,
    command: int,
    settings: RunnerSettings,
    cell_id: str = "cell",
    depth: int = 0,
) -> CellResult:
    """Split refinement as a depth-first recursion over
    :func:`scalar_reach` (no witness search)."""
    outcome = scalar_reach(
        system, SymbolicSet([SymbolicState(box, command)]), settings.reach
    )
    result = CellResult(
        cell_id=cell_id,
        box=box,
        command=command,
        verdict=outcome.verdict,
        depth=depth,
        steps_completed=outcome.steps_completed,
        joins_performed=outcome.joins_performed,
        integrations=outcome.integrations,
    )
    policy = settings.refinement
    if not result.proved and policy is not None and depth < policy.max_depth:
        for i, child in enumerate(policy.children(box)):
            result.children.append(
                scalar_verify_cell(
                    system, child, command, settings, f"{cell_id}.{i}", depth + 1
                )
            )
    return result
