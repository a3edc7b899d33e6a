#!/usr/bin/env python3
"""Second case study: an inverted pendulum with a distilled NN controller.

The paper's model is generic — any continuous-time plant plus any
ReLU-network controller with finite commands. This example exercises it
on the classic NNCS benchmark family (Verisig / ReachNN style):

* plant: inverted pendulum  theta' = omega,
  omega' = g/l * sin(theta) - b*omega + u  (torque commands);
* controller: a ReLU network *trained by this library's own trainer*
  to imitate a quantized PD stabilizer, argmin post-processing over 5
  discrete torques;
* safety: the pendulum must never fall past |theta| >= 1 rad (E);
* mission: settle into the band |theta|, |omega| <= 0.3 (T).

Unlike ACAS Xu there is no closed-form flow here, so the generic
validated Taylor integrator does the plant over-approximation — the
configuration the paper assumes when it cites DynIBEX.

Run:  python examples/pendulum.py
"""

import numpy as np

from repro.baselines import simulate
from repro.core import (
    ArgminPost,
    ClosedLoopSystem,
    CommandSet,
    Controller,
    Plant,
    ReachSettings,
    reach_from_box,
)
from repro.intervals import Box
from repro.nn import Network, TrainingConfig, train_regression
from repro.ode import IntegratorSettings, ODESystem, TaylorIntegrator
from repro.ode.ops import gsin
from repro.sets import BoxSet, UnionSet

GRAVITY_OVER_LENGTH = 1.0
DAMPING = 0.4
TORQUES = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
PERIOD = 0.25


def pendulum_rhs(t, s, u):
    theta, omega = s
    return [omega, GRAVITY_OVER_LENGTH * gsin(theta) - DAMPING * omega + float(u[0])]


def pd_policy(theta: float, omega: float) -> int:
    """The teacher: a PD stabilizer quantized to the torque set."""
    torque = -3.0 * theta - 1.5 * omega
    return int(np.argmin(np.abs(TORQUES - torque)))


def train_controller(seed: int = 0) -> Network:
    """Distill the PD teacher into score form: score_i = |u_i - u_pd|.

    Regressing the per-command *score* (distance of each discrete
    torque from the teacher's continuous torque) makes argmin of the
    network reproduce the teacher — the same distillation shape as the
    ACAS tables-to-networks pipeline.
    """
    rng = np.random.default_rng(seed)
    states = rng.uniform([-1.2, -2.0], [1.2, 2.0], size=(6000, 2))
    teacher_torque = -3.0 * states[:, 0] - 1.5 * states[:, 1]
    targets = np.abs(TORQUES[None, :] - teacher_torque[:, None])
    network = Network.random([2, 24, 24, 5], np.random.default_rng(seed + 1))
    train_regression(
        network,
        states,
        targets,
        TrainingConfig(epochs=250, learning_rate=3e-3, seed=seed),
    )
    agreement = np.mean(
        np.argmin(network.forward_batch(states), axis=1)
        == np.array([pd_policy(t, w) for t, w in states])
    )
    print(f"controller distilled: {agreement * 100:.1f}% command agreement "
          "with the PD teacher")
    return network


def build_system(network: Network) -> ClosedLoopSystem:
    commands = CommandSet(TORQUES[:, None],
                          names=[f"{t:+.1f}" for t in TORQUES])
    controller = Controller(
        networks=[network], commands=commands, post=ArgminPost()
    )
    ode = ODESystem(rhs=pendulum_rhs, dim=2, name="pendulum")
    plant = Plant(ode, TaylorIntegrator(ode, IntegratorSettings(order=6)))
    erroneous = UnionSet(
        [
            BoxSet(Box([1.0, -np.inf], [np.inf, np.inf])),
            BoxSet(Box([-np.inf, -np.inf], [-1.0, np.inf])),
        ]
    )
    # The settled band: |theta| small, swing speed bounded. It behaves
    # as an attractor under the PD-distilled controller (Remark 2).
    target = BoxSet(Box([-0.3, -0.9], [0.3, 0.9]))
    return ClosedLoopSystem(
        plant=plant,
        controller=controller,
        period=PERIOD,
        erroneous=erroneous,
        target=target,
        horizon_steps=20,
        name="pendulum-stabilizer",
    )


def main() -> None:
    network = train_controller()
    system = build_system(network)

    # The open-loop pendulum is unstable (boxes expand ~e^{lambda*T}
    # per period), so — exactly as the paper argues for ACAS Xu — the
    # initial region must be partitioned into small cells. A single box
    # over the whole region fails; 0.02-wide cells verify.
    from repro.core import grid_partition

    region = Box([0.30, -0.05], [0.50, 0.05])
    wide = reach_from_box(
        system, region, 2, ReachSettings(substeps=4, max_symbolic_states=10)
    )
    print(f"\nwhole region as one box: {wide.verdict.value} "
          "(over-approximation too coarse — as expected)")

    from repro.core import (
        RefinementPolicy,
        RunnerSettings,
        VerificationReport,
        verify_cells,
    )

    cells = grid_partition(region, [10, 5])
    settings = RunnerSettings(
        reach=ReachSettings(substeps=4, max_symbolic_states=10),
        refinement=RefinementPolicy(dims=(0, 1), max_depth=2),
    )
    # All 50 cells (and their refinement children) in lockstep waves.
    results = verify_cells(
        system, [(f"cell-{i}", cell, 2, {}) for i, cell in enumerate(cells)], settings
    )
    report = VerificationReport(cells=results, system_name=system.name)
    directly = sum(1 for r in results if r.proved)
    print(f"partitioned into {len(cells)} cells of width 0.02: "
          f"{directly}/{len(cells)} proved directly; split refinement "
          f"(depth 2) lifts coverage to {report.coverage_percent():.1f}%")

    # Concrete cross-check.
    rng = np.random.default_rng(1)
    print("\nconcrete cross-check (8 random drops from the region):")
    falls = 0
    for _ in range(8):
        s0 = region.sample(rng, 1)[0]
        trajectory = simulate(system, s0, 2, samples_per_period=4)
        falls += trajectory.reached_error
    print(f"  falls: {falls}/8")

    print("\nThe same pipeline that verified ACAS Xu proves the pendulum "
          "loop safe cell by cell — including the partitioning lesson: "
          "provability is a function of cell size (Section 7.1).")


if __name__ == "__main__":
    main()
