#!/usr/bin/env python3
"""Centroid-difference dynamics in closed form.

The reduced phase dynamics of two internally synchronised populations obey

    dDelta/dt = mu + S cos(Delta) - C sin(Delta)

whose behaviour is governed by the discriminant K = C^2 + S^2 - mu^2:
K > 0 gives a stable decision-posture fixed point, K < 0 gives periodic
phase slips (one side repeatedly laps the other in its decision cycle).
This script integrates both regimes numerically and overlays the exact
solution.
"""

import numpy as np

from kuracomp import analysis, solver
from kuracomp.solver import IntegratorSettings


def integrate_centroid(C, S, mu, d0, t_end=20.0):
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=t_end, dt_max=0.05)
    return solver.integrate(
        lambda y: np.array([mu + S * np.cos(y[0]) - C * np.sin(y[0])]),
        np.array([d0]), st)


def main():
    # locking regime
    C, S, mu, d0 = 2.0, 0.0, 0.2, 2.9
    traj = integrate_centroid(C, S, mu, d0)
    exact = analysis.delta_time_course(traj.t, C, S, mu, d0)
    print(f"K > 0 regime: K = {C*C + S*S - mu*mu:.3f}")
    print(f"  Delta* (closed form)     = {analysis.delta_star(C, S, mu):.6f}")
    print(f"  Delta(t_end) (numeric)   = {traj.y[-1, 0] % (2*np.pi):.6f}")
    print(f"  sup |numeric - closed|   = {np.max(np.abs(traj.y[:,0]-exact)):.2e}")

    # slipping regime
    C, S, mu, d0 = 2.0, 0.0, 3.0, 0.0
    period = analysis.slip_period(C, S, mu)
    traj = integrate_centroid(C, S, mu, d0, t_end=10 * period)
    slips = (traj.y[-1, 0] - d0) / (2 * np.pi)
    print(f"K < 0 regime: K = {C*C + S*S - mu*mu:.3f}")
    print(f"  predicted slip period    = {period:.6f}")
    print(f"  measured  slip period    = {traj.t[-1] / slips:.6f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, axes = plt.subplots(1, 2, figsize=(9, 3.2))
        C, S, mu, d0 = 2.0, 0.0, 0.2, 2.9
        traj = integrate_centroid(C, S, mu, d0)
        axes[0].plot(traj.t, traj.y[:, 0], "k-", lw=2, label="numeric")
        axes[0].plot(traj.t, analysis.delta_time_course(traj.t, C, S, mu, d0),
                     "r--", label="closed form")
        axes[0].set(title="locking (K > 0)", xlabel="t", ylabel="Delta")
        axes[0].legend()
        C, mu = 2.0, 3.0
        traj = integrate_centroid(C, 0.0, mu, 0.0, t_end=15.0)
        axes[1].plot(traj.t, traj.y[:, 0], "k-", lw=2)
        axes[1].set(title="phase slips (K < 0)", xlabel="t")
        fig.tight_layout()
        fig.savefig("demos_01_centroid.png", dpi=120)
        print("wrote demos_01_centroid.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
