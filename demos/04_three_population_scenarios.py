#!/usr/bin/env python3
"""Three-population scenarios: tactical agility and decision posture.

Runs the two shipped dimensional scenarios over a phase-randomised
ensemble.  They differ only in Blue's tactical agility and its frustration
(how far ahead of Red it aims to sit in the decision cycle):

    fig3a: beta1 = 1.5, phi = -pi/2  -> Red wins
    fig3b: beta1 = 5.0, phi = +pi/2  -> Blue wins

Also writes the fig3b trajectory CSV for external plotting.
"""

import numpy as np

from kuracomp import models, presets, solver
from kuracomp.solver import IntegratorSettings


def main():
    for name in ("fig3a", "fig3b"):
        p = presets.get_preset(name)
        net = presets.build_network(p["network"], master_seed=42)
        cfg = models.ModelConfig(**p["params"])
        system = models.build_system("eco3", cfg, net=net)
        res = solver.ensemble(system, [5.0, 5.0, 5.0], n_sim=20, seed=42,
                              settings=IntegratorSettings(**p["solver"]))
        print(f"{name}: beta1 = {cfg.beta1}, phi = {cfg.phi:+.3f} -> "
              f"fractions {res.fractions}")

    # one full trajectory of the Blue-success case
    p = presets.get_preset("fig3b")
    net = presets.build_network(p["network"], master_seed=42)
    cfg = models.ModelConfig(**p["params"])
    system = models.build_system("eco3", cfg, net=net)
    rng = np.random.default_rng(7)
    theta0 = rng.uniform(0, 2 * np.pi, net.n_total)
    y0 = np.concatenate([[5.0, 5.0, 5.0], theta0])
    out = solver.run_scenario(system, y0, IntegratorSettings(**p["solver"]))
    print(f"fig3b single run: winner = {out.winner} at t = {out.t_event:.2f}")
    out.trajectory.to_csv("demos_04_fig3b_trajectory.csv", system.labels)
    print("wrote demos_04_fig3b_trajectory.csv")


if __name__ == "__main__":
    main()
