#!/usr/bin/env python3
"""Networked model against its centroid reduction.

Builds the hierarchical-vs-random two-network pairing (21-node 4-ary tree
against a 21-node Erdos-Renyi graph, tactical nodes cross-linked, couplings
normalised so the reduced couplings are 1), starts both the order-parameter
feedback model and the reduced model from the same resources and centroid
difference, and reports how closely the population trajectories agree.

With strong internal coupling (sigma = 4 and 2) and a decisive reduction
rate the two stay within a few thousandths of each other; in coexistence
regimes the feedback model eventually departs because the losing side's
oscillators decouple and desynchronise - run with beta1 = 2 to see it.
"""

import sys

import numpy as np

from kuracomp import analysis, graphs, models, presets, solver
from kuracomp.models import CentroidCoupling, ModelConfig
from kuracomp.solver import IntegratorSettings


def main(beta1=3.5):
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=beta1, beta2=2.0, mu=0.2,
                      phi=0.2, psi=0.0)
    tree = graphs.gen_kary_tree(4, 2)
    er = graphs.gen_erdos_renyi(21, 0.2, seed=1000)
    links = {(0, 1): [(i, i) for i in range(5, 21)]}
    xi = graphs.xi_paper_normalization([tree, er], links)
    omega = presets.sample_omega([21, 21], mu=0.2, nu=0.0, seed=2000)
    net = graphs.assemble([tree, er], links, sigma=[4.0, 2.0], xi=xi,
                          omega=omega)
    coup = CentroidCoupling.from_network(net)
    print(f"reduced couplings from the network: g12 = {coup.g12:.3f}, "
          f"g21 = {coup.g21:.3f}")

    co = models.centroid_coeffs(cfg, coup, 1.0, 1.0)
    d0 = analysis.delta_star(co.C, co.S, cfg.mu)
    theta0 = np.zeros(net.n_total)
    theta0[net.nodes_of(1)] = -d0
    st = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=20.0, dt_max=0.05)

    full = models.build_system("feedback", cfg, net=net)
    tf = solver.integrate(full.rhs, np.concatenate([[0.5, 0.5], theta0]), st)
    red = models.build_system("simple-reduced", cfg, coupling=coup)
    tr = solver.integrate(red.rhs, np.array([0.5, 0.5, d0]), st)

    ts = np.linspace(0, 20, 401)
    pf = tf.interpolate(ts)[:, :2]
    pr = tr.interpolate(ts)[:, :2]
    print(f"beta1 = {beta1}: sup |P_full - P_reduced| on [0, 20] = "
          f"{np.max(np.abs(pf - pr)):.4f}")
    for t_idx in (0, 100, 200, 400):
        print(f"  t = {ts[t_idx]:5.1f}: full P = ({pf[t_idx,0]:.4f}, "
              f"{pf[t_idx,1]:.4f}), reduced P = ({pr[t_idx,0]:.4f}, "
              f"{pr[t_idx,1]:.4f})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(6, 3.6))
        ax.plot(ts, pf[:, 0], "b-", label="P1 full")
        ax.plot(ts, pr[:, 0], "b--", label="P1 reduced")
        ax.plot(ts, pf[:, 1], "r-", label="P2 full")
        ax.plot(ts, pr[:, 1], "r--", label="P2 reduced")
        ax.set(xlabel="t", ylabel="resources",
               title=f"feedback model vs reduction (beta1 = {beta1})")
        ax.legend()
        fig.tight_layout()
        fig.savefig("demos_03_full_vs_reduced.png", dpi=120)
        print("wrote demos_03_full_vs_reduced.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 3.5)
