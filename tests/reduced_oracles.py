"""Reference bodies of the reduced right-hand sides: one numpy expression
per row, the frustration's cos/sin and the initiative's sin taken afresh on
every call, rows stacked at the end.  The kernels in ``kuracomp.models``
must equal these bitwise."""

import numpy as np


def _initiative(delta):
    return 0.5 * (np.sin(delta) + 2.0)


def _centroid_cs(cfg, coupling, H1, H2):
    c = coupling.g12 * H1 * np.cos(cfg.phi) + coupling.g21 * H2 * np.cos(cfg.psi)
    s = coupling.g12 * H1 * np.sin(cfg.phi) - coupling.g21 * H2 * np.sin(cfg.psi)
    return c, s


def simple_reduced_rhs(y, cfg, coupling):
    P1, P2, delta = y[0], y[1], y[2]
    h1, h2 = 1.0 - P2, 1.0 - P1
    c, s = _centroid_cs(cfg, coupling, h1, h2)
    dP1 = cfg.r1 * P1 * (1 - P1) - cfg.beta2 * P1 * P2 * _initiative(-delta)
    dP2 = cfg.r2 * P2 * (1 - P2) - cfg.beta1 * P2 * P1 * _initiative(delta)
    ddelta = cfg.mu + s * np.cos(delta) - c * np.sin(delta)
    return np.stack(np.broadcast_arrays(dP1, dP2, ddelta), axis=0)


def eco2_reduced_rhs(y, cfg, coupling):
    P1, P2, delta = y[0], y[1], y[2]
    h1, h2 = 1.0 - P2, 1.0 - P1
    c, s = _centroid_cs(cfg, coupling, h1, h2)
    recruit1 = cfg.r1 * cfg.alpha * P2 / (1 + cfg.alpha * P2)
    holling = cfg.beta1 * P2 / (1 + cfg.tau * cfg.beta1 * P2)
    dP1 = (recruit1 * P1 * (1 - P1)
           - cfg.beta2 * P1 * P2 * _initiative(-delta) - cfg.x1 * P1)
    dP2 = cfg.r2 * P2 * (1 - P2) - holling * P1 * _initiative(delta)
    ddelta = cfg.mu + s * np.cos(delta) - c * np.sin(delta)
    return np.stack(np.broadcast_arrays(dP1, dP2, ddelta), axis=0)


def eco3_reduced_rhs(y, cfg, coupling):
    P1, P2, P3, d1, d2 = y[0], y[1], y[2], y[3], y[4]
    r1s = cfg.r1 * cfg.alpha * P2 / (1 + cfg.alpha * P2)
    r3s = (cfg.r3 + cfg.r3_max * P1) / (1 + P1)
    beta1s = (cfg.beta1 + cfg.beta1_min * P3) / (1 + P3)
    f12s = beta1s * P2 / (1 + cfg.tau * beta1s * P2)
    x3s = (cfg.x3 - (cfg.x3 - cfg.x3_min) * P1 / (1 + P1)
           + (cfg.x3_max - cfg.x3) * P2 / (1 + P2))
    dP1 = (r1s * P1 * (1 - P1 / cfg.K1)
           - cfg.beta2 * P1 * P2 * _initiative(-d1) - cfg.x1 * P1)
    dP2 = cfg.r2 * P2 * (1 - P2 / cfg.K2) - f12s * P1 * _initiative(d1)
    dP3 = r3s * P3 * (1 - P3 / cfg.K3) - x3s * P3
    h1 = np.clip(1.0 - P2 / cfg.K2, 0.0, 1.0)
    h2 = np.clip(1.0 - P1 / cfg.K1, 0.0, 1.0)
    blue_terms = coupling.g12 * np.sin(d1 - cfg.phi) + coupling.g13 * np.sin(d2)
    dd1 = (cfg.mu - h1 * blue_terms
           - h2 * (coupling.g21 * np.sin(d1 + cfg.psi)
                   - coupling.g23 * np.sin(d2 - d1)))
    dd2 = (cfg.nu - h1 * blue_terms
           - coupling.g31 * np.sin(d2) - coupling.g32 * np.sin(d2 - d1))
    return np.stack(np.broadcast_arrays(dP1, dP2, dP3, dd1, dd2), axis=0)


ORACLES = {"simple-reduced": simple_reduced_rhs,
           "eco2-reduced": eco2_reduced_rhs,
           "eco3-reduced": eco3_reduced_rhs}
