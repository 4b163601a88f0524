"""Reference bodies of the two reduced fixed-point drivers.

Each variant had its own driver: the boundary loop, the Delta* seed at
(0.5, 0.5), the damped interior iteration, the residual gate with its Newton
polish, the physical-range check and the record; each hand-coded Jacobian
wrote its own Delta row, and the record took its status from the caller.
``simple`` gates inside its FP4 solver; ``eco2`` gates in its caller and
judges the physical range on the damped iterate, before the polish.  Both
now drop a polished interior candidate that lands within 1e-9 of a boundary
position in (P1, P2), with a note: the polish found that boundary point again.
``kuracomp.analysis._fixed_points`` must equal these bitwise in label, state,
eigenvalues, classification and residual; its status describes the reported
state.

``eco2_cubic_coeffs`` gives the interior cubic's coefficients, so a
companion-matrix solve can check the closed-form roots.

The scalar arithmetic of the one-point-at-a-time solve is kept here as it
was: ``delta_star`` (None where K < 0), ``_delta_at``, ``_simple_fp4_map``
and ``eco2_cubic_roots``.  The library evaluates them over arrays of
candidates, so these copies anchor its bits to the scalar evaluation."""

import numpy as np

from kuracomp.analysis import (_DAMPING, _FP_MAX_ITER, _FP_TOL,
                               BOUNDARY_TOL, IMAG_TOL, RESIDUAL_GATE,
                               FixedPointRecord, _newton_polish, classify,
                               eco2_back_substitute, eigenvalues)
from kuracomp.models import (CentroidCoupling, ModelConfig, _frustration,
                             centroid_coeffs, eco2_reduced_rhs,
                             simple_reduced_rhs)


def delta_star(C, S, mu):
    """Stable fixed point of the centroid ODE (the t -> infinity limit),
    or None when C^2 + S^2 < mu^2 (no fixed point exists).

    Evaluated through whichever of the two algebraically equal forms
    (C - sqrt(K))/(mu - S) == (mu + S)/(C + sqrt(K)) is well conditioned,
    which also covers the degenerate branch mu = S.
    """
    K = C * C + S * S - mu * mu
    if K < 0:
        return None
    sq = np.sqrt(K)
    d1, d2 = mu - S, C + sq
    if abs(d1) < 1e-300 and abs(d2) < 1e-300:
        return np.pi
    if abs(d1) >= abs(d2):
        return 2.0 * np.arctan((C - sq) / d1)
    return 2.0 * np.arctan((mu + S) / d2)


def _delta_at(cfg, coupling, P1, P2):
    co = centroid_coeffs(cfg, coupling, 1.0 - P2, 1.0 - P1)
    return delta_star(co.C, co.S, cfg.mu)


def _simple_fp4_map(cfg, delta):
    sd = np.sin(delta)
    den = 4 * cfg.r1 * cfg.r2 + cfg.beta1 * cfg.beta2 * (sd ** 2 - 4)
    if abs(den) < 1e-14:
        return None
    p1 = 2 * cfg.r2 * (2 * cfg.r1 + cfg.beta2 * sd - 2 * cfg.beta2) / den
    p2 = 2 * cfg.r1 * (2 * cfg.r2 - cfg.beta1 * sd - 2 * cfg.beta1) / den
    return p1, p2


def eco2_cubic_roots(cfg: ModelConfig, delta) -> np.ndarray:
    """The three interior-candidate roots in P2 via the cube-root closed
    forms (Cardano): root_k = (F1 - z^k Ct - F2/(z^k Ct)) / (3 a3) with
    Ct = -2^(-1/3) F3, F3 = (chi + sqrt(chi^2 - 4 F2^3))^(1/3).

    F1, F2 and chi are evaluated from their printed expansions in the
    shorthand (delta, beta2~); both sqrt branches are tried when F3
    degenerates.
    """
    dlt = 0.5 * (np.sin(delta) + 2.0)
    b2t = cfg.beta2 * 0.5 * (2.0 - np.sin(delta))
    r1, r2, b1, a, t, x1 = cfg.r1, cfg.r2, cfg.beta1, cfg.alpha, cfg.tau, cfg.x1

    F1 = a * (b1 * dlt * b2t + (b1 * t - 1) * r1 * r2)
    xi = (2 * a + 3) * b1 * b2t * t - 2 * a * b2t + 3 * a * b1 * t * x1
    F2 = a * (a * b1 ** 2 * dlt ** 2 * b2t ** 2 + b1 * dlt * xi * r1 * r2
              + a * r1 ** 2 * r2 * (-3 * b1 ** 2 * dlt * t
                                    + (1 + b1 * t + b1 ** 2 * t ** 2) * r2))
    chi = a ** 2 * (
        2 * b1 ** 3 * a * dlt ** 3 * b2t ** 3
        + 3 * b1 ** 2 * dlt ** 2 * b2t * xi * r1 * r2
        + (b1 * t - 1) * a * r1 ** 3 * r2 ** 2
        * (-9 * b1 ** 2 * dlt * t + (2 + 5 * b1 * t + 2 * b1 ** 2 * t ** 2) * r2)
        + 3 * b1 * dlt * r1 ** 2 * r2
        * (-3 * a * b1 ** 2 * dlt * t * b2t
           + r2 * (-xi + b1 * t * (xi + 3 * a * b2t + 9 * b1 * t * x1))))

    a3 = a * b1 * t * r1 * r2
    disc = complex(chi) ** 2 - 4.0 * complex(F2) ** 3
    sq = np.sqrt(disc)
    f3 = (complex(chi) + sq) ** (1.0 / 3.0)
    if abs(f3) < 1e-12 * max(1.0, abs(chi)) ** (1 / 3):
        f3 = (complex(chi) - sq) ** (1.0 / 3.0)
    if abs(f3) < 1e-300:
        # triple root
        return np.full(3, F1 / (3.0 * a3), dtype=complex)
    ct = -(2.0 ** (-1.0 / 3.0)) * f3
    zeta = np.exp(2j * np.pi / 3.0)
    roots = []
    for k in range(3):
        c_k = (zeta ** k) * ct
        roots.append((F1 - c_k - F2 / c_k) / (3.0 * a3))
    return np.array(roots, dtype=complex)


def _make_record(label, state, rhs, jac_fn, physical=True):
    state = np.asarray(state, dtype=float)
    residual = float(np.max(np.abs(rhs(state))))
    eigs = eigenvalues(jac_fn(state))
    return FixedPointRecord(
        label=label, state=state, eigenvalues=eigs,
        classification=classify(eigs), residual=residual,
        status="verified" if physical else "outside-range")


def _dropped_on_boundary(label, state, boundary, notes):
    for name, (p1, p2) in boundary:
        if (abs(state[0] - p1) <= BOUNDARY_TOL
                and abs(state[1] - p2) <= BOUNDARY_TOL):
            notes.append(f"{label}: polished onto {name}'s position "
                         f"(P1={state[0]:.3g}, P2={state[1]:.3g}), dropped")
            return True
    return False


def simple_reduced_jacobian(state, cfg, coupling):
    P1, P2, d = state
    g1, g2 = coupling.g12, coupling.g21
    phi, psi = cfg.phi, cfg.psi
    co = centroid_coeffs(cfg, coupling, 1.0 - P2, 1.0 - P1)
    sd, cd = np.sin(d), np.cos(d)
    return np.array([
        [cfg.r1 * (1 - 2 * P1) - 0.5 * cfg.beta2 * P2 * (2 - sd),
         -0.5 * cfg.beta2 * P1 * (2 - sd),
         0.5 * cfg.beta2 * P1 * P2 * cd],
        [-0.5 * cfg.beta1 * P2 * (2 + sd),
         cfg.r2 * (1 - 2 * P2) - 0.5 * cfg.beta1 * P1 * (2 + sd),
         -0.5 * cfg.beta1 * P1 * P2 * cd],
        [g2 * np.sin(psi + d), g1 * np.sin(d - phi),
         -co.S * sd - co.C * cd],
    ])


def eco2_reduced_jacobian(state, cfg, coupling):
    P1, P2, d = state
    g1, g2 = coupling.g12, coupling.g21
    phi, psi = cfg.phi, cfg.psi
    co = centroid_coeffs(cfg, coupling, 1.0 - P2, 1.0 - P1)
    sd, cd = np.sin(d), np.cos(d)
    a, t = cfg.alpha, cfg.tau
    den_a = 1 + a * P2
    den_h = 1 + t * cfg.beta1 * P2
    j11 = (2 * a * (1 - 2 * P1) * cfg.r1 * P2
           + den_a * (cfg.beta2 * P2 * (sd - 2) - 2 * cfg.x1)) / (2 * den_a)
    j12 = 0.5 * P1 * cfg.beta2 * (sd - 2) - a * (P1 - 1) * P1 * cfg.r1 / den_a ** 2
    j13 = 0.5 * cfg.beta2 * P1 * P2 * cd
    j21 = -cfg.beta1 * P2 * (sd + 2) / (2 * den_h)
    j22 = cfg.r2 * (1 - 2 * P2) - cfg.beta1 * P1 * (sd + 2) / (2 * den_h ** 2)
    j23 = -cfg.beta1 * P1 * P2 * cd / (2 * den_h)
    return np.array([
        [j11, j12, j13],
        [j21, j22, j23],
        [g2 * np.sin(psi + d), g1 * np.sin(d - phi), -co.S * sd - co.C * cd],
    ])


def simple_fixed_points(cfg, coupling=None, diagnostics=None):
    if coupling is None:
        coupling = CentroidCoupling.from_config(cfg)
    notes = diagnostics if diagnostics is not None else []
    fr = _frustration(cfg)
    rhs = lambda s: simple_reduced_rhs(s, cfg, coupling, fr)
    jac = lambda s: simple_reduced_jacobian(s, cfg, coupling)
    records = []
    boundary = (("FP1", (1.0, 0.0)), ("FP2", (0.0, 1.0)), ("FP3", (0.0, 0.0)))
    for label, (p1, p2) in boundary:
        d = _delta_at(cfg, coupling, p1, p2)
        if d is None:
            notes.append(f"{label}: no centroid fixed point (K < 0)")
            continue
        records.append(_make_record(label, (p1, p2, d), rhs, jac))

    fp4 = _solve_simple_fp4(cfg, coupling, rhs, notes, boundary)
    if fp4 is not None:
        physical = bool(np.all((fp4[:2] >= -1e-12) & (fp4[:2] <= 1 + 1e-12)))
        records.append(_make_record("FP4", fp4, rhs, jac, physical=physical))
    return records


def _solve_simple_fp4(cfg, coupling, rhs, notes, boundary):
    d = _delta_at(cfg, coupling, 0.5, 0.5)
    if d is None:
        d = 0.0
    pm = _simple_fp4_map(cfg, d)
    if pm is None:
        notes.append("FP4: singular denominator")
        return None
    p1, p2 = pm
    for _ in range(_FP_MAX_ITER):
        pm = _simple_fp4_map(cfg, d)
        if pm is None:
            notes.append("FP4: singular denominator during iteration")
            return None
        p1_new = p1 + _DAMPING * (pm[0] - p1)
        p2_new = p2 + _DAMPING * (pm[1] - p2)
        d_tgt = _delta_at(cfg, coupling, p1_new, p2_new)
        if d_tgt is None:
            notes.append("FP4: centroid fixed point vanished during iteration")
            return None
        d_new = d + _DAMPING * (d_tgt - d)
        change = max(abs(p1_new - p1), abs(p2_new - p2), abs(d_new - d))
        p1, p2, d = p1_new, p2_new, d_new
        if change < _FP_TOL:
            break
    state = np.array([p1, p2, d])
    if np.max(np.abs(rhs(state))) > RESIDUAL_GATE:
        state = _newton_polish(rhs, state)
        if state is None or np.max(np.abs(rhs(state))) > RESIDUAL_GATE:
            notes.append("FP4: iteration did not converge")
            return None
        if _dropped_on_boundary("FP4", state, boundary, notes):
            return None
    return state


def eco2_fixed_points(cfg, coupling=None, diagnostics=None):
    if coupling is None:
        coupling = CentroidCoupling.from_config(cfg)
    notes = diagnostics if diagnostics is not None else []
    fr = _frustration(cfg)
    rhs = lambda s: eco2_reduced_rhs(s, cfg, coupling, fr)
    jac = lambda s: eco2_reduced_jacobian(s, cfg, coupling)
    records = []
    boundary = (("FP1", (0.0, 0.0)), ("FP2", (0.0, 1.0)))
    for label, (p1, p2) in boundary:
        d = _delta_at(cfg, coupling, p1, p2)
        if d is None:
            notes.append(f"{label}: no centroid fixed point (K < 0)")
            continue
        records.append(_make_record(label, (p1, p2, d), rhs, jac))

    d_init = _delta_at(cfg, coupling, 0.5, 0.5)
    if d_init is None:
        d_init = 0.0
    for k, label in enumerate(("FP3", "FP4", "FP5")):
        sol = _solve_eco2_interior(cfg, coupling, k, d_init, notes, label)
        if sol is None:
            continue
        state, physical = sol
        if np.max(np.abs(rhs(state))) > RESIDUAL_GATE:
            polished = _newton_polish(rhs, state)
            if polished is not None and np.max(np.abs(rhs(polished))) <= RESIDUAL_GATE:
                state = polished
            else:
                notes.append(f"{label}: residual gate failed")
                continue
            if _dropped_on_boundary(label, state, boundary, notes):
                continue
        records.append(_make_record(label, state, rhs, jac, physical=physical))
    return records


def _solve_eco2_interior(cfg, coupling, branch, d_init, notes, label):
    d = d_init
    p2 = None
    for _ in range(_FP_MAX_ITER):
        roots = eco2_cubic_roots(cfg, d)
        root = roots[branch]
        if abs(root.imag) > IMAG_TOL:
            notes.append(f"{label}: complex root (|Im| = {abs(root.imag):.2e})")
            return None
        p2_tgt = float(root.real)
        p2 = p2_tgt if p2 is None else p2 + _DAMPING * (p2_tgt - p2)
        p1 = float(eco2_back_substitute(cfg, p2, d))
        d_tgt = _delta_at(cfg, coupling, p1, p2)
        if d_tgt is None:
            notes.append(f"{label}: centroid fixed point vanished during iteration")
            return None
        d_new = d + _DAMPING * (d_tgt - d)
        change = max(abs(d_new - d), abs(p2_tgt - p2))
        d = d_new
        if change < _FP_TOL:
            break
    p1 = float(eco2_back_substitute(cfg, p2, d))
    physical = bool(0.0 - 1e-12 <= p2 <= 1.0 + 1e-12
                    and 0.0 - 1e-12 <= p1 <= 1.0 + 1e-12)
    if not physical:
        notes.append(f"{label}: outside physical range (P1={p1:.4g}, P2={p2:.4g})")
    return np.array([p1, p2, d]), physical


def eco2_cubic_coeffs(cfg, delta):
    """Coefficients (a3, a2, a1, a0) of the interior fixed-point cubic in
    P2, from clearing denominators of dP1/dt = dP2/dt = 0."""
    dlt = 0.5 * (np.sin(delta) + 2.0)
    b2t = cfg.beta2 * 0.5 * (2.0 - np.sin(delta))
    r1, r2, b1, a, t, x1 = cfg.r1, cfg.r2, cfg.beta1, cfg.alpha, cfg.tau, cfg.x1
    a3 = r1 * a * r2 * t * b1
    a2 = -r1 * a * r2 * (t * b1 - 1) - a * b1 * dlt * b2t
    a1 = r1 * a * b1 * dlt - r1 * a * r2 - b1 * dlt * b2t - a * b1 * dlt * x1
    a0 = -b1 * dlt * x1
    return a3, a2, a1, a0


ORACLES = {"simple-reduced": simple_fixed_points,
           "eco2-reduced": eco2_fixed_points}
