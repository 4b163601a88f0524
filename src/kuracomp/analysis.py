"""Closed-form centroid dynamics, analytic fixed points, Jacobians,
eigenvalue stability classification, and parameter-sweep tables.

The centroid ODE dDelta/dt = mu + S cos Delta - C sin Delta integrates in
closed form through the Weierstrass substitution eta = tan(Delta/2); the
discriminant K = C^2 + S^2 - mu^2 selects the branch: tanh (K > 0,
convergence to a fixed point), tan (K < 0, periodic phase slips with period
2*pi/sqrt(-K)), and a linear eta equation in the degenerate case mu = S.

Fixed points of the reduced two-population variants come from their printed
closed forms; the interior points couple Delta* back through the C/S
coefficients and are resolved by damped fixed-point iteration (Newton
fallback).  The interior points of the ecology variant are the roots of a
cubic in P2, evaluated through the Cardano-style cube-root expressions.  One
driver serves both variants: an interior point is kept only when the
right-hand side vanishes there to RESIDUAL_GATE, after a Newton polish where
the iteration alone misses it, and its status describes the reported point.
The driver takes a batch of parameter points: the damped iterations of all
their interior candidates advance together as arrays, and the records of
all points are built in one pass (one rhs call for the residuals, one
Jacobian call and one eigenvalue call over the stack of matrices); a point's
result does not depend on the batch it is in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cache

import numpy as np

from .models import (CentroidCoupling, ModelConfig, _cs, _frustration,
                     _member_rhs, _take, build_system, centroid_coeffs,
                     eco2_reduced_rhs, model_params, simple_reduced_rhs)
from .solver import (IntegratorSettings, _drive,  # noqa: F401
                     run_scenario)   # perfbench traces run_scenario here

__all__ = [
    "FixedPointRecord",
    "delta_closed_form",
    "delta_time_course",
    "delta_star",
    "simple_fixed_points",
    "eco2_fixed_points",
    "fd_jacobian",
    "eigenvalues",
    "simple_reduced_jacobian",
    "eco2_reduced_jacobian",
    "classify",
    "stability_thresholds",
    "sweep_bifurcation",
    "eco2_cubic_roots",
]

_HYPERBOLIC_TOL = 1e-10
RESIDUAL_GATE = 1e-8
FD_REL_STEP = 1e-6        # fd_jacobian step relative to max(1, |x_i|)
IMAG_TOL = 1e-8           # cubic roots with larger |Im| are complex
# damped fixed-point iteration of the interior points, then Newton
_DAMPING = 0.5
_FP_TOL = 1e-12
_FP_MAX_ITER = 10_000
_NEWTON_MAX_ITER = 50
# a polished interior candidate this close to a boundary position in
# (P1, P2) is that boundary point found again
BOUNDARY_TOL = 1e-9


class NumericalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# closed-form centroid dynamics
# ---------------------------------------------------------------------------

def _k_disc(C, S, mu):
    return C * C + S * S - mu * mu


def delta_star(C, S, mu):
    """Stable fixed point of the centroid ODE (the t -> infinity limit),
    NaN where C^2 + S^2 < mu^2 (no fixed point exists).  C, S and mu are
    scalars or arrays that broadcast together.

    Evaluated through whichever of the two algebraically equal forms
    (C - sqrt(K))/(mu - S) == (mu + S)/(C + sqrt(K)) is well conditioned,
    which also covers the degenerate branch mu = S.
    """
    K = np.asarray(_k_disc(C, S, mu), dtype=float)
    # NaN where K < 0 propagates through both forms to the result
    sq = np.sqrt(K, out=np.full(K.shape, np.nan), where=K >= 0)
    d1, d2 = mu - S, C + sq
    a1, a2 = np.abs(d1), np.abs(d2)
    first = a1 >= a2
    num, den = np.where(first, C - sq, mu + S), np.where(first, d1, d2)
    pole = (a1 < 1e-300) & (a2 < 1e-300)
    if np.count_nonzero(pole):
        return np.where(pole, np.pi, 2.0 * np.arctan(
            num / np.where(pole, 1.0, den)))[()]
    return (2.0 * np.arctan(num / den))[()]


def delta_closed_form(t, C, S, mu, const):
    """The raw closed-form solution at time(s) t for a given integration
    constant; branch chosen by the sign of K = C^2 + S^2 - mu^2.

    In the degenerate case mu = S (where K = C^2 >= 0 and the substitution
    equation is linear), ``const`` is the free constant of the linear
    solution eta(t) = (mu+S)/(2C) + const*exp(-C t) (or eta = const +
    (mu+S)t/2 when C = 0 as well).
    """
    t = np.asarray(t, dtype=float)
    K = _k_disc(C, S, mu)
    if abs(mu - S) < 1e-14:
        if abs(C) > 1e-14:
            eta = (mu + S) / (2.0 * C) + const * np.exp(-C * t)
        else:
            eta = const + 0.5 * (mu + S) * t
        return 2.0 * np.arctan(eta)
    if K > 0:
        sq = np.sqrt(K)
        eta = (C - sq * np.tanh(0.5 * sq * (t + const))) / (mu - S)
    elif K < 0:
        q = np.sqrt(-K)
        eta = (C + q * np.tan(0.5 * q * (t + const))) / (mu - S)
    else:
        eta = (C - 2.0 / (t + const)) / (mu - S)
    return 2.0 * np.arctan(eta)


def delta_time_course(ts, C, S, mu, delta0):
    """Closed-form Delta(t) through Delta(0) = delta0, continuous in t
    (principal arctan plus winding correction at half-turn crossings).

    ``delta0`` must lie in (-pi, pi).
    """
    ts = np.asarray(ts, dtype=float)
    if not (-np.pi < delta0 < np.pi):
        raise ValueError("delta0 must lie in (-pi, pi)")
    K = _k_disc(C, S, mu)
    eta0 = np.tan(0.5 * delta0)

    if abs(mu - S) < 1e-14:
        # linear eta equation; arctan saturates, no winding needed
        if abs(C) > 1e-14:
            const = eta0 - (mu + S) / (2.0 * C)
        else:
            const = eta0
        return delta_closed_form(ts, C, S, mu, const)

    if K > 0:
        sq = np.sqrt(K)
        x = (C - (mu - S) * eta0) / sq
        if abs(x) < 1.0:
            const = (2.0 / sq) * np.arctanh(x)
            return delta_closed_form(ts, C, S, mu, const)
        if abs(x) == 1.0:
            return np.full_like(ts, delta0)
        # coth branch: the trajectory passes through Delta = pi once
        const = (2.0 / sq) * np.arctanh(1.0 / x)
        eta = (C - sq / np.tanh(0.5 * sq * (ts + const))) / (mu - S)
        delta = 2.0 * np.arctan(eta)
        t_pole = -const
        wind = 2.0 * np.pi * np.sign(mu - S)
        # winding relative to t = 0: correct when the pole lies between 0 and t
        n_cross = np.where((t_pole > 0) & (ts > t_pole), 1.0,
                           np.where((t_pole <= 0) & (ts < t_pole), -1.0, 0.0))
        return delta + wind * n_cross

    if K == 0:
        eta_star = C / (mu - S)
        if eta0 == eta_star:
            return np.full_like(ts, delta0)
        const = -2.0 / ((mu - S) * (eta0 - eta_star))
        return delta_closed_form(ts, C, S, mu, const)

    # K < 0: periodic slips; count tan poles between 0 and t
    q = np.sqrt(-K)
    const = (2.0 / q) * np.arctan(((mu - S) * eta0 - C) / q)
    eta = (C + q * np.tan(0.5 * q * (ts + const))) / (mu - S)
    delta = 2.0 * np.arctan(eta)

    def pole_index(t):
        return np.floor((0.5 * q * (t + const) - 0.5 * np.pi) / np.pi)

    n_cross = pole_index(ts) - pole_index(np.zeros_like(ts))
    return delta + 2.0 * np.pi * np.sign(mu - S) * n_cross


def slip_period(C, S, mu):
    """Period of the phase-slip cycle for K < 0: 2*pi/sqrt(-K)."""
    K = _k_disc(C, S, mu)
    if K >= 0:
        raise ValueError("phase slips require K < 0")
    return 2.0 * np.pi / np.sqrt(-K)


# ---------------------------------------------------------------------------
# Jacobians and classification
# ---------------------------------------------------------------------------

def fd_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian, step h_i = FD_REL_STEP * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    fx = np.asarray(f(x), dtype=float)
    jac = np.empty((fx.size, n))
    for i in range(n):
        h = FD_REL_STEP * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return jac


def eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues via Hessenberg reduction + shifted QR (LAPACK)."""
    try:
        return np.linalg.eigvals(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


_CLASSES = ("unstable", "stable", "nonhyperbolic")


def _class_index(re):
    """Index into _CLASSES of each row of eigenvalue real parts."""
    return np.where(np.any(np.abs(re) <= _HYPERBOLIC_TOL, axis=-1), 2,
                    np.all(re < 0, axis=-1))


def classify(eigs) -> str:
    return _CLASSES[int(_class_index(np.real(np.asarray(eigs))))]


def _pow(x, k):
    """x ** k through libm pow: a Python or numpy float's ``**`` calls it,
    and so does np.float_power on arrays, where ``**`` would not."""
    return x ** k if isinstance(x, float) else np.float_power(x, k)


def _delta_row(P1, P2, d, cfg, coupling):
    co = centroid_coeffs(cfg, coupling, 1.0 - P2, 1.0 - P1)
    return [coupling.g21 * np.sin(cfg.psi + d),
            coupling.g12 * np.sin(d - cfg.phi),
            -co.S * np.sin(d) - co.C * np.cos(d)]


def _matrix(rows):
    """The 3 x 3 matrix of entries ``rows``: (3, 3) from scalars, a stack
    (m, 3, 3) from (m,) columns."""
    out = np.empty(np.broadcast_shapes(*(np.shape(v) for row in rows
                                         for v in row)) + (3, 3))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[..., i, j] = v
    return out


# A Jacobian takes a state (3,) with scalar parameters, or (3, m) columns
# with scalar or per-column (m,) ones, and then returns the (m, 3, 3) stack;
# each matrix has the bits of its column's scalar call.
def simple_reduced_jacobian(state, cfg: ModelConfig,
                            coupling: CentroidCoupling) -> np.ndarray:
    """Hand-coded Jacobian of the reduced two-population model."""
    P1, P2, d = state
    sd, cd = np.sin(d), np.cos(d)
    return _matrix([
        [cfg.r1 * (1 - 2 * P1) - 0.5 * cfg.beta2 * P2 * (2 - sd),
         -0.5 * cfg.beta2 * P1 * (2 - sd),
         0.5 * cfg.beta2 * P1 * P2 * cd],
        [-0.5 * cfg.beta1 * P2 * (2 + sd),
         cfg.r2 * (1 - 2 * P2) - 0.5 * cfg.beta1 * P1 * (2 + sd),
         -0.5 * cfg.beta1 * P1 * P2 * cd],
        _delta_row(P1, P2, d, cfg, coupling),
    ])


def eco2_reduced_jacobian(state, cfg: ModelConfig,
                          coupling: CentroidCoupling) -> np.ndarray:
    """Hand-coded Jacobian of the reduced nondimensional ecology model."""
    P1, P2, d = state
    sd, cd = np.sin(d), np.cos(d)
    a, t = cfg.alpha, cfg.tau
    den_a = 1 + a * P2
    den_h = 1 + t * cfg.beta1 * P2
    j11 = (2 * a * (1 - 2 * P1) * cfg.r1 * P2
           + den_a * (cfg.beta2 * P2 * (sd - 2) - 2 * cfg.x1)) / (2 * den_a)
    j12 = (0.5 * P1 * cfg.beta2 * (sd - 2)
           - a * (P1 - 1) * P1 * cfg.r1 / _pow(den_a, 2))
    j13 = 0.5 * cfg.beta2 * P1 * P2 * cd
    j21 = -cfg.beta1 * P2 * (sd + 2) / (2 * den_h)
    j22 = (cfg.r2 * (1 - 2 * P2)
           - cfg.beta1 * P1 * (sd + 2) / (2 * _pow(den_h, 2)))
    j23 = -cfg.beta1 * P1 * P2 * cd / (2 * den_h)
    return _matrix([[j11, j12, j13], [j21, j22, j23],
                    _delta_row(P1, P2, d, cfg, coupling)])


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

@dataclass
class FixedPointRecord:
    label: str
    state: np.ndarray
    eigenvalues: np.ndarray
    classification: str
    residual: float
    status: str = "verified"        # "verified" | "outside-range"

    @property
    def max_real_eig(self) -> float:
        return float(np.max(np.real(self.eigenvalues)))


def _delta_at(cfg, coupling, P1, P2, fr=None):
    """Delta* at the feedback of populations (P1, P2), NaN where none
    exists; ``fr`` is cfg's frustration, if already taken."""
    c, s = _cs(coupling, _frustration(cfg) if fr is None else fr,
               1.0 - P2, 1.0 - P1)
    return delta_star(c, s, cfg.mu)


def _newton_polish(rhs, state):
    x = np.asarray(state, dtype=float).copy()
    for _ in range(_NEWTON_MAX_ITER):
        r = np.asarray(rhs(x), dtype=float)
        if np.max(np.abs(r)) < 1e-13:
            return x
        try:
            step = np.linalg.solve(fd_jacobian(rhs, x), r)
        except np.linalg.LinAlgError:
            return None
        x = x - step
        if not np.all(np.isfinite(x)):
            return None
    return x


def _boundary_hit(state, boundary):
    """Label of the boundary point within BOUNDARY_TOL of state's (P1, P2),
    or None."""
    for label, (p1, p2) in boundary:
        if max(abs(state[0] - p1), abs(state[1] - p2)) <= BOUNDARY_TOL:
            return label
    return None


_VANISHED = "centroid fixed point vanished during iteration"


def _simple_fp4_map(cfg, delta):
    """FP4's (P1, P2) at centroid difference delta, NaN where the
    denominator is singular."""
    sd = np.sin(delta)
    den = (4 * cfg.r1 * cfg.r2
           + cfg.beta1 * cfg.beta2 * (_pow(sd, 2) - 4))
    den = np.where(np.abs(den) < 1e-14, np.nan, den)
    p1 = 2 * cfg.r2 * (2 * cfg.r1 + cfg.beta2 * sd - 2 * cfg.beta2) / den
    p2 = 2 * cfg.r1 * (2 * cfg.r2 - cfg.beta1 * sd - 2 * cfg.beta1) / den
    return p1, p2


def _simple_fp4_step(par, state, first):
    """One damped step of FP4 (see ``_damped_iteration``)."""
    cfg, coupling, fr, _ = par
    p1, p2, d = state
    pm1, pm2 = _simple_fp4_map(cfg, d)
    if first:
        p1, p2 = pm1, pm2
    p1_new = p1 + _DAMPING * (pm1 - p1)
    p2_new = p2 + _DAMPING * (pm2 - p2)
    d_tgt = _delta_at(cfg, coupling, p1_new, p2_new, fr)
    d_new = d + _DAMPING * (d_tgt - d)
    # np.maximum differs from the scalar max() only on NaN, which reaches
    # the change of a failed candidate alone, and that change goes unread
    change = np.maximum(np.maximum(np.abs(p1_new - p1), np.abs(p2_new - p2)),
                        np.abs(d_new - d))
    singular = np.isnan(pm1)
    failed = singular | np.isnan(d_tgt)
    reasons = []
    if np.count_nonzero(failed):
        why = "singular denominator" + ("" if first else " during iteration")
        reasons = [why if s else _VANISHED for s in singular[failed]]
    return (p1_new, p2_new, d_new), change, failed, reasons


# -- ecology variant --------------------------------------------------------

def _complex(re, im):
    """re + i im, built without complex arithmetic; im is a scalar or has
    the shape of re."""
    out = np.empty(np.shape(re), complex)
    out.real, out.imag = re, im
    return out


@cache
def _zeta_powers():
    """z^0, z^1, z^2 for z = exp(2 pi i / 3), each a scalar power; every
    call shares the array, so it is read-only."""
    zeta = np.exp(2j * np.pi / 3.0)
    powers = np.array([zeta ** k for k in range(3)])
    powers.flags.writeable = False
    return powers


def eco2_cubic_roots(cfg: ModelConfig, delta, branch=None) -> np.ndarray:
    """The three interior-candidate roots in P2 via the cube-root closed
    forms (Cardano): root_k = (F1 - z^k Ct - F2/(z^k Ct)) / (3 a3) with
    Ct = -2^(-1/3) F3, F3 = (chi + sqrt(chi^2 - 4 F2^3))^(1/3).

    F1, F2 and chi are evaluated from their printed expansions in the
    shorthand (delta, beta2~); both sqrt branches are tried when F3
    degenerates.  ``delta`` and the fields of ``cfg`` may be arrays.  The
    roots lie along the result's first axis; with ``branch`` (integers in
    0..2 of delta's shape) each element is its branch's root only.

    Each element has the bits of a scalar evaluation: powers go through
    libm pow (``_pow``) and the complex products through real arithmetic,
    as numpy's array power and complex multiply loops round differently.
    """
    pw = _pow
    sd = np.sin(delta)
    dlt = 0.5 * (sd + 2.0)
    b2t = cfg.beta2 * 0.5 * (2.0 - sd)
    r1, r2, b1, a, t, x1 = cfg.r1, cfg.r2, cfg.beta1, cfg.alpha, cfg.tau, cfg.x1
    b1_2, dlt_2, b2t_2, r1_2, t_2 = (pw(v, 2) for v in (b1, dlt, b2t, r1, t))

    F1 = a * (b1 * dlt * b2t + (b1 * t - 1) * r1 * r2)
    xi = (2 * a + 3) * b1 * b2t * t - 2 * a * b2t + 3 * a * b1 * t * x1
    F2 = a * (a * b1_2 * dlt_2 * b2t_2 + b1 * dlt * xi * r1 * r2
              + a * r1_2 * r2 * (-3 * b1_2 * dlt * t
                                 + (1 + b1 * t + b1_2 * t_2) * r2))
    chi = pw(a, 2) * (
        2 * pw(b1, 3) * a * pw(dlt, 3) * pw(b2t, 3)
        + 3 * b1_2 * dlt_2 * b2t * xi * r1 * r2
        + (b1 * t - 1) * a * pw(r1, 3) * pw(r2, 2)
        * (-9 * b1_2 * dlt * t + (2 + 5 * b1 * t + 2 * b1_2 * t_2) * r2)
        + 3 * b1 * dlt * r1_2 * r2
        * (-3 * a * b1_2 * dlt * t * b2t
           + r2 * (-xi + b1 * t * (xi + 3 * a * b2t + 9 * b1 * t * x1))))

    a3 = a * b1 * t * r1 * r2
    # the discriminant's imaginary part is +0: its sign picks the sqrt branch
    sq = np.sqrt(_complex(chi * chi - 4.0 * (F2 * (F2 * F2)), 0.0))
    f3 = (chi + sq) ** (1.0 / 3.0)
    degenerate = np.abs(f3) < 1e-12 * pw(np.maximum(1.0, np.abs(chi)), 1 / 3)
    if np.count_nonzero(degenerate):
        f3 = np.where(degenerate, (chi - sq) ** (1.0 / 3.0), f3)
    triple = np.abs(f3) < 1e-300
    any_triple = np.count_nonzero(triple)
    if any_triple:
        f3 = np.where(triple, 1.0, f3)      # a stand-in; set below
    c = -(2.0 ** (-1.0 / 3.0))
    ct_re, ct_im = c * f3.real - 0.0 * f3.imag, c * f3.imag + 0.0 * f3.real
    z = _zeta_powers()
    z = z.reshape((3,) + (1,) * ct_re.ndim) if branch is None else z[branch]
    c_k = _complex(z.real * ct_re - z.imag * ct_im,
                   z.real * ct_im + z.imag * ct_re)
    roots = (F1 - c_k - F2 / c_k) / (3.0 * a3)
    if any_triple:
        roots = np.where(triple, _complex(F1 / (3.0 * a3), 0.0), roots)
    return roots


def eco2_back_substitute(cfg: ModelConfig, p2, delta):
    """P1* = (r2 / (beta1 delta)) (1 - P2*)(1 + tau beta1 P2*)."""
    dlt = 0.5 * (np.sin(delta) + 2.0)
    return cfg.r2 / (cfg.beta1 * dlt) * (1.0 - p2) * (1.0 + cfg.tau * cfg.beta1 * p2)


def _eco2_interior_step(par, state, first):
    """One damped step of the interior candidates FP3..FP5, the cubic's
    branches 0..2 (see ``_damped_iteration``)."""
    cfg, coupling, fr, branch = par
    _, p2, d = state
    root = eco2_cubic_roots(cfg, d, branch)
    im = np.abs(root.imag)
    rejected = im > IMAG_TOL
    p2_tgt = np.where(rejected, np.nan, root.real)
    p2 = p2_tgt if first else p2 + _DAMPING * (p2_tgt - p2)
    d_tgt = _delta_at(cfg, coupling, eco2_back_substitute(cfg, p2, d), p2, fr)
    d_new = d + _DAMPING * (d_tgt - d)
    change = np.maximum(np.abs(d_new - d), np.abs(p2_tgt - p2))
    failed = rejected | np.isnan(d_tgt)
    reasons = []
    if np.count_nonzero(failed):
        reasons = [f"complex root (|Im| = {v:.2e})" if r else _VANISHED
                   for r, v in zip(rejected[failed], im[failed])]
    return ((eco2_back_substitute(cfg, p2, d_new), p2, d_new), change, failed,
            reasons)


def _same_bits(a, b):
    """Per candidate: do the iterates a and b hold the same bits?"""
    return np.logical_and.reduce([x.view(np.int64) == y.view(np.int64)
                                  for x, y in zip(a, b)])


def _damped_iteration(step, par, d):
    """Damped fixed-point iteration of every interior candidate at once.

    Candidate j starts from Delta = d[j]; ``par`` holds the configs,
    couplings and frustrations (index j of their array fields is its own)
    and the branches.  ``step(par, (P1, P2, Delta), first)`` advances all
    live candidates: it returns the new iterates, the changes, a mask of
    the failed and why each failed, and it leaves NaN in a failed one's
    values, which computes without floating-point warnings.  A candidate
    leaves on failure, on a change below _FP_TOL or after _FP_MAX_ITER
    steps.  An iterate that repeats bit for bit (Brent: against the one
    saved at the last power-of-two step) puts its candidate on a cycle; it
    leaves at the step on that cycle that shares its iterate with step
    _FP_MAX_ITER.  Returns the final (P1, P2, Delta), shape (m, 3), NaN
    where the candidate failed, and the failure notes (None elsewhere).
    """
    states = np.full((d.size, 3), np.nan)
    why = [None] * d.size
    live = np.arange(d.size)
    end = np.full(d.size, _FP_MAX_ITER)      # the step a candidate leaves at
    state = (np.full(d.size, np.nan), np.full(d.size, np.nan), d)
    for n in range(1, _FP_MAX_ITER + 1):
        state, change, failed, reasons = step(par, state, n == 1)
        if n & (n - 1) == 0:                # n is a power of two
            saved, saved_at = state, n
        else:
            cycling = state[2].view(np.int64) == saved[2].view(np.int64)
            if np.count_nonzero(cycling):       # Delta repeats: check all
                cycling &= _same_bits(state[:2], saved[:2])
                end[cycling] = n + (_FP_MAX_ITER - n) % (n - saved_at)
        leave = failed | (change < _FP_TOL) | (end == n)
        if not np.count_nonzero(leave):
            continue
        for j, reason in zip(live[failed], reasons):
            why[j] = reason
        done = leave & ~failed
        states[live[done]] = np.column_stack(state)[done]
        keep = ~leave
        if not np.count_nonzero(keep):
            break
        live, end = live[keep], end[keep]
        par = tuple(_take(x, keep) if is_dataclass(x) else x[keep]
                    for x in par)
        state = tuple(x[keep] for x in state)
        saved = tuple(x[keep] for x in saved)
    return states, why


def _fixed_points(reduced_rhs, jacobian, boundary, interior, step, cfg,
                  coupling, diagnostics):
    """One variant's fixed points from its rhs, its Jacobian, its boundary
    points as (label, (P1, P2)), its interior labels and their damped
    ``step``.  Fields of cfg and coupling hold a scalar or one value per
    point; every point's interior candidates iterate together, and the
    records of all points are built in one pass: one rhs call for their
    residuals, one Jacobian call and one eigenvalue call over the stack.
    The public entries look the rhs up per call: perfbench wraps its name."""
    if coupling is None:
        coupling = CentroidCoupling.from_config(cfg)
    batch = np.broadcast_shapes(*(np.shape(getattr(obj, f.name))
                                  for obj in (cfg, coupling)
                                  for f in fields(obj)))
    n = batch[0] if batch else 1
    notes = [[] for _ in range(n)]
    # the candidates to record: each one's point, label and (P1, P2, Delta)
    point, labels, states = [], [], []
    for label, (p1, p2) in boundary:
        d = np.broadcast_to(_delta_at(cfg, coupling, p1, p2), (n,))
        for i in np.flatnonzero(np.isnan(d)):
            notes[i].append(f"{label}: no centroid fixed point (K < 0)")
        at = np.flatnonzero(~np.isnan(d))
        point.append(at)
        labels += [label] * at.size
        states.append(np.stack(np.broadcast_arrays(p1, p2, d[at]), axis=1))

    d_init = _delta_at(cfg, coupling, 0.5, 0.5)
    d_init = np.broadcast_to(np.where(np.isnan(d_init), 0.0, d_init), (n,))
    k = len(interior)
    owner = np.repeat(np.arange(n), k)      # each candidate's point
    c, g = _take(cfg, owner), _take(coupling, owner)
    found, why = _damped_iteration(
        step, (c, g, _frustration(c), np.tile(np.arange(k), n)),
        d_init[owner])
    converged = np.flatnonzero([w is None for w in why])
    n_boundary = len(labels)
    point.append(owner[converged])
    labels += [interior[j % k] for j in converged]
    states.append(found[converged])
    point, states = np.concatenate(point), np.concatenate(states)

    c, g = _take(cfg, point), _take(coupling, point)
    residual = np.max(np.abs(reduced_rhs(states.T, c, g, _frustration(c))),
                      axis=0)
    keep = np.ones(point.size, bool)
    # an interior candidate that misses the gate gets a Newton polish under
    # its own point's scalar rhs
    missed = np.flatnonzero(residual[n_boundary:] > RESIDUAL_GATE)
    for j in n_boundary + missed:
        c, g = _take(cfg, point[j]), _take(coupling, point[j])
        fr = _frustration(c)
        rhs = lambda s: reduced_rhs(s, c, g, fr)
        state = _newton_polish(rhs, states[j])
        res = np.inf if state is None else np.max(np.abs(rhs(state)))
        cand = converged[j - n_boundary]
        if res > RESIDUAL_GATE:
            why[cand] = "residual gate failed"
        elif (on := _boundary_hit(state, boundary)) is not None:
            why[cand] = (f"polished onto {on}'s position "
                         f"(P1={state[0]:.3g}, P2={state[1]:.3g}), dropped")
        else:
            states[j], residual[j] = state, res
            continue
        keep[j] = False

    p = states[:, :2]
    physical = np.all((p >= -1e-12) & (p <= 1 + 1e-12), axis=1)
    # the boundary points lie in range; an interior one outside gets a note
    for j in n_boundary + np.flatnonzero((keep & ~physical)[n_boundary:]):
        why[converged[j - n_boundary]] = (
            f"outside physical range "
            f"(P1={states[j, 0]:.4g}, P2={states[j, 1]:.4g})")
    for i in range(n):
        notes[i] += [f"{label}: {w}" for label, w
                     in zip(interior, why[i * k:(i + 1) * k]) if w is not None]

    keep = np.flatnonzero(keep)
    point, states = point[keep], states[keep]
    eigs = eigenvalues(jacobian(states.T, _take(cfg, point),
                                _take(coupling, point)))
    # each record keeps the dtype of its own matrix's eigvals: real when
    # all its imaginary parts are zero
    real = np.all(eigs.imag == 0.0, axis=1)
    classes = _class_index(eigs.real)
    records = [[] for _ in range(n)]
    for j, i in enumerate(keep):
        records[point[j]].append(FixedPointRecord(
            label=labels[i], state=states[j],
            eigenvalues=eigs[j].real if real[j] else eigs[j],
            classification=_CLASSES[classes[j]], residual=float(residual[i]),
            status="verified" if physical[i] else "outside-range"))
    if diagnostics is not None:
        diagnostics.extend(notes if batch else notes[0])
    return records if batch else records[0]


def simple_fixed_points(cfg: ModelConfig, coupling: CentroidCoupling = None,
                        diagnostics: list = None) -> list:
    """FP1..FP4 of the reduced two-population model.

    FP1 = (1, 0), FP2 = (0, 1), FP3 = (0, 0) take Delta* directly from the
    centroid fixed point at their feedback values; the interior FP4 solves
    the coupled (P1, P2, Delta) system by damped fixed-point iteration
    (damping 0.5, tolerance 1e-12, <= 1e4 iterations) with a Newton
    fallback.  Candidates whose centroid equation has no fixed point
    (complex sqrt(K)) are skipped with a diagnostic.

    Fields of ``cfg`` and ``coupling`` may hold one value per point, as in
    ``sweep_bifurcation``: the result is then one record list per point,
    ``diagnostics`` receives one note list per point, and each point's
    records and notes equal its own one-point call bit for bit.  The
    records of all points are built in one pass.
    """
    return _fixed_points(
        simple_reduced_rhs, simple_reduced_jacobian,
        (("FP1", (1.0, 0.0)), ("FP2", (0.0, 1.0)), ("FP3", (0.0, 0.0))),
        ("FP4",), _simple_fp4_step, cfg, coupling, diagnostics)


def eco2_fixed_points(cfg: ModelConfig, coupling: CentroidCoupling = None,
                      diagnostics: list = None) -> list:
    """FP1..FP5 of the reduced nondimensional ecology model.

    FP1: (0, 0); FP2: (0, 1); FP3-FP5: interior candidates from the cubic
    closed forms, Delta* coupled through damped fixed-point iteration.
    Roots with |Im| > 1e-8 are rejected; real roots outside [0, 1] (in
    either population) are recorded with status "outside-range".  A batch
    of points works as in ``simple_fixed_points``.
    """
    return _fixed_points(
        eco2_reduced_rhs, eco2_reduced_jacobian,
        (("FP1", (0.0, 0.0)), ("FP2", (0.0, 1.0))),
        ("FP3", "FP4", "FP5"), _eco2_interior_step, cfg, coupling,
        diagnostics)



# ---------------------------------------------------------------------------
# stability thresholds
# ---------------------------------------------------------------------------

@dataclass
class ThresholdReport:
    """Closed-form stability thresholds at a given Delta*."""

    delta_star: float
    beta1_threshold: float          # Blue-victory FP: beta1 > r2/(1 + sin(D*)/2)
    beta2_threshold: float          # Red-victory FP: beta2 > r1/(1 - sin(D*)/2)
    eco2_beta2_threshold: float     # ecology FP2: beta2 > (a r1/(1+a) - x1)/(1 - sin(D*)/2)
    phi_window: tuple               # cos(phi - D*) > 0
    psi_window: tuple               # cos(psi + D*) > 0


def stability_thresholds(cfg: ModelConfig, delta_star_val: float) -> ThresholdReport:
    sd = np.sin(delta_star_val)
    return ThresholdReport(
        delta_star=float(delta_star_val),
        beta1_threshold=float(cfg.r2 / (1.0 + 0.5 * sd)),
        beta2_threshold=float(cfg.r1 / (1.0 - 0.5 * sd)),
        eco2_beta2_threshold=float(
            (cfg.alpha * cfg.r1 / (1.0 + cfg.alpha) - cfg.x1) / (1.0 - 0.5 * sd)),
        phi_window=(float(delta_star_val - 0.5 * np.pi),
                    float(delta_star_val + 0.5 * np.pi)),
        psi_window=(float(-delta_star_val - 0.5 * np.pi),
                    float(-delta_star_val + 0.5 * np.pi)),
    )


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    param_value: float
    record: FixedPointRecord = None
    attractor: str = ""             # "" for FP rows; else trajectory label
    terminal_state: np.ndarray = None


def _label_attractor(traj):
    if traj.status == "event":
        return "extinction"
    t, y = traj.t, traj.y
    window = t >= t[-1] - 0.2 * (t[-1] - t[0])
    p2 = y[window, 1]
    if p2.max() - p2.min() <= 1e-3:
        return "fixed-point"
    # look for a repeating oscillation via autocorrelation on a uniform grid
    ts = np.linspace(t[window][0], t[-1], 512)
    ps = np.interp(ts, t[window], p2)
    ps = ps - ps.mean()
    denom = float(ps @ ps)
    if denom <= 0:
        return "fixed-point"
    ac = np.correlate(ps, ps, mode="full")[ps.size - 1:] / denom
    # a local max above 0.5 after the initial decay (lags >= 2)
    mid = ac[2:-1]
    peak = (mid > 0.5) & (mid >= ac[1:-2]) & (mid >= ac[3:])
    return "limit-cycle" if peak.any() else "irregular"


def sweep_bifurcation(variant: str, cfg: ModelConfig, param: str, values,
                      coupling: CentroidCoupling = None,
                      settings: IntegratorSettings = None) -> list:
    """For each grid value: recompute fixed points, classify stability, and
    run one long trajectory from P = (0.5, 0.5) and the centroid fixed point
    there (0 if none) to label the attractor.  The trajectories are one
    batch integration; each equals its point's ``run_scenario`` with no
    reconnaissance, bit for bit."""
    if variant not in ("simple-reduced", "eco2-reduced"):
        raise ValueError("sweep supports the reduced two-population variants")
    model_params(variant, (param,), coupling=coupling)
    if settings is None:
        settings = IntegratorSettings(t_end=200.0)
    values = np.asarray(values, dtype=float)
    swept = cfg.with_overrides(**{param: values})
    coupling = build_system(variant, swept, coupling=coupling).coupling
    fixed_points = (simple_fixed_points if variant == "simple-reduced"
                    else eco2_fixed_points)
    point_records = fixed_points(swept, coupling)
    d0 = np.broadcast_to(_delta_at(swept, coupling, 0.5, 0.5), values.shape)
    y0 = np.column_stack([np.full(values.shape, 0.5), np.full(values.shape, 0.5),
                          np.where(np.isnan(d0), 0.0, d0)]).T
    # one batch member per point, with the point's parameters
    rhs, on_compact = _member_rhs(variant, swept, coupling)
    p_death = np.broadcast_to(swept.P_D, values.shape)
    trajs = _drive(rhs, y0, settings, p_death=p_death, on_compact=on_compact)
    rows = []
    for value, records, traj in zip(values.tolist(), point_records, trajs):
        rows += [SweepRow(param_value=value, record=rec) for rec in records]
        rows.append(SweepRow(param_value=value, attractor=_label_attractor(traj),
                             terminal_state=traj.y[-1]))
    return rows


def sweep_to_csv(rows, path):
    """CSV per the sweep-table layout: param,fp_label,P1,P2,Delta1,
    max_real_eig,class.  Trajectory rows use fp_label "traj" and put the
    attractor label in the class column."""
    lines = ["param,fp_label,P1,P2,Delta1,max_real_eig,class"]
    for row in rows:
        if row.record is not None:
            rec = row.record
            vals = [f"{v:.12g}" for v in rec.state]
            lines.append(",".join([f"{row.param_value:.12g}", rec.label]
                                  + vals + [f"{rec.max_real_eig:.12g}",
                                            rec.classification]))
        else:
            vals = [f"{v:.12g}" for v in row.terminal_state]
            lines.append(",".join([f"{row.param_value:.12g}", "traj"]
                                  + vals + ["", row.attractor]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
