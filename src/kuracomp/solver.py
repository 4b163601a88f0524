"""ODE integration and the simulation protocol.

One driver, ``_drive``, integrates everything: a batch y of shape (dim, B)
under an autonomous ``rhs(y)``, stepped by an embedded Dormand-Prince 5(4)
pair with per-member PI step-size control or by fixed-step classical RK4
(``method="rk4"``) for bit-reproducible baselines.  Its one event is a
member's P1 or P2 (rows 0-1) falling through its extinction threshold P_D,
located by bisection on the cubic-Hermite dense output (|dt| <= 1e-9).
``integrate`` is its B = 1 case, ``integrate_batch`` its outcome-only run
with thresholds, ``_settle`` its outcome-only run without them over the
horizon it is given (reconnaissance and settling), each stepped by the
``settings`` of its run.  Under a reduced variant a batch member equals its
B = 1 run bit for bit; a full variant's coupling is a BLAS product over
the batch, whose rounding may depend on the batch width and on the memory
layout of the state.  An RK45 step sums each stage's terms in tableau
order over one C-ordered (7, dim, n) stack, so stages 3-7 reach ``rhs``
C-ordered, and forms stage 2 from ``f`` itself, which a compaction
(``a[..., ~gone]``) leaves F-ordered.  These layouts fix a full variant's
bits: an F-ordered stage sum moved fig3a's reconnoitred phases (RK45, 20
members, OpenBLAS on one thread) by up to 2.3e-14.  All RK4 runs
share one step and one schedule: ceil(t_end/dt) steps from t = 0, never
padded with a rounding-sized sliver.

``run_scenario`` implements the two-phase protocol: a reconnaissance period
of ``settings.recon_T`` where only the phase dynamics run (feedback H = 1,
resources frozen), followed by the full hybrid system until one competitor
falls below the extinction threshold ``system.cfg.P_D`` or the horizon is
reached.

``ensemble`` and the basin engine evaluate many trajectories at once
through the batch runner (vectorised over a trailing batch axis) with
integer win counts, so aggregation is order-independent and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from ._rng import substream

__all__ = [
    "IntegratorSettings",
    "Trajectory",
    "StiffnessError",
    "integrate",
    "run_scenario",
    "ensemble",
    "ScenarioOutcome",
    "EnsembleResult",
]

EVENT_TIME_TOL = 1e-9
RECON_T = 50.0           # reconnaissance time: phase-only dynamics, H = 1
RTOL_MIN = 100 * np.finfo(float).eps     # scipy's solve_ivp floor on rtol
# A member fails when its RK45 step underflows ("stiff"; a non-finite error
# estimate is never floor-accepted), or its dy/dt at a check every
# CHECK_EVERY steps or its state at t_end is not finite ("failed").  A
# trajectory run then raises StiffnessError naming its first failed member
# and t; an outcome-only run counts it (winner -1) and retires members with
# max|dy/dt| < STEADY_TOL.
STEADY_TOL = 1e-9
CHECK_EVERY = 25
_FAILURES = {"stiff": "step size underflow", "failed": "non-finite dy/dt"}

# Dormand-Prince 5(4) tableau (every rhs is autonomous, so no nodes c_i): stage
# 2 is f/5; stages 3-7, then the error, read stack rows sel with nonzero a
_A = [(slice(2), [3 / 40, 9 / 40]),
      (slice(3), [44 / 45, -56 / 15, 32 / 9]),
      (slice(4), [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
      (slice(5), [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                  -5103 / 18656]),
      ([0, 2, 3, 4, 5], [35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                         11 / 84]),
      ([0, 2, 3, 4, 5, 6], [71 / 57600, -71 / 16695, 71 / 1920,
                            -17253 / 339200, 22 / 525, -1 / 40])]
_A = [(sel, np.array(a)[:, None, None]) for sel, a in _A]


class StiffnessError(RuntimeError):
    """A failed member (see CHECK_EVERY), its index and partial trajectory."""

    def __init__(self, message, trajectory=None, member=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.member = member


@dataclass
class IntegratorSettings:
    """Method, tolerances and horizons for the integrators.

    Every run, single, batched or reconnaissance (whose length, full
    variants only, is ``recon_T``), steps by ``method``: ``dt_init`` is the
    RK4 step and the first RK45 step, and ``rtol``, ``atol`` and ``dt_max``
    bound the RK45 steps.  The fields are the config's ``solver`` section,
    field for field.
    """

    method: str = "rk45"
    rtol: float = 1e-8
    atol: float = 1e-10
    dt_init: float = 0.01
    dt_max: float = 1.0
    t_end: float = 500.0
    recon_T: float = RECON_T

    def __post_init__(self):
        for name in ("rtol", "atol", "dt_init", "dt_max", "t_end", "recon_T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.method not in ("rk45", "rk4"):
            raise ValueError("method must be 'rk45' or 'rk4'")
        if min(self.rtol, self.atol, self.dt_init, self.dt_max) <= 0:
            raise ValueError("tolerances and step bounds must be positive")
        if self.rtol < RTOL_MIN:
            raise ValueError(f"rtol must be >= {RTOL_MIN:.3g}: below it the "
                             "RK45 error estimate vanishes in round-off")
        if self.recon_T < 0:
            raise ValueError("recon_T must be >= 0")


@dataclass
class Trajectory:
    """Accepted integration steps with Hermite dense output."""

    t: np.ndarray
    y: np.ndarray            # (n_steps, dim)
    f: np.ndarray            # rhs at each step, for interpolation
    extinct: int | None = None   # the row (0 P1, 1 P2) that crossed P_D
    status: str = "completed"

    def interpolate(self, ts):
        """Cubic-Hermite evaluation at arbitrary times within the span."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        i = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0,
                    len(self.t) - 2)
        t0, h = self.t[i, None], self.t[i + 1, None] - self.t[i, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            y = _hermite(self.y[i], self.f[i], h, self.y[i + 1],
                         self.f[i + 1], ts[:, None] - t0, np.float_power)
        return np.where(h == 0, self.y[i], y)    # an empty last interval

    def to_csv(self, path, labels):
        header = "t," + ",".join(labels)
        data = np.column_stack([self.t, self.y])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def _hermite(y0, f0, h, y1, f1, s, power=math.pow):
    """Cubic Hermite interpolant at offset s into a step of length h > 0
    from (y0, f0) to (y1, f1).  The powers are libm pow, ``math.pow`` on
    floats and ``np.float_power`` on arrays, so a call over many intervals
    equals a call per interval."""
    u = s / h
    u2, u3 = power(u, 2), power(u, 3)
    return ((2 * u3 - 3 * u2 + 1) * y0 + (u3 - 2 * u2 + u) * h * f0
            + (-2 * u3 + 3 * u2) * y1 + (u3 - u2) * h * f1)


def _locate(p, t0, y0, f0, h, y1, f1):
    """The threshold crossing in (t0, t0 + h]: per row 0-1 that falls from
    above p to p or below, bisection of the offset s in [0, h], a float, on
    the row's cubic-Hermite interpolant down to |ds| <= EVENT_TIME_TOL.  The
    earlier crossing wins and a tie goes to row 1 (P2: Blue wins).  Returns
    (row, t0 + s, y(t0 + s)) or None."""
    hit = None
    for row in (1, 0):
        ya, fa, yb, fb = (float(v[row]) for v in (y0, f0, y1, f1))
        if not (ya - p > 0 and yb - p <= 0):
            continue
        a, b = 0.0, h
        while (b - a) > EVENT_TIME_TOL:
            m = 0.5 * (a + b)
            gm = _hermite(ya, fa, h, yb, fb, m) - p
            if gm == 0.0:
                a = b = m
                break
            if gm > 0:        # the sign of g(a), which stays positive
                a = m
            else:
                b = m
        s = 0.5 * (a + b)
        if hit is None or t0 + s < hit[1]:
            hit = row, t0 + s, s
    if hit is None:
        return None
    return hit[0], hit[1], _hermite(y0, f0, h, y1, f1, hit[2])


def integrate(rhs, y0, settings: IntegratorSettings,
              p_death=None) -> Trajectory:
    """Integrate dy/dt = rhs(y) from t = 0 to settings.t_end: the one-member
    case of ``_drive``, with ``rhs`` taking and returning 1-D states.  With
    ``p_death`` the trajectory ends at the located crossing of rows 0-1
    through it; a failed run (see CHECK_EVERY) raises StiffnessError
    carrying the partial trajectory."""
    return _drive(lambda y: np.asarray(rhs(y[:, 0]), dtype=float)[:, None],
                  np.asarray(y0, dtype=float)[:, None], settings,
                  None if p_death is None else np.full(1, float(p_death)))[0]


def _drive(rhs, y0, settings, p_death=None, on_compact=None, dense=True,
           t_end=None):
    """Integrate each column of y0 (dim, B) from t = 0 to t_end, by default
    settings.t_end; ``rhs(y)`` takes the live members' states (dim, n).

    "rk45" is Dormand-Prince 5(4) with PI step control (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4-II.5; Gustafsson, Lundh & Soderlind, BIT 28
    (1988) 270): each member keeps its own t, h and error history and
    accepts or rejects its step on its own.  "rk4" takes ceil(t_end/dt)
    steps of min(dt, t_end - t); the 1e-12 margin keeps a quotient that
    rounds just above an integer from adding a rounding-sized last step.
    Members leave at t_end, at the crossing of row 0 or 1 down through
    their ``p_death`` (B,) (status "event"), or as steady or failed (see
    CHECK_EVERY; only a run with thresholds retires steady members);
    ``on_compact(keep)`` slices the per-member data ``rhs`` captures.
    Returns each member's Trajectory or, without ``dense``, keeps none and
    returns each member's exit status ("completed", "event", "steady",
    "stiff" or "failed"), time (B,), state (dim, B) and crossed row (None
    if none).
    """
    y = np.array(y0, dtype=float)
    B, rk4 = y.shape[1], settings.method == "rk4"
    span = settings.t_end if t_end is None else t_end
    if span <= 0:
        raise ValueError("t_end must be positive")
    t = np.zeros(B)
    f = rhs(y)
    active, status, rows = np.arange(B), ["completed"] * B, [None] * B
    t_out, y_out = t.copy(), y.copy()            # where members left
    log = [(active, t, y, f)] if dense else None  # accepted points in order
    h = np.full(B, min(settings.dt_init, settings.dt_max, span))
    err_prev = np.ones(B)

    def leave(gone, why=()):          # member i leaves with status why[i]
        nonlocal active, t, y, f, h, err_prev, p_death
        for i in np.flatnonzero(gone) if len(why) else ():
            status[active[i]] = str(why[i])
        t_out[active[gone]], y_out[:, active[gone]] = t[gone], y[:, gone]
        active, t, y, f, h, err_prev = (a[..., ~gone] for a in
                                        (active, t, y, f, h, err_prev))
        p_death = None if p_death is None else p_death[~gone]
        if on_compact is not None:
            on_compact(~gone)

    dt = settings.dt_init
    for n in range(int(np.ceil(span / dt - 1e-12))) if rk4 else count():
        if f is None:         # outcome-only rk4: rhs at a step's end only if
            f = rhs(y)        # a bisection needs it, else here
        if n % CHECK_EVERY == 0:
            bad = ~np.isfinite(f).all(axis=0)
            gone = bad if dense or p_death is None else bad | (
                np.max(np.abs(f), axis=0) < STEADY_TOL)
            if gone.any():
                leave(gone, np.where(bad, "failed", "steady"))
        if not active.size:
            break
        if rk4:               # every step accepted: ok selects all members
            hs = min(dt, span - t[0])     # the members share the grid's t
            ok, y_new, t1 = slice(None), _rk4_step(rhs, y, f, hs), t + hs
            f_new = rhs(y_new) if dense else None
        else:
            hs = np.minimum(np.minimum(h, span - t), settings.dt_max)
            if (h_min := hs.min()) < 1e-14 * span:
                leave(hs < 1e-14 * span, ["stiff"] * hs.size)
                continue
            k = np.empty((7,) + y.shape)    # the stages (see the docstring)
            k[0], y_new = f, y + hs * (0.2 * f)
            k[1] = f_new = rhs(y_new)
            for i, (sel, a) in enumerate(_A[:5], 2):
                y_new = y + hs * np.add.reduce(a * k[sel], axis=0)
                k[i] = f_new = rhs(y_new)   # FSAL: stage 7 is rhs(y_new)
            scale = settings.atol + settings.rtol * np.maximum(np.abs(y),
                                                              np.abs(y_new))
            sel, a = _A[5]
            q = np.ascontiguousarray(np.square(
                hs * np.add.reduce(a * k[sel], axis=0) / scale).T)
            err = np.sqrt(np.add.reduce(q, axis=1) / q.shape[1])   # RMS
            ok = err <= 1.0
            if h_min <= 1e-13 * span:   # the floor accepts a tiny step,
                ok |= (hs <= 1e-13 * span) & np.isfinite(err)  # not a NaN
            t1 = t + hs
            with np.errstate(divide="ignore"):   # libm pow, unlike array **
                h = hs * np.fmin(5.0, np.fmax(0.2, np.where(
                    err > 0, 0.9 * np.float_power(err, -0.14)
                    * np.float_power(err_prev, 0.08), 5.0)))
                if ok.all():
                    err_prev, ok = np.maximum(err, 1e-4), slice(None)
                else:       # a NaN err shrinks h tenfold, as fmax drops it
                    h = np.where(ok, h, hs * np.fmin(1.0, np.fmax(
                        0.1, 0.9 * np.float_power(err, -0.2))))
                    err_prev = np.where(ok, np.maximum(err, 1e-4), err_prev)
                    t1, y_new, f_new = (np.where(ok, a, b) for a, b in
                                        ((t1, t), (y_new, y), (f_new, f)))

        stop = None
        # a crossing ends at or below p_death (a rejected member's y_new is y)
        if p_death is not None and (low := y_new[:2] <= p_death).any():
            for i in np.flatnonzero(((y[:2] > p_death) & low).any(axis=0)):
                if f_new is None:     # outcome-only rk4
                    f_new = rhs(y_new)
                hit = _locate(float(p_death[i]), t[i], y[:, i], f[:, i],
                              hs if rk4 else float(hs[i]), y_new[:, i],
                              f_new[:, i])
                if hit is not None:
                    j = active[i]
                    stop = np.zeros(active.size, bool) if stop is None else stop
                    stop[i], status[j], rows[j] = True, "event", hit[0]
                    t1[i], y_new[:, i] = hit[1:]
            if dense and stop is not None:
                f_new = np.where(stop, rhs(y_new), f_new)
        if dense and active[ok].size:     # a step that all reject logs nothing
            log.append((active[ok], t1[ok], y_new[:, ok], f_new[:, ok]))
        t, y, f = t1, y_new, f_new
        if not rk4 and t.max() >= span:
            stop = t >= span if stop is None else stop | (t >= span)
        if stop is not None and stop.any():
            leave(stop)
    # rk4 members end at t_end, perhaps non-finite since their last check
    t_out[active], y_out[:, active] = t, y
    for j in active[~np.isfinite(y).all(axis=0)]:
        status[j] = "failed"
    if not dense:
        return status, t_out, y_out, rows
    for j, why in enumerate(status):
        if why in _FAILURES:
            raise StiffnessError(
                f"{_FAILURES[why]} at t={t_out[j]} (member {j})",
                _trajectories(log, rows, status, [j])[0], j)
    return _trajectories(log, rows, status, range(B))


def _trajectories(log, rows, status, members):
    """Each member's Trajectory, as views of the emptied, time-sorted log."""
    ids, ts, ys, fs = (np.concatenate(part, axis=-1) for part in zip(*log))
    log.clear()
    order = np.argsort(ids, kind="stable")       # stable keeps time order
    ids, ts, ys, fs = ids[order], ts[order], ys.T[order], fs.T[order]
    return [Trajectory(ts[a:b], ys[a:b], fs[a:b], rows[j], status[j])
            for j, (a, b) in zip(members, np.searchsorted(
                ids, [(j, j + 1) for j in members]))]


def _rk4_step(rhs, y, k1, h):
    """One classical RK4 step of size h from y, given k1 = rhs(y)."""
    k2 = rhs(y + (h / 2) * k1)
    k3 = rhs(y + (h / 2) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _settle(rhs, y, settings, t_end, on_compact=None):
    """Each column of y (dim, B) after t_end (not settings.t_end) of
    dy/dt = rhs(y) by ``settings``: ``_drive``'s outcome-only run without
    thresholds.  t_end = 0 takes no step; a failed member's column is NaN."""
    if t_end <= 0:
        return y
    status, _, y, _ = _drive(rhs, y, settings, on_compact=on_compact,
                             dense=False, t_end=t_end)
    y[:, [why in _FAILURES for why in status]] = np.nan
    return y


# ---------------------------------------------------------------------------
# scenario protocol
# ---------------------------------------------------------------------------

@dataclass
class ScenarioOutcome:
    winner: str              # "blue" | "red" | "stalemate"
    t_event: float
    trajectory: Trajectory


def run_scenario(system, state0,
                 settings: IntegratorSettings) -> ScenarioOutcome:
    """Reconnaissance (settings.recon_T of phase-only dynamics, H=1) then
    competition until a population falls below system.cfg.P_D.

    Reduced variants skip reconnaissance: their centroid difference is
    taken as already settled.  A failed reconnaissance raises
    StiffnessError.  The clock restarts at the competition phase; t_event
    is relative to that start.
    """
    y = np.asarray(state0, dtype=float).copy()
    if y.shape != (system.dim,):
        raise ValueError(f"state has shape {y.shape}, expected ({system.dim},)")
    m = system.n_pops
    if not system.reduced:
        T = settings.recon_T
        y[m:] = _settle(system.phase_rhs(), y[m:, None], settings, T)[:, 0]
        if not np.isfinite(y[m:]).all():
            raise StiffnessError(f"reconnaissance failed before t={T}")

    traj = integrate(system.rhs, y, settings, p_death=system.cfg.P_D)
    if traj.extinct is None:
        return ScenarioOutcome(winner="stalemate", t_event=settings.t_end,
                               trajectory=traj)
    return ScenarioOutcome(winner="blue" if traj.extinct else "red",
                           t_event=traj.t[-1], trajectory=traj)


# ---------------------------------------------------------------------------
# batch runner: _drive's outcome-only run
# ---------------------------------------------------------------------------

@dataclass
class BatchOutcome:
    winner: np.ndarray       # int codes: 0 stalemate, 1 blue, 2 red, -1 failed
    t_event: np.ndarray
    y_final: np.ndarray


def integrate_batch(rhs, y0, settings: IntegratorSettings, p_death, *,
                    on_compact=None) -> BatchOutcome:
    """An outcome-only ``settings.method`` run over a batch y0 (dim, B),
    ``rhs(y)`` broadcasting over it, until each member's P_1/P_2 threshold
    crossing as ``run_scenario`` locates it; ``p_death`` may differ per
    member.  Winners: 1 if P2 crossed p_death first, 2 if P1 did, 0 at the
    horizon or a steady state, -1 for a failed member.  t_event and y_final
    are the crossing's, else settings.t_end and the last state.
    ``on_compact(keep)`` slices arrays ``rhs`` captures.
    """
    p_death = np.broadcast_to(np.asarray(p_death, float), np.shape(y0)[1:])
    status, t, y, rows = _drive(rhs, y0, settings, p_death=p_death,
                                on_compact=on_compact, dense=False)
    winner = np.array([2 - r if r is not None else -1 if s in _FAILURES
                       else 0 for s, r in zip(status, rows)], dtype=int)
    return BatchOutcome(winner=winner, y_final=y,
                        t_event=np.where(winner > 0, t, settings.t_end))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    n_sim: int
    counts: dict
    fractions: dict


def reconnoitred_phases(system, n_sim: int, seed: int,
                        settings: IntegratorSettings) -> np.ndarray:
    """Ensemble start phases, shape (n_nodes, n_sim): theta_i(0) ~ U[0, 2pi)
    i.i.d., member i from its own substream, then settings.recon_T of
    phase-only dynamics (H = 1) by settings.method; recon_T = 0 takes no
    step, and a failed member's phases are NaN, so the batch counts it as
    failed."""
    n = system.net.n_total
    theta = np.stack([substream(seed, "ensemble", i).uniform(
        0.0, 2.0 * np.pi, size=n) for i in range(n_sim)], axis=1)
    return _settle(system.phase_rhs(), theta, settings, settings.recon_T)


def ensemble(system, P0, n_sim: int, seed: int,
             settings: IntegratorSettings) -> EnsembleResult:
    """Fixed initial resources, randomised initial phases, win fractions:
    reconnaissance and competition both step by settings.method."""
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    if system.reduced:
        raise ValueError("ensemble applies to full variants (random phases)")
    m = system.n_pops
    P0 = np.asarray(P0, dtype=float).reshape(m)
    theta0 = reconnoitred_phases(system, n_sim, seed, settings)
    y0 = np.concatenate([np.repeat(P0[:, None], n_sim, axis=1), theta0], axis=0)
    out = integrate_batch(system.rhs, y0, settings, system.cfg.P_D)
    counts = {name: int((out.winner == code).sum()) for name, code in
              (("blue", 1), ("red", 2), ("stalemate", 0), ("failed", -1))}
    n_ok = max(n_sim - counts["failed"], 1)
    fractions = {k: counts[k] / n_ok for k in ("blue", "red", "stalemate")}
    return EnsembleResult(n_sim=n_sim, counts=counts, fractions=fractions)
