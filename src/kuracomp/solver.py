"""ODE integration and the simulation protocol.

One driver, ``_drive``, integrates a batch of trajectories, y of shape
(dim, B): an embedded Dormand-Prince 5(4) pair with per-member PI step-size
control, or fixed-step classical RK4 (``method="rk4"``) for bit-reproducible
baselines, with cubic-Hermite dense output and event location by bisection
on it (|dt| <= 1e-9).  ``integrate`` is its B = 1 case, and a batch member
equals its B = 1 run bit for bit.  RK4 runs, the batch runner,
reconnaissance and settling share one RK4 step and one schedule:
ceil((t_end - t0)/dt) steps, never padded with a rounding-sized sliver.

``run_scenario`` implements the two-phase protocol: a reconnaissance period
where only the phase dynamics run (feedback H = 1, resources frozen),
followed by the full hybrid system until one competitor falls below the
extinction threshold P_D or the horizon is reached.

``ensemble`` and the batch runner evaluate many trajectories at once
(vectorised over a trailing batch axis) with integer win counts, so
aggregation is order-independent and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import substream

__all__ = [
    "IntegratorSettings",
    "Trajectory",
    "Event",
    "StiffnessError",
    "integrate",
    "run_scenario",
    "ensemble",
    "ScenarioOutcome",
    "EnsembleResult",
]

EVENT_TIME_TOL = 1e-9
STEADY_TOL = 1e-9        # batch members with max|dy/dt| below this are settled
CHECK_EVERY = 25         # batch steps between steady-state/finiteness checks

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])


class StiffnessError(RuntimeError):
    """Step underflow; carries the member index and partial trajectory."""

    def __init__(self, message, trajectory=None, member=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.member = member


@dataclass
class IntegratorSettings:
    """Tolerances and horizon for the integrators.

    ``dt_init`` doubles as the step of the one fixed-step RK4 kernel:
    method="rk4", the vectorised batch runner and reconnaissance.
    """

    method: str = "rk45"
    rtol: float = 1e-8
    atol: float = 1e-10
    dt_init: float = 0.01
    dt_max: float = 1.0
    t_end: float = 500.0

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError("method must be 'rk45' or 'rk4'")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.dt_init <= 0 or self.dt_max <= 0:
            raise ValueError("step bounds must be positive")


@dataclass
class Event:
    """Scalar event g(t, y); fires on a sign change of the given direction."""

    fn: callable
    name: str = "event"
    direction: int = 0    # -1 falling, +1 rising, 0 any
    terminal: bool = True


@dataclass
class EventHit:
    name: str
    t: float
    y: np.ndarray


@dataclass
class Trajectory:
    """Accepted integration steps with Hermite dense output."""

    t: np.ndarray
    y: np.ndarray            # (n_steps, dim)
    f: np.ndarray            # rhs at each step, for interpolation
    events: list = field(default_factory=list)
    status: str = "completed"

    def interpolate(self, ts):
        """Cubic-Hermite evaluation at arbitrary times within the span."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        i = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0,
                    len(self.t) - 2)
        return _hermite(self.t[i, None], self.y[i], self.f[i],
                        self.t[i + 1, None], self.y[i + 1], self.f[i + 1],
                        ts[:, None])

    def to_csv(self, path, labels):
        header = "t," + ",".join(labels)
        data = np.column_stack([self.t, self.y])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def _hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite interpolant at t, or y0 on an empty interval.  The
    arguments broadcast, and the powers are libm pow (``float_power``), so
    one call over many intervals equals a call per interval."""
    h = t1 - t0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (t - t0) / h
        s2, s3 = np.float_power(s, 2), np.float_power(s, 3)
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        y = h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1
    return np.where(h == 0, y0, y)


def _scan_events(events, t0, y0, f0, h, y1, f1, hits):
    """Record every event crossing in (t0, t0 + h]; return the first
    terminal hit (t, y) or None.  Hits are ordered by time, ties by their
    order in ``events``."""
    found = []
    for ev in events:
        loc = _locate_event(ev, t0, y0, f0, h, y1, f1)
        if loc is not None:
            found.append((loc[0], loc[1], ev))
    found.sort(key=lambda item: item[0])
    for t_ev, y_ev, ev in found:
        hits.append(EventHit(ev.name, t_ev, y_ev))
        if ev.terminal:
            return t_ev, y_ev
    return None


def _crossed(ev, g0, g1):
    """Whether g went from g0 to g1 across zero in the event's direction
    (elementwise): rising g0 < 0 <= g1, falling g0 > 0 >= g1."""
    rising, falling = (g0 < 0) & (0 <= g1), (g0 > 0) & (0 >= g1)
    return rising if ev.direction > 0 else \
        falling if ev.direction < 0 else rising | falling


def _locate_event(ev, t0, y0, f0, h, y1, f1):
    """Bisection of the offset s in [0, h] on the step's dense interpolant
    down to |ds| <= 1e-9; a crossing is a sign change in (t0, t0 + h] in
    the event's direction.  Returns (t0 + s, y(t0 + s)) or None."""
    ga = ev.fn(t0, y0)
    if not _crossed(ev, ga, ev.fn(t0 + h, y1)):
        return None
    a, b = 0.0, h
    while (b - a) > EVENT_TIME_TOL:
        m = 0.5 * (a + b)
        gm = ev.fn(t0 + m, _hermite(0.0, y0, f0, h, y1, f1, m))
        if gm == 0.0:
            a = b = m
            break
        if np.sign(gm) == np.sign(ga):
            a, ga = m, gm
        else:
            b = m
    s = 0.5 * (a + b)
    return t0 + s, _hermite(0.0, y0, f0, h, y1, f1, s)


def integrate(rhs, y0, settings: IntegratorSettings, t0: float = 0.0,
              events=()) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from t0 to settings.t_end: the one-member
    case of ``_drive``.  Terminal events truncate the trajectory at the
    located crossing; on step underflow a StiffnessError carrying the
    partial trajectory is raised."""
    return _drive(lambda t, y: np.asarray(rhs(t[0], y[:, 0]),
                                          dtype=float)[:, None],
                  np.asarray(y0, dtype=float)[:, None], settings, t0,
                  (lambda j: events) if events else None)[0]


def _combine(coeffs, ks):
    """sum_i coeffs[i]*ks[i] accumulated in index order, zero terms skipped;
    elementwise, unlike a BLAS contraction, so no member depends on B."""
    terms = [c * k for c, k in zip(coeffs, ks) if c]
    return sum(terms[1:], terms[0])


def _drive(rhs, y0, settings, t0=0.0, events=None, on_compact=None):
    """A Trajectory per column of y0 (dim, B); ``rhs(t, y)`` takes the live
    members' times (n,) and states (dim, n).

    "rk45" is Dormand-Prince 5(4) with PI step control (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4-II.5; Gustafsson, Lundh & Soderlind, BIT 28
    (1988) 270): each member keeps its own t, h and error history and
    accepts or rejects its step on its own.  "rk4" steps on ``_rk4_grid``.
    ``events(j)`` gives member j's Events and, for an index array, those
    members' Events with fns that broadcast over columns; only members whose
    step changed an event's sign are bisected, column by column.  Members
    leave at t_end or a terminal event; ``on_compact(keep)`` slices the
    per-member data ``rhs`` captures.  Step underflow raises StiffnessError
    for the first member it hits.
    """
    y = np.array(y0, dtype=float)
    B, t_end, rk4 = y.shape[1], settings.t_end, settings.method == "rk4"
    span = t_end - t0
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    t = np.full(B, float(t0))
    f = np.asarray(rhs(t, y), dtype=float)
    active, hits, status = np.arange(B), [[] for _ in range(B)], ["completed"] * B
    log = [(active, t, y, f)]             # accepted points, in time order
    h = np.full(B, min(settings.dt_init, settings.dt_max, span))
    err_prev, grid = np.ones(B), _rk4_grid(t0, t_end, settings.dt_init)
    while active.size:
        if rk4:
            step = next(grid, None)
            if step is None:
                break
            hs, ok = np.full(active.size, step[1]), np.ones(active.size, bool)
            y_new = _rk4_step(rhs, t, y, f, step[1])
            f_new = np.asarray(rhs(t + hs, y_new), dtype=float)
        else:
            hs = np.minimum(np.minimum(h, t_end - t), settings.dt_max)
            stiff = hs < 1e-14 * span
            if stiff.any():
                i = np.argmax(stiff)
                j = active[i]
                raise StiffnessError(
                    f"step size underflow at t={t[i]} (member {j})",
                    _trajectories(log, hits, ["stiff"] * B, [j])[0], j)
            k = [f]
            for i in range(1, 7):
                y_new = y + hs * _combine(_A[i], k)
                k.append(np.asarray(rhs(t + _C[i] * hs, y_new), dtype=float))
            f_new = k[6]      # FSAL: the last stage is the solution (_A[6])
            scale = settings.atol + settings.rtol * np.maximum(np.abs(y),
                                                              np.abs(y_new))
            q = np.ascontiguousarray(np.square(hs * _combine(_E, k) / scale).T)
            err = np.sqrt(np.add.reduce(q, axis=1) / q.shape[1])   # RMS
            ok = (err <= 1.0) | (hs <= 1e-13 * span)
            with np.errstate(divide="ignore"):   # libm pow, unlike array **
                grow = np.where(err > 0, 0.9 * np.float_power(err, -0.14)
                                * np.float_power(err_prev, 0.08), 5.0)
                shrink = np.fmax(0.1, 0.9 * np.float_power(err, -0.2))
            h = hs * np.where(ok, np.fmin(5.0, np.fmax(0.2, grow)),
                              np.fmin(1.0, shrink))
            err_prev = np.where(ok, np.maximum(err, 1e-4), err_prev)

        t1, stop = t + hs, np.zeros(active.size, bool)
        if events is not None:
            maybe = ok.copy()         # one member: _scan_events checks it
            if active.size > 1:
                maybe &= np.logical_or.reduce([
                    _crossed(ev, ev.fn(t, y), ev.fn(t1, y_new))
                    for ev in events(active)])
            for i in np.nonzero(maybe)[0]:
                j = active[i]
                hit = _scan_events(events(j), t[i], y[:, i], f[:, i], hs[i],
                                   y_new[:, i], f_new[:, i], hits[j])
                if hit is not None:
                    stop[i], status[j] = True, "event"
                    t1[i], y_new[:, i] = hit
            if stop.any():
                f_new = np.where(stop, rhs(t1, y_new), f_new)
        if not ok.all():
            t1, y_new, f_new = (np.where(ok, a, b) for a, b in
                                ((t1, t), (y_new, y), (f_new, f)))
        log.append((active[ok], t1[ok], y_new[:, ok], f_new[:, ok]))
        t, y, f = t1, y_new, f_new
        done = stop if rk4 else stop | (t >= t_end)    # rk4: the whole grid
        if done.any():
            keep = ~done
            active, t, y, f = active[keep], t[keep], y[:, keep], f[:, keep]
            h, err_prev = h[keep], err_prev[keep]
            if on_compact is not None:
                on_compact(keep)
    return _trajectories(log, hits, status, range(B))


def _trajectories(log, hits, status, members):
    """Each member's Trajectory, as views of the emptied, time-sorted log."""
    ids, ts, ys, fs = (np.concatenate(part, axis=-1) for part in zip(*log))
    log.clear()
    order = np.argsort(ids, kind="stable")       # stable keeps time order
    ids, ts, ys, fs = ids[order], ts[order], ys.T[order], fs.T[order]
    return [Trajectory(ts[a:b], ys[a:b], fs[a:b], hits[j], status[j])
            for j, (a, b) in zip(members, np.searchsorted(
                ids, [(j, j + 1) for j in members]))]


def _rk4_step(rhs, t, y, k1, h):
    """One classical RK4 step of size h from (t, y), given k1 = rhs(t, y)."""
    k2 = rhs(t + h / 2, y + (h / 2) * k1)
    k3 = rhs(t + h / 2, y + (h / 2) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_grid(t0, t_end, dt):
    """The fixed-step schedule: (t, h) for ceil((t_end - t0)/dt) steps of
    min(dt, t_end - t).  The 1e-12 margin keeps a quotient that rounds just
    above an integer from adding a rounding-sized last step."""
    t = t0
    for _ in range(int(np.ceil((t_end - t0) / dt - 1e-12))):
        h = min(dt, t_end - t)
        yield t, h
        t += h


def _rk4(rhs, y, dt, t_end):
    """Final state of fixed-step RK4 on dy/dt = rhs(y) over [0, t_end]; for
    reconnaissance and settling, which need no events, steady stop or
    compaction."""
    step_rhs = lambda t, yy: rhs(yy)
    for t, h in _rk4_grid(0.0, t_end, dt):
        y = _rk4_step(step_rhs, t, y, rhs(y), h)
    return y


# ---------------------------------------------------------------------------
# scenario protocol
# ---------------------------------------------------------------------------

@dataclass
class ScenarioOutcome:
    winner: str              # "blue" | "red" | "stalemate"
    t_event: float
    trajectory: Trajectory


def _threshold_events(p_death):
    """P2 then P1 falling through p_death; the order makes Blue win a tie."""
    return [Event(fn=lambda t, y, i=i: y[i] - p_death, name=name, direction=-1)
            for i, name in ((1, "red-extinct"), (0, "blue-extinct"))]


def run_scenario(system, state0, settings: IntegratorSettings,
                 recon_T: float = 50.0,
                 p_death: float = 1e-4) -> ScenarioOutcome:
    """Reconnaissance (phase-only, H=1) then competition until extinction.

    Reduced variants skip reconnaissance: their centroid difference is
    taken as already settled.  The clock restarts at the competition phase;
    t_event is relative to that start.
    """
    y = np.asarray(state0, dtype=float).copy()
    if y.shape != (system.dim,):
        raise ValueError(f"state has shape {y.shape}, expected ({system.dim},)")
    m = system.n_pops
    if not system.reduced and recon_T > 0:
        phase_rhs = system.phase_rhs()
        traj = integrate(lambda t, th: phase_rhs(th), y[m:],
                         replace(settings, t_end=recon_T))
        y = np.concatenate([y[:m], traj.y[-1]])

    traj = integrate(lambda t, yy: system.rhs(yy), y, settings,
                     events=_threshold_events(p_death))
    if traj.status == "event" and traj.events:
        hit = traj.events[-1]
        winner = "blue" if hit.name == "red-extinct" else "red"
        return ScenarioOutcome(winner=winner, t_event=hit.t, trajectory=traj)
    return ScenarioOutcome(winner="stalemate", t_event=settings.t_end,
                           trajectory=traj)


# ---------------------------------------------------------------------------
# batch runner (vectorised over members, with event bisection)
# ---------------------------------------------------------------------------

@dataclass
class BatchOutcome:
    winner: np.ndarray       # int codes: 0 stalemate, 1 blue, 2 red, -1 failed
    t_event: np.ndarray
    y_final: np.ndarray


def integrate_batch(rhs, y0, dt, t_end, p_death, *,
                    on_compact=None) -> BatchOutcome:
    """Fixed-step RK4 over a batch; stops members on P_1/P_2 threshold
    crossings, located inside the step as ``run_scenario`` locates them, or
    on reaching a fixed point.

    ``y0`` has shape (dim, B); ``rhs(y)`` must broadcast over the batch
    axis.  Winners: 1 if P2 crossed p_death first, 2 if P1 did, 0 at the
    horizon or at a steady state, -1 on numerical failure.

    Decided members are removed from the batch; when the right-hand side
    captures per-member parameter arrays, pass ``on_compact(keep_mask)``
    to slice those arrays in lockstep.  ``p_death`` may also hold one
    threshold per member.
    """
    y = np.array(y0, dtype=float)
    dim, B = y.shape
    p_death = np.broadcast_to(np.asarray(p_death, dtype=float), (B,))
    winner = np.full(B, -2, dtype=int)      # -2 = still running
    t_event = np.full(B, t_end, dtype=float)
    y_final = np.array(y)
    active = np.arange(B)
    step_rhs = lambda t, yy: rhs(yy)

    def compact(keep):
        nonlocal y, active, p_death
        y, active, p_death = y[:, keep], active[keep], p_death[keep]
        if on_compact is not None:
            on_compact(keep)

    k1 = None                # rhs(y), when the last step already took it
    for step, (t, h) in enumerate(_rk4_grid(0.0, t_end, dt)):
        if not active.size:
            break
        k1 = rhs(y) if k1 is None else k1
        if step % CHECK_EVERY == 0:
            bad = ~np.all(np.isfinite(k1), axis=0)
            steady = (np.max(np.abs(k1), axis=0) < STEADY_TOL) & ~bad
            done = bad | steady             # t_event stays t_end
            winner[active[bad]], winner[active[steady]] = -1, 0
            y_final[:, active[done]] = y[:, done]
            if done.any():
                keep = ~done
                k1 = k1[:, keep]
                compact(keep)
                if not active.size:
                    break
        y_new = _rk4_step(step_rhs, t, y, k1, h)
        anyc = ((y[:2] > p_death) & (y_new[:2] <= p_death)).any(axis=0)
        if anyc.any():
            f_new = rhs(y_new)
            for i in np.nonzero(anyc)[0]:
                hits = []
                _scan_events(_threshold_events(p_death[i]), t, y[:, i],
                             k1[:, i], h, y_new[:, i], f_new[:, i], hits)
                member = active[i]
                winner[member] = 1 if hits[0].name == "red-extinct" else 2
                t_event[member] = hits[0].t
                y_final[:, member] = y_new[:, i]
            y, k1 = y_new, f_new[:, ~anyc]      # columns are independent
            compact(~anyc)
        else:
            y, k1 = y_new, None
    winner[active] = 0              # every other member left with its code
    y_final[:, active] = y
    return BatchOutcome(winner=winner, t_event=t_event, y_final=y_final)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    n_sim: int
    counts: dict
    fractions: dict
    winners: np.ndarray
    t_events: np.ndarray


def reconnoitred_phases(system, n_sim: int, seed: int, dt: float,
                        recon_T: float) -> np.ndarray:
    """Ensemble start phases, shape (n_nodes, n_sim): theta_i(0) ~ U[0, 2pi)
    i.i.d., member i from its own substream, then recon_T of phase-only
    dynamics (H = 1); recon_T = 0 takes no step."""
    n = system.net.n_total
    theta = np.stack([substream(seed, "ensemble", i).uniform(
        0.0, 2.0 * np.pi, size=n) for i in range(n_sim)], axis=1)
    return _rk4(system.phase_rhs(), theta, dt, recon_T)


def ensemble(system, P0, n_sim: int, seed: int, settings: IntegratorSettings,
             recon_T: float = 50.0, p_death: float = 1e-4) -> EnsembleResult:
    """Fixed initial resources, randomised initial phases, win fractions."""
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    if system.reduced:
        raise ValueError("ensemble applies to full variants (random phases)")
    m = system.n_pops
    P0 = np.asarray(P0, dtype=float).reshape(m)
    theta0 = reconnoitred_phases(system, n_sim, seed, settings.dt_init, recon_T)
    y0 = np.concatenate([np.repeat(P0[:, None], n_sim, axis=1), theta0], axis=0)
    out = integrate_batch(system.rhs, y0, settings.dt_init, settings.t_end,
                          p_death)
    counts = {name: int((out.winner == code).sum()) for name, code in
              (("blue", 1), ("red", 2), ("stalemate", 0), ("failed", -1))}
    n_ok = max(n_sim - counts["failed"], 1)
    fractions = {k: counts[k] / n_ok for k in ("blue", "red", "stalemate")}
    return EnsembleResult(n_sim=n_sim, counts=counts, fractions=fractions,
                          winners=out.winner, t_events=out.t_event)
