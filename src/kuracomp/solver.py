"""ODE integration and the simulation protocol.

``integrate`` is an embedded Dormand-Prince 5(4) pair with PI step-size
control, cubic-Hermite dense output, and event location by bisection on the
dense interpolant (|dt| <= 1e-9).  ``method="rk4"`` switches to fixed-step
classical RK4 for bit-reproducible baselines.  It, the batch runner,
reconnaissance and settling share one RK4 step and one schedule:
ceil((t_end - t0)/dt) steps, never padded with a rounding-sized sliver, so
a trajectory and a batch member from the same start agree bitwise.

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
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])


class StiffnessError(RuntimeError):
    """Step size underflowed; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


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

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def interpolate(self, ts):
        """Cubic-Hermite evaluation at arbitrary times within the span."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, len(self.t) - 2)
        out = np.empty((ts.size, self.dim))
        for m, (i, tm) in enumerate(zip(idx, ts)):
            out[m] = _hermite(self.t[i], self.y[i], self.f[i],
                              self.t[i + 1], self.y[i + 1], self.f[i + 1], tm)
        return out

    def to_csv(self, path, labels):
        header = "t," + ",".join(labels)
        data = np.column_stack([self.t, self.y])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def _hermite(t0, y0, f0, t1, y1, f1, t):
    h = t1 - t0
    if h == 0:
        return y0.copy()
    s = (t - t0) / h
    h00 = 2 * s ** 3 - 3 * s ** 2 + 1
    h10 = s ** 3 - 2 * s ** 2 + s
    h01 = -2 * s ** 3 + 3 * s ** 2
    h11 = s ** 3 - s ** 2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _scan_events(events, t0, y0, f0, t1, y1, f1, hits):
    """Record every event crossing in (t0, t1]; return the first terminal
    hit (t, y) or None."""
    found = []
    for ev in events:
        loc = _locate_event(ev, t0, y0, f0, t1, y1, f1)
        if loc is not None:
            found.append((loc[0], loc[1], ev))
    found.sort(key=lambda item: item[0])
    for t_ev, y_ev, ev in found:
        hits.append(EventHit(ev.name, t_ev, y_ev))
        if ev.terminal:
            return t_ev, y_ev
    return None


def _locate_event(ev, t0, y0, f0, t1, y1, f1):
    """Bisection on the dense interpolant down to |dt| <= 1e-9; a crossing
    is a sign change in (t0, t1] in the event's direction."""
    g0 = ev.fn(t0, y0)
    g1 = ev.fn(t1, y1)
    rising, falling = g0 < 0 <= g1, g0 > 0 >= g1
    crossed = rising if ev.direction > 0 else \
        falling if ev.direction < 0 else rising or falling
    if not crossed:
        return None
    a, b = t0, t1
    ga = g0
    while (b - a) > EVENT_TIME_TOL:
        m = 0.5 * (a + b)
        ym = _hermite(t0, y0, f0, t1, y1, f1, m)
        gm = ev.fn(m, ym)
        if gm == 0.0:
            a = b = m
            break
        if np.sign(gm) == np.sign(ga):
            a, ga = m, gm
        else:
            b = m
    t_ev = 0.5 * (a + b)
    return t_ev, _hermite(t0, y0, f0, t1, y1, f1, t_ev)


def integrate(rhs, y0, settings: IntegratorSettings, t0: float = 0.0,
              events=()) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from t0 to settings.t_end.

    Terminal events truncate the trajectory at the located crossing.  The
    local error per step is held at or below atol + rtol*|y| (RMS norm);
    on step underflow a StiffnessError carrying the partial trajectory is
    raised.
    """
    y0 = np.asarray(y0, dtype=float).copy()
    t_end = settings.t_end
    span = t_end - t0
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    if settings.method == "rk4":
        return _integrate_rk4(rhs, y0, settings, t0, events)

    t, y = t0, y0
    f = np.asarray(rhs(t, y), dtype=float)
    out = ([t], [y.copy()], [f.copy()], [])
    h = min(settings.dt_init, settings.dt_max, span)
    err_prev = 1.0
    safety, fac_min, fac_max = 0.9, 0.2, 5.0
    k = np.empty((7,) + y.shape)

    while t < t_end:
        h = min(h, t_end - t, settings.dt_max)
        if h < 1e-14 * span:
            raise StiffnessError(f"step size underflow at t={t}",
                                 _trajectory(out, "stiff"))
        k[0] = f
        for i in range(1, 7):
            k[i] = rhs(t + _C[i] * h, y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B5 @ k.reshape(7, -1)).reshape(y.shape)
        err_vec = h * (_E @ k.reshape(7, -1)).reshape(y.shape)
        err = _error_norm(err_vec, y, y_new, settings.rtol, settings.atol)
        if err <= 1.0 or h <= 1e-13 * span:
            t_new = t + h
            f_new = k[6].copy()  # FSAL: last stage is rhs(t_new, y_new)
            if _append_step(rhs, events, out, t, y, f, t_new, y_new, f_new):
                return _trajectory(out, "event")
            t, y, f = t_new, y_new, f_new
            fac = safety * err ** -0.14 * err_prev ** 0.08 if err > 0 else fac_max
            h *= min(fac_max, max(fac_min, fac))
            err_prev = max(err, 1e-4)
        else:
            h *= min(1.0, max(0.1, safety * err ** -0.2))

    return _trajectory(out, "completed")


def _integrate_rk4(rhs, y0, settings, t0, events):
    """Classical fixed-step RK4 with the same dense output and events."""
    y, f = y0, np.asarray(rhs(t0, y0), dtype=float)
    out = ([t0], [y.copy()], [f.copy()], [])
    for t, h in _rk4_grid(t0, settings.t_end, settings.dt_init):
        y_new = _rk4_step(rhs, t, y, f, h)
        f_new = np.asarray(rhs(t + h, y_new), dtype=float)
        if _append_step(rhs, events, out, t, y, f, t + h, y_new, f_new):
            return _trajectory(out, "event")
        y, f = y_new, f_new
    return _trajectory(out, "completed")


def _append_step(rhs, events, out, t0, y0, f0, t1, y1, f1):
    """Append the accepted step's end to ``out`` = (ts, ys, fs, hits), or
    its first terminal event instead; True if an event stopped the run."""
    stop = _scan_events(events, t0, y0, f0, t1, y1, f1, out[3])
    if stop is not None:
        t1, y1 = stop
        f1 = np.asarray(rhs(t1, y1), dtype=float)
    out[0].append(t1)
    out[1].append(y1.copy())
    out[2].append(f1.copy())
    return stop is not None


def _trajectory(out, status):
    return Trajectory(*map(np.array, out[:3]), out[3], status)


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
    trajectory: Trajectory = None


def _threshold_events(p_death):
    evs = []
    for idx, name in ((1, "red-extinct"), (0, "blue-extinct")):
        evs.append(Event(fn=lambda t, y, i=idx: y[i] - p_death,
                         name=name, direction=-1, terminal=True))
    return evs


def run_scenario(system, state0, settings: IntegratorSettings,
                 recon_T: float = 50.0, p_death: float = 1e-4,
                 keep_trajectory: bool = True) -> ScenarioOutcome:
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

    rhs = system.rhs
    traj = integrate(lambda t, yy: rhs(yy), y, settings,
                     events=_threshold_events(p_death))
    if traj.status == "event" and traj.events:
        hit = traj.events[-1]
        winner = "blue" if hit.name == "red-extinct" else "red"
        return ScenarioOutcome(winner=winner, t_event=hit.t,
                               trajectory=traj if keep_trajectory else None)
    return ScenarioOutcome(winner="stalemate", t_event=settings.t_end,
                           trajectory=traj if keep_trajectory else None)


# ---------------------------------------------------------------------------
# batch runner (vectorised over members, with event bisection)
# ---------------------------------------------------------------------------

@dataclass
class BatchOutcome:
    winner: np.ndarray       # int codes: 0 stalemate, 1 blue, 2 red, -1 failed
    t_event: np.ndarray
    y_final: np.ndarray

    def fractions(self) -> dict:
        ok = self.winner >= 0
        n = max(int(ok.sum()), 1)
        return {
            "blue": float((self.winner == 1).sum()) / n,
            "red": float((self.winner == 2).sum()) / n,
            "stalemate": float((self.winner == 0).sum()) / n,
        }


def integrate_batch(rhs, y0, dt, t_end, p_death, *,
                    on_compact=None) -> BatchOutcome:
    """Fixed-step RK4 over a batch; stops members on P_1/P_2 threshold
    crossings (bisected inside the step) or on reaching a fixed point.

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
        y = y[:, keep]
        active = active[keep]
        p_death = p_death[keep]
        if on_compact is not None:
            on_compact(keep)

    for step, (t, h) in enumerate(_rk4_grid(0.0, t_end, dt)):
        if not active.size:
            break
        k1 = rhs(y)
        if step % CHECK_EVERY == 0:
            bad = ~np.all(np.isfinite(k1), axis=0)
            steady = (np.max(np.abs(k1), axis=0) < STEADY_TOL) & ~bad
            if bad.any():
                winner[active[bad]] = -1
                y_final[:, active[bad]] = y[:, bad]
            if steady.any():
                winner[active[steady]] = 0
                t_event[active[steady]] = t_end
                y_final[:, active[steady]] = y[:, steady]
            done = bad | steady
            if done.any():
                keep = ~done
                k1 = k1[:, keep]
                compact(keep)
                if not active.size:
                    break
        y_new = _rk4_step(step_rhs, t, y, k1, h)
        crossed1 = (y[0] > p_death) & (y_new[0] <= p_death)
        crossed2 = (y[1] > p_death) & (y_new[1] <= p_death)
        anyc = crossed1 | crossed2
        if anyc.any():
            f_new = rhs(y_new)
            idx = np.nonzero(anyc)[0]
            for i in idx:
                tb1 = _bisect_component(y[:, i], k1[:, i], y_new[:, i],
                                        f_new[:, i], h, 0, p_death[i]) if crossed1[i] else np.inf
                tb2 = _bisect_component(y[:, i], k1[:, i], y_new[:, i],
                                        f_new[:, i], h, 1, p_death[i]) if crossed2[i] else np.inf
                member = active[i]
                if tb2 <= tb1:
                    winner[member] = 1
                    t_event[member] = t + tb2
                else:
                    winner[member] = 2
                    t_event[member] = t + tb1
                y_final[:, member] = y_new[:, i]
            y = y_new
            compact(~anyc)
        else:
            y = y_new
    if active.size:
        winner[active] = 0
        y_final[:, active] = y
    winner[winner == -2] = 0
    return BatchOutcome(winner=winner, t_event=t_event, y_final=y_final)


def _bisect_component(y0, f0, y1, f1, h, comp, threshold):
    """Crossing time (within the step) of y[comp] through threshold."""
    a, b = 0.0, h
    while (b - a) > EVENT_TIME_TOL:
        m = 0.5 * (a + b)
        ym = _hermite(0.0, y0, f0, h, y1, f1, m)
        if ym[comp] - threshold > 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


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
    counts = {
        "blue": int((out.winner == 1).sum()),
        "red": int((out.winner == 2).sum()),
        "stalemate": int((out.winner == 0).sum()),
        "failed": int((out.winner == -1).sum()),
    }
    return EnsembleResult(n_sim=n_sim, counts=counts, fractions=out.fractions(),
                          winners=out.winner, t_events=out.t_event)
