"""Reference bodies of the event bisector and the batch runner.

The bisector is the general event API the solver had before threshold
crossings became its only event: scalar events g(t, y) of any direction,
terminal or not, located one by one and ordered by time.
``kuracomp.solver._locate`` must equal ``_scan_events(_threshold_events(p),
...)`` bitwise in crossed row, t and y.

The batch runner is its own fixed-step RK4 loop with a threshold-crossing
pre-check, a steady-state and finiteness check every ``CHECK_EVERY`` steps,
and compaction of decided members.  ``kuracomp.solver.integrate_batch`` must
equal it bitwise in winner and t_event.  Its y_final of an event member is
the end of the crossing step, where the runner reports the located crossing
state.

``_rk4`` is the final-state loop that reconnaissance and the free centroid
settling ran on before they became outcome-only driver runs: no events, no
steady stop, no checks.  Both loops step with this module's own RK4 body
and schedule, not the solver's."""

from dataclasses import dataclass

import numpy as np

from kuracomp.solver import (CHECK_EVERY, EVENT_TIME_TOL, STEADY_TOL,
                             BatchOutcome, _hermite)


def _rk4_step(rhs, t, y, k1, h):
    """One classical RK4 step of size h from (t, y), given k1 = rhs(t, y)."""
    k2 = rhs(t + h / 2, y + (h / 2) * k1)
    k3 = rhs(t + h / 2, y + (h / 2) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_grid(t0, t_end, dt):
    """(t, h) for ceil((t_end - t0)/dt) steps of min(dt, t_end - t)."""
    t = t0
    for _ in range(int(np.ceil((t_end - t0) / dt - 1e-12))):
        h = min(dt, t_end - t)
        yield t, h
        t += h


def _rk4(rhs, y, dt, t_end):
    """Final state of fixed-step RK4 on dy/dt = rhs(y) over [0, t_end]."""
    step_rhs = lambda t, yy: rhs(yy)
    for t, h in _rk4_grid(0.0, t_end, dt):
        y = _rk4_step(step_rhs, t, y, rhs(y), h)
    return y


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
    if ev.direction > 0:
        return (g0 < 0) & (0 <= g1)
    if ev.direction < 0:
        return (g0 > 0) & (0 >= g1)
    return ((g0 < 0) & (0 <= g1)) | ((g0 > 0) & (0 >= g1))


def _locate_event(ev, t0, y0, f0, h, y1, f1):
    """Bisection of the offset s in [0, h], a float, on the step's interpolant
    down to |ds| <= 1e-9; a crossing is a sign change in (t0, t0 + h] in
    the event's direction.  Returns (t0 + s, y(t0 + s)) or None."""
    ga = ev.fn(t0, y0)
    if not _crossed(ev, ga, ev.fn(t0 + h, y1)):
        return None
    a, b = 0.0, h
    while (b - a) > EVENT_TIME_TOL:
        m = 0.5 * (a + b)
        gm = ev.fn(t0 + m, _hermite(y0, f0, h, y1, f1, m))
        if gm == 0.0:
            a = b = m
            break
        if np.sign(gm) == np.sign(ga):
            a, ga = m, gm
        else:
            b = m
    s = 0.5 * (a + b)
    return t0 + s, _hermite(y0, f0, h, y1, f1, s)


def _threshold_events(p_death):
    """P2 then P1 falling through p_death; the order makes Blue win a tie."""
    return [Event(fn=lambda t, y, i=i: y[i] - p_death, name=name, direction=-1)
            for i, name in ((1, "red-extinct"), (0, "blue-extinct"))]


def integrate_batch(rhs, y0, dt, t_end, p_death, *, on_compact=None):
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
