"""Reference body of the batch runner: its own fixed-step RK4 loop with a
threshold-crossing pre-check, a steady-state and finiteness check every
``CHECK_EVERY`` steps, and compaction of decided members.
``kuracomp.solver.integrate_batch`` must equal it bitwise in winner and
t_event.  Its y_final of an event member is the end of the crossing step,
where the runner reports the located crossing state."""

import numpy as np

from kuracomp.solver import (CHECK_EVERY, STEADY_TOL, BatchOutcome,
                             _rk4_grid, _rk4_step, _scan_events,
                             _threshold_events)


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
