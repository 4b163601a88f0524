"""The RK45 step as ``solver._drive`` took it before its stages moved into
one stack: a list of stage derivatives summed by ``_combine``, the
``np.where`` step control on every step and the five-op crossing
pre-check.  ``tests/test_solver.py`` requires ``_drive`` to equal
``drive`` bit for bit.  Its helpers (``_locate``, ``_trajectories``,
``_rk4_step``) and constants are the solver's own.
"""

from itertools import count

import numpy as np

from kuracomp.solver import (CHECK_EVERY, STEADY_TOL, _FAILURES,
                             StiffnessError, _locate, _rk4_step,
                             _trajectories)

# Dormand-Prince 5(4) tableau (every rhs is autonomous, so no nodes c_i)
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


def _combine(coeffs, ks):
    """sum_i coeffs[i]*ks[i] accumulated in index order, zero terms skipped;
    elementwise, unlike a BLAS contraction, so no member depends on B.  Out
    of place on purpose: its C-ordered result fixes a full variant's bits
    (see the module docstring)."""
    terms = [c * k for c, k in zip(coeffs, ks) if c]
    return sum(terms[1:], terms[0])


def drive(rhs, y0, settings, p_death=None, on_compact=None, dense=True,
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
            stiff = hs < 1e-14 * span
            if stiff.any():
                leave(stiff, ["stiff"] * stiff.size)
                continue
            k = [f]
            for i in range(1, 7):
                y_new = y + hs * _combine(_A[i], k)
                k.append(rhs(y_new))
            f_new = k[6]      # FSAL: the last stage is the solution (_A[6])
            scale = settings.atol + settings.rtol * np.maximum(np.abs(y),
                                                              np.abs(y_new))
            q = np.ascontiguousarray(np.square(hs * _combine(_E, k) / scale).T)
            err = np.sqrt(np.add.reduce(q, axis=1) / q.shape[1])   # RMS
            # the floor accepts a tiny step, but never a non-finite one
            ok = (err <= 1.0) | ((hs <= 1e-13 * span) & np.isfinite(err))
            with np.errstate(divide="ignore"):   # libm pow, unlike array **
                grow = np.where(err > 0, 0.9 * np.float_power(err, -0.14)
                                * np.float_power(err_prev, 0.08), 5.0)
                shrink = np.fmax(0.1, 0.9 * np.float_power(err, -0.2))
            h = hs * np.where(ok, np.fmin(5.0, np.fmax(0.2, grow)),
                              np.fmin(1.0, shrink))
            err_prev = np.where(ok, np.maximum(err, 1e-4), err_prev)
            t1 = t + hs
            if not ok.all():
                t1, y_new, f_new = (np.where(ok, a, b) for a, b in
                                    ((t1, t), (y_new, y), (f_new, f)))

        stop = None
        if p_death is not None:
            # a rejected member's y_new is its y: no crossing
            maybe = ((y[:2] > p_death) & (y_new[:2] <= p_death)).any(axis=0)
            for i in np.flatnonzero(maybe) if maybe.any() else ():
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
        if dense:
            log.append((active[ok], t1[ok], y_new[:, ok], f_new[:, ok]))
        t, y, f = t1, y_new, f_new
        if not rk4:
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
