"""Phase-layer primitives: Kuramoto-Sakaguchi rates, order parameters,
winding number, and the circular running-mean centroid.

The coupling sum uses the exact expansion

    sum_l W_kl sin(th_l - th_k + F_kl)
        = cos(th_k) (Mc @ sin th + Ms @ cos th)
        + sin(th_k) (Ms @ sin th - Mc @ cos th)

with Ms = W*sin(F), Mc = W*cos(F), so one evaluation is a handful of
matrix-vector products and batches over trailing axes for free.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kuramoto_rhs",
    "order_parameter",
    "winding_number",
    "circular_centroid",
]

TWO_PI = 2.0 * np.pi


def kuramoto_rhs(theta, net, h) -> np.ndarray:
    """d(theta)/dt = omega_k + H_k * sum_l W_kl sin(theta_l - theta_k + Phi_kl).

    ``theta`` has shape (n,) or (n, B); ``h`` broadcasts against it.
    """
    theta = np.asarray(theta, dtype=float)
    n = net.n_total
    if theta.shape[0] != n:
        raise ValueError(f"theta has {theta.shape[0]} entries, network has {n} nodes")
    h = np.asarray(h, dtype=float)
    if h.ndim > 0 and h.shape[0] not in (1, n):
        raise ValueError("h must broadcast against theta")
    return _kuramoto_rates(np.sin(theta), np.cos(theta), net, h)


def _kuramoto_rates(s, c, net, h) -> np.ndarray:
    """:func:`kuramoto_rhs` from s = sin(theta), c = cos(theta), unchecked."""
    m_sin, m_cos = net.coupling_matrices()
    coupling = c * (m_cos @ s + m_sin @ c) + s * (m_sin @ s - m_cos @ c)
    omega = net.omega if s.ndim == 1 else net.omega[:, None]
    return omega + h * coupling


def order_parameter(theta, subset=None) -> float:
    """Modulus of the mean unit phasor over ``subset`` (default: all nodes)."""
    theta = np.asarray(theta, dtype=float)
    if subset is not None:
        subset = np.asarray(subset, dtype=int)
        if subset.size == 0:
            raise ValueError("order parameter of an empty subset")
        theta = theta[subset]
    elif theta.shape[0] == 0:
        raise ValueError("order parameter of an empty phase set")
    z = np.exp(1j * theta).mean(axis=0)
    r = np.abs(z)
    return float(r) if np.ndim(r) == 0 else r


def _wrap_pi(x):
    """Wrap to (-pi, pi]."""
    return -((-x + np.pi) % TWO_PI - np.pi)


def winding_number(theta) -> int:
    """Integer winding q of the indexed phase sequence, with cyclic closure.

    q = (1/2pi) * sum_i wrap(theta_{i+1} - theta_i), including the
    wrap-around term theta_1 - theta_N; the wrapped sum is an exact
    multiple of 2pi, so q is always an integer.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] < 2:
        return 0
    diffs = np.diff(theta, append=theta[:1], axis=0)
    q = _wrap_pi(diffs).sum(axis=0) / TWO_PI
    q = np.round(q)
    return int(q) if np.ndim(q) == 0 else q.astype(int)


def circular_centroid(theta, method: str = "recurrence"):
    """Running-mean centroid of phases on the circle, in [0, 2pi).

    method="recurrence" (default): at step n shift the incoming phase by
    the 2pi*k minimising |theta_n - c + 2pi k| before averaging; the tie
    at exactly pi breaks toward the smaller k.  method="modshift" is the
    coarser variant that shifts by sgn(c - pi)*2pi whenever the new phase
    is more than pi from the running mean.

    Accepts shape (n,) or (n, B); reduces over the first axis.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] < 1:
        raise ValueError("centroid of an empty phase set")
    if method == "recurrence":
        c = np.array(theta[0], dtype=float, copy=True)
        for n in range(2, theta.shape[0] + 1):
            t = theta[n - 1]
            k = np.ceil((c - t) / TWO_PI - 0.5)
            c = c + (t - c + TWO_PI * k) / n
    elif method == "modshift":
        tilde = np.mod(theta, TWO_PI)
        c = np.array(tilde[0], dtype=float, copy=True)
        for n in range(2, theta.shape[0] + 1):
            t = tilde[n - 1]
            shifted = np.where(np.abs(t - c) > np.pi,
                               t + np.sign(c - np.pi) * TWO_PI, t)
            c = c + (shifted - c) / n
    else:
        raise ValueError(f"unknown centroid method {method!r}")
    out = np.mod(c, TWO_PI)
    return float(out) if np.ndim(out) == 0 else out
