"""Phase-layer primitives: Kuramoto-Sakaguchi rates, order parameters and
the circular running-mean centroid.

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
    "circular_centroid",
]

TWO_PI = 2.0 * np.pi


def kuramoto_rhs(theta, net, h, phi, psi) -> np.ndarray:
    """d(theta)/dt = omega_k + H_k * sum_l W_kl sin(theta_l - theta_k + Phi_kl).

    ``theta`` has shape (n,) or (n, B); ``h`` broadcasts against it.  Phi
    is ``phi`` on the 1->2 block, ``psi`` on the 2->1 block, else zero.
    """
    theta = np.asarray(theta, dtype=float)
    n = net.n_total
    if theta.shape[0] != n:
        raise ValueError(f"theta has {theta.shape[0]} entries, network has {n} nodes")
    h = np.asarray(h, dtype=float)
    if h.ndim > 0 and h.shape[0] not in (1, n):
        raise ValueError("h must broadcast against theta")
    return _kuramoto_rates(np.sin(theta), np.cos(theta), net, h, phi, psi)


def _kuramoto_rates(s, c, net, h, phi, psi) -> np.ndarray:
    """:func:`kuramoto_rhs` from s = sin(theta), c = cos(theta), unchecked."""
    m_sin, m_cos = net.coupling_matrices(phi, psi)
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


def circular_centroid(theta):
    """Running-mean centroid of phases on the circle, in [0, 2pi).

    At step n the incoming phase is shifted by the 2pi*k minimising
    |theta_n - c + 2pi k| before averaging; the tie at exactly pi breaks
    toward the smaller k.  Accepts shape (n, ...); reduces over the first
    axis, in place: 2pi k - (c - t) is t - c + 2pi k to the bit.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] < 1:
        raise ValueError("centroid of an empty phase set")
    c = np.array(theta[0], dtype=float, copy=True)
    d, k = np.empty_like(c), np.empty_like(c)
    for n in range(2, theta.shape[0] + 1):
        np.subtract(c, theta[n - 1], out=d)
        np.subtract(np.divide(d, TWO_PI, out=k), 0.5, out=k)
        np.multiply(np.ceil(k, out=k), TWO_PI, out=k)
        np.add(c, np.divide(np.subtract(k, d, out=k), n, out=k), out=c)
    out = np.mod(c, TWO_PI)
    return float(out) if np.ndim(out) == 0 else out
