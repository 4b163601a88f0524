import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from kuracomp import graphs, phase

TWO_PI = 2 * np.pi


def _pair_net(xi12=1.0, xi21=1.0, omega=(0.0, 0.0)):
    g = graphs.Graph(n=1, edges=())
    return graphs.assemble([g, g], {(0, 1): [(0, 0)]}, sigma=[0.0, 0.0],
                           xi={(0, 1): xi12, (1, 0): xi21},
                           strategic=[(0,), (0,)], tactical=[(), ()],
                           omega=np.asarray(omega, dtype=float))


def _brute_rhs(theta, net, h, phi, psi):
    w = net.weight_matrix()
    f = np.zeros_like(w)                 # phi on 1 -> 2, psi on 2 -> 1
    f[net.nodes_of(0), net.nodes_of(1)] = phi
    f[net.nodes_of(1), net.nodes_of(0)] = psi
    h = np.broadcast_to(h, theta.shape[:1])
    out = np.zeros_like(theta)
    for k in range(len(theta)):
        s = 0.0
        for l in range(len(theta)):
            s += w[k, l] * np.sin(theta[l] - theta[k] + f[k, l])
        out[k] = net.omega[k] + h[k] * s
    return out


def test_two_node_rates():
    net = _pair_net()
    rates = phase.kuramoto_rhs(np.array([0.0, np.pi / 2]), net, 1.0, 0.0, 0.0)
    assert rates == pytest.approx([1.0, -1.0])


def test_feedback_zeroes_coupling():
    net = _pair_net()
    rates = phase.kuramoto_rhs(np.array([0.0, np.pi / 2]), net,
                               np.array([0.0, 1.0]), 0.0, 0.0)
    assert rates == pytest.approx([0.0, -1.0])


def test_frustration_rate():
    net = _pair_net(xi12=1.0, xi21=0.0)
    rates = phase.kuramoto_rhs(np.zeros(2), net, 1.0, 0.2, 0.0)
    assert rates[0] == pytest.approx(np.sin(0.2), abs=1e-12)
    assert rates[1] == pytest.approx(0.0, abs=1e-12)


def test_rhs_matches_brute_force():
    rng = np.random.default_rng(3)
    t = graphs.gen_kary_tree(3, 2)
    er = graphs.gen_erdos_renyi(13, 0.3, 8)
    net = graphs.assemble(
        [t, er], {(0, 1): [(0, 3), (5, 5), (9, 12)]}, sigma=[1.3, 0.6],
        xi={(0, 1): 0.9, (1, 0): 1.7}, omega=rng.uniform(0, 1, t.n + er.n))
    theta = rng.uniform(-5, 5, net.n_total)
    h = rng.uniform(0, 1, net.n_total)
    got = phase.kuramoto_rhs(theta, net, h, 0.4, -0.2)
    assert np.allclose(got, _brute_rhs(theta, net, h, 0.4, -0.2), atol=1e-12)
    # batched evaluation agrees column by column
    thetas = rng.uniform(-5, 5, (net.n_total, 4))
    batched = phase.kuramoto_rhs(thetas, net, 1.0, 0.4, -0.2)
    for b in range(4):
        assert np.allclose(batched[:, b], phase.kuramoto_rhs(
            thetas[:, b], net, 1.0, 0.4, -0.2))


def test_rhs_global_shift_equivariance():
    net = _pair_net(omega=(0.2, 0.7))
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, TWO_PI, 2)
    r1 = phase.kuramoto_rhs(theta, net, 0.8, 0.3, 0.1)
    r2 = phase.kuramoto_rhs(theta + 1.234, net, 0.8, 0.3, 0.1)
    assert np.allclose(r1, r2, atol=1e-12)


def test_rhs_dimension_mismatch():
    net = _pair_net()
    with pytest.raises(ValueError):
        phase.kuramoto_rhs(np.zeros(3), net, 1.0, 0.0, 0.0)


def test_order_parameter_values():
    assert phase.order_parameter(np.array([1.3, 1.3, 1.3])) == pytest.approx(1.0)
    assert phase.order_parameter(np.array([0.0, np.pi])) == pytest.approx(0.0, abs=1e-12)
    assert phase.order_parameter(np.array([0.0, np.pi / 2])) == pytest.approx(
        np.sqrt(2) / 2)


def test_order_parameter_invariances():
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, TWO_PI, 9)
    base = phase.order_parameter(theta)
    assert phase.order_parameter(theta + 2.2) == pytest.approx(base)
    assert phase.order_parameter(theta[rng.permutation(9)]) == pytest.approx(base)
    with pytest.raises(ValueError):
        phase.order_parameter(theta, subset=np.array([], dtype=int))


def _wrap_pi(x):
    """Wrap to (-pi, pi]."""
    return -((-x + np.pi) % TWO_PI - np.pi)


def _winding_number(theta) -> int:
    """Integer winding q of the indexed phase sequence, with cyclic closure.

    q = (1/2pi) * sum_i wrap(theta_{i+1} - theta_i), including the
    wrap-around term theta_1 - theta_N; the wrapped sum is an exact
    multiple of 2pi, so q is always an integer.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] < 2:
        return 0
    diffs = np.diff(theta, append=theta[:1], axis=0)
    q = np.round(_wrap_pi(diffs).sum(axis=0) / TWO_PI)
    return int(q) if np.ndim(q) == 0 else q.astype(int)


def test_winding_number_examples():
    assert _winding_number(np.full(5, 0.37)) == 0
    loop = TWO_PI * np.arange(3) / 3
    assert _winding_number(loop) == 1
    assert _winding_number(loop[::-1]) == -1


def test_winding_global_shift_invariance():
    rng = np.random.default_rng(2)
    theta = rng.uniform(-10, 10, 12)
    assert _winding_number(theta + 5.5) == _winding_number(theta)


def test_centroid_examples():
    assert phase.circular_centroid(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.2)
    wrap = phase.circular_centroid(np.array([TWO_PI - 0.1, 0.1]))
    assert min(wrap, TWO_PI - wrap) == pytest.approx(0.0, abs=1e-12)


def _unwrap_mean_oracle(theta):
    """Unwrap each phase to the representative nearest the first, then average."""
    ref = theta[0]
    reps = ref + np.mod(theta - ref + np.pi, TWO_PI) - np.pi
    return np.mod(reps.mean(), TWO_PI)


def test_centroid_cluster_matches_unwrap_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        centre = rng.uniform(0, TWO_PI)
        theta = np.mod(centre + rng.uniform(-1.2, 1.2, 10), TWO_PI)
        got = phase.circular_centroid(theta)
        want = _unwrap_mean_oracle(theta)
        diff = np.mod(got - want + np.pi, TWO_PI) - np.pi
        assert abs(diff) < 1e-10


def test_centroid_shift_equivariance():
    rng = np.random.default_rng(8)
    theta = 1.0 + rng.uniform(-0.8, 0.8, 8)
    base = phase.circular_centroid(theta)
    for c in (0.5, 2.0, -3.0):
        shifted = phase.circular_centroid(theta + c)
        diff = np.mod(shifted - (base + c) + np.pi, TWO_PI) - np.pi
        assert abs(diff) < 1e-10


def test_centroid_synchronized():
    theta = np.full(6, 2.5)
    assert phase.circular_centroid(theta) == pytest.approx(2.5, abs=1e-12)
    assert phase.order_parameter(theta) == pytest.approx(1.0, abs=1e-12)


def _centroid_loop(theta):
    """circular_centroid of one phase vector, one Python float at a time."""
    c = theta[0]
    for n, t in enumerate(theta[1:], 2):
        k = math.ceil((c - t) / TWO_PI - 0.5)
        c = c + (t - c + TWO_PI * k) / n
    return c % TWO_PI


@settings(max_examples=60, deadline=None)
@given(data=hst.data())
def test_centroid_equals_the_scalar_recurrence(data):
    """Bit for bit against the scalar recurrence, over (n,), (n, B) and
    (n, 2, B) phases that span up to about 30 turns."""
    B = data.draw(hst.integers(1, 20))
    shape = (data.draw(hst.integers(1, 30)),) + data.draw(
        hst.sampled_from([(), (B,), (2, B)]))
    spread = data.draw(hst.sampled_from([0.5, np.pi, 100.0]))
    rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
    theta = rng.uniform(-spread, spread, shape)
    got = np.asarray(phase.circular_centroid(theta))
    for idx in np.ndindex(shape[1:]):
        want = _centroid_loop(theta[(slice(None),) + idx].tolist())
        assert float(got[idx]).hex() == want.hex()


def test_centroid_batched():
    rng = np.random.default_rng(9)
    thetas = rng.uniform(0, TWO_PI, (7, 5))
    batched = phase.circular_centroid(thetas)
    for b in range(5):
        assert batched[b] == pytest.approx(phase.circular_centroid(thetas[:, b]))
