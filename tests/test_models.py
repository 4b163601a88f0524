import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from kuracomp import graphs, models, phase
from kuracomp.models import CentroidCoupling, ModelConfig


def _coupling(phi=0.2, psi=0.0):
    return CentroidCoupling(g12=1.0, g21=1.0, phi=phi, psi=psi)


def test_centroid_coeffs_symmetric():
    cfg = ModelConfig(mu=0.0)
    co = models.centroid_coeffs(cfg, _coupling(phi=0.0), 1.0, 1.0)
    assert (co.C, co.S, co.K_disc) == (2.0, 0.0, 4.0)


def test_centroid_coeffs_frustrated():
    cfg = ModelConfig(mu=0.2)
    co = models.centroid_coeffs(cfg, _coupling(phi=0.2), 1.0, 1.0)
    assert co.C == pytest.approx(1.980067, abs=1e-6)
    assert co.S == pytest.approx(0.198669, abs=1e-6)
    assert co.K_disc == pytest.approx(3.920133, abs=1e-6)


def test_centroid_coeffs_suppressed():
    cfg = ModelConfig(mu=0.3)
    co = models.centroid_coeffs(cfg, _coupling(), 0.0, 0.0)
    assert co.C == 0.0 and co.S == 0.0
    assert co.K_disc == pytest.approx(-0.09)


def test_k_disc_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cfg = ModelConfig(mu=rng.normal())
        coup = CentroidCoupling(g12=rng.uniform(0, 2), g21=rng.uniform(0, 2),
                                phi=rng.normal(), psi=rng.normal())
        co = models.centroid_coeffs(cfg, coup, rng.uniform(), rng.uniform())
        assert co.K_disc == pytest.approx(co.C ** 2 + co.S ** 2 - cfg.mu ** 2)


def _small_net(n1=3, n2=3, sigma=(1.0, 1.0), phi=0.0, psi=0.0):
    g1 = graphs.Graph(n=n1, edges=tuple((i, i + 1) for i in range(n1 - 1)))
    g2 = graphs.Graph(n=n2, edges=tuple((i, i + 1) for i in range(n2 - 1)))
    links = {(0, 1): [(0, 0)]}
    return graphs.assemble([g1, g2], links, sigma=list(sigma),
                           xi={(0, 1): 1.0, (1, 0): 1.0}, phi=phi, psi=psi,
                           strategic=[(0,), (0,)],
                           tactical=[tuple(range(1, n1)), tuple(range(1, n2))])


def _sync_state(net, P, delta):
    theta = np.zeros(net.n_total)
    theta[net.nodes_of(1)] = -delta
    return np.concatenate([np.asarray(P, dtype=float), theta])


def test_simple_rhs_zero_population():
    net = _small_net()
    cfg = ModelConfig()
    y = _sync_state(net, [0.0, 0.0], 0.7)
    dy = models.simple_rhs(y, cfg, net)
    assert dy[0] == 0.0 and dy[1] == 0.0
    free = phase.kuramoto_rhs(y[2:], net, 1.0)
    assert np.allclose(dy[2:], free)


def test_simple_rhs_logistic_zero():
    net = _small_net()
    cfg = ModelConfig()
    dy = models.simple_rhs(_sync_state(net, [1.0, 0.0], 0.0), cfg, net)
    assert dy[0] == pytest.approx(0.0, abs=1e-15)


def test_simple_rhs_hand_values():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0)
    dy = models.simple_rhs(_sync_state(net, [0.5, 0.5], 0.0), cfg, net)
    assert dy[0] == pytest.approx(0.25)     # 3*.25 - 2*.25*1
    assert dy[1] == pytest.approx(0.125)    # 2.5*.25 - 0.5


def test_feedback_equals_simple_when_synchronized():
    net = _small_net(sigma=(2.0, 2.0), phi=0.1)
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, p_exponent=1)
    y = _sync_state(net, [0.4, 0.7], 0.3)
    a = models.feedback_rhs(y, cfg, net)
    b = models.simple_rhs(y, cfg, net)
    assert np.allclose(a, b, atol=1e-14)


def test_feedback_antipodal_strategic_kills_logistic():
    g1 = graphs.Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
    g2 = graphs.Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
    net = graphs.assemble([g1, g2], {(0, 1): [(3, 3)]}, sigma=[1.0, 1.0],
                          xi={(0, 1): 1.0, (1, 0): 1.0}, phi=0.0, psi=0.0,
                          strategic=[(0, 1), (0, 1)],
                          tactical=[(2, 3), (2, 3)])
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=0.0, beta2=0.0)
    theta = np.zeros(net.n_total)
    theta[0], theta[1] = 0.0, np.pi          # O_S1 = 0
    y = np.concatenate([[0.5, 0.5], theta])
    dy = models.feedback_rhs(y, cfg, net)
    assert dy[0] == pytest.approx(0.0, abs=1e-12)
    assert dy[1] > 0                          # Red logistic unaffected


def test_feedback_power_quarters_reduction():
    net = _small_net(n1=3, n2=3)
    cfg1 = ModelConfig(r1=0.0, r2=0.0, beta1=0.0, beta2=1.0, p_exponent=1)
    cfg2 = cfg1.with_overrides(p_exponent=2)
    # Red tactical nodes at phases (0, 2pi/3): O_T2 = 0.5
    theta = np.zeros(6)
    theta[4], theta[5] = 0.0, 2 * np.pi / 3
    y = np.concatenate([[0.5, 0.5], theta])
    o_t2 = phase.order_parameter(theta[np.array([4, 5])])
    assert o_t2 == pytest.approx(0.5)
    base = ModelConfig(r1=0.0, r2=0.0, beta1=0.0, beta2=1.0)
    y_sync = np.concatenate([[0.5, 0.5], np.zeros(6)])
    full = models.feedback_rhs(y_sync, base, net)[0]       # O = 1 reference
    dy2 = models.feedback_rhs(y, cfg2, net)
    # reduction term scales by O_T2^2 = 1/4 (initiative factor matches at
    # equal centroid difference)
    d_ref = phase.circular_centroid(y[2:5]) - phase.circular_centroid(y[5:8])
    scale = 0.25 * (np.sin(-d_ref) + 2) / 2
    assert dy2[0] == pytest.approx(full * scale / ((np.sin(0) + 2) / 2))


def test_eco2_limits():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, alpha=20.0,
                      tau=1.0, x1=0.25)
    dy = models.eco2_rhs(_sync_state(net, [0.6, 0.0], 0.0), cfg, net)
    assert dy[0] == pytest.approx(-cfg.x1 * 0.6)     # decay only at P2 = 0
    dy2 = models.eco2_rhs(_sync_state(net, [0.0, 1.0], 0.0), cfg, net)
    assert dy2[1] == pytest.approx(0.0, abs=1e-15)   # FP2: P2* = 1


def test_eco2_hand_rates():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, alpha=20.0,
                      tau=1.0, x1=0.25)
    dy = models.eco2_rhs(_sync_state(net, [0.5, 0.5], 0.0), cfg, net)
    # by hand: recruit = 3*(10/11), logistic .25, reduction 2*.25*1, decay .125
    dP1 = 3.0 * (10 / 11) * 0.25 - 2.0 * 0.25 - 0.25 * 0.5
    dP2 = 2.5 * 0.25 - (2 * 0.5 / (1 + 2 * 0.5)) * 0.5 * 1.0
    assert dy[0] == pytest.approx(dP1)
    assert dy[1] == pytest.approx(dP2)


def _eco3_net():
    t = graphs.gen_kary_tree(2, 1)
    g = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    return graphs.assemble(
        [t, g, g], {(0, 1): [(0, 0)], (1, 2): [(2, 2)]},
        sigma=[1.0, 1.0, 1.0],
        xi={(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0},
        phi=0.2, psi=0.0,
        strategic=[(0,), (0,), (0,)],
        tactical=[(1, 2), (1, 2), (1, 2)])


def test_eco3_no_red_no_recruitment():
    net = _eco3_net()
    cfg = ModelConfig()
    theta = np.zeros(net.n_total)
    y = np.concatenate([[4.0, 0.0, 3.0], theta])
    dy = models.eco3_rhs(y, cfg, net)
    assert dy[0] == pytest.approx(-cfg.x1 * 4.0)     # r1* = 0 at P2 = 0


def test_eco3_green_absent_beta_star():
    cfg = ModelConfig(beta1=5.0, beta1_min=0.1)
    # beta1* = beta1 at P3 = 0
    b1s = (cfg.beta1 + cfg.beta1_min * 0.0) / (1 + 0.0)
    assert b1s == cfg.beta1


def test_eco3_holling_saturation():
    cfg = ModelConfig(beta1=5.0, tau=0.7)
    p2 = 1e9
    f12 = cfg.beta1 * p2 / (1 + cfg.tau * cfg.beta1 * p2)
    assert f12 == pytest.approx(1 / cfg.tau, rel=1e-6)


def test_full_vs_reduced_population_rates():
    """With internally synchronized phases the population rates of every
    full variant equal its reduced counterpart's exactly."""
    rng = np.random.default_rng(5)
    net2 = _small_net(sigma=(2.0, 1.0), phi=0.2)
    coup2 = CentroidCoupling.from_network(net2)
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, mu=0.2,
                      alpha=20.0, tau=1.0, x1=0.25)
    for _ in range(10):
        P = rng.uniform(0.05, 0.95, 2)
        delta = rng.uniform(-2.5, 2.5)
        y_full = _sync_state(net2, P, delta)
        y_red = np.array([P[0], P[1], delta])
        for full_fn, red_fn in ((models.simple_rhs, models.simple_reduced_rhs),
                                (models.feedback_rhs, models.simple_reduced_rhs),
                                (models.eco2_rhs, models.eco2_reduced_rhs)):
            df = full_fn(y_full, cfg, net2)
            dr = red_fn(y_red, cfg, coup2)
            assert df[0] == pytest.approx(dr[0], abs=1e-12)
            assert df[1] == pytest.approx(dr[1], abs=1e-12)

    net3 = _eco3_net()
    coup3 = CentroidCoupling.from_network(net3)
    cfg3 = ModelConfig()
    for _ in range(10):
        P = rng.uniform(0.5, 9.5, 3)
        d1, d2 = rng.uniform(-2.0, 2.0, 2)
        theta = np.zeros(net3.n_total)
        theta[net3.nodes_of(1)] = -d1
        theta[net3.nodes_of(2)] = -d2
        y_full = np.concatenate([P, theta])
        y_red = np.concatenate([P, [d1, d2]])
        df = models.eco3_rhs(y_full, cfg3, net3)
        dr = models.eco3_reduced_rhs(y_red, cfg3, coup3)
        assert np.allclose(df[:3], dr[:3], atol=1e-12)


def test_initiative_factor_bounds():
    d = np.linspace(-10, 10, 1001)
    vals = models._initiative(d)
    assert vals.min() >= 0.5 and vals.max() <= 1.5


def test_h_clamped_when_adversary_exceeds_one():
    net = _small_net()                               # omega = 0
    theta = np.random.default_rng(0).uniform(0, 2 * np.pi, net.n_total)
    free = phase.kuramoto_rhs(theta, net, 1.0)      # H = 1
    assert np.all(free != 0.0)
    dy = models.simple_rhs(np.concatenate([[1.4, 0.2], theta]),
                           ModelConfig(), net)
    h = dy[2:] / free
    assert np.all(h[net.nodes_of(1)] == 0.0)           # 1 - 1.4 clamps to 0
    assert np.allclose(h[net.nodes_of(0)], 0.8)


def test_nonnegativity_barrier():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0,
                      alpha=20.0, tau=1.0, x1=0.25)
    for fn in (models.simple_rhs, models.eco2_rhs):
        dy = fn(_sync_state(net, [0.0, 0.5], 0.1), cfg, net)
        assert dy[0] >= 0.0
        dy = fn(_sync_state(net, [0.5, 0.0], 0.1), cfg, net)
        assert dy[1] >= 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(r1=-1.0).validate()
    with pytest.raises(ValueError):
        ModelConfig(K1=0.0).validate()
    with pytest.raises(ValueError):
        ModelConfig(p_exponent=3).validate()
    with pytest.raises(ValueError):
        ModelConfig(P_D=0.5).validate()
    assert ModelConfig().validate() is not None


def test_build_system_registry():
    cfg = ModelConfig()
    with pytest.raises(ValueError):
        models.build_system("nope", cfg)
    with pytest.raises(ValueError):
        models.build_system("simple", cfg)       # needs a network
    sys_red = models.build_system("simple-reduced", cfg)
    assert sys_red.dim == 3 and sys_red.reduced
    assert sys_red.labels == ["P1", "P2", "Delta1"]


def test_hybrid_state_pack_unpack():
    cfg = ModelConfig(gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    st = models.HybridState(P=[0.4, 0.6], delta=[0.3])
    y = st.pack()
    assert y.shape == (3,)
    back = models.HybridState.unpack(y, system)
    assert np.allclose(back.P, [0.4, 0.6]) and back.delta[0] == 0.3
    with pytest.raises(ValueError):
        models.HybridState(P=[0.5, 0.5])
    with pytest.raises(ValueError):
        models.HybridState(P=[0.5], theta=[0.0], delta=[0.0])


# ---------------------------------------------------------------------------
# the phase plan against the per-population phase layer
# ---------------------------------------------------------------------------

_FULL_RHS = {"simple": models.simple_rhs, "feedback": models.feedback_rhs,
             "eco2": models.eco2_rhs, "eco3": models.eco3_rhs}


def _oracle_rhs(variant, y, cfg, net):
    """The full right-hand side from the public phase layer, one population
    at a time: a centroid and two order parameters per population and H
    broadcast over each population's nodes."""
    m = net.n_pops
    P, theta = y[:m], y[m:]
    th = [phase.circular_centroid(theta[net.nodes_of(p)]) for p in range(m)]
    k1, k2 = (cfg.K1, cfg.K2) if variant == "eco3" else (1.0, 1.0)
    h1 = np.clip(1.0 - P[1] / k2, 0.0, 1.0)
    h2 = np.clip(1.0 - P[0] / k1, 0.0, 1.0)
    h_pop = [h1, h2] + [np.ones_like(h1)] * (m - 2)
    h = np.concatenate([np.broadcast_to(h_pop[p], (net.sizes[p],) + h1.shape)
                        for p in range(m)])
    dtheta = phase.kuramoto_rhs(theta, net, h)
    i12 = models._initiative(th[1] - th[0])
    i21 = models._initiative(th[0] - th[1])
    if variant == "simple":
        dP = [cfg.r1 * P[0] * (1 - P[0]) - cfg.beta2 * P[0] * P[1] * i12,
              cfg.r2 * P[1] * (1 - P[1]) - cfg.beta1 * P[1] * P[0] * i21]
        return np.concatenate([np.stack(dP), dtheta])
    n = cfg.p_exponent
    o_s = [phase.order_parameter(theta, net.strategic_global(p)) ** n
           for p in range(m)]
    o_t = [phase.order_parameter(theta, net.tactical_global(p)) ** n
           for p in range(m)]
    if variant == "feedback":
        dP = [cfg.r1 * P[0] * (1 - P[0]) * o_s[0]
              - cfg.beta2 * P[0] * P[1] * o_t[1] * i12,
              cfg.r2 * P[1] * (1 - P[1]) * o_s[1]
              - cfg.beta1 * P[1] * P[0] * o_t[0] * i21]
    elif variant == "eco2":
        recruit1 = cfg.r1 * cfg.alpha * P[1] / (1 + cfg.alpha * P[1])
        holling = cfg.beta1 * P[1] / (1 + cfg.tau * cfg.beta1 * P[1])
        dP = [recruit1 * P[0] * (1 - P[0]) * o_s[0]
              - cfg.beta2 * P[0] * P[1] * o_t[1] * i12 - cfg.x1 * P[0],
              cfg.r2 * P[1] * (1 - P[1]) * o_s[1] - holling * P[0] * o_t[0] * i21]
    else:
        r1s = cfg.r1 * cfg.alpha * P[1] / (1 + cfg.alpha * P[1])
        r3s = (cfg.r3 + cfg.r3_max * P[0]) / (1 + P[0])
        beta1s = (cfg.beta1 + cfg.beta1_min * P[2]) / (1 + P[2])
        f12s = beta1s * P[1] / (1 + cfg.tau * beta1s * P[1])
        x3s = (cfg.x3 - (cfg.x3 - cfg.x3_min) * P[0] / (1 + P[0])
               + (cfg.x3_max - cfg.x3) * P[1] / (1 + P[1]))
        dP = [r1s * P[0] * (1 - P[0] / cfg.K1) * o_s[0]
              - cfg.beta2 * P[0] * P[1] * o_t[1] * i12 - cfg.x1 * P[0],
              cfg.r2 * P[1] * (1 - P[1] / cfg.K2) * o_s[1]
              - f12s * P[0] * o_t[0] * i21,
              r3s * P[2] * (1 - P[2] / cfg.K3) * o_s[2] - x3s * P[2]]
    return np.concatenate([np.stack(dP), dtheta])


def _random_net(rng, sizes):
    """Erdos-Renyi populations of the given sizes, random cross links,
    couplings, frustration, frequencies and strategic/tactical split (both
    sets non-empty wherever a population has two nodes or more)."""
    pops = [graphs.gen_erdos_renyi(n, 0.6, rng) for n in sizes]
    links, xi = {}, {}
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            pairs = {(int(rng.integers(sizes[i])), int(rng.integers(sizes[j])))
                     for _ in range(3)}
            links[(i, j)] = sorted(pairs)
            xi[(i, j)], xi[(j, i)] = rng.uniform(0.0, 2.0, 2)
    strategic, tactical = [], []
    for n in sizes:
        order = rng.permutation(n)
        k = int(rng.integers(1, n)) if n > 1 else int(rng.integers(2))
        strategic.append(tuple(sorted(order[:k])))
        tactical.append(tuple(sorted(order[k:])))
    return graphs.assemble(pops, links, sigma=rng.uniform(0.0, 2.0, len(sizes)),
                           xi=xi, phi=rng.uniform(-1, 1), psi=rng.uniform(-1, 1),
                           strategic=strategic, tactical=tactical,
                           omega=rng.normal(size=sum(sizes)))


@pytest.mark.parametrize("variant", sorted(_FULL_RHS))
@settings(max_examples=100)
@given(sizes=hst.lists(hst.integers(1, 6), min_size=3, max_size=3),
       batch=hst.one_of(hst.none(), hst.integers(1, 6)),
       p_exponent=hst.sampled_from([1, 2]),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_phase_plan_rhs_equals_per_population_oracle(variant, sizes, batch,
                                                     p_exponent, seed):
    rng = np.random.default_rng(seed)
    m = 3 if variant == "eco3" else 2
    net = _random_net(rng, sizes[:m])
    cfg = ModelConfig(p_exponent=p_exponent, K1=rng.uniform(0.5, 10.0),
                      K2=rng.uniform(0.5, 10.0))
    caps = [cfg.K1, cfg.K2, cfg.K3] if m == 3 else [1.0, 1.0]
    shape = () if batch is None else (batch,)
    # P up to 1.5 capacities, so some H clamp to 0
    P = np.stack([rng.uniform(0.0, 1.5 * k, shape) for k in caps])
    theta = rng.uniform(-10.0, 10.0, (net.n_total,) + shape)
    y = np.concatenate([P, theta])
    _, _, th, _ = models._phases(theta, net)
    for p in range(2):
        assert np.array_equal(th[p],
                              phase.circular_centroid(theta[net.nodes_of(p)]))
    try:
        want = _oracle_rhs(variant, y, cfg, net)
    except ValueError:                   # a strategic or tactical set is empty
        with pytest.raises(ValueError, match="empty subset"):
            _FULL_RHS[variant](y, cfg, net)
        return
    got = _FULL_RHS[variant](y, cfg, net)
    assert got.shape == want.shape == y.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
