import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from kuracomp import analysis, graphs, models, solver
from kuracomp.models import CentroidCoupling, ModelConfig
from kuracomp.solver import Event, IntegratorSettings


def test_exponential_decay():
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=1.0)
    traj = solver.integrate(lambda t, y: -y, np.array([1.0]), st)
    assert abs(traj.y[-1, 0] - np.exp(-1)) < 1e-8


def test_cosine_integral():
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=np.pi)
    traj = solver.integrate(lambda t, y: np.array([np.cos(t)]),
                            np.array([0.0]), st)
    assert abs(traj.y[-1, 0]) < 1e-8
    assert traj.t[-1] == pytest.approx(np.pi)


def test_centroid_ode_matches_closed_form():
    C, S, mu, d0 = 1.5, 0.4, 0.3, -0.8
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=20.0, dt_max=0.1)
    traj = solver.integrate(
        lambda t, y: np.array([mu + S * np.cos(y[0]) - C * np.sin(y[0])]),
        np.array([d0]), st)
    closed = analysis.delta_time_course(traj.t, C, S, mu, d0)
    assert np.max(np.abs(traj.y[:, 0] - closed)) < 1e-6


def test_rk4_fixed_step():
    st = IntegratorSettings(method="rk4", dt_init=0.01, t_end=1.0)
    traj = solver.integrate(lambda t, y: -y, np.array([1.0]), st)
    assert abs(traj.y[-1, 0] - np.exp(-1)) < 1e-9
    # bit-identical rerun
    traj2 = solver.integrate(lambda t, y: -y, np.array([1.0]), st)
    assert np.array_equal(traj.y, traj2.y)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("t0, t_end", [(0.0, -1.0), (0.0, 0.0), (2.0, 1.5)])
def test_horizon_must_exceed_start(method, t0, t_end):
    st = IntegratorSettings(method=method, dt_init=0.01, t_end=t_end)
    with pytest.raises(ValueError, match="t_end must exceed t0"):
        solver.integrate(lambda t, y: -y, np.array([1.0]), st, t0=t0)
    # the reconnaissance kernel takes zero steps on a zero horizon
    y = np.array([1.0, 2.0])
    assert solver._rk4(lambda yy: -yy, y, 0.01, 0.0) is y


def test_tolerance_halving_property():
    def rhs(t, y):
        return np.array([y[1], -np.sin(y[0])])

    coarse = IntegratorSettings(rtol=2e-6, atol=2e-8, t_end=10.0)
    fine = IntegratorSettings(rtol=1e-6, atol=1e-8, t_end=10.0)
    y0 = np.array([1.0, 0.0])
    yc = solver.integrate(rhs, y0, coarse).y[-1]
    yf = solver.integrate(rhs, y0, fine).y[-1]
    assert np.max(np.abs(yc - yf)) < 2e-6 * 100


def test_dense_output_accuracy():
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=2.0, dt_max=0.2)
    traj = solver.integrate(lambda t, y: -y, np.array([1.0]), st)
    ts = np.linspace(0.05, 1.95, 37)
    vals = traj.interpolate(ts)[:, 0]
    assert np.max(np.abs(vals - np.exp(-ts))) < 1e-8


def test_event_location_precision():
    # dt_max bounds the dense-output error; the bisection window is 1e-9
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=5.0, dt_max=0.05)
    ev = Event(fn=lambda t, y: y[0] - 0.5, name="half", direction=-1)
    traj = solver.integrate(lambda t, y: -y, np.array([1.0]), st, events=[ev])
    assert traj.status == "event"
    assert abs(traj.events[0].t - np.log(2)) < 1e-6


def test_event_monotone_in_threshold():
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=20.0)
    times = []
    for thr in (1e-2, 1e-3, 1e-4):
        ev = Event(fn=lambda t, y, c=thr: y[0] - c, name="thr", direction=-1)
        traj = solver.integrate(lambda t, y: -y, np.array([1.0]), st,
                                events=[ev])
        times.append(traj.events[0].t)
    assert times[0] < times[1] < times[2]


def test_stiffness_error_carries_partial_trajectory():
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=2.0)
    with pytest.raises(solver.StiffnessError) as err:
        solver.integrate(lambda t, y: y ** 2, np.array([1.0]), st)
    assert err.value.trajectory is not None
    assert err.value.trajectory.t[-1] < 1.01     # blow-up at t = 1


def _small_net(phi=0.2, mu=0.2, sigma=(2.0, 2.0)):
    g1 = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    g2 = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    omega = [np.full(3, 0.5 + mu / 2), np.full(3, 0.5 - mu / 2)]
    return graphs.assemble([g1, g2], {(0, 1): [(0, 0)]}, sigma=list(sigma),
                           xi={(0, 1): 3.0, (1, 0): 3.0}, phi=phi, psi=0.0,
                           strategic=[(0,), (0,)], tactical=[(1, 2), (1, 2)],
                           omega=omega)


def test_scenario_blue_wins_with_huge_beta1():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=20.0, beta2=0.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    y0 = np.concatenate([[0.5, 0.5], np.zeros(6)])
    st = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=100.0)
    out = solver.run_scenario(system, y0, st, recon_T=10.0, p_death=1e-4)
    assert out.winner == "blue"
    assert out.t_event < 100.0


def test_scenario_blue_cannot_win_with_zero_beta1():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=0.0, beta2=2.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    st = IntegratorSettings(rtol=1e-7, atol=1e-9, t_end=60.0)
    for p1 in np.linspace(0.1, 0.9, 5):
        for p2 in np.linspace(0.1, 0.9, 5):
            y0 = np.concatenate([[p1, p2], np.zeros(6)])
            out = solver.run_scenario(system, y0, st, recon_T=0.0,
                                      p_death=1e-4, keep_trajectory=False)
            assert out.winner != "blue"


def test_scenario_recon_invariance_when_settled():
    # settle the phases first; more reconnaissance then only rotates the
    # locked configuration, which cannot change the outcome
    net = _small_net(phi=0.2, mu=0.2)
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=3.5, beta2=2.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=100.0)
    settle = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=200.0)
    phase_rhs = system.phase_rhs()
    theta = solver.integrate(lambda t, th: phase_rhs(th), np.zeros(6),
                             settle).y[-1]
    y0 = np.concatenate([[0.5, 0.5], theta])
    out0 = solver.run_scenario(system, y0, st, recon_T=0.0, p_death=1e-4)
    out50 = solver.run_scenario(system, y0, st, recon_T=50.0, p_death=1e-4)
    assert out0.winner == out50.winner == "blue"
    assert out0.t_event == pytest.approx(out50.t_event, abs=1e-4)


def test_reduced_scenario_skips_recon():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=4.0, beta2=2.0, mu=0.2, phi=0.2,
                      gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    st = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=100.0)
    out = solver.run_scenario(system, np.array([0.5, 0.5, 0.1]), st,
                              recon_T=50.0, p_death=1e-4)
    assert out.winner == "blue"


def test_ensemble_reproducible_and_normalised():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=3.0, beta2=2.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    st = IntegratorSettings(dt_init=0.01, t_end=60.0)
    r1 = solver.ensemble(system, [0.5, 0.5], 8, seed=4, settings=st,
                         recon_T=5.0)
    r2 = solver.ensemble(system, [0.5, 0.5], 8, seed=4, settings=st,
                         recon_T=5.0)
    assert r1.counts == r2.counts
    assert sum(v for k, v in r1.fractions.items()) == pytest.approx(1.0)
    single = solver.ensemble(system, [0.5, 0.5], 1, seed=4, settings=st,
                             recon_T=5.0)
    assert single.n_sim == 1 and sum(single.counts.values()) == 1


def test_ensemble_degenerate_no_phase_influence():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=0.0, beta2=0.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    st = IntegratorSettings(dt_init=0.02, t_end=30.0)
    res = solver.ensemble(system, [0.5, 0.5], 10, seed=1, settings=st,
                          recon_T=0.0)
    assert res.counts["stalemate"] == 10     # populations decoupled from phases


def test_batch_matches_single_trajectory():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=4.0, beta2=2.0, mu=0.2, phi=0.2,
                      gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    y0 = np.array([0.5, 0.5, 0.1])
    st = IntegratorSettings(method="rk4", dt_init=0.01, t_end=100.0)
    out_single = solver.run_scenario(system, y0, st, recon_T=0.0,
                                     p_death=1e-4)
    out_batch = solver.integrate_batch(system.rhs, y0[:, None], 0.01, 100.0,
                                       1e-4)
    assert out_batch.winner[0] == 1
    assert out_single.winner == "blue"
    assert out_batch.t_event[0] == pytest.approx(out_single.t_event, abs=1e-5)


@pytest.mark.parametrize("t_end,dt", [(10.0, 0.01), (50.0, 0.01),
                                       (7.3, 0.02), (7.31, 0.02)])
def test_rk4_schedule_has_no_sliver_step(t_end, dt):
    st = IntegratorSettings(method="rk4", dt_init=dt, t_end=t_end)
    traj = solver.integrate(lambda t, y: -y, np.array([1.0]), st)
    assert len(traj.t) - 1 == int(np.ceil(t_end / dt - 1e-12))
    assert np.diff(traj.t).min() > 1e-9
    assert traj.t[-1] == pytest.approx(t_end, abs=1e-9)


def test_rk4_trajectory_equals_batch_member():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=4.0, beta2=2.0, mu=0.2, phi=0.2,
                      gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    y0 = np.array([0.5, 0.5, 0.1])
    st = IntegratorSettings(method="rk4", dt_init=0.01, t_end=10.0)
    traj = solver.integrate(lambda t, y: system.rhs(y), y0, st)
    # no threshold below -inf, and the flow stays far from steady
    out = solver.integrate_batch(system.rhs, y0[:, None], 0.01, 10.0,
                                 -np.inf)
    assert out.winner[0] == 0
    assert np.array_equal(traj.y[-1], out.y_final[:, 0])


@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced",
                                   "eco3-reduced"])
@settings(max_examples=5)
@given(data=hst.data())
def test_batch_columns_equal_single_member_runs(model, data):
    unit = hst.floats(0.05, 1.0)
    cfg = ModelConfig(r1=data.draw(hst.floats(0.5, 4.0)),
                      r2=data.draw(hst.floats(0.5, 4.0)),
                      beta1=data.draw(hst.floats(0.0, 6.0)),
                      beta2=data.draw(hst.floats(0.0, 6.0)),
                      mu=data.draw(hst.floats(-0.5, 0.5)),
                      phi=data.draw(hst.floats(-1.0, 1.0)),
                      P_D=data.draw(hst.floats(1e-3, 0.2)))
    system = models.build_system(model, cfg)
    B = data.draw(hst.integers(2, 5))
    caps = [cfg.K1, cfg.K2, cfg.K3] if system.n_pops == 3 else [1.0, 1.0]
    rows = [[cap * data.draw(unit) for _ in range(B)] for cap in caps]
    rows += [[data.draw(hst.floats(-np.pi, np.pi)) for _ in range(B)]
             for _ in range(system.dim - system.n_pops)]
    y0 = np.array(rows)
    t_end = data.draw(hst.floats(0.5, 15.0))
    batch = solver.integrate_batch(system.rhs, y0, 0.05, t_end, cfg.P_D)
    for b in range(B):
        one = solver.integrate_batch(system.rhs, y0[:, b:b + 1], 0.05, t_end,
                                     cfg.P_D)
        assert one.winner[0] == batch.winner[b]
        assert one.t_event[0] == batch.t_event[b]
        np.testing.assert_array_equal(one.y_final[:, 0], batch.y_final[:, b])


@pytest.mark.parametrize("direction", [0, 1])
def test_event_on_step_boundary_recorded_once(direction):
    # y reaches 0 exactly at t = 0.5, the end of the second step
    st = IntegratorSettings(method="rk4", dt_init=0.25, t_end=1.0)
    ev = Event(fn=lambda t, y: y[0], name="zero", direction=direction,
               terminal=False)
    traj = solver.integrate(lambda t, y: np.ones(1), np.array([-0.5]), st,
                            events=[ev])
    assert len(traj.events) == 1
    assert traj.events[0].t == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_rising_event_ignores_falling_start_on_zero(method):
    st = IntegratorSettings(method=method, dt_init=0.1, t_end=1.0)
    ev = Event(fn=lambda t, y: y[0], name="rise", direction=1)
    traj = solver.integrate(lambda t, y: -np.ones(1), np.array([0.0]), st,
                            events=[ev])
    assert traj.status == "completed" and not traj.events
    assert traj.t[-1] == pytest.approx(1.0)


def test_trajectory_csv_headers(tmp_path):
    cfg = ModelConfig(gamma1=1.0, gamma2=1.0, mu=0.2, phi=0.2)
    system = models.build_system("simple-reduced", cfg)
    st = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=1.0)
    traj = solver.integrate(lambda t, y: system.rhs(y),
                            np.array([0.5, 0.5, 0.0]), st)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, system.labels)
    header = path.read_text().splitlines()[0]
    assert header == "t,P1,P2,Delta1"

    net = _small_net()
    full = models.build_system("simple", ModelConfig(), net=net)
    assert full.labels[:3] == ["P1", "P2", "theta_0"]
    assert full.labels[-1] == "theta_5"


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(method="euler")
    with pytest.raises(ValueError):
        IntegratorSettings(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(dt_init=-0.1)


def test_tolerance_halving_on_case_study_preset():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, mu=0.2, phi=0.2,
                      psi=0.0, gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    y0 = np.array([0.5, 0.5, 0.1])
    coarse = IntegratorSettings(rtol=2e-8, atol=2e-10, t_end=50.0)
    fine = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=50.0)
    yc = solver.integrate(lambda t, y: system.rhs(y), y0, coarse).y[-1]
    yf = solver.integrate(lambda t, y: system.rhs(y), y0, fine).y[-1]
    assert np.max(np.abs(yc - yf)) < 2e-8 * 100
