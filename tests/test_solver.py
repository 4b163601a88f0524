from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import batch_oracle
import rk45_oracle
from kuracomp import analysis, basin, cli, graphs, models, solver
from kuracomp._rng import substream
from kuracomp.models import CentroidCoupling, ModelConfig
from kuracomp.solver import IntegratorSettings


def test_exponential_decay():
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=1.0)
    traj = solver.integrate(lambda y: -y, np.array([1.0]), st)
    assert abs(traj.y[-1, 0] - np.exp(-1)) < 1e-8


def test_cosine_integral():
    # the clock is a state row (dt/dt = 1), so the rhs stays autonomous
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=np.pi)
    traj = solver.integrate(lambda y: np.array([np.cos(y[1]), 1.0]),
                            np.array([0.0, 0.0]), st)
    assert abs(traj.y[-1, 0]) < 1e-8
    assert traj.t[-1] == pytest.approx(np.pi)
    np.testing.assert_allclose(traj.y[:, 1], traj.t, rtol=1e-12)


def test_centroid_ode_matches_closed_form():
    C, S, mu, d0 = 1.5, 0.4, 0.3, -0.8
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=20.0, dt_max=0.1)
    traj = solver.integrate(
        lambda y: np.array([mu + S * np.cos(y[0]) - C * np.sin(y[0])]),
        np.array([d0]), st)
    closed = analysis.delta_time_course(traj.t, C, S, mu, d0)
    assert np.max(np.abs(traj.y[:, 0] - closed)) < 1e-6


def test_rk4_fixed_step():
    st = IntegratorSettings(method="rk4", dt_init=0.01, t_end=1.0)
    traj = solver.integrate(lambda y: -y, np.array([1.0]), st)
    assert abs(traj.y[-1, 0] - np.exp(-1)) < 1e-9
    # bit-identical rerun
    traj2 = solver.integrate(lambda y: -y, np.array([1.0]), st)
    assert np.array_equal(traj.y, traj2.y)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("t_end", [-1.0, 0.0])
def test_horizon_must_exceed_start(method, t_end):
    st = IntegratorSettings(method=method, dt_init=0.01, t_end=t_end)
    with pytest.raises(ValueError, match="t_end must be positive"):
        solver.integrate(lambda y: -y, np.array([1.0]), st)
    # reconnaissance takes zero steps on a zero horizon: the drawn phases
    system = models.build_system("simple", ModelConfig(), net=_small_net())
    theta = solver.reconnoitred_phases(system, 3, seed=4,
                                       settings=replace(st, recon_T=0.0))
    drawn = [substream(4, "ensemble", i).uniform(0.0, 2.0 * np.pi, size=6)
             for i in range(3)]
    np.testing.assert_array_equal(theta, np.stack(drawn, axis=1))


def test_tolerance_halving_property():
    def rhs(y):
        return np.array([y[1], -np.sin(y[0])])

    coarse = IntegratorSettings(rtol=2e-6, atol=2e-8, t_end=10.0)
    fine = IntegratorSettings(rtol=1e-6, atol=1e-8, t_end=10.0)
    y0 = np.array([1.0, 0.0])
    yc = solver.integrate(rhs, y0, coarse).y[-1]
    yf = solver.integrate(rhs, y0, fine).y[-1]
    assert np.max(np.abs(yc - yf)) < 2e-6 * 100


def test_dense_output_accuracy():
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=2.0, dt_max=0.2)
    traj = solver.integrate(lambda y: -y, np.array([1.0]), st)
    ts = np.linspace(0.05, 1.95, 37)
    vals = traj.interpolate(ts)[:, 0]
    assert np.max(np.abs(vals - np.exp(-ts))) < 1e-8


def test_event_location_precision():
    # dt_max bounds the dense-output error; the bisection window is 1e-9.
    # Row 0 decays to 0.5 at ln 2, row 1 only at ln 4.
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=5.0, dt_max=0.05)
    traj = solver.integrate(lambda y: -y, np.array([1.0, 2.0]), st,
                            p_death=0.5)
    assert traj.status == "event" and traj.extinct == 0
    assert abs(traj.t[-1] - np.log(2)) < 1e-6


def test_event_monotone_in_threshold():
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=20.0)
    times = []
    for thr in (1e-2, 1e-3, 1e-4):
        traj = solver.integrate(lambda y: -y, np.array([1.0, 2.0]), st,
                                p_death=thr)
        times.append(traj.t[-1])
    assert times[0] < times[1] < times[2]


def test_stiffness_error_carries_partial_trajectory():
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=2.0)
    with pytest.raises(solver.StiffnessError) as err:
        solver.integrate(lambda y: y ** 2, np.array([1.0]), st)
    assert err.value.trajectory is not None
    assert err.value.trajectory.t[-1] < 1.01     # blow-up at t = 1


def _small_net(mu=0.2, sigma=(2.0, 2.0)):
    g1 = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    g2 = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    omega = [np.full(3, 0.5 + mu / 2), np.full(3, 0.5 - mu / 2)]
    return graphs.assemble([g1, g2], {(0, 1): [(0, 0)]}, sigma=list(sigma),
                           xi={(0, 1): 3.0, (1, 0): 3.0},
                           strategic=[(0,), (0,)], tactical=[(1, 2), (1, 2)],
                           omega=omega)


def test_scenario_blue_wins_with_huge_beta1():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=20.0, beta2=0.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    y0 = np.concatenate([[0.5, 0.5], np.zeros(6)])
    st = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=100.0)
    out = solver.run_scenario(system, y0, replace(st, recon_T=10.0))
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
            out = solver.run_scenario(system, y0, replace(st, recon_T=0.0))
            assert out.winner != "blue"


def test_scenario_recon_invariance_when_settled():
    # settle the phases first; more reconnaissance then only rotates the
    # locked configuration, which cannot change the outcome
    net = _small_net(mu=0.2)
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=3.5, beta2=2.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    st = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=100.0)
    settle = IntegratorSettings(rtol=1e-10, atol=1e-12, t_end=200.0)
    phase_rhs = system.phase_rhs()
    theta = solver.integrate(phase_rhs, np.zeros(6),
                             settle).y[-1]
    y0 = np.concatenate([[0.5, 0.5], theta])
    out0 = solver.run_scenario(system, y0, replace(st, recon_T=0.0))
    out50 = solver.run_scenario(system, y0, replace(st, recon_T=50.0))
    assert out0.winner == out50.winner == "blue"
    assert out0.t_event == pytest.approx(out50.t_event, abs=1e-4)


def test_reduced_scenario_skips_recon():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=4.0, beta2=2.0, mu=0.2, phi=0.2,
                      gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    st = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=100.0)
    out = solver.run_scenario(system, np.array([0.5, 0.5, 0.1]),
                              replace(st, recon_T=50.0))
    assert out.winner == "blue"


def test_ensemble_reproducible_and_normalised():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=3.0, beta2=2.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    st = IntegratorSettings(dt_init=0.01, t_end=60.0, recon_T=5.0)
    r1 = solver.ensemble(system, [0.5, 0.5], 8, seed=4, settings=st)
    r2 = solver.ensemble(system, [0.5, 0.5], 8, seed=4, settings=st)
    assert r1.counts == r2.counts
    assert sum(v for k, v in r1.fractions.items()) == pytest.approx(1.0)
    single = solver.ensemble(system, [0.5, 0.5], 1, seed=4, settings=st)
    assert single.n_sim == 1 and sum(single.counts.values()) == 1


def test_ensemble_degenerate_no_phase_influence():
    net = _small_net()
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=0.0, beta2=0.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=net)
    st = IntegratorSettings(dt_init=0.02, t_end=30.0, recon_T=0.0)
    res = solver.ensemble(system, [0.5, 0.5], 10, seed=1, settings=st)
    assert res.counts["stalemate"] == 10     # populations decoupled from phases


@settings(max_examples=10, deadline=None)
@given(data=hst.data())
def test_batch_matches_single_trajectory(data):
    # run_scenario and integrate_batch locate crossings with one bisector,
    # so a B = 1 batch gives the scenario's winner and event time bitwise,
    # for either method; the scenario reads the drawn P_D from the system's
    # config
    cfg = ModelConfig(r1=data.draw(hst.floats(0.5, 4.0)),
                      r2=data.draw(hst.floats(0.5, 4.0)),
                      beta1=data.draw(hst.floats(0.0, 8.0)),
                      beta2=data.draw(hst.floats(0.0, 6.0)),
                      mu=data.draw(hst.floats(-0.5, 0.5)),
                      phi=data.draw(hst.floats(-1.0, 1.0)),
                      P_D=data.draw(hst.floats(1e-3, 0.2)))
    t_end = data.draw(hst.floats(1.0, 20.0))
    codes = {"stalemate": 0, "blue": 1, "red": 2}
    for model in ("simple-reduced", "eco2-reduced", "eco3-reduced"):
        system = models.build_system(model, cfg)
        caps = models.resource_scale(system)
        y0 = np.array([cap * data.draw(hst.floats(0.05, 1.0)) for cap in caps]
                      + [data.draw(hst.floats(-np.pi, np.pi))
                         for _ in range(system.dim - system.n_pops)])
        for method in ("rk4", "rk45"):
            st = IntegratorSettings(method=method, dt_init=0.02, t_end=t_end)
            single = solver.run_scenario(system, y0, st)
            batch = solver.integrate_batch(system.rhs, y0[:, None], st,
                                           cfg.P_D)
            assert batch.winner[0] == codes[single.winner]
            assert batch.t_event[0] == single.t_event


def test_batch_reuses_the_crossing_step_rhs(monkeypatch):
    """A step with a threshold crossing evaluates rhs at its end for the
    bisection; the next step takes its k1 from those columns instead of
    calling rhs again.  With one member left running to the horizon that is
    4 calls per RK4 step (one more per crossing step before), and winners
    and t_event keep the bits they had with the extra call.  An event
    member's y_final is its located crossing state (P2 at P_D here)."""
    cfg = ModelConfig(beta1=np.array([0.5, 1.5, 2.5, 3.5, 4.5, 1.0]),
                      beta2=np.array([2.0, 2.0, 2.0, 1.0, 0.5, 0.2]),
                      mu=np.array([0.1, 0.2, -0.1, 0.3, 0.0, 3.0]))
    y0 = np.array([[0.6, 0.5, 0.4, 0.5, 0.3, 0.5],
                   [0.4, 0.5, 0.6, 0.5, 0.7, 0.5],
                   [0.0, 1.0, -1.0, 2.0, 0.5, 0.0]])
    rhs, on_compact = models._member_rhs("simple-reduced", cfg,
                                         CentroidCoupling.from_config(cfg))
    calls, crossing_steps = [0], set()
    locate = solver._locate

    def counting(y):
        calls[0] += 1
        return rhs(y)

    def spy(p, t, *args):
        crossing_steps.add(t)
        return locate(p, t, *args)

    monkeypatch.setattr(solver, "_locate", spy)
    out = solver.integrate_batch(
        counting, y0, IntegratorSettings(method="rk4", dt_init=0.05,
                                         t_end=30.0),
        cfg.P_D, on_compact=on_compact)
    assert len(crossing_steps) == 3
    assert calls[0] == 4 * 600           # four per step of the 0.05 grid
    # winners and t_event of the run that called rhs once more per
    # crossing step
    assert out.winner.tolist() == [0, 0, 1, 1, 1, 0]
    assert [x.hex() for x in out.t_event] == [
        "0x1.e000000000000p+4", "0x1.e000000000000p+4",
        "0x1.57a3c54e80030p+4", "0x1.d41db868cccc2p+1",
        "0x1.bc1ad8b8cccc3p+1", "0x1.e000000000000p+4"]
    assert [x.hex() for x in out.y_final.ravel()] == [
        "0x1.e853d706d8d42p-2", "0x1.af7cdf49e124bp-1",
        "0x1.fff79988a27b8p-1", "0x1.fff222ad83a16p-1",
        "0x1.ffe5c92bf166bp-1", "0x1.e3d9f24558f5ep-1",
        "0x1.c93dc70f3dbdcp-1", "0x1.5be7fad532abap-2",
        "0x1.a36e2eb2a1defp-14", "0x1.a36e2eb3f2045p-14",
        "0x1.a36e2eb93a868p-14", "0x1.60f1629bb6526p-1",
        "0x1.f611d26f2e032p-3", "0x1.50dcec4ad60a5p-1",
        "0x1.995baece70defp-2", "0x1.b54f7e7961669p-1",
        "0x1.f2d256ec3bf63p-2", "0x1.5fe16e83f1b2dp+6"]


@pytest.mark.parametrize("t_end,dt", [(10.0, 0.01), (50.0, 0.01),
                                       (7.3, 0.02), (7.31, 0.02)])
def test_rk4_schedule_has_no_sliver_step(t_end, dt):
    st = IntegratorSettings(method="rk4", dt_init=dt, t_end=t_end)
    traj = solver.integrate(lambda y: -y, np.array([1.0]), st)
    assert len(traj.t) - 1 == int(np.ceil(t_end / dt - 1e-12))
    assert np.diff(traj.t).min() > 1e-9
    assert traj.t[-1] == pytest.approx(t_end, abs=1e-9)


def test_rk4_trajectory_equals_batch_member():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=4.0, beta2=2.0, mu=0.2, phi=0.2,
                      gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    y0 = np.array([0.5, 0.5, 0.1])
    st = IntegratorSettings(method="rk4", dt_init=0.01, t_end=10.0)
    traj = solver.integrate(system.rhs, y0, st)
    # no threshold below -inf, and the flow stays far from steady
    out = solver.integrate_batch(system.rhs, y0[:, None], st, -np.inf)
    assert out.winner[0] == 0
    assert np.array_equal(traj.y[-1], out.y_final[:, 0])
    # a member that ends on an event: its y_final is the trajectory's last
    # row, the located crossing state, in a batch beside a horizon member
    p_death = 0.05
    traj = solver.integrate(system.rhs, y0, st,
                            p_death=p_death)
    assert traj.status == "event" and traj.extinct == 1
    out = solver.integrate_batch(system.rhs, np.stack([y0, y0], axis=1),
                                 st, np.array([p_death, -np.inf]))
    assert out.winner.tolist() == [1, 0]
    assert out.t_event[0] == traj.t[-1]
    assert np.array_equal(out.y_final[:, 0], traj.y[-1])


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
    caps = models.resource_scale(system)
    rows = [[cap * data.draw(unit) for _ in range(B)] for cap in caps]
    rows += [[data.draw(hst.floats(-np.pi, np.pi)) for _ in range(B)]
             for _ in range(system.dim - system.n_pops)]
    y0 = np.array(rows)
    t_end = data.draw(hst.floats(0.5, 15.0))
    for method in ("rk4", "rk45"):
        st = IntegratorSettings(method=method, dt_init=0.05, t_end=t_end)
        batch = solver.integrate_batch(system.rhs, y0, st, cfg.P_D)
        for b in range(B):
            one = solver.integrate_batch(system.rhs, y0[:, b:b + 1], st,
                                         cfg.P_D)
            assert one.winner[0] == batch.winner[b]
            assert one.t_event[0] == batch.t_event[b]
            np.testing.assert_array_equal(one.y_final[:, 0],
                                          batch.y_final[:, b])


@pytest.mark.parametrize("row", [0, 1])
def test_event_on_step_boundary_recorded_once(row):
    # the row reaches P_D = 0 exactly at t = 0.5, the end of the second
    # step; the other row stays above it
    st = IntegratorSettings(method="rk4", dt_init=0.25, t_end=1.0)
    y0 = np.full(2, 1.0)
    y0[row] = 0.5
    traj = solver.integrate(lambda y: -np.ones(2), y0, st, p_death=0.0)
    assert traj.extinct == row and len(traj.t) == 3
    assert traj.t[-1] == pytest.approx(0.5, abs=1e-9)


def test_trajectory_csv_headers(tmp_path):
    cfg = ModelConfig(gamma1=1.0, gamma2=1.0, mu=0.2, phi=0.2)
    system = models.build_system("simple-reduced", cfg)
    st = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=1.0)
    traj = solver.integrate(system.rhs,
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
    with pytest.raises(ValueError, match="recon_T"):
        IntegratorSettings(recon_T=-1.0)
    # scipy's floor: below 100 eps RK45's error estimate vanishes in round-off
    with pytest.raises(ValueError, match="rtol must be >= 2.22e-14"):
        IntegratorSettings(rtol=1e-30)
    IntegratorSettings(rtol=100 * np.finfo(float).eps)     # the floor passes
    # a NaN dt_init would keep every RK45 step NaN and rejected forever
    for name in ("rtol", "atol", "dt_init", "dt_max", "t_end", "recon_T"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                IntegratorSettings(**{name: value})


def test_tolerance_halving_on_case_study_preset():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, mu=0.2, phi=0.2,
                      psi=0.0, gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    y0 = np.array([0.5, 0.5, 0.1])
    coarse = IntegratorSettings(rtol=2e-8, atol=2e-10, t_end=50.0)
    fine = IntegratorSettings(rtol=1e-8, atol=1e-10, t_end=50.0)
    yc = solver.integrate(system.rhs, y0, coarse).y[-1]
    yf = solver.integrate(system.rhs, y0, fine).y[-1]
    assert np.max(np.abs(yc - yf)) < 2e-8 * 100


def _member_runs(model, cfg, y0, st):
    """Every column of y0 as one member of a driver batch, member j with
    the j-th value of each array field of ``cfg``."""
    rhs, on_compact = models._member_rhs(
        model, cfg, models.CentroidCoupling.from_config(cfg))
    return solver._drive(rhs, y0, st,
                         p_death=np.broadcast_to(cfg.P_D, y0.shape[1:]),
                         on_compact=on_compact)


# per-member parameter ranges: fast phase slips (oscillating members), a
# strong Blue with a high threshold (extinctions), or anything
_KINDS = {"slip": dict(mu=(2.5, 4.0), beta1=(0.0, 1.5), beta2=(0.0, 1.5)),
          "extinct": dict(beta1=(4.0, 8.0), P_D=(0.02, 0.09)),
          "any": {}}
_RANGES = dict(r1=(0.5, 4.0), r2=(0.5, 4.0), beta1=(0.0, 8.0),
               beta2=(0.0, 6.0), alpha=(0.5, 20.0), mu=(-4.0, 4.0),
               phi=(-1.0, 1.0), gamma1=(0.1, 1.5), gamma2=(0.1, 1.5),
               P_D=(1e-3, 0.09))


@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced"])
@settings(max_examples=8, deadline=None)
@given(data=hst.data())
def test_driver_members_equal_their_single_runs(model, data):
    B = data.draw(hst.integers(3, 6))
    members = []
    for _ in range(B):
        kind = _KINDS[data.draw(hst.sampled_from(sorted(_KINDS)))]
        members.append({k: data.draw(hst.floats(*r))
                        for k, r in {**_RANGES, **kind}.items()})
    cfg = ModelConfig(**{k: np.array([m[k] for m in members])
                         for k in _RANGES})
    unit, angle = hst.floats(0.05, 1.0), hst.floats(-np.pi, np.pi)
    y0 = np.array([[data.draw(unit) for _ in range(B)] for _ in range(2)]
                  + [[data.draw(angle) for _ in range(B)]])
    method = data.draw(hst.sampled_from(["rk45", "rk4"]))
    st = IntegratorSettings(method=method, rtol=1e-7, atol=1e-9, dt_init=0.05,
                            t_end=data.draw(hst.floats(20.0, 40.0)))
    for j, got in enumerate(_member_runs(model, cfg, y0, st)):
        cj = models._take(cfg, j)
        rhs = models.build_system(model, cj).rhs
        one = solver.integrate(rhs, y0[:, j], st,
                               p_death=cj.P_D)
        assert (got.status, got.extinct) == (one.status, one.extinct)
        assert len(got.t) == len(one.t)
        for a, b in ((got.t, one.t), (got.y, one.y), (got.f, one.f)):
            np.testing.assert_array_equal(a, b)


def test_stiffness_inside_a_batch_names_the_member():
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=2.0)
    y0 = np.array([[-1.0, 1.0, 0.2]])        # only member 1 blows up (t = 1)
    with pytest.raises(solver.StiffnessError) as err:
        solver._drive(lambda y: y ** 2, y0, st)
    assert err.value.member == 1
    with pytest.raises(solver.StiffnessError) as one:
        solver.integrate(lambda y: y ** 2, np.array([1.0]), st)
    got, want = err.value.trajectory, one.value.trajectory
    assert got.status == "stiff" and got.t[-1] < 1.01
    np.testing.assert_array_equal(got.t, want.t)
    np.testing.assert_array_equal(got.y, want.y)


def _hermite_loop(traj, ts):
    """Trajectory.interpolate as one scalar Hermite evaluation per time."""
    idx = np.clip(np.searchsorted(traj.t, ts, side="right") - 1, 0,
                  len(traj.t) - 2)
    out = np.empty((ts.size, traj.y.shape[1]))
    for m, (i, tm) in enumerate(zip(idx, ts)):
        t0, t1 = traj.t[i], traj.t[i + 1]
        y0, y1, f0, f1 = traj.y[i], traj.y[i + 1], traj.f[i], traj.f[i + 1]
        h = t1 - t0
        if h == 0:
            out[m] = y0
            continue
        s = (tm - t0) / h
        h00 = 2 * s ** 3 - 3 * s ** 2 + 1
        h10 = s ** 3 - 2 * s ** 2 + s
        h01 = -2 * s ** 3 + 3 * s ** 2
        h11 = s ** 3 - s ** 2
        out[m] = h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1
    return out


def test_interpolate_equals_per_time_hermite_loop():
    st = IntegratorSettings(rtol=1e-9, atol=1e-12, t_end=7.0)
    traj = solver.integrate(lambda y: np.array([y[1], -np.sin(y[0])]),
                            np.array([1.0, 0.0]), st)
    ts = np.concatenate([traj.t, np.linspace(0.0, 7.0, 2001), [7.0]])
    np.testing.assert_array_equal(traj.interpolate(ts), _hermite_loop(traj, ts))
    # an empty last interval (an event on a step's end) gives its left state
    flat = solver.Trajectory(np.array([0.0, 1.0, 1.0]),
                             np.arange(6.0).reshape(3, 2), np.ones((3, 2)))
    ts = np.array([0.5, 1.0, 2.0])
    np.testing.assert_array_equal(flat.interpolate(ts), _hermite_loop(flat, ts))


# members of the oracle test: a phase slip, a strong Blue with a high
# threshold, one that starts extinct and settles (steady), an overflowing
# one (failed), or anything
_ORACLE_KINDS = {**_KINDS, "steady": dict(mu=(-0.2, 0.2)),
                 "overflow": dict(r1=(1e308, 1.7e308))}


def _oracle_pair(model, cfg, y0, dt, t_end):
    """integrate_batch and its oracle on per-member parameters, each with a
    fresh per-member rhs that ``on_compact`` slices."""
    st = IntegratorSettings(method="rk4", dt_init=dt, t_end=t_end)
    outs = []
    for run, timing in ((solver.integrate_batch, (st,)),
                        (batch_oracle.integrate_batch, (dt, t_end))):
        rhs, on_compact = models._member_rhs(
            model, cfg, CentroidCoupling.from_config(cfg))
        outs.append(run(rhs, y0, *timing, cfg.P_D, on_compact=on_compact))
    return outs


def _assert_equal_outcomes(got, want):
    np.testing.assert_array_equal(got.winner, want.winner)
    np.testing.assert_array_equal(got.t_event, want.t_event)
    # y_final differs only for event members (the crossing state there)
    rest = got.winner < 1
    np.testing.assert_array_equal(got.y_final[:, rest], want.y_final[:, rest])


@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced",
                                   "eco3-reduced"])
@settings(max_examples=6, deadline=None)
@given(data=hst.data())
def test_batch_runner_equals_its_oracle(model, data):
    B = data.draw(hst.integers(2, 9))
    kinds = [data.draw(hst.sampled_from(sorted(_ORACLE_KINDS)))
             for _ in range(B)]
    members = [{k: data.draw(hst.floats(*r)) for k, r in
                {**_RANGES, **_ORACLE_KINDS[kind]}.items()} for kind in kinds]
    cfg = ModelConfig(**{k: np.array([m[k] for m in members])
                         for k in _RANGES})
    n_pops = 3 if model == "eco3-reduced" else 2
    unit, angle = hst.floats(0.05, 1.0), hst.floats(-np.pi, np.pi)
    y0 = np.array([[0.0 if kind == "steady" else data.draw(unit)
                    for kind in kinds] for _ in range(n_pops)]
                  + [[data.draw(angle) for _ in range(B)]
                     for _ in range(n_pops - 1)])
    t_end = data.draw(hst.floats(5.0, 40.0))
    with np.errstate(all="ignore"):
        got, want = _oracle_pair(model, cfg, y0, 0.05, t_end)
    _assert_equal_outcomes(got, want)


@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced",
                                   "eco3-reduced"])
@settings(max_examples=8, deadline=None)
@given(data=hst.data())
def test_rk45_winners_equal_fine_rk4_winners(model, data):
    """At the default tolerances an RK45 batch decides each member as an
    RK4 batch at dt = 0.005 does: the same winner."""
    B = data.draw(hst.integers(2, 6))
    kinds = [data.draw(hst.sampled_from(sorted(_KINDS))) for _ in range(B)]
    members = [{k: data.draw(hst.floats(*r)) for k, r in
                {**_RANGES, **_KINDS[kind]}.items()} for kind in kinds]
    cfg = ModelConfig(**{k: np.array([m[k] for m in members])
                         for k in _RANGES})
    n_pops = 3 if model == "eco3-reduced" else 2
    unit, angle = hst.floats(0.05, 1.0), hst.floats(-np.pi, np.pi)
    y0 = np.array([[data.draw(unit) for _ in range(B)]
                   for _ in range(n_pops)]
                  + [[data.draw(angle) for _ in range(B)]
                     for _ in range(n_pops - 1)])
    t_end = data.draw(hst.floats(5.0, 20.0))
    winners = []
    for st in (IntegratorSettings(method="rk4", dt_init=0.005, t_end=t_end),
               IntegratorSettings(t_end=t_end)):
        rhs, on_compact = models._member_rhs(
            model, cfg, CentroidCoupling.from_config(cfg))
        winners.append(solver.integrate_batch(
            rhs, y0, st, cfg.P_D, on_compact=on_compact).winner.tolist())
    assert winners[1] == winners[0]


def test_batch_runner_equals_its_oracle_on_a_full_variant():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=6.0, beta2=2.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=_small_net())
    theta = solver.reconnoitred_phases(
        system, 6, seed=3, settings=IntegratorSettings(dt_init=0.02,
                                                       recon_T=2.0))
    y0 = np.concatenate([np.tile([[0.5], [0.5]], 6), theta])
    y0[:2, 4:] = [[0.9, 0.2], [0.1, 0.9]]
    p_death = np.array([1e-4, 1e-2, 1e-4, 1e-2, 1e-4, 1e-3])
    got = solver.integrate_batch(system.rhs, y0, IntegratorSettings(
        method="rk4", dt_init=0.02, t_end=20.0), p_death)
    want = batch_oracle.integrate_batch(system.rhs, y0, 0.02, 20.0, p_death)
    assert (got.winner > 0).any()
    _assert_equal_outcomes(got, want)


# a state or slope entry: finite, zero or not finite
_ENTRY = hst.one_of(hst.floats(-2.0, 2.0),
                    hst.sampled_from([0.0, np.nan, np.inf, -np.inf]))


@settings(max_examples=400, deadline=None)
@given(data=hst.data())
def test_locator_equals_the_event_oracle(data):
    """The threshold locator gives the general event bisector's first
    terminal hit on the two threshold events, bitwise in row, t and y: over
    steps of the RK4 grid's h or any RK45 h, rows that fall through p_death
    (one, both, or both identically: a tie) and non-finite entries."""
    B = data.draw(hst.integers(1, 3))
    dim = data.draw(hst.integers(2, 3))
    h = data.draw(hst.one_of(hst.sampled_from([0.01, 0.02, 0.05]),
                             hst.floats(1e-6, 2.0)))
    t0 = data.draw(hst.floats(0.0, 100.0))
    # -inf: the batch runner's "no threshold"
    p_death = [data.draw(hst.one_of(hst.floats(-1.0, 1.0), hst.just(-np.inf)))
               for _ in range(B)]
    for p in p_death:
        rows = []
        for _ in range(dim):
            if data.draw(hst.booleans()):         # falls through p
                ya = p + data.draw(hst.floats(0.0, 1.0))
                yb = p - data.draw(hst.floats(0.0, 1.0))
            else:
                ya, yb = data.draw(_ENTRY), data.draw(_ENTRY)
            rows.append([ya, data.draw(_ENTRY), yb, data.draw(_ENTRY)])
        if data.draw(hst.booleans()):
            rows[1] = rows[0]                     # an exact tie
        y0, f0, y1, f1 = np.array(rows).T
        hits = []
        with np.errstate(all="ignore"):
            want = batch_oracle._scan_events(
                batch_oracle._threshold_events(p), t0, y0, f0, h, y1, f1,
                hits)
            got = solver._locate(p, t0, y0, f0, h, y1, f1)
        if want is None:
            assert got is None
            continue
        assert got[0] == (1 if hits[0].name == "red-extinct" else 0)
        assert got[1].hex() == want[0].hex()
        assert got[2].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_non_finite_rhs_raises_within_bounded_steps(method):
    """A right-hand side that turns NaN once y falls below e^-1 (at t = 1)
    ends the run: RK45 never floor-accepts a non-finite error estimate, so
    its step underflows short of t = 1, and RK4 finds the non-finite member
    at its next check.  A NaN error estimate shrinks h tenfold; a run that
    kept h would step on for ever, so the rhs stops it at 2000 calls."""
    calls = [0]

    def rhs(y):
        calls[0] += 1
        if calls[0] >= 2000:
            raise RuntimeError("the run did not end")
        return np.full(1, np.nan) if y[0] < np.exp(-1.0) else -y

    st = IntegratorSettings(method=method, dt_init=0.01, t_end=5.0)
    with pytest.raises(solver.StiffnessError,
                       match=r"at t=[0-9.]+ \(member 0\)") as err:
        solver.integrate(rhs, np.array([1.0]), st)
    assert calls[0] < 2000
    traj = err.value.trajectory
    assert err.value.member == 0 and traj.t[0] == 0.0
    if method == "rk45":
        assert traj.status == "stiff" and traj.t[-1] <= 1.0 + 1e-6
        assert np.isfinite(traj.y).all()
    else:
        assert traj.status == "failed"
        assert 1.0 < traj.t[-1] <= 1.0 + solver.CHECK_EVERY * 0.01


def test_non_finite_state_after_the_last_check_fails():
    """An RK4 rhs that turns NaN after the last CHECK_EVERY check (y falls
    below e^-1.05 near t = 1.05; the last check is at t = 1.0) leaves a NaN
    state at t_end: a failure, not a completed run or a stalemate."""
    def rhs(y):
        return np.full(y.shape, np.nan) if (y[0] < np.exp(-1.05)).any() \
            else -y

    st = IntegratorSettings(method="rk4", dt_init=0.01, t_end=1.2)
    with pytest.raises(solver.StiffnessError, match=r"at t=1\.2 \(member 0\)"):
        solver.integrate(rhs, [1.0], st)
    out = solver.integrate_batch(rhs, np.ones((1, 1)), st, -np.inf)
    assert out.winner.tolist() == [-1]


def test_non_finite_member_fails_alone():
    """A non-finite member is a failure (winner -1) in a batch, where the
    other members keep their outcomes, and a StiffnessError in a scenario,
    which used to report the NaN run as a stalemate."""
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=4.0, beta2=2.0, mu=0.2, phi=0.2,
                      gamma1=1.0, gamma2=1.0)
    system = models.build_system("simple-reduced", cfg)
    nan_system = replace(system, rhs=lambda y: np.where(
        y[2] > 5.0, np.nan, system.rhs(y)))          # NaN for Delta > 5
    y0 = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.1, 6.0, 0.1]])
    st = IntegratorSettings(method="rk4", dt_init=0.01, t_end=10.0)
    out = solver.integrate_batch(nan_system.rhs, y0, st,
                                 [1e-4, 1e-4, -np.inf])
    one = solver.integrate_batch(system.rhs, y0[:, :1], st, 1e-4)
    assert out.winner.tolist() == [one.winner[0], -1, 0]
    assert out.t_event[0] == one.t_event[0] and out.t_event[1] == 10.0
    with pytest.raises(solver.StiffnessError, match="non-finite"):
        solver.run_scenario(nan_system, y0[:, 1], st)


# ---------------------------------------------------------------------------
# reconnaissance and settling: _drive's outcome-only runs without thresholds
# ---------------------------------------------------------------------------

def test_reconnaissance_and_settling_equal_the_final_state_loop():
    """Under RK4 both equal the RK4 loop they ran on before
    (batch_oracle._rk4) bit for bit.  The settled centroid differences
    reach |dy/dt| < STEADY_TOL well before t = SETTLE_T, so a run that
    retired steady members would differ.  The settling steps by the run's
    settings, whose t_end it does not read: under RK45 at the default
    tolerances its bits move, its value stays within 1e-7."""
    system = models.build_system("simple", ModelConfig(), net=_small_net())
    st = IntegratorSettings(method="rk4", dt_init=0.02)
    drawn = solver.reconnoitred_phases(system, 5, 2, replace(st, recon_T=0.0))
    theta = solver.reconnoitred_phases(system, 5, 2, replace(st, recon_T=7.3))
    np.testing.assert_array_equal(
        theta, batch_oracle._rk4(system.phase_rhs(), drawn, 0.02, 7.3))
    cfg = ModelConfig(mu=np.array([0.1, 0.25, -0.3]),
                      nu=np.array([-0.25, 0.2, 0.0]))
    coupling = CentroidCoupling(g12=1.0, g21=1.0, g13=1.0, g23=1.0, g31=1.0,
                                g32=1.0)
    fr = models._frustration(cfg)
    y = batch_oracle._rk4(
        lambda y: models.eco3_reduced_rhs(y, cfg, coupling, fr),
        np.zeros((5, 3)), 0.01, 50.0)
    assert basin.SETTLE_T == 50.0
    assert np.abs(models.eco3_reduced_rhs(y, cfg, coupling, fr)).max() \
        < solver.STEADY_TOL
    system = models.build_system("eco3-reduced", cfg, coupling=coupling)
    rk4 = IntegratorSettings(method="rk4", dt_init=0.01, t_end=2.0)
    np.testing.assert_array_equal(basin._settled_delta(system, cfg, rk4, 3),
                                  y[3:])
    rk45 = basin._settled_delta(system, cfg, IntegratorSettings(), 3)
    assert not np.array_equal(rk45, y[3:])
    np.testing.assert_allclose(rk45, y[3:], rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("preset", ["small", "fig3b"])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_scenario_equals_a_dense_reconnaissance(preset, method):
    """run_scenario's outcome-only reconnaissance ends on the last row of
    the dense phase-only trajectory it replaced, so every row of the
    scenario's trajectory is the same bit for bit."""
    if preset == "small":
        system = models.build_system("simple", ModelConfig(
            r1=3.0, r2=2.5, beta1=6.0, beta2=2.0, mu=0.2, phi=0.2),
            net=_small_net())
        y0 = np.concatenate([[0.5, 0.5], np.linspace(0.0, 3.0, 6)])
    else:
        config = cli.validate_config(cli.get_preset(preset))
        system = cli._build(config)["system"]
        y0 = cli._initial_state(system, config["task"])
    st = IntegratorSettings(method=method, dt_init=0.01, t_end=10.0)
    m = system.n_pops
    out = solver.run_scenario(system, y0, replace(st, recon_T=7.5))
    theta = solver.integrate(system.phase_rhs(), y0[m:],
                             replace(st, t_end=7.5)).y[-1]
    want = solver.integrate(system.rhs, np.concatenate([y0[:m], theta]), st,
                            p_death=1e-4)
    got = out.trajectory
    for a, b in ((got.t, want.t), (got.y, want.y), (got.f, want.f)):
        np.testing.assert_array_equal(a, b)


def test_failed_reconnaissance():
    """A member whose phase rates turn NaN (here: theta_0 > pi) fails its
    reconnaissance: its phases come back NaN and its ensemble member counts
    as failed (winner -1) beside the others, and a scenario raises
    StiffnessError, unless recon_T = 0 takes no step."""
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=6.0, beta2=2.0, mu=0.2, phi=0.2)
    system = models.build_system("simple", cfg, net=_small_net())
    phase_rhs = system.phase_rhs()
    system.phase_rhs = lambda: (lambda th: np.where(th[0] > np.pi, np.nan,
                                                    phase_rhs(th)))
    st = IntegratorSettings(method="rk4", dt_init=0.02, t_end=20.0,
                            recon_T=3.0)
    drawn = solver.reconnoitred_phases(system, 8, 1, replace(st, recon_T=0.0))
    theta = solver.reconnoitred_phases(system, 8, 1, st)
    bad = np.isnan(theta).any(axis=0)
    assert 0 < bad.sum() < 8 and np.isnan(theta[:, bad]).all()
    np.testing.assert_array_equal(
        theta[:, ~bad], batch_oracle._rk4(phase_rhs, drawn[:, ~bad], 0.02, 3.0))
    res = solver.ensemble(system, [0.5, 0.5], 8, 1, st)
    assert res.counts["failed"] == bad.sum()
    assert sum(res.counts[k] for k in ("blue", "red", "stalemate")) \
        == (~bad).sum()
    y0 = np.concatenate([[0.5, 0.5], np.full(6, 4.0)])
    with pytest.raises(solver.StiffnessError, match="reconnaissance"):
        solver.run_scenario(system, y0, st)
    assert solver.run_scenario(system, y0,
                               replace(st, recon_T=0.0)).winner == "blue"


# ---------------------------------------------------------------------------
# the RK45 step against the list-sum step it replaced (tests/rk45_oracle.py)
# ---------------------------------------------------------------------------

def _run(drive, make_rhs, y0, st, p_death, dense, t_end=None):
    """One drive on a fresh rhs; a StiffnessError as (member, [trajectory])."""
    rhs, on_compact = make_rhs()
    try:
        return drive(rhs, y0, st, p_death=p_death, on_compact=on_compact,
                     dense=dense, t_end=t_end)
    except solver.StiffnessError as err:
        return err.member, [err.trajectory]


def _assert_same_bits(got, want):
    """Equal drive results: statuses, crossed rows, and every array's bytes."""
    if isinstance(got, solver.Trajectory):
        got, want = ((g.t, g.y, g.f, g.extinct, g.status) for g in (got, want))
    if isinstance(got, np.ndarray):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    elif isinstance(got, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_bits(a, b)
    else:
        assert got == want


def _assert_drive_equals_oracle(make_rhs, y0, st, p_death=None, dense=True,
                                t_end=None):
    with np.errstate(all="ignore"):
        got, want = (_run(drive, make_rhs, y0, st, p_death, dense, t_end)
                     for drive in (solver._drive, rk45_oracle.drive))
    _assert_same_bits(got, want)


# members of the step oracle test: those of the batch oracle test, with a
# steady one coupled strongly enough to settle within t_end, and one so
# fast that its steps shrink to the floor (1e-13 t_end), where one is
# floor-accepted, and then underflow (stiff); a slower one would crawl at
# its stability limit, above the floor
_STEP_KINDS = {**_ORACLE_KINDS, "floor": dict(r1=(1e15, 1e16)),
               "steady": dict(mu=(-0.2, 0.2), gamma1=(1.0, 1.5),
                              gamma2=(1.0, 1.5))}


@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced",
                                   "eco3-reduced"])
@settings(max_examples=12, deadline=None)
@given(data=hst.data())
def test_rk45_step_equals_the_list_sum_step(model, data):
    """``_drive``'s stage-stack step equals the list-sum step bit for bit on
    reduced batches with per-member parameters at B = 1-40: a phase slip,
    an extinction (P_D crossing and compaction), a steady member, an
    overflowing one (a NaN error estimate), a floor-accepted one, at loose
    (rejections) or default tolerances, with or without thresholds, dense
    or outcome-only."""
    B = data.draw(hst.integers(1, 40))
    kinds = [data.draw(hst.sampled_from(sorted(_STEP_KINDS)))
             for _ in range(B)]
    members = [{k: data.draw(hst.floats(*r)) for k, r in
                {**_RANGES, **_STEP_KINDS[kind]}.items()} for kind in kinds]
    cfg = ModelConfig(**{k: np.array([m[k] for m in members])
                         for k in _RANGES})
    n_pops = 3 if model == "eco3-reduced" else 2
    unit, angle = hst.floats(0.05, 1.0), hst.floats(-np.pi, np.pi)
    y0 = np.array([[0.0 if kind == "steady" else data.draw(unit)
                    for kind in kinds] for _ in range(n_pops)]
                  + [[data.draw(angle) for _ in range(B)]
                     for _ in range(n_pops - 1)])
    rtol = data.draw(hst.sampled_from([1e-3, 1e-8]))
    st = IntegratorSettings(rtol=rtol, atol=rtol / 100,
                            dt_init=data.draw(hst.sampled_from([1.0, 0.05])),
                            dt_max=data.draw(hst.sampled_from([1.0, 0.2])),
                            t_end=data.draw(hst.floats(2.0, 40.0)))
    p_death = cfg.P_D if data.draw(hst.booleans()) else None
    _assert_drive_equals_oracle(
        lambda: models._member_rhs(model, cfg,
                                   CentroidCoupling.from_config(cfg)),
        y0, st, p_death, dense=data.draw(hst.booleans()))


def test_rk45_step_equals_the_list_sum_step_on_a_full_network():
    """A full variant's bits follow the memory layout of each stage's state,
    and a compaction leaves y and f F-ordered, so stage 2 must be formed
    from f itself.  fig3a's 63 nodes make the coupling product round by
    layout (on a 6-node network both layouts round alike).  Members leave
    the reconnaissance at its horizon and the competition at crossings of
    P_D, at different steps, so later steps run on compacted columns."""
    system = cli._build(cli.validate_config(cli.get_preset("fig3a")))["system"]
    st = IntegratorSettings(t_end=3.0, recon_T=2.0)
    theta = np.stack([substream(5, "ensemble", i).uniform(
        0.0, 2 * np.pi, system.net.n_total) for i in range(8)], axis=1)
    _assert_drive_equals_oracle(lambda: (system.phase_rhs(), None), theta, st,
                                dense=False, t_end=st.recon_T)
    y0 = np.concatenate([np.full((3, 8), 5.0), theta])
    y0[0, :4] = y0[1, 4:] = [1.0, 2.0, 3.0, 4.0]
    p_death = np.array([1e-4, 2.0, 1e-4, 1e-4, 1e-4, 3.0, 1e-4, 1.0])
    status, t, _, _ = solver._drive(system.rhs, y0, st, p_death, dense=False)
    assert status.count("event") == len(set(t[t < 3.0])) == 3
    for dense in (True, False):
        _assert_drive_equals_oracle(lambda: (system.rhs, None), y0, st,
                                    p_death, dense)


def test_rejected_steps_log_no_points(monkeypatch):
    """A dense run with rejections returns exactly its accepted points: a
    step that every member rejects adds no entry to the log."""
    entries, calls = [], [0]
    trajectories = solver._trajectories

    def spy(log, *args):
        entries.extend(len(ids) for ids, *_ in log)
        return trajectories(log, *args)

    def rhs(y):
        calls[0] += 1
        return -50.0 * y

    monkeypatch.setattr(solver, "_trajectories", spy)
    traj = solver.integrate(rhs, [1.0], IntegratorSettings(dt_init=1.0,
                                                           t_end=1.0))
    attempts = (calls[0] - 1) // 6
    assert attempts > len(traj.t) - 1          # some steps were rejected
    assert entries == [1] * len(traj.t)
