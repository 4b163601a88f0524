from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from fixed_point_oracles import ORACLES, eco2_cubic_coeffs
from kuracomp import analysis, models, solver
from kuracomp.models import CentroidCoupling, ModelConfig, centroid_coeffs
from kuracomp.solver import IntegratorSettings


def _cs_config(**kw):
    base = dict(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, mu=0.2, phi=0.2,
                psi=0.0, gamma1=1.0, gamma2=1.0)
    base.update(kw)
    return ModelConfig(**base)


def _eco_config(**kw):
    base = dict(r1=3.0, r2=2.5, beta1=7.5, beta2=2.0, alpha=20.0, tau=1.0,
                x1=0.25, mu=0.25, phi=0.2, psi=0.0, gamma1=1.0, gamma2=1.0)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# closed-form centroid dynamics
# ---------------------------------------------------------------------------

def test_delta_star_limit_value():
    d = analysis.delta_star(2.0, 0.0, 0.2)
    assert d == pytest.approx(2 * np.arctan((2 - np.sqrt(3.96)) / 0.2))
    assert d == pytest.approx(0.100168, abs=1e-6)


def test_delta_star_nonexistence():
    assert np.isnan(analysis.delta_star(1.0, 0.5, 2.0))
    d = analysis.delta_star(np.array([1.0, 2.0]), 0.5, np.array([2.0, 0.2]))
    assert np.isnan(d[0]) and d[1] == analysis.delta_star(2.0, 0.5, 0.2)


def test_delta_star_is_stable_root():
    rng = np.random.default_rng(4)
    for _ in range(50):
        C, S = rng.uniform(-2, 2, 2)
        mu = rng.uniform(-1, 1)
        K = C * C + S * S - mu * mu
        if K <= 1e-6:
            continue
        d = analysis.delta_star(C, S, mu)
        # residual of the centroid ODE and its derivative at the root
        assert abs(mu + S * np.cos(d) - C * np.sin(d)) < 1e-10
        slope = -S * np.sin(d) - C * np.cos(d)
        assert slope == pytest.approx(-np.sqrt(K), abs=1e-8)


def test_closed_form_infinite_time_limit():
    C, S, mu = 1.7, -0.3, 0.4
    val = analysis.delta_closed_form(1e6, C, S, mu, 0.0)
    assert val == pytest.approx(analysis.delta_star(C, S, mu), abs=1e-9)


def test_closed_form_satisfies_ode():
    # finite-difference derivative along the solution vs the right-hand side
    for C, S, mu, d0 in ((2.0, 0.0, 0.2, 0.5), (1.2, 0.7, -0.4, -1.0),
                         (0.9, -0.5, 0.3, 2.8)):
        ts = np.linspace(0.05, 15.0, 200)
        h = 1e-6
        f = analysis.delta_time_course
        dd = (f(ts + h, C, S, mu, d0) - f(ts - h, C, S, mu, d0)) / (2 * h)
        delta = f(ts, C, S, mu, d0)
        rhs = mu + S * np.cos(delta) - C * np.sin(delta)
        assert np.max(np.abs(dd - rhs)) < 1e-5


def test_closed_form_periodic_branch():
    # |mu| > sqrt(C^2 + S^2): phase slips with period 2*pi/sqrt(-K)
    C, S, mu = 2.0, 0.0, 3.0
    period = analysis.slip_period(C, S, mu)
    assert period == pytest.approx(2 * np.pi / np.sqrt(5.0))
    ts = np.linspace(0.0, 30.0, 4000)
    delta = analysis.delta_time_course(ts, C, S, mu, 0.3)
    # continuous growth: Delta(t + T) = Delta(t) + 2*pi
    f = analysis.delta_time_course
    for t in (1.0, 4.0, 7.5):
        lhs = f(np.array([t + period]), C, S, mu, 0.3)[0]
        rhs = f(np.array([t]), C, S, mu, 0.3)[0] + 2 * np.pi
        assert lhs == pytest.approx(rhs, abs=1e-8)
    assert np.all(np.diff(delta) > 0)        # monotone slips for mu > 0


def test_closed_form_degenerate_mu_equals_S():
    C, S = 1.5, 0.4
    mu = S
    ts = np.linspace(0.0, 10.0, 50)
    delta = analysis.delta_time_course(ts, C, S, mu, 0.9)
    h = 1e-6
    dd = (analysis.delta_time_course(ts + h, C, S, mu, 0.9)
          - analysis.delta_time_course(ts - h, C, S, mu, 0.9)) / (2 * h)
    rhs = mu + S * np.cos(delta) - C * np.sin(delta)
    assert np.max(np.abs(dd - rhs)) < 1e-5
    assert delta[-1] == pytest.approx(2 * np.arctan(mu / C), abs=1e-6)


def test_time_course_matches_integration_coth_branch():
    C, S, mu, d0 = 2.0, 0.0, 0.2, 3.0     # starts beyond the unstable root
    st = IntegratorSettings(rtol=1e-11, atol=1e-13, t_end=20.0, dt_max=0.05)
    traj = solver.integrate(
        lambda y: np.array([mu + S * np.cos(y[0]) - C * np.sin(y[0])]),
        np.array([d0]), st)
    closed = analysis.delta_time_course(traj.t, C, S, mu, d0)
    assert np.max(np.abs(closed - traj.y[:, 0])) < 1e-7


# ---------------------------------------------------------------------------
# fixed points of the reduced two-population model
# ---------------------------------------------------------------------------

def test_simple_fixed_points_case_study():
    cfg = _cs_config()
    records = {r.label: r for r in analysis.simple_fixed_points(cfg)}
    assert set(records) == {"FP1", "FP2", "FP3", "FP4"}
    fp1 = records["FP1"]
    want = 2 * np.arctan((np.cos(0.2) - np.sqrt(1 - 0.04))
                         / (0.2 - np.sin(0.2)))
    assert fp1.state[2] == pytest.approx(want, abs=1e-12)
    for rec in records.values():
        assert rec.residual <= 1e-8


def test_simple_fp3_eigenvalues_printed_form():
    cfg = _cs_config()
    coup = CentroidCoupling.from_config(cfg)
    rec = {r.label: r for r in analysis.simple_fixed_points(cfg)}["FP3"]
    d = rec.state[2]
    want = sorted([cfg.r1, cfg.r2,
                   -np.cos(cfg.phi - d) - np.cos(cfg.psi + d)])
    got = sorted(np.real(rec.eigenvalues))
    assert got == pytest.approx(want, abs=1e-9)
    assert rec.classification == "unstable"      # r1, r2 > 0


def test_fp1_stability_flip_at_beta_condition():
    cfg = _cs_config()
    rec = {r.label: r for r in analysis.simple_fixed_points(cfg)}["FP1"]
    d1 = rec.state[2]
    threshold = cfg.r2 / (1 + 0.5 * np.sin(d1))
    below = {r.label: r for r in analysis.simple_fixed_points(
        cfg.with_overrides(beta1=threshold - 0.05))}["FP1"]
    above = {r.label: r for r in analysis.simple_fixed_points(
        cfg.with_overrides(beta1=threshold + 0.05))}["FP1"]
    assert below.classification == "unstable"
    assert above.classification == "stable"


def test_simple_fp4_against_newton_oracle():
    cfg = _cs_config()
    coup = CentroidCoupling.from_config(cfg)
    rec = {r.label: r for r in analysis.simple_fixed_points(cfg)}["FP4"]

    # independent oracle: Newton on the reduced rhs from a nearby start
    def rhs(s):
        return models.simple_reduced_rhs(s, cfg, coup,
                                         models._frustration(cfg))

    x = rec.state + np.array([0.01, -0.005, 0.02])
    for _ in range(60):
        x = x - np.linalg.solve(analysis.fd_jacobian(rhs, x), rhs(x))
    assert np.allclose(x, rec.state, atol=1e-9)


# ---------------------------------------------------------------------------
# fixed points of the reduced ecology model
# ---------------------------------------------------------------------------

def test_eco2_trivial_fixed_points():
    cfg = _eco_config()
    records = {r.label: r for r in analysis.eco2_fixed_points(cfg)}
    assert records["FP1"].state[0] == 0.0 and records["FP1"].state[1] == 0.0
    assert records["FP2"].state[1] == 1.0
    assert records["FP1"].classification == "unstable"   # lambda = r2 > 0


def test_eco2_fp1_eigenvalues_printed_form():
    cfg = _eco_config()
    rec = {r.label: r for r in analysis.eco2_fixed_points(cfg)}["FP1"]
    d = rec.state[2]
    want = sorted([cfg.r2, -cfg.x1,
                   -np.cos(cfg.phi - d) - np.cos(cfg.psi + d)])
    assert sorted(np.real(rec.eigenvalues)) == pytest.approx(want, abs=1e-9)


def test_eco2_fp2_lambda22_formula():
    cfg = _eco_config()
    rec = {r.label: r for r in analysis.eco2_fixed_points(cfg)}["FP2"]
    d = rec.state[2]
    lam22 = (cfg.beta2 * (np.sin(d) - 2) / 2
             + cfg.alpha * cfg.r1 / (1 + cfg.alpha) - cfg.x1)
    eigs = np.sort(np.real(rec.eigenvalues))
    assert np.min(np.abs(eigs - lam22)) < 1e-8


def test_eco2_cubic_roots_match_companion_matrix():
    cfg = _eco_config()
    for d in (-1.1, -0.4, 0.0, 0.3, 0.85, 1.2):
        closed = analysis.eco2_cubic_roots(cfg, d)
        comp = np.roots(eco2_cubic_coeffs(cfg, d))
        # permutation-tolerant matching
        for root in closed:
            assert np.min(np.abs(comp - root)) < 1e-8


def test_eco2_interior_records_satisfy_cubic():
    cfg = _eco_config()
    records = analysis.eco2_fixed_points(cfg)
    interior = [r for r in records if r.label in ("FP3", "FP4", "FP5")]
    assert interior
    for rec in interior:
        assert rec.residual <= 1e-8
        a3, a2, a1, a0 = eco2_cubic_coeffs(cfg, rec.state[2])
        p2 = rec.state[1]
        cubic = ((a3 * p2 + a2) * p2 + a1) * p2 + a0
        scale = max(abs(a3), abs(a2), abs(a1), abs(a0))
        assert abs(cubic) / scale < 1e-8
        comp = np.roots([a3, a2, a1, a0])
        assert np.min(np.abs(comp - p2)) < 1e-8


def test_eco2_back_substitution_formula():
    cfg = _eco_config()
    for rec in analysis.eco2_fixed_points(cfg):
        if rec.label in ("FP3", "FP4", "FP5"):
            p1 = analysis.eco2_back_substitute(cfg, rec.state[1], rec.state[2])
            assert rec.state[0] == pytest.approx(p1, abs=1e-10)


# ---------------------------------------------------------------------------
# the shared fixed-point driver against the two pre-merge drivers
# ---------------------------------------------------------------------------

_FIXED_POINTS = {"simple-reduced": analysis.simple_fixed_points,
                 "eco2-reduced": analysis.eco2_fixed_points}

_NO_CENTROID_FP = dict(mu=3.0)            # K < 0 at every feedback value
# FP4's denominator 4 r1 r2 + beta1 beta2 (sin^2 - 4) vanishes at the seed
# Delta* = 0
_SINGULAR_FP4 = dict(r1=2.0, r2=3.0, beta1=2.0, beta2=3.0, mu=0.0, phi=0.0,
                     psi=0.0)
# the damped FP5 lies outside [0, 1]; the polish lands on FP1's P = (0, 0)
_POLISHED_INTO_RANGE = dict(r1=0.1538, r2=3.232, beta1=2.3163, beta2=4.7803,
                            alpha=0.975, tau=0.9485, x1=0.9841, mu=0.0596,
                            phi=2.5321, psi=1.6886, gamma1=0.2379,
                            gamma2=0.432)


def _bits(x):
    return np.asarray(x).tobytes()


def _in_range(state):
    return bool(np.all((state[:2] >= -1e-12) & (state[:2] <= 1 + 1e-12)))


def _assert_status_describes_state(records, notes):
    for rec in records:
        assert rec.status == ("verified" if _in_range(rec.state)
                              else "outside-range")
        note = (f"{rec.label}: outside physical range "
                f"(P1={rec.state[0]:.4g}, P2={rec.state[1]:.4g})")
        assert (note in notes) == (rec.status == "outside-range")


def _assert_equals_oracle(variant, cfg, coupling):
    want_notes, got_notes = [], []
    want = ORACLES[variant](cfg, coupling, want_notes)
    got = _FIXED_POINTS[variant](cfg, coupling, got_notes)
    assert [r.label for r in got] == [r.label for r in want]
    for g, w in zip(got, want):
        assert _bits(g.state) == _bits(w.state)
        assert _bits(g.eigenvalues) == _bits(w.eigenvalues)
        assert _bits(g.residual) == _bits(w.residual)
        assert g.classification == w.classification
        # the oracle's eco2 status may describe the iterate before the polish
        if w.status == ("verified" if _in_range(w.state) else "outside-range"):
            assert g.status == w.status
    _assert_status_describes_state(got, got_notes)

    def shared(notes):      # the range notes now quote the reported state
        return [n.replace("iteration did not converge", "residual gate failed")
                for n in notes if "outside physical range" not in n]

    assert shared(got_notes) == shared(want_notes)
    return got_notes


@hst.composite
def _fixed_point_problems(draw):
    u = lambda lo, hi: draw(hst.floats(lo, hi))
    cfg = ModelConfig(r1=u(0.1, 4.0), r2=u(0.1, 4.0), beta1=u(0.1, 8.0),
                      beta2=u(0.1, 8.0), alpha=u(0.5, 25.0), tau=u(0.1, 2.0),
                      x1=u(0.0, 0.5), mu=u(-1.5, 1.5), phi=u(-np.pi, np.pi),
                      psi=u(-np.pi, np.pi))
    coupling = CentroidCoupling(g12=u(0.0, 2.0), g21=u(0.0, 2.0))
    return cfg, coupling


@pytest.mark.parametrize("variant", ["simple-reduced", "eco2-reduced"])
@settings(max_examples=150)
@given(problem=_fixed_point_problems())
def test_fixed_points_equal_the_oracle(variant, problem):
    _assert_equals_oracle(variant, *problem)


@pytest.mark.parametrize("variant, params, note", [
    ("simple-reduced", _NO_CENTROID_FP, "no centroid fixed point (K < 0)"),
    ("eco2-reduced", _NO_CENTROID_FP, "no centroid fixed point (K < 0)"),
    ("simple-reduced", _SINGULAR_FP4, "FP4: singular denominator"),
    ("simple-reduced", dict(r1=2.75, r2=3.49, beta1=1.9, beta2=7.17, mu=-1.0,
                            phi=0.02, psi=-0.4, gamma1=0.41, gamma2=0.65),
     "FP4: centroid fixed point vanished during iteration"),
    ("eco2-reduced", dict(r1=3.24, r2=3.25, beta1=4.17, beta2=2.36,
                          alpha=1.82, tau=0.83, x1=0.2, mu=-0.91, phi=-2.84,
                          psi=3.14, gamma1=1.3, gamma2=0.47),
     "FP4: complex root"),
    ("simple-reduced", dict(r1=0.16, r2=3.74, beta1=0.78, beta2=6.77, mu=0.87,
                            phi=0.35, psi=-1.63, gamma1=1.48, gamma2=1.35),
     "FP4: outside physical range"),
    ("eco2-reduced", dict(r1=2.75, r2=3.49, beta1=1.9, beta2=7.17,
                          alpha=21.87, tau=0.14, x1=0.35, mu=-1.0, phi=0.02,
                          psi=-0.4, gamma1=0.41, gamma2=0.65),
     "FP3: outside physical range"),
    ("simple-reduced", dict(r1=3.8584, r2=2.8298, beta1=5.7099, beta2=2.0927,
                            mu=0.2098, phi=-1.3603, psi=-2.2082,
                            gamma1=0.2487, gamma2=0.3062),
     "FP4: residual gate failed"),
    ("simple-reduced", dict(r1=0.6183, r2=1.9844, beta1=2.9293, beta2=4.3975,
                            mu=0.7739, phi=2.1091, psi=2.7229, gamma1=0.8918,
                            gamma2=1.4602), "polish"),
    ("eco2-reduced", _POLISHED_INTO_RANGE, "polish"),
    # FP4 wanders for _FP_MAX_ITER steps without repeating an iterate
    ("simple-reduced", dict(r1=1.9048467365346315, r2=1.5056960931772485,
                            beta1=1.972698333588266, beta2=1.972698333588266,
                            mu=2.2271262954351222e-158, phi=2.136273354072342,
                            psi=2.136273354072342, gamma1=1.5056960931772485,
                            gamma2=0.14287544931940446),
     "FP4: polished onto FP2's position"),
])
def test_fixed_point_cases_equal_the_oracle(variant, params, note,
                                            monkeypatch):
    polished = []
    polish = analysis._newton_polish
    monkeypatch.setattr(analysis, "_newton_polish",
                        lambda rhs, x: polished.append(x) or polish(rhs, x))
    notes = _assert_equals_oracle(variant, ModelConfig(**params), None)
    if note == "polish":
        assert polished and not any("gate" in n for n in notes)
    else:
        assert any(note in n for n in notes)


def test_interior_point_polished_onto_the_boundary_is_dropped():
    notes = []
    records = analysis.eco2_fixed_points(ModelConfig(**_POLISHED_INTO_RANGE),
                                         diagnostics=notes)
    assert [r.label for r in records] == ["FP1", "FP2", "FP3", "FP4"]
    fp1 = records[0]
    assert fp1.state[:2].tolist() == [0.0, 0.0]
    assert fp1.state[2] == pytest.approx(-2.1127, abs=1e-4)
    assert any(n.startswith("FP5: polished onto FP1's position (P1=")
               and n.endswith("), dropped") for n in notes)
    for rec in records[2:]:
        assert np.max(np.abs(rec.state[:2])) > 1e-9


def _stack(objs):
    """One config (or coupling) whose fields hold one value per object."""
    return replace(objs[0], **{f.name: np.array([getattr(o, f.name)
                                                  for o in objs])
                               for f in fields(objs[0])})


# Under simple-reduced, FP4 of the first point wanders for _FP_MAX_ITER
# steps without repeating an iterate; under eco2-reduced, FP3 of the second
# repeats its iterate from step 66 on, so its result is the step it shares
# with _FP_MAX_ITER on that cycle.
_AT_THE_CAP = [
    (ModelConfig(r1=1.9048467365346315, r2=1.5056960931772485,
                 beta1=1.972698333588266, beta2=1.972698333588266,
                 alpha=25.0, tau=1.972698333588266, x1=0.34794809307352353,
                 mu=2.2271262954351222e-158, phi=2.136273354072342,
                 psi=2.136273354072342),
     CentroidCoupling(g12=1.5056960931772485, g21=0.14287544931940446)),
    (ModelConfig(r1=3.7208378204040864, r2=0.5, beta1=5.054590954668978,
                 beta2=5.826215711694953, alpha=21.8010474038784,
                 tau=0.99999, x1=8.171990527796443e-14,
                 mu=0.8348419324837388, phi=0.8348419324837388,
                 psi=-2.977299993796024),
     CentroidCoupling(g12=0.8348419324837388, g21=1.9771327504386682)),
    (_eco_config(), CentroidCoupling()),
]


@pytest.mark.parametrize("variant", ["simple-reduced", "eco2-reduced"])
@settings(max_examples=40)
@given(problems=hst.lists(_fixed_point_problems(), min_size=1, max_size=12))
@example(problems=_AT_THE_CAP)
def test_batch_points_equal_their_one_point_calls(variant, problems):
    # the points of one batch iterate together; each must come out as its
    # own one-point call, bit for bit, notes included
    batch_notes = []
    batch = _FIXED_POINTS[variant](*map(_stack, zip(*problems)), batch_notes)
    assert len(batch) == len(batch_notes) == len(problems)
    for (cfg, coupling), got, got_notes in zip(problems, batch, batch_notes):
        want_notes = []
        want = _FIXED_POINTS[variant](cfg, coupling, want_notes)
        assert got_notes == want_notes
        assert ([(r.label, r.status, r.classification) for r in got]
                == [(r.label, r.status, r.classification) for r in want])
        for g, w in zip(got, want):
            assert _bits(g.state) == _bits(w.state)
            assert _bits(g.eigenvalues) == _bits(w.eigenvalues)
            assert _bits(g.residual) == _bits(w.residual)


@pytest.mark.parametrize("variant", ["simple-reduced", "eco2-reduced"])
@settings(max_examples=100)
@given(problem=_fixed_point_problems())
@example(problem=(ModelConfig(**_POLISHED_INTO_RANGE), None))
def test_status_describes_the_reported_state(variant, problem):
    notes = []
    records = _FIXED_POINTS[variant](*problem, diagnostics=notes)
    _assert_status_describes_state(records, notes)


# ---------------------------------------------------------------------------
# Jacobians, eigenvalues, classification
# ---------------------------------------------------------------------------

def test_eigenvalues_identity():
    assert np.allclose(analysis.eigenvalues(np.eye(3)), np.ones(3))


def test_fd_jacobian_matches_analytic_simple():
    cfg = _cs_config()
    coup = CentroidCoupling.from_config(cfg)
    rhs = models.build_system("simple-reduced", cfg, coupling=coup).rhs
    rng = np.random.default_rng(11)
    for _ in range(100):
        state = np.array([rng.uniform(0, 1), rng.uniform(0, 1),
                          rng.uniform(-np.pi, np.pi)])
        fd = analysis.fd_jacobian(rhs, state)
        an = analysis.simple_reduced_jacobian(state, cfg, coup)
        assert np.max(np.abs(fd - an)) < 1e-5


def test_fd_jacobian_matches_analytic_eco2():
    cfg = _eco_config()
    coup = CentroidCoupling.from_config(cfg)
    rhs = models.build_system("eco2-reduced", cfg, coupling=coup).rhs
    rng = np.random.default_rng(12)
    for _ in range(100):
        state = np.array([rng.uniform(0, 1), rng.uniform(0, 1),
                          rng.uniform(-np.pi, np.pi)])
        fd = analysis.fd_jacobian(rhs, state)
        an = analysis.eco2_reduced_jacobian(state, cfg, coup)
        assert np.max(np.abs(fd - an)) < 1e-5


_JACOBIANS = {"simple-reduced": analysis.simple_reduced_jacobian,
              "eco2-reduced": analysis.eco2_reduced_jacobian}


@pytest.mark.parametrize("variant", sorted(_JACOBIANS))
@settings(max_examples=60)
@given(m=hst.integers(1, 30), seed=hst.integers(0, 2 ** 32 - 1))
def test_batched_jacobians_equal_their_column_calls(variant, m, seed):
    """A (3, m) state with per-column parameters gives the (m, 3, 3) stack
    of the columns' scalar calls bit for bit, and a scalar call gives the
    reference body's matrix bit for bit."""
    from fixed_point_oracles import (eco2_reduced_jacobian,
                                     simple_reduced_jacobian)
    oracle = {"simple-reduced": simple_reduced_jacobian,
              "eco2-reduced": eco2_reduced_jacobian}[variant]
    rng = np.random.default_rng(seed)
    draw = lambda lo, hi: (rng.uniform(lo, hi, m) if rng.random() < 0.6
                           else float(rng.uniform(lo, hi)))
    cfg = ModelConfig(r1=draw(0, 4), r2=draw(0, 4), beta1=draw(0, 8),
                      beta2=draw(0, 8), alpha=draw(0, 25), tau=draw(0, 2),
                      x1=draw(0, 0.5), mu=draw(-1.5, 1.5),
                      phi=draw(-np.pi, np.pi), psi=draw(-np.pi, np.pi))
    coupling = CentroidCoupling(g12=draw(0, 2), g21=draw(0, 2))
    states = np.stack([rng.uniform(-0.5, 1.5, m), rng.uniform(-0.5, 1.5, m),
                       rng.uniform(-np.pi, np.pi, m)])
    with np.errstate(all="ignore"):
        stack = _JACOBIANS[variant](states, cfg, coupling)
        assert stack.shape == (m, 3, 3)
        for j in range(m):
            c, g = models._take(cfg, j), models._take(coupling, j)
            one = _JACOBIANS[variant](states[:, j], c, g)
            assert one.shape == (3, 3)
            assert stack[j].tobytes() == one.tobytes()
            assert one.tobytes() == oracle(states[:, j], c, g).tobytes()


@pytest.mark.parametrize("variant", sorted(_JACOBIANS))
def test_records_take_one_jacobian_and_one_eigvals_call(variant,
                                                        monkeypatch):
    calls = []

    def spy(name, fn):
        return lambda *a, **kw: calls.append(name) or fn(*a, **kw)

    name = _JACOBIANS[variant].__name__
    monkeypatch.setattr(analysis, name, spy(name, _JACOBIANS[variant]))
    monkeypatch.setattr(np.linalg, "eigvals", spy("eigvals",
                                                  np.linalg.eigvals))
    cfg = (_cs_config if variant == "simple-reduced" else _eco_config)(
        beta1=np.linspace(1.0, 10.0, 25))
    records = _FIXED_POINTS[variant](cfg)
    assert sum(map(len, records)) > len(records) == 25
    assert sorted(calls) == sorted(["eigvals", name])
    # the stack's eigvals is complex when any matrix's is; each record keeps
    # the dtype of its own matrix's call
    kinds = set()
    for i, recs in enumerate(records):
        c = models._take(cfg, i)
        for rec in recs:
            jac = _JACOBIANS[variant](rec.state, c,
                                      CentroidCoupling.from_config(c))
            want = np.linalg.eigvals(jac)
            assert rec.eigenvalues.tobytes() == want.tobytes()
            assert rec.eigenvalues.dtype == want.dtype
            kinds.add(want.dtype.kind)
    assert kinds == {"f", "c"}


def test_jacobian_diagonal_at_fp3():
    cfg = _cs_config()
    coup = CentroidCoupling.from_config(cfg)
    rec = {r.label: r for r in analysis.simple_fixed_points(cfg)}["FP3"]
    fd = analysis.fd_jacobian(
        models.build_system("simple-reduced", cfg, coupling=coup).rhs,
        rec.state)
    d = rec.state[2]
    co = centroid_coeffs(cfg, coup, 1.0, 1.0)
    diag = [cfg.r1, cfg.r2, -co.C * np.cos(d) - co.S * np.sin(d)]
    assert np.allclose(np.diag(fd), diag, atol=1e-5)


def test_classification_invariant_under_permutation():
    rng = np.random.default_rng(13)
    jac = rng.normal(size=(3, 3))
    perm = np.eye(3)[[2, 0, 1]]
    sim = perm @ jac @ perm.T
    assert (analysis.classify(analysis.eigenvalues(jac))
            == analysis.classify(analysis.eigenvalues(sim)))


def test_classify_tolerance():
    assert analysis.classify(np.array([-1.0, -2.0])) == "stable"
    assert analysis.classify(np.array([-1.0, 1e-12])) == "nonhyperbolic"
    assert analysis.classify(np.array([-1.0, 0.5])) == "unstable"


# ---------------------------------------------------------------------------
# thresholds and sweeps
# ---------------------------------------------------------------------------

def test_threshold_values():
    cfg = ModelConfig(r1=3.0, r2=2.5, alpha=20.0, x1=0.25)
    rep = analysis.stability_thresholds(cfg, 0.0)
    assert rep.beta1_threshold == pytest.approx(2.5)
    assert rep.beta2_threshold == pytest.approx(3.0)
    assert rep.eco2_beta2_threshold == pytest.approx(20 * 3 / 21 - 0.25)
    lo, hi = rep.phi_window
    assert (lo, hi) == pytest.approx((-np.pi / 2, np.pi / 2))


def test_sweep_flip_within_one_grid_step():
    cfg = _cs_config()
    rec = {r.label: r for r in analysis.simple_fixed_points(cfg)}["FP1"]
    d1 = rec.state[2]
    threshold = cfg.r2 / (1 + 0.5 * np.sin(d1))
    values = np.linspace(1.6, 3.2, 33)
    rows = analysis.sweep_bifurcation(
        "simple-reduced", cfg, "beta1", values,
        settings=IntegratorSettings(rtol=1e-7, atol=1e-9, t_end=80.0))
    flips = []
    prev = None
    for v in values:
        fp1 = [r.record for r in rows
               if r.record is not None and r.record.label == "FP1"
               and r.param_value == v]
        cls = fp1[0].classification if fp1 else None
        if prev == "unstable" and cls == "stable":
            flips.append(v)
        prev = cls
    assert len(flips) == 1
    step = values[1] - values[0]
    assert abs(flips[0] - threshold) <= step + 1e-12


def test_sweep_limit_cycle_labels_beyond_k_window():
    # |mu| > gamma1 + gamma2 means no centroid fixed point at any feedback
    cfg = _cs_config(mu=3.0, beta1=2.0)
    rows = analysis.sweep_bifurcation(
        "simple-reduced", cfg, "beta1", [2.0],
        settings=IntegratorSettings(rtol=1e-7, atol=1e-9, t_end=120.0))
    traj_rows = [r for r in rows if r.record is None]
    assert traj_rows[0].attractor == "limit-cycle"
    # no centroid fixed point -> no FP records survive
    assert all(r.record is None for r in rows)


def test_sweep_single_point_matches_direct_analysis():
    cfg = _cs_config()
    rows = analysis.sweep_bifurcation(
        "simple-reduced", cfg, "beta1", [cfg.beta1],
        settings=IntegratorSettings(rtol=1e-7, atol=1e-9, t_end=60.0))
    direct = analysis.simple_fixed_points(cfg)
    swept = [r.record for r in rows if r.record is not None]
    assert len(swept) == len(direct)
    for a, b in zip(swept, direct):
        assert np.allclose(a.state, b.state, atol=1e-12)
        assert a.classification == b.classification


@pytest.mark.parametrize("param,values", [("beta1", [1.0, 4.0, 9.0, 14.0]),
                                          ("P_D", [0.001, 0.03, 0.09]),
                                          ("mu", [0.2, 1.0, 3.0])])
@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_sweep_trajectories_equal_per_point_scenarios(param, values, method):
    # one batch for every point; each member is its point's own run
    cfg = _cs_config(beta2=0.5)
    st = IntegratorSettings(method=method, rtol=1e-7, atol=1e-9,
                            dt_init=0.02, t_end=40.0)
    rows = analysis.sweep_bifurcation("simple-reduced", cfg, param, values,
                                      settings=st)
    traj_rows = [r for r in rows if r.record is None]
    assert [r.param_value for r in traj_rows] == values
    for row in traj_rows:
        c = cfg.with_overrides(**{param: row.param_value})
        system = models.build_system("simple-reduced", c)
        d0 = analysis._delta_at(c, system.coupling, 0.5, 0.5)
        y0 = np.array([0.5, 0.5, 0.0 if np.isnan(d0) else d0])
        one = solver.run_scenario(system, y0, st)
        assert row.attractor == analysis._label_attractor(one.trajectory)
        np.testing.assert_array_equal(row.terminal_state,
                                      one.trajectory.y[-1])


def test_sweep_csv_layout(tmp_path):
    cfg = _cs_config()
    rows = analysis.sweep_bifurcation(
        "simple-reduced", cfg, "beta1", [2.0, 3.0],
        settings=IntegratorSettings(rtol=1e-7, atol=1e-9, t_end=60.0))
    path = tmp_path / "sweep.csv"
    analysis.sweep_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "param,fp_label,P1,P2,Delta1,max_real_eig,class"
    assert any(",traj," in line for line in lines[1:])


def test_unknown_sweep_parameter():
    with pytest.raises(ValueError):
        analysis.sweep_bifurcation("simple-reduced", _cs_config(),
                                   "bogus", [1.0])
