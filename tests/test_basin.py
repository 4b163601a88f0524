from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuracomp import basin, graphs, models
from kuracomp.models import CentroidCoupling, ModelConfig
from kuracomp.solver import IntegratorSettings


def _cfg(**kw):
    base = dict(r1=3.0, r2=2.5, beta1=2.0, beta2=2.0, mu=0.2, phi=0.2,
                psi=0.0, gamma1=1.0, gamma2=1.0)
    base.update(kw)
    return ModelConfig(**base)


def _spec(grid=(5, 5), t_end=150.0, **kw):
    return basin.BasinSpec(grid=grid,
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=t_end), **kw)


def test_basin_zero_when_blue_cannot_reduce():
    res = basin.estimate_basin("simple-reduced", _cfg(beta1=0.0), _spec())
    assert res.value == 0.0
    assert res.per_cell.shape == (5, 5)
    assert np.all(res.per_cell == 0.0)


def test_basin_one_far_above_threshold():
    res = basin.estimate_basin("simple-reduced", _cfg(beta1=6.0),
                               _spec(grid=(11, 11)))
    assert res.value == 1.0


def test_basin_single_cell_reduces_to_single_run():
    res = basin.estimate_basin("simple-reduced", _cfg(beta1=6.0),
                               _spec(grid=(1, 1)))
    assert res.n_evaluated == 1
    assert res.value in (0.0, 1.0)


def test_basin_value_is_cell_mean():
    res = basin.estimate_basin("simple-reduced", _cfg(beta1=2.3),
                               _spec(grid=(7, 7)))
    assert res.value == pytest.approx(np.nanmean(res.per_cell))
    assert 0.0 <= res.value <= 1.0


def test_basin_deterministic_rerun():
    a = basin.estimate_basin("simple-reduced", _cfg(beta1=2.3), _spec())
    b = basin.estimate_basin("simple-reduced", _cfg(beta1=2.3), _spec())
    assert np.array_equal(a.per_cell, b.per_cell)


def test_basin_full_model_ensemble():
    g1 = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    g2 = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    omega = [np.full(3, 0.6), np.full(3, 0.4)]
    net = graphs.assemble([g1, g2], {(0, 1): [(0, 0)]}, sigma=[2.0, 2.0],
                          xi={(0, 1): 3.0, (1, 0): 3.0},
                          strategic=[(0,), (0,)], tactical=[(1, 2), (1, 2)],
                          omega=omega)
    spec = basin.BasinSpec(grid=(3, 3), n_sim=4, seed=7,
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=60.0,
                                                       recon_T=5.0))
    res = basin.estimate_basin("simple", _cfg(beta1=6.0), spec, net=net)
    assert res.n_evaluated == 9 * 4
    assert 0.0 <= res.value <= 1.0
    assert res.value > 0.9            # far above threshold


def test_heatmap_constant_model_is_constant():
    spec = _spec(grid=(5, 5))
    mat, xs, ys = basin.basin_heatmap(
        "simple-reduced", _cfg(beta1=0.0), "beta2", [1.0, 2.0],
        "gamma2", [0.5, 1.0], spec)  # Blue cannot reduce Red at beta1 = 0
    assert mat.shape == (2, 2)
    assert np.all(mat == mat[0, 0])


def test_heatmap_entries_in_unit_interval():
    spec = _spec(grid=(5, 5))
    mat, _, _ = basin.basin_heatmap(
        "simple-reduced", _cfg(), "beta1", np.linspace(1.5, 4.0, 4),
        "phi", np.linspace(-0.4, 0.4, 3), spec)
    assert np.all((mat >= 0.0) & (mat <= 1.0))


def test_heatmap_monotone_transition_and_threshold():
    from kuracomp import analysis
    from kuracomp.models import CentroidCoupling, centroid_coeffs

    cfg = _cfg()
    spec = _spec(grid=(7, 7), t_end=200.0)
    betas = np.linspace(1.7, 3.4, 18)
    phis = np.array([-0.3, 0.0, 0.3])
    mat, _, _ = basin.basin_heatmap("simple-reduced", cfg, "beta1", betas,
                                    "phi", phis, spec)
    step = betas[1] - betas[0]
    for i, ph in enumerate(phis):
        row = mat[i]
        assert np.all(np.diff(row) >= -1e-12)      # monotone in beta1
        c = cfg.with_overrides(phi=float(ph))
        co = centroid_coeffs(c, CentroidCoupling.from_config(c), 1.0, 0.0)
        d1 = analysis.delta_star(co.C, co.S, c.mu)
        thr = c.r2 / (1 + 0.5 * np.sin(d1))
        above = np.nonzero(row >= 0.5)[0]
        assert above.size                          # transition present
        crossing = betas[above[0]] - 0.5 * step    # midpoint of the flip cell
        assert abs(crossing - thr) <= step


def test_heatmap_csv_layout(tmp_path):
    mat = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "hm.csv"
    basin.heatmap_to_csv(mat, np.array([1.0, 2.0]), np.array([10.0, 20.0]),
                         path, meta={"model": "simple-reduced"})
    lines = path.read_text().splitlines()
    assert lines[0] == ",1,2"
    assert lines[1].startswith("10,0,0.5")
    assert (tmp_path / "hm.csv.json").exists()


def test_heatmap_rejects_bad_params():
    with pytest.raises(ValueError):
        basin.basin_heatmap("simple-reduced", _cfg(), "beta1", [1],
                            "beta1", [2], _spec())
    with pytest.raises(ValueError):
        basin.basin_heatmap("simple-reduced", _cfg(), "beta1", [1],
                            "bogus", [2], _spec())


def test_spec_validation():
    with pytest.raises(ValueError):
        basin.BasinSpec(grid=(0, 5))


def _boundary_fraction(result):
    """Fraction of cells adjacent (4-neighbourhood) to a cell whose Blue-win
    value differs by at least 0.5: an empirical bound on how much a 2x grid
    refinement can move the basin value."""
    g = result.per_cell
    edge = np.zeros_like(g, dtype=bool)
    edge[:-1, :] |= np.abs(g[:-1, :] - g[1:, :]) >= 0.5
    edge[1:, :] |= np.abs(g[1:, :] - g[:-1, :]) >= 0.5
    edge[:, :-1] |= np.abs(g[:, :-1] - g[:, 1:]) >= 0.5
    edge[:, 1:] |= np.abs(g[:, 1:] - g[:, :-1]) >= 0.5
    return float(edge.mean())


def test_refinement_bounded_by_boundary_fraction():
    # the ecology variant has a genuine interior basin boundary (transient
    # dips of P2 below the extinction threshold decide Blue success)
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=7.5, beta2=2.0, alpha=20.0,
                      tau=1.0, x1=0.25, mu=0.25, phi=0.2, psi=0.0,
                      gamma1=1.0, gamma2=1.0)
    coarse = basin.estimate_basin("eco2-reduced", cfg, _spec(grid=(8, 8)))
    fine = basin.estimate_basin("eco2-reduced", cfg, _spec(grid=(16, 16)))
    bf = _boundary_fraction(coarse)
    assert bf > 0
    assert 0.0 < coarse.value < 1.0
    assert abs(fine.value - coarse.value) <= bf
    # and refinement converges further
    finer = basin.estimate_basin("eco2-reduced", cfg, _spec(grid=(32, 32)))
    assert abs(finer.value - fine.value) <= abs(fine.value - coarse.value) + 0.02


def test_heatmap_percell_path_order_invariant():
    # full variants evaluate each parameter pair separately; two workers
    # must reproduce the single-worker matrix exactly
    spec = basin.BasinSpec(grid=(2, 2), n_sim=3, seed=7,
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=20.0,
                                                       recon_T=2.0))
    kw = dict(spec=spec, net=_two_pop_net())
    m1, _, _ = basin.basin_heatmap("simple", _cfg(), "beta1",
                                   [1.5, 3.5], "phi", [0.1, 0.3], **kw)
    m2, _, _ = basin.basin_heatmap("simple", _cfg(), "beta1",
                                   [1.5, 3.5], "phi", [0.1, 0.3], jobs=2, **kw)
    assert np.array_equal(m1, m2)


def _two_pop_net():
    g = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    return graphs.assemble([g, g], {(0, 1): [(0, 0)]}, sigma=[2.0, 2.0],
                           xi={(0, 1): 3.0, (1, 0): 3.0},
                           strategic=[(0,), (0,)], tactical=[(1, 2), (1, 2)],
                           omega=[np.full(3, 0.6), np.full(3, 0.4)])


def _three_pop_net():
    g = graphs.Graph(n=2, edges=((0, 1),))
    xi = {(i, j): 0.5 + 0.25 * (i + j) for i in range(3) for j in range(3)
          if i != j}
    return graphs.assemble([g, g, g], {(0, 1): [(0, 0)], (0, 2): [(1, 0)],
                                       (1, 2): [(1, 1)]},
                           sigma=[1.0, 1.0, 1.0], xi=xi)


_SWEEPABLE = {"beta1": (0.5, 6.0), "mu": (-0.6, 0.6), "gamma1": (0.0, 2.0),
              "gamma2": (0.0, 2.0), "phi": (-1.0, 1.0), "psi": (-1.0, 1.0),
              "P_D": (1e-4, 1e-2), "K1": (5.0, 15.0)}


@st.composite
def _heatmap_axes(draw, names):
    names = draw(st.lists(st.sampled_from(sorted(names)), min_size=2,
                          max_size=2, unique=True))
    values = [draw(st.lists(st.floats(*_SWEEPABLE[n]), min_size=1,
                            max_size=2)) for n in names]
    return names, values


def _source(model, source):
    """(net, coupling) that supply a reduced variant's g12/g21."""
    if source == "network":
        return (_three_pop_net() if model == "eco3-reduced"
                else _two_pop_net()), None
    if source == "coupling":
        return None, CentroidCoupling(g12=0.7, g21=1.3, g13=0.4, g23=0.2,
                                      g31=0.5, g32=0.6)
    return None, None


@pytest.mark.parametrize("source", ["config", "coupling", "network"])
@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced",
                                   "eco3-reduced"],
                         ids=lambda m: f"{m}-delta-star")   # the start
@settings(max_examples=3)
@given(data=st.data())
def test_heatmap_entry_equals_estimate_basin(model, source, data):
    net, coupling = _source(model, source)
    axes = set(_SWEEPABLE) & set(models.model_params(model, net=net,
                                                     coupling=coupling))
    (x_name, y_name), (xs, ys) = data.draw(_heatmap_axes(axes))
    cfg = _cfg(alpha=5.0) if model == "eco3-reduced" else _cfg()
    for method in ("rk4", "rk45"):      # both batch methods, on one draw
        spec = basin.BasinSpec(grid=(2, 2), settings=IntegratorSettings(
            method=method, dt_init=0.05, t_end=30.0))
        mat, _, _ = basin.basin_heatmap(model, cfg, x_name, xs, y_name, ys,
                                        spec, net=net, coupling=coupling)
        for j, yv in enumerate(ys):
            for i, xv in enumerate(xs):
                point = {x_name: xv, y_name: yv}
                want = basin.estimate_basin(
                    model, replace(cfg, **point), spec, net=net,
                    coupling=coupling).value
                assert np.array_equal(mat[j, i], want, equal_nan=True)


@pytest.mark.parametrize("model", ["simple", "simple-reduced"])
def test_heatmap_frustration_is_the_configs(model):
    # the network holds no frustration: the heatmap entry at phi = -1.2
    # equals estimate_basin at the config's phi, and phi moves the value
    net = _two_pop_net()
    cfg = _cfg(beta1=2.5, phi=-1.2)
    spec = basin.BasinSpec(grid=(3, 3), n_sim=3, seed=1,
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=60.0,
                                                       recon_T=5.0))
    mat, _, _ = basin.basin_heatmap(model, cfg, "beta1", [2.5], "phi",
                                    [-1.2], spec, net=net)
    want = basin.estimate_basin(model, cfg, spec, net=net).value
    assert mat[0, 0] == want
    other = basin.estimate_basin(model, replace(cfg, phi=0.2), spec,
                                 net=net).value
    assert want != other


def _poison(monkeypatch, pick):
    """Members for which ``pick(members)`` holds get a NaN derivative, so
    each of them fails at the first step; the mask follows compaction."""
    real = basin._member_rhs

    def poisoned(name, members, coupling):
        rhs, on_compact = real(name, members, coupling)
        bad = [np.asarray(pick(members))]

        def compact(keep):
            if bad[0].ndim:
                bad[0] = bad[0][keep]
            on_compact(keep)

        return (lambda y: np.where(bad[0], np.nan, rhs(y))), compact

    monkeypatch.setattr(basin, "_member_rhs", poisoned)


def test_failed_point_is_nan_and_leaves_the_batch_alone(monkeypatch):
    spec = _spec()
    want = basin.estimate_basin("simple-reduced", _cfg(beta1=2.3), spec)
    _poison(monkeypatch, lambda m: m.beta1 == 2.7)
    bad, good = basin._basins("simple-reduced",
                              _cfg(beta1=np.array([2.7, 2.3])), spec, 2)
    assert np.isnan(bad.value)
    assert bad.n_failed == bad.n_evaluated == 25
    assert good.n_failed == 0
    assert good.value == want.value
    assert np.array_equal(good.per_cell, want.per_cell)
    with pytest.raises(RuntimeError, match=r"25/25 .* parameter point 0"):
        basin.estimate_basin("simple-reduced", _cfg(beta1=2.7), spec)
    with pytest.raises(RuntimeError, match="parameter point 1"):
        basin.basin_heatmap("simple-reduced", _cfg(), "beta1", [2.3, 2.7],
                            "phi", [0.2], spec)


@pytest.mark.parametrize("n_bad", [1, 2])
def test_failure_rule_is_more_than_one_percent(monkeypatch, n_bad):
    # 100 members: one failure is tolerated, two make the point NaN
    _poison(monkeypatch, lambda m: np.arange(m.beta1.size) < n_bad)
    (res,) = basin._basins("simple-reduced", _cfg(beta1=np.array([2.3])),
                           _spec(grid=(10, 10)), 1)
    assert res.n_failed == n_bad
    assert np.isnan(res.value) == (n_bad == 2)
    if n_bad == 1:
        assert res.value == np.nanmean(res.per_cell)


def test_cli_doe_writes_one_nan_row_for_a_failed_point(tmp_path, monkeypatch):
    import csv

    from kuracomp import cli, doe

    overrides = ["task.type=doe",
                 'task.factors=[{"name":"beta1","lo":1.0,"hi":5.0},'
                 '{"name":"phi","lo":-0.5,"hi":0.5}]',
                 "task.k_init=5", "task.n_total=5", "task.grid=[3,3]",
                 "solver.t_end=40", "solver.dt_init=0.05"]

    def log(out):
        cli.run("simple-cs", overrides=list(overrides), out_dir=out, seed=1)
        with open(out / "doe_log.csv") as fh:
            return list(csv.DictReader(fh))

    clean = log(tmp_path / "clean")
    bad = doe.build_design(2, 5, [(1.0, 5.0), (-0.5, 0.5)], seed=1).points[2]
    _poison(monkeypatch, lambda m: m.beta1 == bad[0])
    poisoned = log(tmp_path / "poisoned")
    assert poisoned[2]["basin"] == poisoned[2]["objective"] == "nan"
    # every other row keeps its point and basin value; the objective is a
    # density over the surviving responses, so it moves
    for i, (a, b) in enumerate(zip(clean, poisoned)):
        if i != 2:
            a.pop("objective"), b.pop("objective")
            assert a == b


def test_failed_settling_fails_the_points_members(monkeypatch):
    """A point whose free centroid settling fails (here: mu = NaN) settles
    to NaN alone, and the engine counts the members of a point that starts
    from NaN as failed while the other points keep their values."""
    coupling = CentroidCoupling(g12=0.7, g21=1.3, g13=0.4, g23=0.2, g31=0.5,
                                g32=0.6)
    spec = _spec(grid=(2, 2), t_end=30.0)

    def settle(cfg, n):
        system = models.build_system("eco3-reduced", cfg, coupling=coupling)
        return basin._settled_delta(system, cfg, spec.settings, n)

    settled = settle(_cfg(alpha=5.0, mu=np.array([0.1, np.nan])), 2)
    assert np.isnan(settled[:, 1]).all()
    np.testing.assert_array_equal(settled[:, :1],
                                  settle(_cfg(alpha=5.0, mu=0.1), 1))
    real = basin._settled_delta
    monkeypatch.setattr(basin, "_settled_delta", lambda *args: (
        real(*args) + np.where(np.arange(args[-1]) == 1, np.nan, 0.0)))
    good, bad = basin._basins("eco3-reduced",
                              _cfg(alpha=5.0, beta1=np.array([2.3, 2.7])),
                              spec, 2, coupling=coupling)
    assert np.isnan(bad.value) and bad.n_failed == bad.n_evaluated == 4
    want = basin.estimate_basin("eco3-reduced", _cfg(alpha=5.0, beta1=2.3),
                                spec, coupling=coupling)
    assert good.n_failed == 0 and good.value == want.value
