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
                          xi={(0, 1): 3.0, (1, 0): 3.0}, phi=0.2, psi=0.0,
                          strategic=[(0,), (0,)], tactical=[(1, 2), (1, 2)],
                          omega=omega)
    spec = basin.BasinSpec(grid=(3, 3), n_sim=4, seed=7, recon_T=5.0,
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=60.0))
    res = basin.estimate_basin("simple", _cfg(beta1=6.0), spec, net=net)
    assert res.n_evaluated == 9 * 4
    assert 0.0 <= res.value <= 1.0
    assert res.value > 0.9            # far above threshold


def test_heatmap_constant_model_is_constant():
    spec = _spec(grid=(5, 5))
    mat, xs, ys = basin.basin_heatmap(
        "simple-reduced", _cfg(beta1=0.0), "x1", [0.0, 0.1],
        "x3", [0.0, 0.2], spec)     # x1/x3 unused by this variant
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
    with pytest.raises(ValueError, match="no phases"):
        basin.basin_heatmap("simple-reduced", _cfg(), "beta1", [1],
                            "mu", [0.2], _spec(phase_policy="ensemble"))


def test_spec_validation():
    with pytest.raises(ValueError):
        basin.BasinSpec(grid=(0, 5))


def test_delta_grid_policy_gives_fractions():
    # boundary-straddling parameters: sweeping Delta(0) yields cell values
    # strictly between 0 and 1
    cfg = _cfg(beta1=2.3, mu=0.9, phi=0.4)
    spec = basin.BasinSpec(grid=(5, 5), phase_policy="delta-grid",
                           delta_resolution=8,
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=120.0))
    res = basin.estimate_basin("simple-reduced", cfg, spec)
    assert res.n_evaluated == 25 * 8
    assert np.all((res.per_cell >= 0) & (res.per_cell <= 1))


def test_phase_policy_validation():
    with pytest.raises(ValueError):
        basin.BasinSpec(phase_policy="bogus")
    cfg = _cfg()
    with pytest.raises(ValueError):
        basin.estimate_basin("simple-reduced", cfg,
                             _spec(phase_policy="ensemble"))


def test_refinement_bounded_by_boundary_fraction():
    # the ecology variant has a genuine interior basin boundary (transient
    # dips of P2 below the extinction threshold decide Blue success)
    cfg = ModelConfig(r1=3.0, r2=2.5, beta1=7.5, beta2=2.0, alpha=20.0,
                      tau=1.0, x1=0.25, mu=0.25, phi=0.2, psi=0.0,
                      gamma1=1.0, gamma2=1.0)
    coarse = basin.estimate_basin("eco2-reduced", cfg, _spec(grid=(8, 8)))
    fine = basin.estimate_basin("eco2-reduced", cfg, _spec(grid=(16, 16)))
    bf = coarse.boundary_fraction()
    assert bf > 0
    assert 0.0 < coarse.value < 1.0
    assert abs(fine.value - coarse.value) <= bf
    # and refinement converges further
    finer = basin.estimate_basin("eco2-reduced", cfg, _spec(grid=(32, 32)))
    assert abs(finer.value - fine.value) <= abs(fine.value - coarse.value) + 0.02


def test_heatmap_percell_path_order_invariant():
    # full variants evaluate each parameter pair separately; two workers
    # must reproduce the single-worker matrix exactly
    spec = basin.BasinSpec(grid=(2, 2), n_sim=3, seed=7, recon_T=2.0,
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=20.0))
    kw = dict(spec=spec, net=_two_pop_net())
    m1, _, _ = basin.basin_heatmap("simple", _cfg(), "beta1",
                                   [1.5, 3.5], "phi", [0.1, 0.3], **kw)
    m2, _, _ = basin.basin_heatmap("simple", _cfg(), "beta1",
                                   [1.5, 3.5], "phi", [0.1, 0.3], jobs=2, **kw)
    assert np.array_equal(m1, m2)


def test_heatmap_honours_delta_grid_policy():
    # regression: the batched reduced heatmap used to start every member at
    # Delta* whatever the phase policy, returning [0, 1, 1] here
    cfg = ModelConfig(beta2=3.5, gamma2=0.3, mu=0.2, phi=0.2, psi=0.0)
    spec = _spec(t_end=120.0, phase_policy="delta-grid")
    betas = [2.0, 2.3, 2.6]
    mat, _, _ = basin.basin_heatmap("simple-reduced", cfg, "beta1", betas,
                                    "psi", [0.0], spec)
    expected = [basin.estimate_basin("simple-reduced",
                                     cfg.with_overrides(beta1=b), spec).value
                for b in betas]
    assert np.array_equal(mat, [expected])
    assert 0.0 < mat[0, 1] < 1.0


def _two_pop_net():
    g = graphs.Graph(n=3, edges=((0, 1), (1, 2)))
    return graphs.assemble([g, g], {(0, 1): [(0, 0)]}, sigma=[2.0, 2.0],
                           xi={(0, 1): 3.0, (1, 0): 3.0}, phi=0.2, psi=0.0,
                           strategic=[(0,), (0,)], tactical=[(1, 2), (1, 2)],
                           omega=[np.full(3, 0.6), np.full(3, 0.4)])


def _three_pop_net():
    g = graphs.Graph(n=2, edges=((0, 1),))
    xi = {(i, j): 0.5 + 0.25 * (i + j) for i in range(3) for j in range(3)
          if i != j}
    return graphs.assemble([g, g, g], {(0, 1): [(0, 0)], (0, 2): [(1, 0)],
                                       (1, 2): [(1, 1)]},
                           sigma=[1.0, 1.0, 1.0], xi=xi, phi=0.3, psi=0.1)


_SWEEPABLE = {"beta1": (0.5, 6.0), "mu": (-0.6, 0.6), "gamma1": (0.0, 2.0),
              "gamma2": (0.0, 2.0), "phi": (-1.0, 1.0), "psi": (-1.0, 1.0),
              "P_D": (1e-4, 1e-2), "K1": (5.0, 15.0)}
_COUPLING_OF = {"gamma1": "g12", "gamma2": "g21", "phi": "phi", "psi": "psi"}


@st.composite
def _heatmap_axes(draw):
    names = draw(st.lists(st.sampled_from(sorted(_SWEEPABLE)), min_size=2,
                          max_size=2, unique=True))
    values = [draw(st.lists(st.floats(*_SWEEPABLE[n]), min_size=1,
                            max_size=2)) for n in names]
    return names, values


@pytest.mark.parametrize("source", ["config", "coupling", "network"])
@pytest.mark.parametrize("policy", ["delta-star", "delta-grid"])
@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced",
                                   "eco3-reduced"])
@settings(max_examples=3)
@given(axes=_heatmap_axes())
def test_heatmap_entry_equals_estimate_basin(model, policy, source, axes):
    (x_name, y_name), (xs, ys) = axes
    cfg = _cfg(alpha=5.0) if model == "eco3-reduced" else _cfg()
    spec = basin.BasinSpec(grid=(2, 2), phase_policy=policy,
                           delta_resolution=3,
                           settings=IntegratorSettings(dt_init=0.05,
                                                       t_end=30.0))
    net = coupling = None
    base = CentroidCoupling.from_config(cfg)
    if source == "network":
        net = _three_pop_net() if model == "eco3-reduced" else _two_pop_net()
        base = CentroidCoupling.from_network(net)
    elif source == "coupling":
        base = coupling = CentroidCoupling(g12=0.7, g21=1.3, g13=0.4,
                                           g23=0.2, g31=0.5, g32=0.6,
                                           phi=0.3, psi=-0.2)
    mat, _, _ = basin.basin_heatmap(model, cfg, x_name, xs, y_name, ys, spec,
                                    net=net, coupling=coupling)
    for j, yv in enumerate(ys):
        for i, xv in enumerate(xs):
            point = {x_name: xv, y_name: yv}
            coup = replace(base, **{_COUPLING_OF[k]: v
                                    for k, v in point.items()
                                    if k in _COUPLING_OF})
            want = basin.estimate_basin(model, replace(cfg, **point), spec,
                                        coupling=coup).value
            assert np.array_equal(mat[j, i], want, equal_nan=True)
