import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad

from kuracomp import doe
from kuracomp._rng import substream


def test_design_single_factor():
    dm = doe.build_design(1, 7, [(0.0, 1.0)], seed=0)
    assert dm.max_abs_corr == 0.0
    assert np.allclose(np.sort(dm.levels[:, 0]), (np.arange(7) + 0.5) / 7)


def test_design_latin_property():
    dm = doe.build_design(2, 5, [(0.0, 1.0), (-1.0, 1.0)], seed=1)
    want = (np.arange(5) + 0.5) / 5
    for j in range(2):
        assert np.allclose(np.sort(dm.levels[:, j]), want)
    assert dm.points[:, 1].min() >= -1.0 and dm.points[:, 1].max() <= 1.0


def test_design_large_reaches_target_correlation():
    dm = doe.build_design(20, 129, [(0.0, 1.0)] * 20, seed=0)
    assert dm.max_abs_corr <= 0.05
    want = (np.arange(129) + 0.5) / 129
    for j in range(20):
        assert np.allclose(np.sort(dm.levels[:, j]), want)


def test_design_deterministic():
    a = doe.build_design(5, 17, [(0.0, 1.0)] * 5, seed=3)
    b = doe.build_design(5, 17, [(0.0, 1.0)] * 5, seed=3)
    assert np.array_equal(a.points, b.points)


class _CountingRng:
    """A generator that counts its ``integers`` calls (three per annealing
    proposal)."""

    def __init__(self, rng):
        self.rng, self.integer_calls = rng, 0

    def __getattr__(self, name):
        if name == "integers":
            self.integer_calls += 1
        return getattr(self.rng, name)


def test_design_annealing_stops_where_the_target_is_out_of_reach(monkeypatch):
    rngs = []
    substream = doe.substream

    def counting_substream(*key):
        rngs.append(_CountingRng(substream(*key)))
        return rngs[-1]

    monkeypatch.setattr(doe, "substream", counting_substream)
    # the doe-glm campaign's design meets CORR_TARGET before any proposal
    dm = doe.build_design(2, 20, [(0.5, 5.0), (-0.8, 0.8)], seed=0)
    ranks = [[2, 11, 19, 14, 5, 12, 1, 10, 8, 17, 18, 3, 15, 9, 7, 0, 16, 4,
              13, 6],
             [6, 2, 14, 13, 4, 9, 11, 18, 0, 1, 10, 8, 3, 7, 17, 16, 15, 12,
              19, 5]]
    assert np.array_equal(dm.levels, (np.array(ranks).T + 0.5) / 20)
    assert rngs[-1].integer_calls == 0
    # three levels: no two columns correlate below 0.5, no four columns
    # avoid |corr| = 1; annealing stops there, not after MAX_PROPOSALS
    for d, floor in ((2, 0.5), (3, 0.5), (4, 1.0)):
        dm = doe.build_design(d, 3, [(0.0, 1.0)] * d, seed=0)
        assert dm.max_abs_corr == floor
        assert rngs[-1].integer_calls <= 3 * 256
    # four and five levels: an exhaustive search over level permutations
    # puts the floor at 0.4 for (d, k) = (3, 4) and 0.2 for (4, 5); these
    # runs used to reach it and then spend all MAX_PROPOSALS
    for d, k, seed, floor in ((3, 4, 0, 0.4), (3, 4, 1, 0.4), (4, 5, 0, 0.2)):
        dm = doe.build_design(d, k, [(0.0, 1.0)] * d, seed=seed)
        assert dm.max_abs_corr == pytest.approx(floor, abs=1e-9)
        assert rngs[-1].integer_calls <= 3 * 8192


def test_design_annealing_leaves_coarse_plateaus(monkeypatch):
    # at k = 4 and 6 one swap moves a correlation by 0.2 and 0.057; these
    # seeds used to sit at |corr| 0.2 and 0.086 for all MAX_PROPOSALS
    rngs = []
    substream = doe.substream

    def counting_substream(*key):
        rngs.append(_CountingRng(substream(*key)))
        return rngs[-1]

    monkeypatch.setattr(doe, "substream", counting_substream)
    for k, seed in ((4, 3), (6, 0)):
        dm = doe.build_design(2, k, [(0.0, 1.0)] * 2, seed=seed)
        assert dm.max_abs_corr <= doe.CORR_TARGET
        assert rngs[-1].integer_calls <= 3 * 4096


def test_design_keeps_the_lowest_max_corr_seen():
    # the annealer lowers the sum of squared correlations, which can end on
    # aliased columns (|corr| 1) after a check saw a better design; these
    # seeds used to return 1.0 for s = 1, 2, 3
    for seed in range(5):
        dm = doe.build_design(5, 4, [(0.0, 1.0)] * 5, seed=seed)
        assert dm.max_abs_corr < 1.0 - 1e-9
        assert dm.max_abs_corr == doe._max_abs_corr(dm.levels)


def test_kde_peak_at_single_sample():
    dens = doe.kde_density(np.array([0.5]), 0.1)
    xs = np.linspace(0, 1, 201)
    vals = dens(xs)
    assert xs[np.argmax(vals)] == pytest.approx(0.5, abs=0.01)


def test_kde_uniform_grid_near_flat():
    dens = doe.kde_density(np.linspace(0, 1, 101), 0.05)
    vals = dens(np.linspace(0, 1, 400))
    assert vals.max() / vals.min() <= 1.2


def test_kde_mass_conserved_by_reflection():
    for h in (0.03, 0.1, 0.3):
        dens = doe.kde_density(np.array([0.07, 0.5, 0.93, 0.2]), h)
        mass, err = quad(dens, 0.0, 1.0, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_silverman_fallback_for_identical_samples():
    z = doe.objective(np.full(6, 0.4))
    assert np.allclose(z, 1.0)


def test_objective_normalisation():
    rng = np.random.default_rng(0)
    ys = rng.uniform(0, 1, 40)
    z = doe.objective(ys)
    assert z.max() == pytest.approx(1.0)
    assert np.all((z > 0) & (z <= 1))


def test_objective_prefers_rare_values():
    ys = np.array([0.2, 0.21, 0.19, 0.2, 0.8])
    z = doe.objective(ys)
    assert z[-1] == pytest.approx(1.0)
    assert np.all(z[:-1] < 1.0)


def _predict(gp, x):
    """(mean, sd) of the conditioned surrogate at the rows of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ks = gp._kernel(x, gp.x_train)
    mean = gp._z_mean + ks @ gp._alpha
    v = np.linalg.solve(gp._chol, ks.T)
    var = gp.signal_var - (v ** 2).sum(axis=0)
    return mean, np.sqrt(np.maximum(var, 1e-16))


def _predict_with_grad_mnd(gp, x):
    """GaussianProcess.predict_with_grad over an (m, n, d) difference tensor,
    as it was written before the factor-major layout."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    diff = (x[:, None, :] - gp.x_train[None, :, :]) / gp.length_scales
    ks = gp.signal_var * np.exp(-0.5 * (diff ** 2).sum(axis=-1))
    dks = -ks[:, :, None] * diff / gp.length_scales   # (m, n, d)
    mean = gp._z_mean + ks @ gp._alpha
    dmean = np.einsum("mnd,n->md", dks, gp._alpha)
    w = np.linalg.solve(gp._chol.T, np.linalg.solve(gp._chol, ks.T)).T
    var = gp.signal_var - (ks * w).sum(axis=1)
    sd = np.sqrt(np.maximum(var, 1e-16))
    dvar = -2.0 * np.einsum("mn,mnd->md", w, dks)
    dsd = dvar / (2.0 * sd[:, None])
    return mean, sd, dmean, dsd


@pytest.mark.parametrize("d", range(1, 25))
@settings(max_examples=4, deadline=None)
@given(data=hst.data())
def test_gp_prediction_equals_the_mnd_formulation(d, data):
    """Bit for bit at every design dimension: numpy sums a contiguous last
    axis in order below 8 terms and in 8 accumulators from 8 on, and an
    einsum's summation order follows its operands' layout."""
    n, m = data.draw(hst.integers(2, 40)), data.draw(hst.integers(1, 64))
    scales = data.draw(hst.lists(hst.floats(0.01, 10.0), min_size=d,
                                 max_size=d))
    rng = np.random.default_rng(data.draw(hst.integers(0, 2 ** 32 - 1)))
    gp = doe.GaussianProcess(d=d, length_scales=np.array(scales),
                             signal_var=data.draw(hst.floats(0.01, 100.0)))
    gp.condition(rng.uniform(size=(n, d)), rng.normal(size=n))
    x = rng.uniform(size=(m, d))
    for got, want in zip(gp.predict_with_grad(x),
                         _predict_with_grad_mnd(gp, x)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_gp_interpolates_training_targets():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (12, 2))
    z = np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])
    gp = doe.GaussianProcess(d=2, noise_var=1e-8)
    gp.condition(x, z)
    mean, sd = _predict(gp, x)
    assert np.max(np.abs(mean - z)) < 1e-3     # within the noise level
    assert np.all(sd < 1e-2)


def test_gp_jitter_escalation():
    # duplicate inputs with zero noise: the escalating jitter rescues the
    # factorisation
    gp = doe.GaussianProcess(d=1, noise_var=0.0)
    x = np.zeros((4, 1))
    gp.condition(x, np.array([0.5, 0.5, 0.5, 0.5]))
    mean, _ = _predict(gp, np.array([[0.0]]))
    assert mean[0] == pytest.approx(0.5, abs=1e-3)
    # beyond the 1e-6 ceiling the surrogate refuses
    bad = doe.GaussianProcess(d=1, signal_var=-1.0, noise_var=0.0)
    with pytest.raises(doe.SurrogateError):
        bad.condition(np.linspace(0, 1, 4)[:, None], np.zeros(4))


def _dense_acq_oracle(gp, kappa, n=101):
    xs = np.linspace(0, 1, n)
    g1, g2 = np.meshgrid(xs, xs, indexing="ij")
    grid = np.column_stack([g1.ravel(), g2.ravel()])
    mean, sd = _predict(gp, grid)
    acq = mean + kappa * sd
    return grid, acq


def test_bo_step_finds_acquisition_peak():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (25, 2))
    z = np.exp(-8 * ((x[:, 0] - 0.3) ** 2 + (x[:, 1] - 0.7) ** 2))
    ranges = [(0.0, 1.0), (0.0, 1.0)]
    x_next, gp = doe.bo_step(x, z, ranges, seed=0, kappa=2.0, refit=True)
    grid, acq = _dense_acq_oracle(gp, 2.0)
    got, _ = _predict(gp, np.atleast_2d(x_next))
    m, s = _predict(gp, np.atleast_2d(x_next))
    got_acq = m[0] + 2.0 * s[0]
    assert got_acq >= acq.max() - 1e-3


def test_bo_step_interpolation_peak_off_training_points():
    # kappa = 0, smooth peak between training points: the mean's argmax is
    # not a training input
    x = np.linspace(0, 1, 9)[:, None]
    z = np.exp(-((x[:, 0] - 0.437) / 0.2) ** 2)
    gp = doe.GaussianProcess(d=1, noise_var=1e-10,
                             length_scales=np.array([0.2]))
    x_next, gp = doe.bo_step(x, z, [(0.0, 1.0)], seed=1, surrogate=gp,
                             kappa=0.0)
    dist = np.min(np.abs(x[:, 0] - x_next[0]))
    assert dist > 1e-3
    assert abs(x_next[0] - 0.437) < 0.05


def test_bo_step_constant_targets_explore():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.4, 0.6, (10, 2))          # training clustered centrally
    z = np.full(10, 0.7)
    x_next, gp = doe.bo_step(x, z, [(0.0, 1.0), (0.0, 1.0)], seed=0,
                             kappa=2.0)
    # pure exploration: the chosen point sits far from the training cloud
    d_new = np.min(np.linalg.norm(x - x_next, axis=1))
    assert d_new > 0.3


@pytest.mark.parametrize("seed", [0, 1, 21])
def test_sobol_starts_equal_scipy_bit_for_bit(seed):
    from scipy.stats import qmc

    for d in range(1, 25):
        got = doe._sobol_starts(
            d, doe.N_STARTS, substream(seed, "doe", "acquire-starts"))
        want = qmc.Sobol(d, scramble=True, seed=substream(
            seed, "doe", "acquire-starts")).random(doe.N_STARTS)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), d


def test_sobol_table_equals_scipy_direction_numbers():
    from pathlib import Path

    import scipy.stats

    table = np.load(Path(scipy.stats.__file__).parent
                    / "_sobol_direction_numbers.npz")
    n = len(doe._SOBOL_POLY)
    assert n == len(doe._SOBOL_VINIT) == 24
    assert np.array_equal(doe._SOBOL_POLY, table["poly"][:n])
    vinit = np.zeros((n, table["vinit"].shape[1]), dtype=np.int64)
    for k, row in enumerate(doe._SOBOL_VINIT):
        vinit[k, :len(row)] = row
    assert np.array_equal(vinit, table["vinit"][:n])


def test_bo_step_rejects_more_factors_than_the_sobol_table():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (5, 25))
    with pytest.raises(ValueError, match="1 to 24 dimensions, not 25"):
        doe.bo_step(x, rng.uniform(0, 1, 5), [(0.0, 1.0)] * 25, seed=0)


def test_run_doe_pure_design_when_budget_equals_init():
    g = lambda X: X[:, 0]
    recs = doe.run_doe(g, [(0.0, 1.0)], k_init=6, n_total=6, seed=0)
    assert len(recs) == 6
    assert all(r.source == "nolh" for r in recs)


def test_run_doe_reevaluation_contract():
    g = lambda X: 0.5 * X[:, 0] + 0.25
    recs = doe.run_doe(g, [(0.0, 1.0)], k_init=5, n_total=12, seed=1)
    good = [r for r in recs if not r.failed]
    zs = doe.objective(np.array([r.y for r in good]))
    for rec, z in zip(good, zs):
        assert rec.z == pytest.approx(z, abs=1e-12)


def test_run_doe_flags_failures():
    # a non-finite response flags only its own record
    def g(X):
        return np.where(X[:, 0] > 0.8, np.nan, X[:, 0])

    recs = doe.run_doe(g, [(0.0, 1.0)], k_init=10, n_total=12, seed=2)
    failed = [r for r in recs if r.failed]
    assert failed
    assert all(np.isnan(r.y) for r in failed)
    assert all(r.x[0] > 0.8 for r in failed)
    good = [r for r in recs if not r.failed]
    assert all(r.y == r.x[0] for r in good)
    assert len(good) + len(failed) == len(recs)


def test_run_doe_raise_flags_the_whole_call():
    # a numerical exception flags every record of the call that raised:
    # the whole design here, then only the acquisitions that raise
    def g(X):
        if (X[:, 0] > 0.8).any():
            raise RuntimeError("boom")
        return X[:, 0]

    recs = doe.run_doe(g, [(0.0, 1.0)], k_init=10, n_total=14, seed=2)
    assert all(r.failed and np.isnan(r.y) for r in recs[:10])
    for r in recs[10:]:
        assert r.failed == (r.x[0] > 0.8)


def test_run_doe_propagates_programming_errors():
    # only numerical failures become failed records; a bug in g surfaces
    def g(X):
        return [float(x) / 0 if x > 0.5 else float(x) for x in X[:, 0]]

    with pytest.raises(ZeroDivisionError):
        doe.run_doe(g, [(0.0, 1.0)], k_init=4, n_total=4, seed=0)


def test_run_doe_flags_linalg_failures():
    def g(X):
        raise np.linalg.LinAlgError("singular")

    recs = doe.run_doe(g, [(0.0, 1.0)], k_init=3, n_total=4, seed=0)
    assert all(r.failed for r in recs)


def test_run_doe_deterministic():
    g = lambda X: np.abs(np.sin(5 * X[:, 0]) * X[:, 1])
    a = doe.run_doe(g, [(0.0, 1.0)] * 2, k_init=8, n_total=14, seed=9)
    b = doe.run_doe(g, [(0.0, 1.0)] * 2, k_init=8, n_total=14, seed=9)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.x, rb.x)
        assert ra.y == rb.y and ra.z == rb.z and ra.source == rb.source


def test_doe_log_roundtrip(tmp_path):
    g = lambda X: X[:, 0] * X[:, 1]
    recs = doe.run_doe(g, [(0.0, 1.0)] * 2, k_init=5, n_total=8, seed=4)
    path = tmp_path / "log.csv"
    doe.write_doe_log(recs, path, ["a", "b"])
    loaded, names = doe.read_doe_log(path)
    assert names == ["a", "b"]
    assert len(loaded) == len(recs)
    for ra, rb in zip(recs, loaded):
        assert np.allclose(ra.x, rb.x)
        assert ra.y == pytest.approx(rb.y)
        assert ra.source == rb.source


def test_run_doe_scores_the_design_in_one_call():
    calls = []

    def g(X):
        calls.append(X.shape)
        return X[:, 0] * X[:, 1]

    recs = doe.run_doe(g, [(0.0, 1.0)] * 2, k_init=7, n_total=11, seed=5)
    assert calls == [(7, 2)] + [(1, 2)] * 4
    assert [r.iteration for r in recs] == list(range(11))


def test_run_doe_rejects_a_response_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        doe.run_doe(lambda X: X[:1, 0], [(0.0, 1.0)], k_init=3, n_total=3,
                    seed=0)


def test_run_doe_resume_from_log(tmp_path):
    g = lambda X: np.abs(np.sin(4 * X[:, 0]) * X[:, 1])
    full = doe.run_doe(g, [(0.0, 1.0)] * 2, k_init=6, n_total=12, seed=21)
    # a shorter campaign, and a log cut off inside the design
    partials = {9: doe.run_doe(g, [(0.0, 1.0)] * 2, k_init=6, n_total=9,
                               seed=21),
                4: full[:4]}
    for stop, partial in partials.items():
        path = tmp_path / f"partial{stop}.csv"
        doe.write_doe_log(partial, path, ["a", "b"])
        loaded, _ = doe.read_doe_log(path)
        calls = []

        def g_counting(X):
            calls.append(len(X))
            return g(X)

        resumed = doe.run_doe(g_counting, [(0.0, 1.0)] * 2, k_init=6,
                              n_total=12, seed=21, resume=loaded)
        # only the missing rows are scored: the rest of the design in one
        # call, then one row per acquisition
        assert calls == [6 - stop] * (stop < 6) + [1] * (12 - max(stop, 6))
        for ra, rb in zip(full, resumed):
            assert np.allclose(ra.x, rb.x, atol=1e-9)
            assert ra.y == pytest.approx(rb.y, abs=1e-9)
            assert ra.source == rb.source
