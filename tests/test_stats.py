import numpy as np
import pytest

from kuracomp import stats


def test_intercept_only_is_logit_of_mean():
    fit = stats.fit_quasibinomial(np.empty((3, 0)), np.array([0.2, 0.4, 0.6]),
                                  feature_names=[])
    assert fit.coefficients[0] == pytest.approx(np.log(2 / 3), abs=1e-10)
    assert fit.converged


def test_constant_half_response_gives_zero_coefficients():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    fit = stats.fit_quasibinomial(X, np.full(4, 0.5))
    assert np.allclose(fit.coefficients, 0.0, atol=1e-12)


def _oracle_irls(x, y, n_iter=60):
    """Independent IRLS for a 3-point, one-feature quasi-binomial fit.

    Plain floats, explicit 2x2 Cramer solves; no shared code with the
    package implementation.
    """
    b0, b1 = 0.0, 0.0
    # same deviance-driven iteration, from the flat start
    history = []
    for _ in range(n_iter):
        s00 = s01 = s11 = t0 = t1 = 0.0
        for xi, yi in zip(x, y):
            eta = b0 + b1 * xi
            mu = 1.0 / (1.0 + np.exp(-eta))
            w = mu * (1.0 - mu)
            z = eta + (yi - mu) / w
            s00 += w
            s01 += w * xi
            s11 += w * xi * xi
            t0 += w * z
            t1 += w * xi * z
        det = s00 * s11 - s01 * s01
        b0 = (s11 * t0 - s01 * t1) / det
        b1 = (s00 * t1 - s01 * t0) / det
        history.append((b0, b1))
    # dispersion and standard errors at the converged coefficients
    pearson = 0.0
    s00 = s01 = s11 = 0.0
    for xi, yi in zip(x, y):
        mu = 1.0 / (1.0 + np.exp(-(b0 + b1 * xi)))
        w = mu * (1.0 - mu)
        pearson += (yi - mu) ** 2 / w
        s00 += w
        s01 += w * xi
        s11 += w * xi * xi
    dispersion = pearson / (3 - 2)
    det = s00 * s11 - s01 * s01
    se0 = np.sqrt(s11 / det * dispersion)
    se1 = np.sqrt(s00 / det * dispersion)
    return (b0, b1), dispersion, (se0, se1), history


def test_irls_matches_hand_oracle():
    x = [-1.0, 0.0, 1.0]
    y = [0.2, 0.5, 0.9]
    (b0, b1), dispersion, (se0, se1), history = _oracle_irls(x, y)
    # first two oracle iterations, frozen.  From the flat start all three
    # weights are 1/4 and the working responses are 4*(y - 1/2), so
    # iteration 1 is exactly (2/15, 7/5).
    assert history[0] == pytest.approx((2 / 15, 7 / 5), abs=1e-12)
    assert history[1] == pytest.approx((0.19041417446224224,
                                        1.7111503459036717), abs=1e-10)
    fit = stats.fit_quasibinomial(np.array(x)[:, None], np.array(y))
    assert fit.coefficients[0] == pytest.approx(b0, abs=1e-8)
    assert fit.coefficients[1] == pytest.approx(b1, abs=1e-8)
    assert fit.dispersion == pytest.approx(dispersion, abs=1e-8)
    assert fit.std_errors[0] == pytest.approx(se0, abs=1e-8)
    assert fit.std_errors[1] == pytest.approx(se1, abs=1e-8)
    assert fit.t_values[1] == pytest.approx(b1 / se1, abs=1e-8)


def test_score_equations_at_convergence():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 3))
    eta = 0.4 + X @ np.array([0.8, -0.6, 0.2])
    y = np.clip(1 / (1 + np.exp(-eta)) + rng.normal(scale=0.02, size=60),
                1e-3, 1 - 1e-3)
    fit = stats.fit_quasibinomial(X, y)
    assert np.max(np.abs(fit.X.T @ (y - fit.predict(fit.X)))) <= 1e-8


def test_coefficient_scale_invariance():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    y = np.clip(0.5 + 0.3 * np.tanh(X[:, 0]) + rng.normal(scale=0.05, size=40),
                0.01, 0.99)
    fit = stats.fit_quasibinomial(X, y)
    Xs = X.copy()
    Xs[:, 0] *= 10.0
    fit_s = stats.fit_quasibinomial(Xs, y)
    assert fit_s.coefficients[1] == pytest.approx(fit.coefficients[1] / 10,
                                                  abs=1e-8)
    assert np.allclose(fit_s.t_values, fit.t_values, atol=1e-8)


def test_extreme_responses_handled():
    X = np.linspace(-1, 1, 8)[:, None]
    y = np.array([0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0])
    fit = stats.fit_quasibinomial(X, y)
    assert np.isfinite(fit.residual_deviance)
    assert fit.residual_deviance <= fit.null_deviance


def test_anova_single_term_owns_all_reduction():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 1))
    y = np.clip(1 / (1 + np.exp(-1.5 * X[:, 0])) + rng.normal(scale=0.02, size=50),
                0.01, 0.99)
    tab = stats.deviance_anova(X, y, ["only"])
    assert tab.percentages[0] == pytest.approx(100.0)


def test_anova_percentages_telescope():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 4))
    eta = 0.2 + X @ np.array([0.9, -0.7, 0.4, 0.0])
    y = np.clip(1 / (1 + np.exp(-eta)) + rng.normal(scale=0.02, size=80),
                0.01, 0.99)
    tab = stats.deviance_anova(X, y)
    assert tab.percentages.sum() == pytest.approx(100.0, abs=1e-9)
    fit = stats.fit_quasibinomial(X, y)
    assert tab.residual_deviance == pytest.approx(fit.residual_deviance)


def test_anova_noise_feature_contributes_little():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(1000, 2))
        eta = 0.3 + 1.2 * X[:, 0]
        y = np.clip(1 / (1 + np.exp(-eta)) + rng.normal(scale=0.05, size=1000),
                    0.001, 0.999)
        tab = stats.deviance_anova(X, y, ["signal", "noise"])
        assert tab.percentages[1] < 1.0


def test_permutation_importance_null_feature():
    below = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        X = rng.normal(size=(400, 2))
        eta = 0.2 + 1.0 * X[:, 0]
        y = np.clip(1 / (1 + np.exp(-eta)) + rng.normal(scale=0.05, size=400),
                    0.001, 0.999)
        fit = stats.fit_quasibinomial(X, y, feature_names=["signal", "null"])
        imp = stats.permutation_importance(fit, X, y, n_repeats=5, seed=seed)
        if abs(imp["null"]) < 0.01:
            below += 1
        assert imp["signal"] > imp["null"]
    assert below >= 19      # 95% of runs


def test_permutation_importance_duplicated_response_dominates():
    rng = np.random.default_rng(5)
    X1 = rng.normal(size=(100, 1))
    y = np.clip(0.5 + 0.4 * np.tanh(X1[:, 0]) + rng.normal(scale=0.02, size=100),
                0.01, 0.99)
    X = np.column_stack([X1, y])
    fit = stats.fit_quasibinomial(X, y, feature_names=["x", "leak"])
    imp = stats.permutation_importance(fit, X, y, n_repeats=5, seed=0)
    assert imp["leak"] == max(imp.values())


def test_permutation_importance_reproducible():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 2))
    y = np.clip(0.5 + 0.2 * X[:, 0], 0.05, 0.95)
    fit = stats.fit_quasibinomial(X, y)
    a = stats.permutation_importance(fit, X, y, n_repeats=1, seed=42)
    b = stats.permutation_importance(fit, X, y, n_repeats=1, seed=42)
    assert a == b


def test_responses_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        stats.fit_quasibinomial(np.ones((3, 1)), np.array([0.2, 1.2, 0.5]))


def test_coefficient_table_csv(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 2))
    y = np.clip(0.5 + 0.2 * np.tanh(X[:, 0]), 0.05, 0.95)
    fit = stats.fit_quasibinomial(X, y, feature_names=["a", "b"])
    tab = stats.deviance_anova(X, y, ["a", "b"])
    path = tmp_path / "coef.csv"
    stats.write_coefficient_table(fit, tab, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "term,Estimate,Std. Error,t-value,Deviance%"
    assert lines[1].startswith("(Intercept),")
    assert len(lines) == 4


def test_read_doe_log_feeds_glm(tmp_path):
    from kuracomp import cli, doe

    g = lambda X: np.clip(X[:, 0] * 0.8 + 0.1, 0, 1)
    recs = doe.run_doe(g, [(0.0, 1.0), (0.0, 1.0)], k_init=6, n_total=9,
                       seed=11)
    failed = doe.DesignRecord(x=np.array([0.5, 0.5]), y=np.nan, z=np.nan,
                              iteration=9, source="acquisition", failed=True)
    tables = []
    for name, log in (("clean", recs), ("with_failed", recs + [failed])):
        path = tmp_path / f"{name}.csv"
        doe.write_doe_log(log, path, ["f1", "f2"])
        cli.run("simple-cs", overrides=["task.type=glm",
                                        f"task.input={path}"],
                out_dir=tmp_path / name, seed=0)
        tables.append((tmp_path / name / "glm_coefficients.csv").read_text())
    records, names = doe.read_doe_log(path)
    assert names == ["f1", "f2"]
    assert [r.failed for r in records] == [False] * 9 + [True]
    # failed rows are skipped before the fit
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[1].startswith("(Intercept),")
