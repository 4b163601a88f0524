"""Quasi-binomial GLM (logit link, IRLS), sequential deviance ANOVA, and
permutation feature importance.

The response is a proportion in [0, 1] (basin values).  Dispersion is the
Pearson chi-square over (n - p); standard errors come from the weighted
normal-equations inverse scaled by the dispersion; deviance uses the
binomial form with the 0*log(0) = 0 convention and fitted means clipped to
[1e-10, 1 - 1e-10].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._rng import substream

__all__ = [
    "GlmFit",
    "DevianceTable",
    "fit_quasibinomial",
    "deviance_anova",
    "permutation_importance",
    "binomial_deviance",
    "write_coefficient_table",
]

_MU_CLIP = 1e-10
_IRLS_TOL = 1e-10         # relative deviance change that ends IRLS
_IRLS_MAX_ITER = 100


class RankDeficiencyError(ValueError):
    pass


def _expit(eta):
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def binomial_deviance(y, mu) -> float:
    """2 * sum [y ln(y/mu) + (1-y) ln((1-y)/(1-mu))], 0*ln(0) = 0."""
    y = np.asarray(y, dtype=float)
    mu = np.clip(np.asarray(mu, dtype=float), _MU_CLIP, 1.0 - _MU_CLIP)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(y > 0, y * np.log(y / mu), 0.0)
        t2 = np.where(y < 1, (1.0 - y) * np.log((1.0 - y) / (1.0 - mu)), 0.0)
    return float(2.0 * (t1 + t2).sum())


@dataclass
class GlmFit:
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    dispersion: float
    null_deviance: float
    residual_deviance: float
    converged: bool
    n_iter: int
    feature_names: list
    X: np.ndarray
    y: np.ndarray

    def predict(self, X) -> np.ndarray:
        return _expit(np.asarray(X, dtype=float) @ self.coefficients)


def _check_rank(X, names):
    from scipy import linalg

    _, r, piv = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps if diag.size else 0.0
    rank = int((diag > tol).sum())
    if rank < X.shape[1]:
        dependent = [names[piv[i]] for i in range(rank, X.shape[1])]
        raise RankDeficiencyError(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(map(str, dependent)))


def _irls(X, y):
    mu = np.clip(y, 0.05, 0.95) * 0.5 + 0.25       # mild shrink toward 0.5
    eta = np.log(mu / (1.0 - mu))
    beta = np.zeros(X.shape[1])
    dev = binomial_deviance(y, mu)
    converged = False
    n_iter = 0
    for n_iter in range(1, _IRLS_MAX_ITER + 1):
        mu = np.clip(_expit(eta), _MU_CLIP, 1.0 - _MU_CLIP)
        w = mu * (1.0 - mu)
        zeta = eta + (y - mu) / (mu * (1.0 - mu))
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(X * sw[:, None], zeta * sw, rcond=None)
        eta = X @ beta
        dev_new = binomial_deviance(y, _expit(eta))
        if abs(dev_new - dev) <= _IRLS_TOL * (abs(dev_new) + 0.1):
            dev = dev_new
            converged = True
            break
        dev = dev_new
    return beta, dev, converged, n_iter


def fit_quasibinomial(X, y, feature_names=None) -> GlmFit:
    """Quasi-binomial GLM by IRLS (logit link) with an intercept column
    "(Intercept)" ahead of the features.

    Convergence: relative deviance change <= 1e-10, at most 100 iterations
    (a non-converged fit is returned flagged).  Rank deficiency raises,
    naming the dependent columns.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if np.any((y < 0) | (y > 1)):
        raise ValueError("responses must lie in [0, 1]")
    if feature_names is None:
        feature_names = [f"x{i + 1}" for i in range(X.shape[1])]
    X = np.column_stack([np.ones(len(y)), X])
    feature_names = ["(Intercept)"] + list(feature_names)
    _check_rank(X, feature_names)

    beta, dev, converged, n_iter = _irls(X, y)
    mu = np.clip(_expit(X @ beta), _MU_CLIP, 1.0 - _MU_CLIP)
    n, p = X.shape
    pearson = float(((y - mu) ** 2 / (mu * (1.0 - mu))).sum())
    dispersion = pearson / (n - p) if n > p else np.nan
    w = mu * (1.0 - mu)
    xtwx = X.T @ (X * w[:, None])
    cov = np.linalg.inv(xtwx) * dispersion
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        tvals = np.where(se > 0, beta / se, np.nan)

    # intercept-only deviance for the null model
    _, null_dev, *_ = _irls(np.ones((n, 1)), y)
    return GlmFit(coefficients=beta, std_errors=se, t_values=tvals,
                  dispersion=dispersion, null_deviance=null_dev,
                  residual_deviance=dev, converged=converged, n_iter=n_iter,
                  feature_names=feature_names, X=X, y=y)


@dataclass
class DevianceTable:
    terms: list
    reductions: np.ndarray
    percentages: np.ndarray
    null_deviance: float
    residual_deviance: float


def deviance_anova(X, y, term_order=None) -> DevianceTable:
    """Sequential (type-I) deviance decomposition.

    Terms are added one at a time in the given order; each row is that
    term's deviance reduction and its percentage of the total null-to-full
    reduction.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n_terms = X.shape[1]
    if term_order is None:
        term_order = [f"x{i + 1}" for i in range(n_terms)]
    if len(term_order) != n_terms:
        raise ValueError("one term name per column required")
    full = fit_quasibinomial(X, y, feature_names=term_order)
    devs = ([full.null_deviance]
            + [fit_quasibinomial(X[:, :j], y, feature_names=term_order[:j])
               .residual_deviance for j in range(1, n_terms)]
            + [full.residual_deviance])
    reductions = -np.diff(devs)
    total = full.null_deviance - full.residual_deviance
    percentages = 100.0 * reductions / total if total > 0 else np.zeros(n_terms)
    return DevianceTable(terms=list(term_order), reductions=reductions,
                         percentages=percentages,
                         null_deviance=full.null_deviance,
                         residual_deviance=full.residual_deviance)


def permutation_importance(fit: GlmFit, X, y, n_repeats: int = 10,
                           seed: int = 0) -> dict:
    """Mean drop in the deviance score when one feature column is shuffled.

    Shuffles are drawn from per-(feature, repeat) substreams, so results
    are deterministic for a fixed seed and independent of execution order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    names = fit.feature_names[1:]
    if X.shape[1] != len(names):
        raise ValueError("X must carry the fit's feature columns")

    def score(feats):
        mu = fit.predict(np.column_stack([np.ones(len(y)), feats]))
        return 1.0 - binomial_deviance(y, mu) / fit.null_deviance

    base = score(X)
    importances = {}
    for j, name in enumerate(names):
        drops = np.empty(n_repeats)
        for r in range(n_repeats):
            rng = substream(seed, "permimp", j, r)
            xp = X.copy()
            xp[:, j] = xp[rng.permutation(len(y)), j]
            drops[r] = base - score(xp)
        importances[name] = float(drops.mean())
    return importances


# ---------------------------------------------------------------------------
# coefficient table CSV
# ---------------------------------------------------------------------------

def write_coefficient_table(fit: GlmFit, table: DevianceTable, path):
    """Coefficient table CSV: term, Estimate, Std. Error, t-value, Deviance%."""
    pct = {t: p for t, p in zip(table.terms, table.percentages)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "Estimate", "Std. Error", "t-value",
                         "Deviance%"])
        for name, est, se, tv in zip(fit.feature_names, fit.coefficients,
                                     fit.std_errors, fit.t_values):
            row = [name, f"{est:.6g}", f"{se:.6g}", f"{tv:.6g}"]
            row.append(f"{pct[name]:.4g}" if name in pct else "")
            writer.writerow(row)
