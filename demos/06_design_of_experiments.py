#!/usr/bin/env python3
"""Experimental design plus feature ranking, end to end.

Part 1 demonstrates the stratification mechanism on a cheap synthetic
response whose values pile up near zero under uniform sampling: the
acquisition loop re-weights sampling by the inverse response density and
flattens the histogram, which a plain space-filling design cannot do.

Part 2 runs the same loop over (beta1, phi, mu) of the reduced competition
model with a coarse basin evaluation as the expensive response, then feeds
the log to the quasi-binomial GLM: coefficient table, sequential deviance
shares, and permutation importances.  Basins of this variant are nearly
all-or-nothing across parameter space, so the response histogram stays
bimodal and the acquisition effort concentrates along the 0/1 boundary -
the regression coefficients are correspondingly steep.
"""

import numpy as np

from kuracomp import basin, doe, stats
from kuracomp.models import ModelConfig
from kuracomp.solver import IntegratorSettings


def chi2_uniform(ys, bins=10):
    h, _ = np.histogram(np.clip(ys, 0, 1), bins=bins, range=(0, 1))
    e = len(ys) / bins
    return float(((h - e) ** 2 / e).sum())


def part_one():
    g = lambda X: (X[:, 0] * X[:, 1]) ** 2
    ranges = [(0.0, 1.0), (0.0, 1.0)]
    recs = doe.run_doe(g, ranges, k_init=20, n_total=60, seed=0)
    ys_bo = np.array([r.y for r in recs if not r.failed])
    lhs = doe.build_design(2, 60, ranges, seed=0)
    ys_lhs = g(lhs.points)
    print("synthetic response (x1*x2)^2, budget 60:")
    print(f"  plain design: histogram "
          f"{np.histogram(ys_lhs, bins=5, range=(0, 1))[0]}, "
          f"chi2 vs uniform {chi2_uniform(ys_lhs):.1f}")
    print(f"  acquisition:  histogram "
          f"{np.histogram(ys_bo, bins=5, range=(0, 1))[0]}, "
          f"chi2 vs uniform {chi2_uniform(ys_bo):.1f}")


def part_two():
    cfg = ModelConfig(r1=3.0, r2=2.5, beta2=2.0, psi=0.0,
                      gamma1=1.0, gamma2=1.0)
    spec = basin.BasinSpec(grid=(5, 5),
                           settings=IntegratorSettings(dt_init=0.02,
                                                       t_end=80.0))
    factors = [("beta1", 0.5, 5.0), ("phi", -1.0, 1.0), ("mu", -0.8, 0.8)]

    def g(X):      # every row of X in one basin-engine call
        c = cfg.with_overrides(**{n: X[:, j]
                                  for j, (n, _, _) in enumerate(factors)})
        return [r.value for r in
                basin.estimate_basins("simple-reduced", c, spec, len(X))]

    records = doe.run_doe(g, [(lo, hi) for _, lo, hi in factors],
                          k_init=20, n_total=45, seed=0)
    doe.write_doe_log(records, "demos_06_doe_log.csv",
                      [n for n, _, _ in factors])
    ys = np.array([r.y for r in records if not r.failed])
    hist, _ = np.histogram(ys, bins=5, range=(0, 1))
    print(f"\nbasin response over (beta1, phi, mu): {len(records)} points, "
          f"histogram {hist} (nearly binary by construction)")

    logged, names = doe.read_doe_log("demos_06_doe_log.csv")
    good = [r for r in logged if not r.failed]
    X = np.array([r.x for r in good])
    y = np.array([r.y for r in good])
    fit = stats.fit_quasibinomial(X, y, feature_names=names)
    table = stats.deviance_anova(X, y, term_order=names)
    stats.write_coefficient_table(fit, table, "demos_06_glm.csv")
    imp = stats.permutation_importance(fit, X, y, n_repeats=10, seed=0)
    print("term        estimate   t-value   deviance%   perm.importance")
    for i, name in enumerate(fit.feature_names):
        pct = dict(zip(table.terms, table.percentages)).get(name)
        pi = imp.get(name)
        print(f"{name:11s} {fit.coefficients[i]:+9.3f} "
              f"{fit.t_values[i]:+9.2f}   "
              f"{'' if pct is None else f'{pct:7.2f}%'}   "
              f"{'' if pi is None else f'{pi:.4f}'}")
    ranking = sorted(imp, key=imp.get, reverse=True)
    print(f"permutation ranking: {' > '.join(ranking)}")
    print("wrote demos_06_doe_log.csv, demos_06_glm.csv")


if __name__ == "__main__":
    part_one()
    part_two()
