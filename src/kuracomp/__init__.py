"""kuracomp: coupled phase-synchronization / resource-competition dynamics.

Library layout:

    graphs    population networks, block-weighted network assembly
    phase     Kuramoto-Sakaguchi rates, order parameters, centroids
    models    full and centroid-reduced model right-hand sides
    solver    adaptive RK45 / fixed RK4, scenario protocol, ensembles
    analysis  closed-form centroid solution, fixed points, stability
    basin     basin-of-attraction estimation and two-parameter heatmaps
    doe       Latin hypercube + Bayesian-optimization experiment loop
    stats     quasi-binomial GLM, deviance ANOVA, permutation importance
    presets   shipped scenario configurations
    cli       JSON-config command line driver
"""

__version__ = "0.1.0"

from .models import CentroidCoupling, ModelConfig, build_system  # noqa: F401
from .solver import IntegratorSettings  # noqa: F401
