"""Model right-hand sides: full networked variants and centroid-reduced
variants, plus the C/S coefficient algebra of the two-cluster reduction.

Variants (selected by name):

    "simple"        2 populations, logistic growth vs bilinear reduction,
                    full phase vector, reduction modulated by the centroid
                    difference.
    "simple-reduced"  the same with phases collapsed to one centroid ODE
                    dDelta/dt = mu + S cos Delta - C sin Delta.
    "feedback"      "simple" with order-parameter feedback O_S^n on growth
                    and O_T^n on the reduction (initiative) terms.
    "eco2"          nondimensional two-population ecology variant: sigmoidal
                    Blue recruitment (sharpness alpha), Holling-saturated
                    Blue-on-Red reduction (search time tau), Blue withdrawal
                    x1.
    "eco2-reduced"  its centroid reduction.
    "eco3"          dimensional three-population variant with a neutral
                    third population acting only non-trophically (refuge
                    provisioning, recruitment/decay modulation).
    "eco3-reduced"  its five-dimensional centroid reduction.

State packing for the solver: y = [P_1..P_m, theta_0..theta_{n-1}] for full
variants, y = [P_1..P_m, Delta_1(, Delta_2)] for reduced ones.  All reduced
right-hand sides broadcast over a trailing batch axis and over array-valued
config fields, which is what the basin/heatmap batch runner relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# kuramoto_rhs, circular_centroid and order_parameter stay importable here:
# perfbench traces the phase layer at these names.
from .phase import (_kuramoto_rates, circular_centroid, kuramoto_rhs,  # noqa: F401
                    order_parameter)

__all__ = [
    "ModelConfig",
    "CentroidCoupling",
    "CentroidCoeffs",
    "HybridState",
    "centroid_coeffs",
    "simple_rhs",
    "simple_reduced_rhs",
    "feedback_rhs",
    "eco2_rhs",
    "eco2_reduced_rhs",
    "eco3_rhs",
    "eco3_reduced_rhs",
    "build_system",
    "MODEL_VARIANTS",
]


@dataclass
class ModelConfig:
    """Every scalar parameter of the competition and phase dynamics.

    Defaults are the dimensional three-population case-study values; the
    nondimensional variants ignore the carrying capacities K_i.  Fields may
    hold numpy arrays (broadcast against the state) in batched parameter
    sweeps.
    """

    r1: float = 3.0           # Blue recruitment rate
    r2: float = 2.5           # Red recruitment rate
    r3: float = 1.0           # Green recruitment rate
    r3_max: float = 1.5       # enhanced Green recruitment under Blue support
    beta1: float = 2.0        # Blue-on-Red reduction rate (tactical agility)
    beta2: float = 0.2        # Red-on-Blue reduction rate
    beta1_min: float = 0.1    # restricted tactical agility under Green refuge
    alpha: float = 2.0        # strategic agility (recruitment sigmoid sharpness)
    tau: float = 1.0          # search/engagement time
    x1: float = 0.25          # Blue withdrawal rate
    x3: float = 0.25          # Green fatigue rate
    x3_min: float = 0.125     # Green fatigue floor under Blue support
    x3_max: float = 0.5       # Green fatigue ceiling under Red pressure
    K1: float = 10.0          # carrying capacities (dimensional variants)
    K2: float = 10.0
    K3: float = 10.0
    mu: float = 0.25          # mean frequency difference pop1 - pop2
    nu: float = -0.25         # mean frequency difference pop1 - pop3
    p_exponent: int = 1       # feedback power n in p(x) = x^n
    P_D: float = 1e-4         # extinction threshold
    gamma1: float = 1.0       # reduced-model coupling xi12*dT12/N1
    gamma2: float = 1.0       # reduced-model coupling xi21*dT21/N2
    phi: float = 0.5          # frustration pop1 -> pop2
    psi: float = 0.0          # frustration pop2 -> pop1

    def validate(self):
        rates = ["r1", "r2", "r3", "r3_max", "beta1", "beta2", "beta1_min",
                 "alpha", "tau", "x1", "x3", "x3_min", "x3_max",
                 "gamma1", "gamma2"]
        for name in rates:
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be >= 0")
        for name in ["K1", "K2", "K3"]:
            if np.any(np.asarray(getattr(self, name)) <= 0):
                raise ValueError(f"{name} must be > 0")
        if not (0 < self.P_D < 0.1):
            raise ValueError("P_D must satisfy 0 < P_D << 1")
        if self.p_exponent not in (1, 2):
            raise ValueError("p_exponent must be 1 or 2")
        return self

    def with_overrides(self, **kwargs) -> "ModelConfig":
        return replace(self, **kwargs)


@dataclass
class CentroidCoupling:
    """Effective couplings of the centroid-reduced phase dynamics.

    g_ij = xi_ij * d_T^(ij) / N_i; the two-population reduction uses only
    (g12, g21, phi, psi).
    """

    g12: float = 1.0
    g21: float = 1.0
    g13: float = 0.0
    g23: float = 0.0
    g31: float = 0.0
    g32: float = 0.0
    phi: float = 0.0
    psi: float = 0.0

    @classmethod
    def from_config(cls, cfg: ModelConfig) -> "CentroidCoupling":
        return cls(g12=cfg.gamma1, g21=cfg.gamma2, phi=cfg.phi, psi=cfg.psi)

    @classmethod
    def from_network(cls, net) -> "CentroidCoupling":
        from .graphs import degree_stats

        stats = degree_stats(net)
        sizes = net.sizes

        def g(i, j):
            d = stats.d_T.get((i, j), 0)
            return net.xi.get((i, j), 0.0) * d / sizes[i]

        kwargs = dict(g12=g(0, 1), g21=g(1, 0), phi=net.phi, psi=net.psi)
        if net.n_pops >= 3:
            kwargs.update(g13=g(0, 2), g23=g(1, 2), g31=g(2, 0), g32=g(2, 1))
        return cls(**kwargs)


@dataclass
class CentroidCoeffs:
    """C, S and the discriminant K = C^2 + S^2 - mu^2."""

    C: float
    S: float
    K_disc: float


@dataclass
class HybridState:
    """Population resources plus either a full phase vector (full variants)
    or centroid difference(s) (reduced variants) at one time."""

    P: np.ndarray
    theta: np.ndarray = None
    delta: np.ndarray = None

    def __post_init__(self):
        self.P = np.atleast_1d(np.asarray(self.P, dtype=float))
        if (self.theta is None) == (self.delta is None):
            raise ValueError("provide exactly one of theta or delta")
        if self.theta is not None:
            self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        else:
            self.delta = np.atleast_1d(np.asarray(self.delta, dtype=float))

    def pack(self) -> np.ndarray:
        tail = self.theta if self.theta is not None else self.delta
        return np.concatenate([self.P, tail])

    @classmethod
    def unpack(cls, y, system) -> "HybridState":
        y = np.asarray(y, dtype=float)
        m = system.n_pops
        if system.reduced:
            return cls(P=y[:m], delta=y[m:])
        return cls(P=y[:m], theta=y[m:])


def centroid_coeffs(cfg: ModelConfig, coupling: CentroidCoupling, H1, H2) -> CentroidCoeffs:
    """First-order phase-reduction coefficients.

    C = g12*H1*cos(phi) + g21*H2*cos(psi)
    S = g12*H1*sin(phi) - g21*H2*sin(psi)
    K = C^2 + S^2 - mu^2
    """
    c = coupling.g12 * H1 * np.cos(coupling.phi) + coupling.g21 * H2 * np.cos(coupling.psi)
    s = coupling.g12 * H1 * np.sin(coupling.phi) - coupling.g21 * H2 * np.sin(coupling.psi)
    return CentroidCoeffs(C=c, S=s, K_disc=c * c + s * s - cfg.mu ** 2)


def _initiative(delta):
    """(sin(delta) + 2) / 2, the centroid-difference initiative factor."""
    return 0.5 * (np.sin(delta) + 2.0)


@dataclass(frozen=True)
class _PhasePlan:
    """Index arrays the full-variant right-hand sides read phases through.

    ``centroid_groups`` holds one ``(idx, pops)`` pair per distinct size L
    among populations 1 and 2 (the only centroids a variant reads): ``idx``
    of shape (L, len(pops)) lists the nodes of each population in ``pops``
    column by column, so one centroid call covers them all.  Row p of
    ``order_weights`` (shape (2 * n_pops, n_total)) averages the strategic
    nodes of population p and row n_pops + p its tactical nodes; it is None
    when some strategic or tactical set is empty and has no order
    parameter.  ``feedback_row`` picks each node's row of [H_1, H_2, 1].
    """

    centroid_groups: tuple
    order_weights: np.ndarray
    feedback_row: np.ndarray


def _phase_plan(net) -> _PhasePlan:
    """The network's phase plan, built on first use and cached on it."""
    if net._plan is None:
        groups = {}
        for p in range(min(net.n_pops, 2)):
            groups.setdefault(net.sizes[p], []).append(p)
        centroid_groups = tuple(
            (np.stack([np.arange(net.offsets[p], net.offsets[p + 1])
                       for p in pops], axis=1), tuple(pops))
            for pops in groups.values())
        subsets = ([net.strategic_global(p) for p in range(net.n_pops)]
                   + [net.tactical_global(p) for p in range(net.n_pops)])
        weights = None
        if all(len(nodes) for nodes in subsets):
            weights = np.zeros((len(subsets), net.n_total))
            for row, nodes in enumerate(subsets):
                weights[row, nodes] = 1.0 / len(nodes)
        rows = np.minimum(np.repeat(np.arange(net.n_pops), net.sizes), 2)
        net._plan = _PhasePlan(centroid_groups, weights, rows)
    return net._plan


def _phases(theta, net, n=None):
    """sin(theta), cos(theta), the centroids [th1, th2] of populations 1 and
    2 and, for an exponent n, the order-parameter powers (O_S^n, O_T^n), each
    indexed by population.  One centroid call per distinct population size
    and one product with the plan's order weights."""
    plan = _phase_plan(net)
    s, c = np.sin(theta), np.cos(theta)
    th = [None, None]
    for idx, pops in plan.centroid_groups:
        for p, centroid in zip(pops, circular_centroid(theta[idx])):
            th[p] = centroid
    if n is None:
        return s, c, th, None
    if plan.order_weights is None:
        raise ValueError("order parameter of an empty subset")
    g = plan.order_weights
    o = np.hypot(g @ c, g @ s) ** n
    return s, c, th, (o[:net.n_pops], o[net.n_pops:])


def _phase_rates(s, c, net, P, k1, k2):
    """d(theta)/dt under feedback H = clip(1 - P_adv/K_adv, 0, 1) on
    populations 1 and 2 and H = 1 on a third."""
    h1 = np.clip(1.0 - P[1] / k2, 0.0, 1.0)
    h2 = np.clip(1.0 - P[0] / k1, 0.0, 1.0)
    h = np.stack([h1, h2, np.ones_like(h1)])[_phase_plan(net).feedback_row]
    return _kuramoto_rates(s, c, net, h)


# ---------------------------------------------------------------------------
# full (networked) variants
# ---------------------------------------------------------------------------

def simple_rhs(y, cfg: ModelConfig, net):
    """Two-population logistic/bilinear competition with full phase vector."""
    P, theta = y[:2], y[2:]
    s, c, (th1, th2), _ = _phases(theta, net)
    dP1 = cfg.r1 * P[0] * (1 - P[0]) - cfg.beta2 * P[0] * P[1] * _initiative(th2 - th1)
    dP2 = cfg.r2 * P[1] * (1 - P[1]) - cfg.beta1 * P[1] * P[0] * _initiative(th1 - th2)
    dtheta = _phase_rates(s, c, net, P, 1.0, 1.0)
    return np.concatenate([np.stack([dP1, dP2]), dtheta], axis=0)


def feedback_rhs(y, cfg: ModelConfig, net):
    """"simple" plus order-parameter feedback O_S^n on growth, O_T^n on reduction."""
    P, theta = y[:2], y[2:]
    s, c, (th1, th2), (o_s, o_t) = _phases(theta, net, cfg.p_exponent)
    dP1 = (cfg.r1 * P[0] * (1 - P[0]) * o_s[0]
           - cfg.beta2 * P[0] * P[1] * o_t[1] * _initiative(th2 - th1))
    dP2 = (cfg.r2 * P[1] * (1 - P[1]) * o_s[1]
           - cfg.beta1 * P[1] * P[0] * o_t[0] * _initiative(th1 - th2))
    dtheta = _phase_rates(s, c, net, P, 1.0, 1.0)
    return np.concatenate([np.stack([dP1, dP2]), dtheta], axis=0)


def eco2_rhs(y, cfg: ModelConfig, net):
    """Nondimensional ecology variant, two populations, full phase vector."""
    P, theta = y[:2], y[2:]
    s, c, (th1, th2), (o_s, o_t) = _phases(theta, net, cfg.p_exponent)
    recruit1 = cfg.r1 * cfg.alpha * P[1] / (1 + cfg.alpha * P[1])
    holling = cfg.beta1 * P[1] / (1 + cfg.tau * cfg.beta1 * P[1])
    dP1 = (recruit1 * P[0] * (1 - P[0]) * o_s[0]
           - cfg.beta2 * P[0] * P[1] * o_t[1] * _initiative(th2 - th1)
           - cfg.x1 * P[0])
    dP2 = (cfg.r2 * P[1] * (1 - P[1]) * o_s[1]
           - holling * P[0] * o_t[0] * _initiative(th1 - th2))
    dtheta = _phase_rates(s, c, net, P, 1.0, 1.0)
    return np.concatenate([np.stack([dP1, dP2]), dtheta], axis=0)


def eco3_rhs(y, cfg: ModelConfig, net):
    """Dimensional three-population variant; the third population is
    non-trophic (no reduction terms touch it)."""
    P, theta = y[:3], y[3:]
    s, c, (th1, th2), (o_s, o_t) = _phases(theta, net, cfg.p_exponent)
    r1s = cfg.r1 * cfg.alpha * P[1] / (1 + cfg.alpha * P[1])
    r3s = (cfg.r3 + cfg.r3_max * P[0]) / (1 + P[0])
    beta1s = (cfg.beta1 + cfg.beta1_min * P[2]) / (1 + P[2])
    f12s = beta1s * P[1] / (1 + cfg.tau * beta1s * P[1])
    x3s = (cfg.x3 - (cfg.x3 - cfg.x3_min) * P[0] / (1 + P[0])
           + (cfg.x3_max - cfg.x3) * P[1] / (1 + P[1]))
    dP1 = (r1s * P[0] * (1 - P[0] / cfg.K1) * o_s[0]
           - cfg.beta2 * P[0] * P[1] * o_t[1] * _initiative(th2 - th1)
           - cfg.x1 * P[0])
    dP2 = (cfg.r2 * P[1] * (1 - P[1] / cfg.K2) * o_s[1]
           - f12s * P[0] * o_t[0] * _initiative(th1 - th2))
    dP3 = r3s * P[2] * (1 - P[2] / cfg.K3) * o_s[2] - x3s * P[2]
    dtheta = _phase_rates(s, c, net, P, cfg.K1, cfg.K2)
    return np.concatenate([np.stack([dP1, dP2, dP3]), dtheta], axis=0)


# ---------------------------------------------------------------------------
# centroid-reduced variants
# ---------------------------------------------------------------------------

def simple_reduced_rhs(y, cfg: ModelConfig, coupling: CentroidCoupling):
    """(P1, P2, Delta) flow of the reduced two-population model."""
    P1, P2, delta = y[0], y[1], y[2]
    h1, h2 = 1.0 - P2, 1.0 - P1
    co = centroid_coeffs(cfg, coupling, h1, h2)
    dP1 = cfg.r1 * P1 * (1 - P1) - cfg.beta2 * P1 * P2 * _initiative(-delta)
    dP2 = cfg.r2 * P2 * (1 - P2) - cfg.beta1 * P2 * P1 * _initiative(delta)
    ddelta = cfg.mu + co.S * np.cos(delta) - co.C * np.sin(delta)
    return np.stack(np.broadcast_arrays(dP1, dP2, ddelta), axis=0)


def eco2_reduced_rhs(y, cfg: ModelConfig, coupling: CentroidCoupling):
    """(P1, P2, Delta) flow of the reduced nondimensional ecology model."""
    P1, P2, delta = y[0], y[1], y[2]
    h1, h2 = 1.0 - P2, 1.0 - P1
    co = centroid_coeffs(cfg, coupling, h1, h2)
    recruit1 = cfg.r1 * cfg.alpha * P2 / (1 + cfg.alpha * P2)
    holling = cfg.beta1 * P2 / (1 + cfg.tau * cfg.beta1 * P2)
    dP1 = (recruit1 * P1 * (1 - P1)
           - cfg.beta2 * P1 * P2 * _initiative(-delta) - cfg.x1 * P1)
    dP2 = cfg.r2 * P2 * (1 - P2) - holling * P1 * _initiative(delta)
    ddelta = cfg.mu + co.S * np.cos(delta) - co.C * np.sin(delta)
    return np.stack(np.broadcast_arrays(dP1, dP2, ddelta), axis=0)


def eco3_reduced_rhs(y, cfg: ModelConfig, coupling: CentroidCoupling):
    """(P1, P2, P3, Delta1, Delta2) flow of the reduced three-population model."""
    P1, P2, P3, d1, d2 = y[0], y[1], y[2], y[3], y[4]
    r1s = cfg.r1 * cfg.alpha * P2 / (1 + cfg.alpha * P2)
    r3s = (cfg.r3 + cfg.r3_max * P1) / (1 + P1)
    beta1s = (cfg.beta1 + cfg.beta1_min * P3) / (1 + P3)
    f12s = beta1s * P2 / (1 + cfg.tau * beta1s * P2)
    x3s = (cfg.x3 - (cfg.x3 - cfg.x3_min) * P1 / (1 + P1)
           + (cfg.x3_max - cfg.x3) * P2 / (1 + P2))
    dP1 = (r1s * P1 * (1 - P1 / cfg.K1)
           - cfg.beta2 * P1 * P2 * _initiative(-d1) - cfg.x1 * P1)
    dP2 = cfg.r2 * P2 * (1 - P2 / cfg.K2) - f12s * P1 * _initiative(d1)
    dP3 = r3s * P3 * (1 - P3 / cfg.K3) - x3s * P3
    # dimensional feedback: H = clip(1 - P_adv/K_adv, 0, 1)
    h1 = np.clip(1.0 - P2 / cfg.K2, 0.0, 1.0)
    h2 = np.clip(1.0 - P1 / cfg.K1, 0.0, 1.0)
    blue_terms = coupling.g12 * np.sin(d1 - coupling.phi) + coupling.g13 * np.sin(d2)
    dd1 = (cfg.mu - h1 * blue_terms
           - h2 * (coupling.g21 * np.sin(d1 + coupling.psi)
                   - coupling.g23 * np.sin(d2 - d1)))
    dd2 = (cfg.nu - h1 * blue_terms
           - coupling.g31 * np.sin(d2) - coupling.g32 * np.sin(d2 - d1))
    return np.stack(np.broadcast_arrays(dP1, dP2, dP3, dd1, dd2), axis=0)


# ---------------------------------------------------------------------------
# variant registry
# ---------------------------------------------------------------------------

@dataclass
class ModelSystem:
    """A packed right-hand side plus the metadata the solver/IO layers need."""

    name: str
    reduced: bool
    n_pops: int
    dim: int
    rhs: callable            # rhs(y) -> dy, y of shape (dim,) or (dim, B)
    labels: list             # CSV column labels after "t"
    net: object = None
    coupling: object = None

    def phase_rhs(self):
        """Phase-only dynamics with H = 1 (reconnaissance)."""
        if self.reduced:
            raise ValueError("reconnaissance applies to full variants only")
        net = self.net

        def rhs(theta):
            return kuramoto_rhs(theta, net, 1.0)

        return rhs


_FULL = {
    "simple": (simple_rhs, 2),
    "feedback": (feedback_rhs, 2),
    "eco2": (eco2_rhs, 2),
    "eco3": (eco3_rhs, 3),
}

_REDUCED = {
    "simple-reduced": (simple_reduced_rhs, 2, 1),
    "eco2-reduced": (eco2_reduced_rhs, 2, 1),
    "eco3-reduced": (eco3_reduced_rhs, 3, 2),
}

MODEL_VARIANTS = tuple(list(_FULL) + list(_REDUCED))


def build_system(name: str, cfg: ModelConfig, net=None, coupling=None) -> ModelSystem:
    """Bind a variant name to its config and network/coupling data."""
    if name in _FULL:
        fn, n_pops = _FULL[name]
        if net is None:
            raise ValueError(f"variant {name!r} needs a coupled network")
        if net.n_pops != n_pops:
            raise ValueError(f"variant {name!r} needs {n_pops} populations")
        labels = [f"P{i + 1}" for i in range(n_pops)]
        labels += [f"theta_{k}" for k in range(net.n_total)]
        return ModelSystem(
            name=name, reduced=False, n_pops=n_pops,
            dim=n_pops + net.n_total,
            rhs=lambda y: fn(y, cfg, net),
            labels=labels, net=net,
            coupling=CentroidCoupling.from_network(net),
        )
    if name in _REDUCED:
        fn, n_pops, n_delta = _REDUCED[name]
        if coupling is None:
            coupling = (CentroidCoupling.from_network(net) if net is not None
                        else CentroidCoupling.from_config(cfg))
        labels = [f"P{i + 1}" for i in range(n_pops)]
        labels += ["Delta1", "Delta2"][:n_delta]
        return ModelSystem(
            name=name, reduced=True, n_pops=n_pops, dim=n_pops + n_delta,
            rhs=lambda y: fn(y, cfg, coupling),
            labels=labels, net=net, coupling=coupling,
        )
    raise ValueError(f"unknown model variant {name!r}; known: {MODEL_VARIANTS}")
