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

Each family's resource law (simple, eco2, eco3) is written once: a full
variant feeds it its network centroids' initiatives and, with feedback, the
order-parameter powers; its reduced variant feeds it Delta's initiatives.

State packing for the solver: y = [P_1..P_m, theta_0..theta_{n-1}] for full
variants, y = [P_1..P_m, Delta_1(, Delta_2)] for reduced ones.  A reduced
right-hand side takes y of shape (dim,) with scalar parameters or (dim, B)
with scalar or per-member (B,) ones, the cos/sin of the frustration taken
once per build, and writes its rows into one array of y's shape.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, fields, make_dataclass, replace

import numpy as np

# kuramoto_rhs, circular_centroid and order_parameter stay importable here:
# perfbench traces the phase layer at these names.
from .phase import (_kuramoto_rates, circular_centroid, kuramoto_rhs,  # noqa: F401
                    order_parameter)

__all__ = [
    "ModelConfig",
    "CentroidCoupling",
    "CentroidCoeffs",
    "centroid_coeffs",
    "simple_rhs",
    "simple_reduced_rhs",
    "feedback_rhs",
    "eco2_rhs",
    "eco2_reduced_rhs",
    "eco3_rhs",
    "eco3_reduced_rhs",
    "build_system",
    "model_params",
    "resource_scale",
    "MODEL_VARIANTS",
]


@dataclass
class ModelConfig:
    """Every scalar parameter of the competition and phase dynamics.

    Defaults are the dimensional three-population case-study values; the
    nondimensional variants do not read the carrying capacities K_i
    (``model_params`` lists what each variant reads).  Fields may hold
    numpy arrays (broadcast against the state) in batched parameter sweeps;
    ``validate`` checks every element.
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
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")
        rates = ["r1", "r2", "r3", "r3_max", "beta1", "beta2", "beta1_min",
                 "alpha", "tau", "x1", "x3", "x3_min", "x3_max",
                 "gamma1", "gamma2"]
        for name in rates:
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be >= 0")
        for name in ["K1", "K2", "K3"]:
            if np.any(np.asarray(getattr(self, name)) <= 0):
                raise ValueError(f"{name} must be > 0")
        p_d = np.asarray(self.P_D)
        if not np.all((0 < p_d) & (p_d < 0.1)):
            raise ValueError("P_D must satisfy 0 < P_D << 1")
        if not np.all(np.isin(self.p_exponent, (1, 2))):
            raise ValueError("p_exponent must be 1 or 2")
        return self

    def with_overrides(self, **kwargs) -> "ModelConfig":
        return replace(self, **kwargs)


@dataclass
class CentroidCoupling:
    """Effective couplings of the centroid-reduced phase dynamics.

    g_ij = xi_ij * d_T^(ij) / N_i; the two-population reduction uses only
    (g12, g21).  The frustration phi/psi is always the config's.
    """

    g12: float = 1.0
    g21: float = 1.0
    g13: float = 0.0
    g23: float = 0.0
    g31: float = 0.0
    g32: float = 0.0

    @classmethod
    def from_config(cls, cfg: ModelConfig) -> "CentroidCoupling":
        return cls(g12=cfg.gamma1, g21=cfg.gamma2)

    @classmethod
    def from_network(cls, net) -> "CentroidCoupling":
        def g(i, j):
            links = net.interlinks.get((min(i, j), max(i, j)))
            d = len(links.pairs) if links is not None else 0   # d_T^(ij)
            return net.xi.get((i, j), 0.0) * d / net.sizes[i]

        kwargs = dict(g12=g(0, 1), g21=g(1, 0))
        if net.n_pops >= 3:
            kwargs.update(g13=g(0, 2), g23=g(1, 2), g31=g(2, 0), g32=g(2, 1))
        return cls(**kwargs)


@dataclass
class CentroidCoeffs:
    """C and S of the centroid ODE (its mu is the config's)."""

    C: float
    S: float


def centroid_coeffs(cfg: ModelConfig, coupling: CentroidCoupling, H1, H2) -> CentroidCoeffs:
    """First-order phase-reduction coefficients.

    C = g12*H1*cos(phi) + g21*H2*cos(psi)
    S = g12*H1*sin(phi) - g21*H2*sin(psi)
    """
    c, s = _cs(coupling, _frustration(cfg), H1, H2)
    return CentroidCoeffs(C=c, S=s)


_Frustration = make_dataclass("_Frustration",
                              ["cos_phi", "sin_phi", "cos_psi", "sin_psi"])


def _frustration(cfg: ModelConfig) -> _Frustration:
    """cos/sin of cfg.phi and cfg.psi; a built system takes them once."""
    return _Frustration(np.cos(cfg.phi), np.sin(cfg.phi),
                        np.cos(cfg.psi), np.sin(cfg.psi))


def _cs(coupling, fr, H1, H2):
    """(C, S) of ``centroid_coeffs`` from the frustration's cos/sin."""
    a, b = coupling.g12 * H1, coupling.g21 * H2
    return a * fr.cos_phi + b * fr.cos_psi, a * fr.sin_phi - b * fr.sin_psi


def _take(obj, index):
    """Copy of a config/coupling/frustration with every array field indexed
    (an int or float field skips the np.ndim test)."""
    out = copy(obj)
    vars(out).update({name: v[index] for name, v in vars(obj).items()
                      if not isinstance(v, (int, float)) and np.ndim(v)})
    return out


def _member_rhs(name, cfg, coupling):
    """A reduced variant's rhs(y) over members with the array fields of cfg
    and coupling, and the on_compact(keep) slicing them in lockstep."""
    fn, live = _REDUCED[name][0], [cfg, coupling, _frustration(cfg)]

    def on_compact(keep):
        live[:] = [_take(p, keep) for p in live]

    return (lambda y: fn(y, *live)), on_compact


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
    nodes of population p and row n_pops + p its tactical nodes; the row of
    an empty set is NaN, as it has no order parameter (``build_system``
    rejects a network whose empty set a variant reads).  ``feedback_row``
    picks each node's row of [H_1, H_2, 1].
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
        weights = np.zeros((len(subsets), net.n_total))
        for row, nodes in enumerate(subsets):
            if len(nodes):
                weights[row, nodes] = 1.0 / len(nodes)
            else:
                weights[row] = np.nan
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
    g = plan.order_weights
    o = np.hypot(g @ c, g @ s) ** n
    return s, c, th, (o[:net.n_pops], o[net.n_pops:])


# ---------------------------------------------------------------------------
# resource laws, one per family
# ---------------------------------------------------------------------------

# law(out, cfg, P, i1, i2, fb) writes the population rows of dy into out;
# i1 = I(th2 - th1) and i2 = I(th1 - th2) weight the reductions of
# populations 1 and 2, and fb is (O_S^n, O_T^n), or None without feedback.
# Products and differences run in their written order, which fixes the bits.
def _simple_law(out, cfg, P, i1, i2, fb):
    """Logistic growth, bilinear reduction ("simple", "feedback")."""
    P1, P2 = P[0], P[1]
    g1, g2 = cfg.r1 * P1 * (1 - P1), cfg.r2 * P2 * (1 - P2)
    l1, l2 = cfg.beta2 * P1 * P2, cfg.beta1 * P2 * P1
    if fb is not None:
        o_s, o_t = fb
        g1, g2, l1, l2 = g1 * o_s[0], g2 * o_s[1], l1 * o_t[1], l2 * o_t[0]
    np.subtract(g1, l1 * i1, out=out[0, ...])
    np.subtract(g2, l2 * i2, out=out[1, ...])


def _eco2_law(out, cfg, P, i1, i2, fb):
    """Sigmoidal recruitment, Holling reduction, Blue withdrawal."""
    P1, P2 = P[0], P[1]
    recruit1 = cfg.r1 * cfg.alpha * P2 / (1 + cfg.alpha * P2)
    holling = cfg.beta1 * P2 / (1 + cfg.tau * cfg.beta1 * P2)
    g1, g2 = recruit1 * P1 * (1 - P1), cfg.r2 * P2 * (1 - P2)
    l1, l2 = cfg.beta2 * P1 * P2, holling * P1
    if fb is not None:
        o_s, o_t = fb
        g1, g2, l1, l2 = g1 * o_s[0], g2 * o_s[1], l1 * o_t[1], l2 * o_t[0]
    np.subtract(g1 - l1 * i1, cfg.x1 * P1, out=out[0, ...])
    np.subtract(g2, l2 * i2, out=out[1, ...])


def _eco3_law(out, cfg, P, i1, i2, fb):
    """Dimensional three-population law; population 3 is non-trophic."""
    P1, P2, P3 = P[0], P[1], P[2]
    r1s = cfg.r1 * cfg.alpha * P2 / (1 + cfg.alpha * P2)
    r3s = (cfg.r3 + cfg.r3_max * P1) / (1 + P1)
    beta1s = (cfg.beta1 + cfg.beta1_min * P3) / (1 + P3)
    f12s = beta1s * P2 / (1 + cfg.tau * beta1s * P2)
    x3s = (cfg.x3 - (cfg.x3 - cfg.x3_min) * P1 / (1 + P1)
           + (cfg.x3_max - cfg.x3) * P2 / (1 + P2))
    g1, g2 = r1s * P1 * (1 - P1 / cfg.K1), cfg.r2 * P2 * (1 - P2 / cfg.K2)
    g3, l1, l2 = r3s * P3 * (1 - P3 / cfg.K3), cfg.beta2 * P1 * P2, f12s * P1
    if fb is not None:
        o_s, o_t = fb
        g1, g2, l1, l2 = g1 * o_s[0], g2 * o_s[1], l1 * o_t[1], l2 * o_t[0]
        g3 = g3 * o_s[2]
    np.subtract(g1 - l1 * i1, cfg.x1 * P1, out=out[0, ...])
    np.subtract(g2, l2 * i2, out=out[1, ...])
    np.subtract(g3, x3s * P3, out=out[2, ...])


# ---------------------------------------------------------------------------
# full (networked) variants
# ---------------------------------------------------------------------------

def _full_rhs(law, n_pops, n, y, cfg, net, k1, k2):
    """The law's rows from the network's centroids (powers for an exponent n),
    then d(theta)/dt under H = clip(1 - P_adv/K_adv, 0, 1), 1 on a third."""
    P, theta = y[:n_pops], y[n_pops:]
    s, c, (th1, th2), fb = _phases(theta, net, n)
    out = np.empty(y.shape)
    law(out, cfg, P, _initiative(th2 - th1), _initiative(th1 - th2), fb)
    h = np.ones((3,) + P.shape[1:])
    h[0], h[1] = 1.0 - P[1] / k2, 1.0 - P[0] / k1
    np.minimum(np.maximum(h[:2], 0.0, out=h[:2]), 1.0, out=h[:2])   # clip
    h = h[_phase_plan(net).feedback_row]
    out[n_pops:] = _kuramoto_rates(s, c, net, h, cfg.phi, cfg.psi)
    return out


def simple_rhs(y, cfg: ModelConfig, net):
    """Full "simple": two populations and the phase vector."""
    return _full_rhs(_simple_law, 2, None, y, cfg, net, 1.0, 1.0)


def feedback_rhs(y, cfg: ModelConfig, net):
    """Full "simple" with order-parameter feedback."""
    return _full_rhs(_simple_law, 2, cfg.p_exponent, y, cfg, net, 1.0, 1.0)


def eco2_rhs(y, cfg: ModelConfig, net):
    """Full nondimensional two-population ecology variant."""
    return _full_rhs(_eco2_law, 2, cfg.p_exponent, y, cfg, net, 1.0, 1.0)


def eco3_rhs(y, cfg: ModelConfig, net):
    """Full dimensional three-population variant."""
    return _full_rhs(_eco3_law, 3, cfg.p_exponent, y, cfg, net, cfg.K1, cfg.K2)


# ---------------------------------------------------------------------------
# centroid-reduced variants
# ---------------------------------------------------------------------------

# _initiative(-d) is 0.5 * (2 - sin d): the same float, as numpy's sin is odd

def _reduced2_rhs(law, y, cfg, coupling, fr):
    """(P1, P2, Delta) flow of a two-population law's reduction."""
    P1, P2, delta = y[0], y[1], y[2]
    sin_d, cos_d = np.sin(delta), np.cos(delta)
    c, s = _cs(coupling, fr, 1.0 - P2, 1.0 - P1)
    out = np.empty(y.shape)
    law(out, cfg, (P1, P2), 0.5 * (2.0 - sin_d), 0.5 * (sin_d + 2.0), None)
    np.subtract(cfg.mu + s * cos_d, c * sin_d, out=out[2, ...])
    return out


def simple_reduced_rhs(y, cfg: ModelConfig, coupling: CentroidCoupling, fr):
    """(P1, P2, Delta) flow of the reduced "simple" model."""
    return _reduced2_rhs(_simple_law, y, cfg, coupling, fr)


def eco2_reduced_rhs(y, cfg: ModelConfig, coupling: CentroidCoupling, fr):
    """(P1, P2, Delta) flow of the reduced eco2 model."""
    return _reduced2_rhs(_eco2_law, y, cfg, coupling, fr)


def eco3_reduced_rhs(y, cfg: ModelConfig, coupling: CentroidCoupling, fr):
    """(P1, P2, P3, Delta1, Delta2) flow of the reduced three-population
    model; ``fr`` is unused, as expanding sin(Delta1 -+ phi) moves bits."""
    P, d1, d2 = y[:3], y[3], y[4]
    sin_d1, sin_d2, sin_21 = np.sin(d1), np.sin(d2), np.sin(d2 - d1)
    out = np.empty(y.shape)
    _eco3_law(out, cfg, P, 0.5 * (2.0 - sin_d1), 0.5 * (sin_d1 + 2.0), None)
    # dimensional feedback: H = clip(1 - P_adv/K_adv, 0, 1)
    h1 = np.clip(1.0 - P[1] / cfg.K2, 0.0, 1.0)
    h2 = np.clip(1.0 - P[0] / cfg.K1, 0.0, 1.0)
    blue = h1 * (coupling.g12 * np.sin(d1 - cfg.phi) + coupling.g13 * sin_d2)
    np.subtract(cfg.mu - blue, h2 * (coupling.g21 * np.sin(d1 + cfg.psi)
                                     - coupling.g23 * sin_21), out=out[3, ...])
    np.subtract(cfg.nu - blue - coupling.g31 * sin_d2, coupling.g32 * sin_21,
                out=out[4, ...])
    return out


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
    cfg: ModelConfig         # the parameters bound into rhs (P_D among them)
    net: object = None       # full variants: the network as passed
    coupling: object = None  # reduced variants only

    def phase_rhs(self):
        """Phase-only dynamics with H = 1 (reconnaissance)."""
        if self.reduced:
            raise ValueError("reconnaissance applies to full variants only")
        net, cfg = self.net, self.cfg
        return lambda y: kuramoto_rhs(y, net, 1.0, cfg.phi, cfg.psi)


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

# The ModelConfig fields each variant reads (a full variant's frequencies
# are its network's); model_params adds gamma1/gamma2 where they give g.
_SIMPLE = ("r1", "r2", "beta1", "beta2", "phi", "psi", "P_D")
_ECO2 = _SIMPLE + ("alpha", "tau", "x1")
_ECO3 = _ECO2 + ("r3", "r3_max", "beta1_min", "x3", "x3_min", "x3_max",
                 "K1", "K2", "K3")
_PARAMS = {"simple": _SIMPLE, "feedback": _SIMPLE + ("p_exponent",),
           "eco2": _ECO2 + ("p_exponent",), "eco3": _ECO3 + ("p_exponent",),
           "simple-reduced": _SIMPLE + ("mu",),
           "eco2-reduced": _ECO2 + ("mu",), "eco3-reduced": _ECO3 + ("mu", "nu")}


def resource_scale(system) -> list:
    """Each population's resource scale: its carrying capacity K_i where the
    variant reads one (the dimensional eco3 variants), else 1."""
    return [getattr(system.cfg, f"K{p + 1}") if "K1" in _PARAMS[system.name]
            else 1.0 for p in range(system.n_pops)]


def model_params(name: str, names=(), net=None, coupling=None) -> tuple:
    """The ModelConfig fields a system of variant ``name`` built with
    ``net``/``coupling`` reads; ValueError if ``names`` holds another."""
    supplied = name in _FULL or net is not None or coupling is not None
    read = _PARAMS[name] + (() if supplied else ("gamma1", "gamma2"))
    unread = [n for n in names if n not in read]
    if unread:
        raise ValueError(f"variant {name!r} does not read {', '.join(unread)}")
    return read


def build_system(name: str, cfg: ModelConfig, net=None, coupling=None) -> ModelSystem:
    """Bind a variant name to its config and network/coupling data: a full
    variant runs on ``net`` at cfg.phi/psi, a reduced one takes g from
    ``coupling``, else ``net``, else cfg.gamma*."""
    if name in _FULL:
        fn, n_pops = _FULL[name]
        if net is None or coupling is not None:
            raise ValueError(f"variant {name!r} needs a coupled network and "
                             "no coupling")
        if net.n_pops != n_pops:
            raise ValueError(f"variant {name!r} needs {n_pops} populations")
        # feedback reads every strategic set and tactical sets 1 and 2
        n_sets = (n_pops, 2) if "p_exponent" in _PARAMS[name] else (0, 0)
        for kind, n in zip(("strategic", "tactical"), n_sets):
            for p in range(n):
                if not getattr(net, kind)[p]:
                    raise ValueError(f"variant {name!r} reads the {kind} order"
                                     f" parameter of population {p + 1}, "
                                     f"whose {kind} set is empty")
        labels = [f"P{i + 1}" for i in range(n_pops)]
        labels += [f"theta_{k}" for k in range(net.n_total)]
        return ModelSystem(
            name=name, reduced=False, n_pops=n_pops,
            dim=n_pops + net.n_total,
            rhs=lambda y: fn(y, cfg, net),
            labels=labels, cfg=cfg, net=net,
        )
    if name in _REDUCED:
        fn, n_pops, n_delta = _REDUCED[name]
        if net is not None and coupling is not None:
            raise ValueError("pass a network or a coupling, not both")
        if coupling is None:
            coupling = (CentroidCoupling.from_network(net) if net is not None
                        else CentroidCoupling.from_config(cfg))
        labels = [f"P{i + 1}" for i in range(n_pops)]
        labels += ["Delta1", "Delta2"][:n_delta]
        fr = _frustration(cfg)
        return ModelSystem(
            name=name, reduced=True, n_pops=n_pops, dim=n_pops + n_delta,
            rhs=lambda y: fn(y, cfg, coupling, fr),
            labels=labels, cfg=cfg, net=net, coupling=coupling,
        )
    raise ValueError(f"unknown model variant {name!r}; known: {MODEL_VARIANTS}")
