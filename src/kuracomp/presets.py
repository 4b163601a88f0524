"""Shipped scenario presets and the stylised three-network use case.

The "paper-usecase" network: a hierarchical population (complete 4-ary tree,
two layers, 21 nodes), a non-hierarchical one (Erdos-Renyi, 21 nodes,
p = 0.2), and a tight-knit community (Watts-Strogatz, 21 nodes, 6-neighbour
ring, rewiring 0.4).  Cross links: Blue 1-5 <-> Green 1-5, Blue 6-21 <->
Red 6-21, Red 6-21 <-> Green 6-21 (1-based labels), couplings normalised
as xi_ij = N_i / d_T^(ij).

Intrinsic frequencies are U[0, 1] draws per competitor recentred so the
population means hit the network section's (mu, nu) exactly, with the third
population pinned at 0.5.  Frustration is a model parameter: the network
holds none, and the right-hand sides read it from the config.
"""

from __future__ import annotations

import numbers

import numpy as np

from ._rng import substream
from .graphs import (Graph, assemble, gen_erdos_renyi, gen_kary_tree,
                     gen_watts_strogatz, xi_paper_normalization)

__all__ = ["PRESETS", "preset_names", "get_preset", "build_network",
           "sample_omega"]

GREEN_OMEGA = 0.5        # the pinned frequency of a third population

_GRAPH_KEYS = {"kary-tree": {"branching", "layers"},     # beside "kind"
               "erdos-renyi": {"n", "p"},
               "watts-strogatz": {"n", "k", "p_rewire"},
               "explicit": {"n", "edges"}}
_COUNT_KEYS = {"n", "k", "branching", "layers"}          # integers >= 1
_PROBABILITY_KEYS = {"p", "p_rewire"}                    # numbers in [0, 1]


def sample_omega(sizes, mu, nu, seed):
    """Per-population frequency vectors with exact mean differences.

    Competitor draws are U[0, 1] recentred so mean(pop1) - mean(pop2) = mu
    and, with a third population present, mean(pop1) - mean(pop3) = nu
    around the pinned third-population value.
    """
    n_pops = len(sizes)
    if n_pops == 3:
        m1 = GREEN_OMEGA + nu
    else:
        m1 = 0.5 + 0.5 * mu
    m2 = m1 - mu
    targets = [m1, m2] + ([GREEN_OMEGA] if n_pops == 3 else [])
    out = []
    for p, (n, target) in enumerate(zip(sizes, targets)):
        if n_pops == 3 and p == 2:
            out.append(np.full(n, GREEN_OMEGA))
            continue
        draws = substream(seed, "omega", p).uniform(0.0, 1.0, size=n)
        out.append(draws - draws.mean() + target)
    return out


def _typed_population(i, spec):
    """A population entry with its counts as ints (a whole float such as
    2.0 passes, as in task.grid) and its probabilities checked."""
    real = lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
    spec = dict(spec)
    for key in spec.keys() & _COUNT_KEYS:
        v = spec[key]
        if not (real(v) and float(v).is_integer() and v >= 1):
            raise ValueError(f"network population {i}: {key} must be an "
                             "integer >= 1")
        spec[key] = int(v)
    for key in spec.keys() & _PROBABILITY_KEYS:
        if not (real(spec[key]) and 0 <= spec[key] <= 1):
            raise ValueError(f"network population {i}: {key} must be a "
                             "number in [0, 1]")
    return spec


def build_network(section: dict, master_seed: int):
    """Construct a CoupledNetwork from a config network section.

    Frequencies are an explicit ``omega`` list, else drawn at ``mu`` (and
    ``nu`` with three populations), else zero.  The network holds no
    frustration; the right-hand sides read it from the model config.
    ValueError for a population entry without exactly its kind's keys or
    with a count that is not an integer >= 1 or a probability outside
    [0, 1], an interlink past the populations, or an explicit xi on an
    unlinked pair.
    """
    section = dict(section)
    preset = section.pop("preset", None)
    bases = {"paper-usecase": _paper_usecase_section,
             "paper-2pop": _paper_2pop_section}
    if preset is not None:
        if preset not in bases:
            raise ValueError(f"unknown network preset {preset!r}")
        section = {**bases[preset](), **section}
    missing = sorted({"populations", "sigma"} - section.keys())
    if missing:
        raise ValueError(f"network needs a preset or {' and '.join(missing)}")

    pops = []
    for i, spec in enumerate(section["populations"]):
        kind = spec.get("kind")
        if kind not in _GRAPH_KEYS:
            raise ValueError(f"unknown graph kind {kind!r}")
        if spec.keys() != _GRAPH_KEYS[kind] | {"kind"}:
            raise ValueError(f"network population {i} ({kind}) takes "
                             f"exactly {sorted(_GRAPH_KEYS[kind])}")
        spec = _typed_population(i, spec)
        if kind == "kary-tree":
            pops.append(gen_kary_tree(spec["branching"], spec["layers"]))
        elif kind == "erdos-renyi":
            pops.append(gen_erdos_renyi(
                spec["n"], spec["p"],
                substream(master_seed, "network", "er", i)))
        elif kind == "watts-strogatz":
            pops.append(gen_watts_strogatz(
                spec["n"], spec["k"], spec["p_rewire"],
                substream(master_seed, "network", "ws", i)))
        else:
            pops.append(Graph(n=spec["n"],
                              edges=tuple(tuple(e) for e in spec["edges"])))

    pair = lambda key: tuple(int(v) for v in key.split("-"))    # "i-j"
    interlinks = {pair(key): [tuple(p) for p in pairs]
                  for key, pairs in section.get("interlinks", {}).items()}
    for i, j in interlinks:
        if not 0 <= i < j < len(pops):
            raise ValueError(f"network interlink {i}-{j} needs "
                             f"0 <= i < j < {len(pops)}")
    xi_section = section.get("xi", "paper")
    xi = (xi_paper_normalization(pops, interlinks) if xi_section == "paper"
          else {pair(key): float(v) for key, v in xi_section.items()})
    for i, j in xi:
        if not interlinks.get((min(i, j), max(i, j))):
            raise ValueError(f"network xi {i}-{j} names a pair that no "
                             "interlink links")

    strategic, tactical = section.get("strategic"), None   # None: default
    if strategic is not None:
        tactical = [tuple(sorted(set(range(g.n)) - set(s)))
                    for g, s in zip(pops, strategic)]

    omega = section.get("omega")
    if omega is None and "mu" in section:
        if len(pops) == 3 and "nu" not in section:
            raise ValueError("three populations draw frequencies at network "
                             "mu and nu")
        omega = sample_omega([g.n for g in pops], section["mu"],
                             section.get("nu"), master_seed)

    return assemble(pops, interlinks, sigma=section["sigma"], xi=xi,
                    strategic=strategic, tactical=tactical, omega=omega)


def network_to_config(net) -> dict:
    """Serialise a CoupledNetwork to an explicit config network section.

    The result rebuilds an identical network through ``build_network``
    regardless of the master seed (graphs, links, frequencies all stored
    verbatim), and holds only JSON types, whatever integer type the
    network's node indices have.
    """
    return {
        "populations": [{"kind": "explicit", "n": int(g.n),
                         "edges": [list(map(int, e)) for e in g.edges]}
                        for g in net.populations],
        "interlinks": {f"{i}-{j}": [list(map(int, p)) for p in links.pairs]
                       for (i, j), links in net.interlinks.items()},
        "sigma": [float(s) for s in net.sigma],
        "xi": {f"{i}-{j}": float(v) for (i, j), v in net.xi.items()},
        "strategic": [list(map(int, s)) for s in net.strategic],
        "omega": [[float(w) for w in net.omega[net.nodes_of(p)]]
                  for p in range(net.n_pops)],
    }


def _paper_usecase_section() -> dict:
    links_bg = [[i, i] for i in range(0, 5)]        # Blue 1-5 <-> Green 1-5
    links_br = [[i, i] for i in range(5, 21)]       # Blue 6-21 <-> Red 6-21
    links_rg = [[i, i] for i in range(5, 21)]       # Red 6-21 <-> Green 6-21
    return {
        "populations": [
            {"kind": "kary-tree", "branching": 4, "layers": 2},
            {"kind": "erdos-renyi", "n": 21, "p": 0.2},
            {"kind": "watts-strogatz", "n": 21, "k": 6, "p_rewire": 0.4},
        ],
        "interlinks": {"0-1": links_br, "0-2": links_bg, "1-2": links_rg},
        "sigma": [4.0, 2.0, 2.0],
        "xi": "paper",
    }


def _paper_2pop_section() -> dict:
    return {
        "populations": [
            {"kind": "kary-tree", "branching": 4, "layers": 2},
            {"kind": "erdos-renyi", "n": 21, "p": 0.2},
        ],
        "interlinks": {"0-1": [[i, i] for i in range(5, 21)]},
        "sigma": [4.0, 2.0],
        "xi": "paper",
    }


def _eco3_params(**overrides) -> dict:
    params = {
        "r1": 3.0, "r2": 2.5, "r3": 1.0, "r3_max": 1.5,
        "beta1": 7.5, "beta2": 0.2, "beta1_min": 0.1,
        "alpha": 2.0, "tau": 1.0, "x1": 0.25,
        "x3": 0.25, "x3_min": 0.125, "x3_max": 0.5,
        "K1": 10.0, "K2": 10.0, "K3": 10.0,
        "phi": 0.5, "psi": 0.0, "p_exponent": 1, "P_D": 1e-4,
    }
    params.update(overrides)
    return params


PRESETS = {
    # two-population linearised case study
    "simple-cs": {
        "model": "simple-reduced",
        "params": {"r1": 3.0, "r2": 2.5, "beta1": 2.0, "beta2": 2.0,
                   "gamma1": 1.0, "gamma2": 1.0, "mu": 0.2, "phi": 0.2,
                   "psi": 0.0, "P_D": 1e-4},
        "solver": {"t_end": 200.0},
        "task": {"type": "fixed-points"},
    },
    # networked two-population model with synchronisation feedback
    "paper-2pop": {
        "model": "feedback",
        "params": {"r1": 3.0, "r2": 2.5, "beta1": 2.0, "beta2": 2.0,
                   "phi": 0.2, "psi": 0.0, "P_D": 1e-4},
        "network": {"preset": "paper-2pop", "mu": 0.2},
        "solver": {"t_end": 60.0, "recon_T": 0.0},
        "task": {"type": "simulate", "initial": {"P": [0.5, 0.5],
                                                 "delta": 0.0}},
    },
    # ecology-variant fixed points (no/fixed third population)
    "eco2-supp": {
        "model": "eco2-reduced",
        "params": {"r1": 3.0, "r2": 2.5, "beta1": 7.5, "beta2": 2.0,
                   "alpha": 20.0, "tau": 1.0, "x1": 0.25,
                   "gamma1": 1.0, "gamma2": 1.0, "mu": 0.25, "phi": 0.2,
                   "psi": 0.0, "P_D": 1e-4},
        "solver": {"t_end": 200.0},
        "task": {"type": "fixed-points"},
    },
    # dimensional three-population case study
    "eco3-cs": {
        "model": "eco3",
        "params": _eco3_params(),
        "network": {"preset": "paper-usecase", "mu": 0.25, "nu": -0.25},
        "solver": {"t_end": 100.0, "recon_T": 50.0},
        "task": {"type": "simulate", "initial": {"P": [5.0, 5.0, 5.0]}},
    },
    # scenario (a): weak tactical agility, decision disadvantage -> Red win
    "fig3a": {
        "model": "eco3",
        "params": _eco3_params(beta1=1.5, phi=-np.pi / 2),
        "network": {"preset": "paper-usecase", "mu": 0.25, "nu": -0.25},
        "solver": {"t_end": 100.0, "recon_T": 50.0},
        "task": {"type": "simulate", "initial": {"P": [5.0, 5.0, 5.0]}},
    },
    # scenario (b): strong tactical agility, decision advantage -> Blue win
    "fig3b": {
        "model": "eco3",
        "params": _eco3_params(beta1=5.0, phi=np.pi / 2),
        "network": {"preset": "paper-usecase", "mu": 0.25, "nu": -0.25},
        "solver": {"t_end": 100.0, "recon_T": 50.0},
        "task": {"type": "simulate", "initial": {"P": [5.0, 5.0, 5.0]}},
    },
}


def preset_names() -> list:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    import copy

    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {preset_names()}")
    return copy.deepcopy(PRESETS[name])
