"""Population networks and their block-coupled weight structure.

Three stylised generators (complete k-ary tree, Erdos-Renyi, Watts-Strogatz)
produce the per-population graphs.  ``assemble`` stitches populations together
with explicit cross-population link lists into a :class:`CoupledNetwork`,
which holds structure only (graphs, links, weights, partition, frequencies)
and exposes the dense weighted adjacency ``W`` (sigma_i on internal blocks,
xi_ij on cross blocks).  The frustration is a model parameter:
``coupling_matrices(phi, psi)`` weights ``W`` by the angles it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import as_generator

__all__ = [
    "Graph",
    "InterLinks",
    "CoupledNetwork",
    "gen_kary_tree",
    "gen_erdos_renyi",
    "gen_watts_strogatz",
    "assemble",
    "default_partition",
]

_MAX_NODES = 10_000_000


class GraphSizeError(ValueError):
    """Requested graph would exceed the supported node count."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with nodes 0..n-1."""

    n: int
    edges: tuple  # tuple of (u, v) with u < v
    kind: str = "generic"

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for (u, v) in self.edges:
            a[u, v] = a[v, u] = 1.0
        a.setflags(write=False)
        return a

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=int)
        for (u, v) in self.edges:
            d[u] += 1
            d[v] += 1
        return d


@dataclass(frozen=True)
class InterLinks:
    """Cross-population edges: pairs (node in V_i, node in V_j)."""

    n_i: int
    n_j: int
    pairs: tuple  # tuple of (u, v), u indexes V_i, v indexes V_j

    def __post_init__(self):
        for (u, v) in self.pairs:
            if not (0 <= u < self.n_i and 0 <= v < self.n_j):
                raise ValueError(f"interlink pair ({u}, {v}) out of range")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate interlink pairs")

    def incidence(self) -> np.ndarray:
        a = np.zeros((self.n_i, self.n_j))
        for (u, v) in self.pairs:
            a[u, v] = 1.0
        return a


def gen_kary_tree(branching: int, layers: int) -> Graph:
    """Complete k-ary tree, breadth-first numbering, node 0 is the root."""
    if branching < 1 or layers < 1:
        raise ValueError("branching and layers must be >= 1")
    if branching == 1:
        n = layers + 1
    else:
        n = (branching ** (layers + 1) - 1) // (branching - 1)
    if n > _MAX_NODES:
        raise GraphSizeError(f"k-ary tree would have {n} nodes")
    edges = tuple((min((i - 1) // branching, i), max((i - 1) // branching, i))
                  for i in range(1, n))
    return Graph(n=n, edges=edges, kind="kary-tree")


def gen_erdos_renyi(n: int, p: float, seed) -> Graph:
    """G(n, p): each above-diagonal pair present independently with prob p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    rng = as_generator(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    edges = tuple((int(u), int(v)) for u, v in zip(iu[mask], ju[mask]))
    return Graph(n=n, edges=edges, kind="erdos-renyi")


def gen_watts_strogatz(n: int, k: int, p_rewire: float, seed) -> Graph:
    """Watts-Strogatz ring rewiring; the edge count n*k/2 is preserved."""
    if k % 2 != 0:
        raise ValueError("k must be even")
    if k >= n:
        raise ValueError("k must be < n")
    if not (0.0 <= p_rewire <= 1.0):
        raise ValueError("p_rewire must be in [0, 1]")
    rng = as_generator(seed)
    present = set()
    for u in range(n):
        for off in range(1, k // 2 + 1):
            v = (u + off) % n
            present.add((min(u, v), max(u, v)))
    # rewire each original rightward edge with probability p_rewire
    for u in range(n):
        for off in range(1, k // 2 + 1):
            v = (u + off) % n
            e = (min(u, v), max(u, v))
            if rng.random() >= p_rewire or e not in present:
                continue
            # draw a replacement endpoint avoiding self-loops and duplicates
            candidates = [w for w in range(n)
                          if w != u and (min(u, w), max(u, w)) not in present]
            if not candidates:
                continue
            w = candidates[rng.integers(len(candidates))]
            present.remove(e)
            present.add((min(u, w), max(u, w)))
    edges = tuple(sorted(present))
    return Graph(n=n, edges=edges, kind="watts-strogatz")


def default_partition(g: Graph) -> tuple:
    """Default strategic/tactical split.

    Trees: strategic = root + first layer (the root's degree gives its
    size); other graphs: strategic = the first min(5, n) nodes.  Tactical
    is the remainder.
    """
    if g.kind == "kary-tree":
        n_s = min(1 + max(g.degrees()[0], 1), g.n)
    else:
        n_s = min(5, g.n)
    strategic = tuple(range(n_s))
    tactical = tuple(range(n_s, g.n))
    return strategic, tactical


@dataclass
class CoupledNetwork:
    """Multi-population network: graphs, cross links, block weights,
    strategic/tactical partition and intrinsic frequencies."""

    populations: list
    interlinks: dict          # (i, j) with i < j -> InterLinks
    sigma: list               # per-population internal coupling
    xi: dict                  # ordered (i, j) -> cross coupling
    strategic: list           # per-population node tuples
    tactical: list            # per-population node tuples
    omega: np.ndarray         # concatenated intrinsic frequencies
    offsets: np.ndarray = field(init=False)
    _w: np.ndarray = field(init=False, default=None, repr=False)
    # ((phi, psi), W*sin(Phi), W*cos(Phi)) for the last angles asked
    _coupling: tuple = field(init=False, default=((), None, None),
                             repr=False)
    # the phase plan models.py builds on the first full-variant RHS call
    _plan: object = field(init=False, default=None, repr=False)

    def __post_init__(self):
        sizes = [g.n for g in self.populations]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        if not (len(self.sigma) == len(self.strategic) == len(self.tactical)
                == len(self.populations)):
            raise ValueError("sigma and the strategic/tactical split need "
                             "one entry per population")
        for p, (s, t) in enumerate(zip(self.strategic, self.tactical)):
            n = self.populations[p].n
            if set(s) & set(t):
                raise ValueError(f"population {p}: strategic/tactical overlap")
            if set(s) | set(t) != set(range(n)):
                raise ValueError(f"population {p}: partition does not cover all nodes")
        for (i, j), links in self.interlinks.items():
            if not (0 <= i < j < len(self.populations)):
                raise ValueError(f"interlink key {(i, j)} must satisfy i < j")
            if links.n_i != self.populations[i].n or links.n_j != self.populations[j].n:
                raise ValueError(f"interlink {(i, j)} size mismatch")
        for key, value in self.xi.items():
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"xi{key} must be finite and >= 0")
        self.omega = np.asarray(self.omega, dtype=float)
        if self.omega.shape != (self.n_total,):
            raise ValueError("omega must have one entry per node")

    # -- structure ---------------------------------------------------------

    @property
    def n_pops(self) -> int:
        return len(self.populations)

    @property
    def sizes(self) -> list:
        return [g.n for g in self.populations]

    @property
    def n_total(self) -> int:
        return int(self.offsets[-1])

    def nodes_of(self, pop: int) -> slice:
        return slice(int(self.offsets[pop]), int(self.offsets[pop + 1]))

    def global_nodes(self, pop: int, local_nodes) -> np.ndarray:
        return np.asarray(local_nodes, dtype=int) + int(self.offsets[pop])

    # -- dense matrices ----------------------------------------------------

    def weight_matrix(self) -> np.ndarray:
        if self._w is None:
            n = self.n_total
            w = np.zeros((n, n))
            for p, g in enumerate(self.populations):
                sl = self.nodes_of(p)
                w[sl, sl] = self.sigma[p] * g.adjacency()
            for (i, j), links in self.interlinks.items():
                a = links.incidence()
                si, sj = self.nodes_of(i), self.nodes_of(j)
                w[si, sj] += self.xi.get((i, j), 0.0) * a
                w[sj, si] += self.xi.get((j, i), 0.0) * a.T
            w.setflags(write=False)
            self._w = w
        return self._w

    def coupling_matrices(self, phi, psi) -> tuple:
        """(W*sin(Phi), W*cos(Phi)) for the frustration Phi that is phi on
        the 1->2 block, psi on the 2->1 block and zero elsewhere; the pair
        for the last (phi, psi) asked is kept."""
        if self._coupling[0] != (phi, psi):
            n = self.n_total
            f = np.zeros((n, n))
            if self.n_pops >= 2:
                f[self.nodes_of(0), self.nodes_of(1)] = phi
                f[self.nodes_of(1), self.nodes_of(0)] = psi
            w = self.weight_matrix()
            m_sin, m_cos = w * np.sin(f), w * np.cos(f)
            m_sin.setflags(write=False)
            m_cos.setflags(write=False)
            self._coupling = ((phi, psi), m_sin, m_cos)
        return self._coupling[1:]

    def strategic_global(self, pop: int) -> np.ndarray:
        return self.global_nodes(pop, self.strategic[pop])

    def tactical_global(self, pop: int) -> np.ndarray:
        return self.global_nodes(pop, self.tactical[pop])


def assemble(populations, interlinks, sigma, xi, strategic=None,
             tactical=None, omega=None) -> CoupledNetwork:
    """Build a CoupledNetwork, validating partitions and link consistency.

    ``interlinks`` maps (i, j) with i < j to a list of (node in V_i,
    node in V_j) pairs; ``xi`` gives the directed couplings for both
    orders (i, j) and (j, i).  Omega defaults to zeros.  The network holds
    no frustration: that is the model config's phi/psi.
    """
    pops = list(populations)
    links = {}
    for (i, j), pairs in interlinks.items():
        if isinstance(pairs, InterLinks):
            links[(i, j)] = pairs
        else:
            links[(i, j)] = InterLinks(pops[i].n, pops[j].n, tuple(map(tuple, pairs)))
    if strategic is None or tactical is None:
        parts = [default_partition(g) for g in pops]
        strategic = [p[0] for p in parts]
        tactical = [p[1] for p in parts]
    if omega is None:
        omega = np.zeros(sum(g.n for g in pops))
    elif isinstance(omega, (list, tuple)) and len(omega) == len(pops):
        omega = np.concatenate([np.asarray(o, dtype=float) for o in omega])
    return CoupledNetwork(
        populations=pops, interlinks=links, sigma=list(sigma), xi=dict(xi),
        strategic=[tuple(s) for s in strategic],
        tactical=[tuple(t) for t in tactical],
        omega=omega,
    )


def xi_paper_normalization(populations, interlinks) -> dict:
    """xi_ij = N_i / d_T^(ij) for every linked ordered pair."""
    xi = {}
    for (i, j), pairs in interlinks.items():
        n_pairs = len(pairs.pairs) if isinstance(pairs, InterLinks) else len(pairs)
        if n_pairs == 0:
            continue
        xi[(i, j)] = populations[i].n / n_pairs
        xi[(j, i)] = populations[j].n / n_pairs
    return xi

