import json

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components
from scipy.stats import binom

from kuracomp import graphs


def test_kary_tree_paper_case():
    g = graphs.gen_kary_tree(4, 2)
    assert g.n == 21
    assert len(g.edges) == 20
    deg = g.degrees()
    assert deg[0] == 4                      # root
    assert np.all(deg[5:] == 1)             # leaves


def test_unary_tree_is_path():
    g = graphs.gen_kary_tree(1, 3)
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_binary_tree_degrees():
    g = graphs.gen_kary_tree(2, 2)
    assert g.n == 7
    deg = g.degrees()
    assert deg[0] == 2
    assert np.all(deg[3:] == 1)


def test_tree_size_error():
    with pytest.raises(graphs.GraphSizeError):
        graphs.gen_kary_tree(10, 9)


def test_erdos_renyi_extremes():
    assert len(graphs.gen_erdos_renyi(21, 0.0, 3).edges) == 0
    assert len(graphs.gen_erdos_renyi(21, 1.0, 3).edges) == 210


def test_erdos_renyi_edge_count_bounds():
    # oracle: [20, 65] covers >= 99.9% of binomial(210, 0.2) mass
    coverage = binom.cdf(65, 210, 0.2) - binom.cdf(19, 210, 0.2)
    assert coverage >= 0.999
    for seed in range(50):
        g = graphs.gen_erdos_renyi(21, 0.2, seed)
        assert 20 <= len(g.edges) <= 65


def test_generators_deterministic():
    for gen in (lambda s: graphs.gen_erdos_renyi(21, 0.2, s),
                lambda s: graphs.gen_watts_strogatz(21, 6, 0.4, s)):
        assert gen(9).edges == gen(9).edges


def test_watts_strogatz_ring():
    g = graphs.gen_watts_strogatz(21, 6, 0.0, 0)
    assert len(g.edges) == 63
    assert np.all(g.degrees() == 6)
    cyc = graphs.gen_watts_strogatz(6, 2, 0.0, 0)
    assert sorted(cyc.edges) == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_watts_strogatz_rewired():
    g = graphs.gen_watts_strogatz(21, 6, 0.4, 0)
    assert len(g.edges) == 63                  # edge count preserved
    assert connected_components(g.adjacency())[0] == 1
    with pytest.raises(ValueError):
        graphs.gen_watts_strogatz(6, 6, 0.1, 0)
    with pytest.raises(ValueError):
        graphs.gen_watts_strogatz(9, 3, 0.1, 0)


def _two_pop_net(with_edge2=False, xi=None):
    g1 = graphs.Graph(n=2, edges=((0, 1),))
    g2 = graphs.Graph(n=2, edges=((0, 1),) if with_edge2 else ())
    xi = xi or {(0, 1): 1.0, (1, 0): 1.0}
    return graphs.assemble([g1, g2], {(0, 1): [(0, 0)]}, sigma=[1.0, 1.0],
                           xi=xi, strategic=[(0,), (0,)],
                           tactical=[(1,), (1,)])


def _degree_stats(net):
    """Per-node cross degrees d_k^(ij) over V_i and their totals d_T^(ij),
    for every ordered population pair (i, j)."""
    d, d_T = {}, {}
    for i in range(net.n_pops):
        for j in range(net.n_pops):
            if i == j:
                continue
            links = net.interlinks.get((min(i, j), max(i, j)))
            di = np.zeros(net.populations[i].n, dtype=int)
            if links is not None:
                for (u, v) in links.pairs:
                    di[u if i < j else v] += 1
            d[(i, j)] = di
            d_T[(i, j)] = int(di.sum())
    return d, d_T


def _frustration_oracle(net, phi, psi):
    """The dense frustration matrix: phi on the 1->2 block, psi on the
    2->1 block, zero elsewhere."""
    f = np.zeros((net.n_total, net.n_total))
    if net.n_pops >= 2:
        f[net.nodes_of(0), net.nodes_of(1)] = phi
        f[net.nodes_of(1), net.nodes_of(0)] = psi
    return f


def test_assemble_minimal_counts():
    net = _two_pop_net()
    w = net.weight_matrix()
    internal = np.count_nonzero(w[:2, :2]) + np.count_nonzero(w[2:, 2:])
    cross = np.count_nonzero(w[:2, 2:]) + np.count_nonzero(w[2:, :2])
    assert internal == 2 and cross == 2
    assert np.allclose(w, w.T)


def test_assemble_paper_usecase_degrees():
    t = graphs.gen_kary_tree(4, 2)
    er = graphs.gen_erdos_renyi(21, 0.2, 5)
    ws = graphs.gen_watts_strogatz(21, 6, 0.4, 6)
    links = {(0, 1): [(i, i) for i in range(5, 21)],
             (0, 2): [(i, i) for i in range(5)],
             (1, 2): [(i, i) for i in range(5, 21)]}
    xi = graphs.xi_paper_normalization([t, er, ws], links)
    net = graphs.assemble([t, er, ws], links, sigma=[4, 2, 2], xi=xi)
    _, d_T = _degree_stats(net)
    assert d_T[(0, 1)] == 16 and d_T[(1, 0)] == 16
    assert d_T[(0, 2)] == 5 and d_T[(2, 0)] == 5
    assert d_T[(1, 2)] == 16
    assert xi[(0, 1)] == pytest.approx(21 / 16)


def test_degree_stats_simple_cases():
    net = _two_pop_net()
    _, d_T = _degree_stats(net)
    assert d_T[(0, 1)] == 1 and d_T[(1, 0)] == 1
    # complete bipartite 3 x 4
    g1 = graphs.Graph(n=3, edges=())
    g2 = graphs.Graph(n=4, edges=())
    pairs = [(i, j) for i in range(3) for j in range(4)]
    net2 = graphs.assemble([g1, g2], {(0, 1): pairs}, sigma=[1, 1],
                           xi={(0, 1): 1.0, (1, 0): 1.0})
    d2, d_T2 = _degree_stats(net2)
    assert d_T2[(0, 1)] == 12 and d_T2[(1, 0)] == 12
    # d_T equals the sum of per-node degrees
    assert d2[(0, 1)].sum() == d_T2[(0, 1)]


def test_empty_interlinks():
    g1 = graphs.Graph(n=3, edges=((0, 1),))
    g2 = graphs.Graph(n=3, edges=((1, 2),))
    net = graphs.assemble([g1, g2], {}, sigma=[1, 1], xi={})
    # no cross links: nothing is frustrated, whatever the angles
    m_sin, m_cos = net.coupling_matrices(0.3, -0.1)
    assert np.count_nonzero(m_sin) == 0
    assert np.array_equal(m_cos, net.weight_matrix())
    _, d_T = _degree_stats(net)
    assert d_T[(0, 1)] == 0


def test_frustration_block_structure():
    net = _two_pop_net(with_edge2=True)
    w = net.weight_matrix()
    m_sin, m_cos = net.coupling_matrices(0.3, -0.1)
    assert np.array_equal(m_sin[:2, 2:], w[:2, 2:] * np.sin(0.3))
    assert np.array_equal(m_sin[2:, :2], w[2:, :2] * np.sin(-0.1))
    assert np.all(m_sin[:2, :2] == 0.0) and np.all(m_sin[2:, 2:] == 0.0)
    assert np.array_equal(m_cos[:2, :2], w[:2, :2])
    assert np.array_equal(m_cos[2:, 2:], w[2:, 2:])


@pytest.mark.parametrize("n_pops", [1, 2, 3])
def test_coupling_matrices_equal_the_dense_frustration_oracle(n_pops):
    rng = np.random.default_rng(n_pops)
    sizes = [int(n) for n in rng.integers(2, 6, n_pops)]
    pops = [graphs.gen_erdos_renyi(n, 0.6, rng) for n in sizes]
    links = {(i, j): sorted({(int(rng.integers(sizes[i])),
                              int(rng.integers(sizes[j]))) for _ in range(3)})
             for i in range(n_pops) for j in range(i + 1, n_pops)}
    xi = {(i, j): rng.uniform(0.5, 2.0) for i in range(n_pops)
          for j in range(n_pops) if i != j}
    net = graphs.assemble(pops, links, sigma=rng.uniform(0.5, 2.0, n_pops),
                          xi=xi)
    w = net.weight_matrix()
    for phi, psi in [(0.0, 0.0), (0.7, -0.4), (-np.pi / 2, np.pi / 2),
                     tuple(rng.uniform(-3.0, 3.0, 2))]:
        f = _frustration_oracle(net, phi, psi)
        m_sin, m_cos = net.coupling_matrices(phi, psi)
        assert np.array_equal(m_sin, w * np.sin(f))
        assert np.array_equal(m_cos, w * np.cos(f))
        # zero outside the 1->2 and 2->1 blocks, W itself where Phi = 0
        assert not m_sin[f == 0.0].any()
        assert np.array_equal(m_cos[f == 0.0], w[f == 0.0])
        # the pair for the last angles asked is kept, and only that pair
        again = net.coupling_matrices(phi, psi)
        assert again[0] is m_sin and again[1] is m_cos
        other = net.coupling_matrices(phi + 0.1, psi)
        assert other[0] is not m_sin
        assert np.array_equal(net.coupling_matrices(phi, psi)[0], m_sin)


def test_partition_validation():
    g = graphs.Graph(n=3, edges=())
    with pytest.raises(ValueError, match="overlap"):
        graphs.assemble([g], {}, sigma=[1.0], xi={},
                        strategic=[(0, 1)], tactical=[(1, 2)])
    with pytest.raises(ValueError, match="cover"):
        graphs.assemble([g], {}, sigma=[1.0], xi={},
                        strategic=[(0,)], tactical=[(1,)])
    with pytest.raises(ValueError, match="one entry per population"):
        graphs.assemble([g, g], {}, sigma=[1.0, 1.0], xi={},
                        strategic=[(0,)], tactical=[(1, 2)])


def test_weight_matrix_invariants():
    t = graphs.gen_kary_tree(3, 2)
    er = graphs.gen_erdos_renyi(13, 0.3, 2)
    links = {(0, 1): [(0, 1), (2, 5), (7, 7)]}
    net = graphs.assemble([t, er], links, sigma=[1.5, 0.7],
                          xi={(0, 1): 2.0, (1, 0): 0.5})
    w = net.weight_matrix()
    assert np.all(w >= 0)
    n1 = t.n
    assert np.allclose(w[:n1, :n1], w[:n1, :n1].T)
    assert np.allclose(w[n1:, n1:], w[n1:, n1:].T)
    # cross sparsity transposes even though weights differ
    a12 = w[:n1, n1:] != 0
    a21 = w[n1:, :n1] != 0
    assert np.array_equal(a12, a21.T)
    assert np.allclose(w[:n1, n1:][a12], 2.0)
    assert np.allclose(w[n1:, :n1][a21], 0.5)


def test_default_partition():
    t = graphs.gen_kary_tree(4, 2)
    s, tt = graphs.default_partition(t)
    assert s == tuple(range(5))
    assert tt == tuple(range(5, 21))
    # a tree's strategic set is its root and first layer
    for branching in range(1, 6):
        for layers in range(1, 4):
            s, _ = graphs.default_partition(
                graphs.gen_kary_tree(branching, layers))
            assert s == tuple(range(1 + branching))
    er = graphs.gen_erdos_renyi(21, 0.2, 0)
    s2, _ = graphs.default_partition(er)
    assert s2 == tuple(range(5))


def _write_edge_list(g, path):
    with open(path, "w") as fh:
        for (u, v) in g.edges:
            fh.write(f"{u} {v}\n")


def _read_edge_list(path, n=None):
    edges = []
    max_node = -1
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = map(int, line.split())
            if u == v:
                raise ValueError("self-loop in edge list")
            edges.append((min(u, v), max(u, v)))
            max_node = max(max_node, u, v)
    if n is None:
        n = max_node + 1
    return graphs.Graph(n=n, edges=tuple(sorted(set(edges))))


def test_edge_list_roundtrip(tmp_path):
    g = graphs.gen_erdos_renyi(15, 0.3, 4)
    path = tmp_path / "edges.txt"
    _write_edge_list(g, path)
    g2 = _read_edge_list(path, n=15)
    assert g2.edges == g.edges


def test_network_config_roundtrip():
    from kuracomp.presets import build_network, network_to_config

    t = graphs.gen_kary_tree(3, 2)
    er = graphs.gen_erdos_renyi(13, 0.3, 21)
    net = graphs.assemble([t, er], {(0, 1): [(0, 2), (4, 4)]},
                          sigma=[1.5, 0.7], xi={(0, 1): 2.0, (1, 0): 0.5},
                          omega=np.linspace(0, 1, t.n + er.n))
    section = network_to_config(net)
    rebuilt = build_network(section, master_seed=999)   # seed must not matter
    assert np.array_equal(rebuilt.weight_matrix(), net.weight_matrix())
    # frustration is a model parameter, not part of the network
    assert "phi" not in section and "psi" not in section
    for got, want in zip(rebuilt.coupling_matrices(0.1, 0.2),
                         net.coupling_matrices(0.1, 0.2)):
        assert np.array_equal(got, want)
    assert np.array_equal(rebuilt.omega, net.omega)
    assert rebuilt.strategic == net.strategic


def test_network_config_with_numpy_indices_survives_json():
    # node indices cut from numpy arrays are numpy integers
    from kuracomp.presets import build_network, network_to_config

    iu, ju = np.triu_indices(4, k=1)
    g = graphs.Graph(n=np.int64(4), edges=tuple(zip(iu, ju)))
    order = np.random.default_rng(5).permutation(4)
    net = graphs.assemble([g, g], {(0, 1): [tuple(order[:2]),
                                            tuple(order[2:])]},
                          sigma=[1.0, 2.0], xi={(0, 1): 1.5, (1, 0): 0.5},
                          strategic=[tuple(sorted(order[:2]))] * 2,
                          tactical=[tuple(sorted(order[2:]))] * 2)
    section = json.loads(json.dumps(network_to_config(net)))
    rebuilt = build_network(section, master_seed=0)
    assert np.array_equal(rebuilt.weight_matrix(), net.weight_matrix())
    assert rebuilt.interlinks[(0, 1)].pairs == net.interlinks[(0, 1)].pairs
    assert rebuilt.strategic == net.strategic
    assert rebuilt.tactical == net.tactical


def test_whole_float_counts_build_the_same_network():
    # a population count given as a whole float passes, as task.grid's does
    from kuracomp.presets import build_network

    def section(n, branching):
        return {"populations": [
            {"kind": "erdos-renyi", "n": n, "p": 0.5},
            {"kind": "kary-tree", "branching": branching, "layers": 2}],
            "sigma": [1, 1], "interlinks": {"0-1": [[0, 0]]}}

    got = build_network(section(8.0, 2.0), master_seed=3)
    want = build_network(section(8, 2), master_seed=3)
    assert list(got.sizes) == list(want.sizes) == [8, 7]
    assert all(type(n) is int for n in got.sizes)
    assert np.array_equal(got.weight_matrix(), want.weight_matrix())


@pytest.mark.parametrize("preset", ["paper-usecase", "paper-2pop"])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_centroid_coupling_reads_the_cross_degree_totals(preset, seed):
    # g_ij = xi_ij * d_T^(ij) / N_i, with d_T summed from per-node degrees
    from kuracomp.models import CentroidCoupling
    from kuracomp.presets import build_network

    net = build_network({"preset": preset}, seed)
    _, d_T = _degree_stats(net)
    got = CentroidCoupling.from_network(net)
    for i in range(net.n_pops):
        for j in range(net.n_pops):
            if i != j:
                want = net.xi.get((i, j), 0.0) * d_T[(i, j)] / net.sizes[i]
                assert getattr(got, f"g{i + 1}{j + 1}") == want
