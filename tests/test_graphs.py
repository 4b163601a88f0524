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


def _two_pop_net(phi=0.0, psi=0.0, with_edge2=False, xi=None):
    g1 = graphs.Graph(n=2, edges=((0, 1),))
    g2 = graphs.Graph(n=2, edges=((0, 1),) if with_edge2 else ())
    xi = xi or {(0, 1): 1.0, (1, 0): 1.0}
    return graphs.assemble([g1, g2], {(0, 1): [(0, 0)]}, sigma=[1.0, 1.0],
                           xi=xi, phi=phi, psi=psi,
                           strategic=[(0,), (0,)], tactical=[(1,), (1,)])


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
    net = graphs.assemble([t, er, ws], links, sigma=[4, 2, 2], xi=xi,
                          phi=0.5, psi=0.0)
    st = graphs.degree_stats(net)
    assert st.d_T[(0, 1)] == 16 and st.d_T[(1, 0)] == 16
    assert st.d_T[(0, 2)] == 5 and st.d_T[(2, 0)] == 5
    assert st.d_T[(1, 2)] == 16
    assert xi[(0, 1)] == pytest.approx(21 / 16)


def test_degree_stats_simple_cases():
    net = _two_pop_net()
    st = graphs.degree_stats(net)
    assert st.d_T[(0, 1)] == 1 and st.d_T[(1, 0)] == 1
    # complete bipartite 3 x 4
    g1 = graphs.Graph(n=3, edges=())
    g2 = graphs.Graph(n=4, edges=())
    pairs = [(i, j) for i in range(3) for j in range(4)]
    net2 = graphs.assemble([g1, g2], {(0, 1): pairs}, sigma=[1, 1],
                           xi={(0, 1): 1.0, (1, 0): 1.0}, phi=0, psi=0)
    st2 = graphs.degree_stats(net2)
    assert st2.d_T[(0, 1)] == 12 and st2.d_T[(1, 0)] == 12
    # d_T equals the sum of per-node degrees
    assert st2.d[(0, 1)].sum() == st2.d_T[(0, 1)]


def test_empty_interlinks():
    g1 = graphs.Graph(n=3, edges=((0, 1),))
    g2 = graphs.Graph(n=3, edges=((1, 2),))
    net = graphs.assemble([g1, g2], {}, sigma=[1, 1], xi={}, phi=0.0, psi=0.0)
    assert np.count_nonzero(net.frustration_matrix()) == 0
    st = graphs.degree_stats(net)
    assert st.d_T[(0, 1)] == 0


def test_frustration_block_structure():
    net = _two_pop_net(phi=0.3, psi=-0.1, with_edge2=True)
    f = net.frustration_matrix()
    assert np.all(f[:2, 2:] == 0.3)
    assert np.all(f[2:, :2] == -0.1)
    assert np.all(f[:2, :2] == 0.0) and np.all(f[2:, 2:] == 0.0)


def test_partition_validation():
    g = graphs.Graph(n=3, edges=())
    with pytest.raises(ValueError, match="overlap"):
        graphs.assemble([g], {}, sigma=[1.0], xi={}, phi=0, psi=0,
                        strategic=[(0, 1)], tactical=[(1, 2)])
    with pytest.raises(ValueError, match="cover"):
        graphs.assemble([g], {}, sigma=[1.0], xi={}, phi=0, psi=0,
                        strategic=[(0,)], tactical=[(1,)])


def test_weight_matrix_invariants():
    t = graphs.gen_kary_tree(3, 2)
    er = graphs.gen_erdos_renyi(13, 0.3, 2)
    links = {(0, 1): [(0, 1), (2, 5), (7, 7)]}
    net = graphs.assemble([t, er], links, sigma=[1.5, 0.7],
                          xi={(0, 1): 2.0, (1, 0): 0.5}, phi=0.1, psi=0.2)
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
                          phi=0.1, psi=0.2,
                          omega=np.linspace(0, 1, t.n + er.n))
    section = network_to_config(net)
    rebuilt = build_network(section, master_seed=999)   # seed must not matter
    assert np.array_equal(rebuilt.weight_matrix(), net.weight_matrix())
    # frustration is a model parameter, bound when a system is built
    assert "phi" not in section and not rebuilt.frustration_matrix().any()
    assert np.array_equal(rebuilt.with_frustration(0.1, 0.2)
                          .frustration_matrix(), net.frustration_matrix())
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
                          phi=0.0, psi=0.0,
                          strategic=[tuple(sorted(order[:2]))] * 2,
                          tactical=[tuple(sorted(order[2:]))] * 2)
    section = json.loads(json.dumps(network_to_config(net)))
    rebuilt = build_network(section, master_seed=0)
    assert np.array_equal(rebuilt.weight_matrix(), net.weight_matrix())
    assert rebuilt.interlinks[(0, 1)].pairs == net.interlinks[(0, 1)].pairs
    assert rebuilt.strategic == net.strategic
    assert rebuilt.tactical == net.tactical
