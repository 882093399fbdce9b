"""Graph model: parsing, virtual node, BFS vs Floyd-Warshall, the bounded
distance pass vs both, bucket matrices, and permutation equivariance."""

import json
from collections import deque

import numpy as np
import pytest

from grpe.errors import GraphParseError
from grpe.graph import (Graph, GraphSample, UNREACHABLE, attach_virtual_node,
                        bfs_all_pairs, bounded_distances, edge_indices, edge_no_edge, edge_self,
                        edge_vn, parse_graphs, permute_graph, permute_sample,
                        sample_to_record, topo_far, topo_unreachable, topo_vn,
                        topology_indices, write_graphs)
from grpe.synthetic import floyd_warshall, random_graph


def dict_bfs(g: Graph):
    """Independent shortest-path oracle over adjacency dictionaries."""
    n = g.num_nodes
    adj = {i: set() for i in range(n)}
    for i, j, _ in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    sources = range(1, n) if g.has_virtual_node else range(n)
    for s in sources:
        seen = {s: 0}
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen[w] = seen[u] + 1
                    q.append(w)
        for t, d in seen.items():
            out[s, t] = d
    np.fill_diagonal(out, 0)
    return out


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(node_types=[0, 1], edges=[(0, 0, 0)], num_edge_types=1)

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            Graph(node_types=[0, 1], edges=[(0, 1, 0), (1, 0, 0)], num_edge_types=1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(node_types=[0, 1], edges=[(0, 2, 0)], num_edge_types=1)
        with pytest.raises(ValueError):
            Graph(node_types=[0, 1], edges=[(0, 1, 3)], num_edge_types=2)

    def test_sample_needs_exactly_one_target(self):
        g = Graph(node_types=[0, 1], edges=[], num_edge_types=0)
        with pytest.raises(ValueError):
            GraphSample(graph=g)
        with pytest.raises(ValueError):
            GraphSample(graph=g, target=1.0, node_labels=[0, 0])
        with pytest.raises(ValueError):
            GraphSample(graph=g, node_labels=[0, 0, 0])


class TestParsing:
    def test_single_node_scalar_target(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"nodes":[3],"edges":[],"target":0.5}\n')
        samples = parse_graphs(path)
        assert len(samples) == 1
        assert samples[0].graph.num_nodes == 1
        assert samples[0].target == 0.5

    def test_endpoint_out_of_bounds_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nodes":[0],"edges":[],"target":0.0}\n'
                        '{"nodes":[0,1],"edges":[[0,2,0]],"target":0.0}\n')
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graphs(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nodes":[0],"edges":[],"target":0.0}\nnot json\n')
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graphs(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"nodes":[0],"edges":[],"target":0.0}\n\xff\xfe\n')
        with pytest.raises(GraphParseError, match="bad.jsonl: not UTF-8"):
            parse_graphs(path)

    def test_both_targets_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nodes":[0],"edges":[],"target":0.0,"node_labels":[1]}\n')
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graphs(path)

    def test_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(1, 12)), 3, 5, 0.4)
            if rng.random() < 0.5:
                samples.append(GraphSample(graph=g, target=float(rng.normal())))
            else:
                labels = rng.integers(0, 3, size=g.num_nodes).tolist()
                samples.append(GraphSample(graph=g, node_labels=labels))
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_graphs(samples, p1)
        write_graphs(parse_graphs(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_canonical_edge_order(self):
        g = Graph(node_types=[0, 1, 2], edges=[(2, 1, 0), (1, 0, 1)], num_edge_types=2)
        rec = json.loads(sample_to_record(GraphSample(graph=g, target=0.0)))
        assert rec["edges"] == [[0, 1, 1], [1, 2, 0]]


class TestVirtualNode:
    def test_single_node(self):
        g = attach_virtual_node(Graph(node_types=[5], edges=[], num_edge_types=0))
        assert g.num_nodes == 2
        assert g.has_virtual_node
        e = edge_indices(g)
        assert e[0, 1] == edge_vn(0) and e[1, 0] == edge_vn(0)

    def test_double_attach_rejected(self):
        g = attach_virtual_node(Graph(node_types=[0], edges=[], num_edge_types=0))
        with pytest.raises(ValueError):
            attach_virtual_node(g)

    def test_triangle_distances_unchanged(self):
        tri = Graph(node_types=[0, 0, 0], edges=[(0, 1, 0), (1, 2, 0), (0, 2, 0)],
                    num_edge_types=1)
        g = attach_virtual_node(tri)
        assert g.num_nodes == 4
        d = bfs_all_pairs(g)
        np.testing.assert_array_equal(d[1:, 1:], bfs_all_pairs(tri))
        assert np.all(d[0, 1:] == UNREACHABLE)

    def test_non_vn_buckets_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, 12, 3, 4, 0.3)
            plain = topology_indices(bfs_all_pairs(g), 3)
            vn = attach_virtual_node(g)
            attached = topology_indices(bfs_all_pairs(vn), 3, has_virtual_node=True)
            np.testing.assert_array_equal(attached[1:, 1:], plain)
            e_plain = edge_indices(g)
            e_att = edge_indices(vn)
            np.testing.assert_array_equal(e_att[1:, 1:], e_plain)


class TestBfs:
    def test_path_graph(self):
        g = Graph(node_types=[0, 0, 0], edges=[(0, 1, 0), (1, 2, 0)], num_edge_types=1)
        d = bfs_all_pairs(g)
        assert d[0, 2] == 2 and d[2, 0] == 2

    def test_disconnected(self):
        g = Graph(node_types=[0, 0], edges=[], num_edge_types=0)
        d = bfs_all_pairs(g)
        assert d[0, 1] == UNREACHABLE and d[1, 0] == UNREACHABLE
        assert d[0, 0] == 0

    def test_matches_floyd_warshall_and_dict_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            g = random_graph(rng, n, 2, 4, float(rng.uniform(0.0, 0.5)))
            if rng.random() < 0.3:
                g = attach_virtual_node(g)
            d = bfs_all_pairs(g)
            np.testing.assert_array_equal(d, floyd_warshall(g))
            np.testing.assert_array_equal(d, dict_bfs(g))

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 15)), 2, 4, 0.3)
            d = bfs_all_pairs(g)
            np.testing.assert_array_equal(d, d.T)
            n = g.num_nodes
            fin = d != UNREACHABLE
            for k in range(n):
                both = fin[:, k][:, None] & fin[k, :][None, :]
                lhs = d[both & fin]
                rhs = (d[:, k][:, None] + d[k, :][None, :])[both & fin]
                assert np.all(lhs <= rhs)


class TestBoundedDistances:
    # path 0-1-2-3 and path 4-5-6
    two_paths = Graph(node_types=[0] * 7, num_edge_types=1,
                      edges=[(0, 1, 0), (1, 2, 0), (2, 3, 0), (4, 5, 0), (5, 6, 0)])

    def graphs(self, rng):
        """Random graphs of 1-20 nodes, plus one-node, edgeless and
        two-component ones, each with and without the virtual node."""
        out = [random_graph(rng, int(rng.integers(1, 21)), 2, 4, float(rng.uniform(0.0, 0.5)))
               for _ in range(60)]
        out += [Graph(node_types=[0], edges=[], num_edge_types=0),
                Graph(node_types=[0] * 5, edges=[], num_edge_types=0),
                self.two_paths]
        return out + [attach_virtual_node(g) for g in out]

    def test_buckets_equal_bfs_and_floyd_warshall(self):
        for g in self.graphs(np.random.default_rng(11)):
            vn = g.has_virtual_node
            d_bfs, d_fw = bfs_all_pairs(g), floyd_warshall(g)
            for L in (1, 2, 5):
                d = bounded_distances(g, L)
                np.testing.assert_array_equal(
                    d, np.where(d_bfs == UNREACHABLE, UNREACHABLE, np.minimum(d_bfs, L + 1)))
                t = topology_indices(d, L, has_virtual_node=vn)
                np.testing.assert_array_equal(t, topology_indices(d_bfs, L, has_virtual_node=vn))
                np.testing.assert_array_equal(t, topology_indices(d_fw, L, has_virtual_node=vn))

    def test_far_within_and_unreachable_across_components(self):
        # L = 1: one hop, FAR inside a path, UNREACHABLE across the two
        d = bounded_distances(self.two_paths, 1)
        assert d[0, 1] == 1 and d[0, 3] == 2 and d[4, 6] == 2
        assert d[3, 4] == UNREACHABLE and d[6, 0] == UNREACHABLE


class TestTopologyIndices:
    def test_boundary_buckets(self):
        L = 3
        d = np.array([[0, 1, L, L + 1, UNREACHABLE],
                      [1, 0, 1, 1, UNREACHABLE],
                      [L, 1, 0, 1, UNREACHABLE],
                      [L + 1, 1, 1, 0, UNREACHABLE],
                      [UNREACHABLE] * 4 + [0]])
        t = topology_indices(d, L)
        assert t[0, 1] == 1 and t[0, 2] == L and t[0, 3] == topo_far(L)
        assert t[0, 4] == topo_unreachable(L)
        assert np.all(np.diag(t) == 0)

    def test_star_graph_far_bucket(self):
        # center 0 with 5 leaves, L = 1: leaf pairs at distance 2 become FAR
        edges = [(0, i, 0) for i in range(1, 6)]
        g = Graph(node_types=[0] * 6, edges=edges, num_edge_types=1)
        t = topology_indices(bfs_all_pairs(g), 1)
        for i in range(1, 6):
            assert t[0, i] == 1
            for j in range(1, 6):
                if i != j:
                    assert t[i, j] == topo_far(1)

    def test_vn_row_forced(self):
        g = attach_virtual_node(Graph(node_types=[0, 0], edges=[(0, 1, 0)],
                                      num_edge_types=1))
        t = topology_indices(bfs_all_pairs(g), 2, has_virtual_node=True)
        assert t[0, 0] == 0
        assert np.all(t[0, 1:] == topo_vn(2)) and np.all(t[1:, 0] == topo_vn(2))

    def test_bucket_range_partition(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            L = int(rng.choice([1, 3, 5]))
            g = attach_virtual_node(random_graph(rng, int(rng.integers(2, 15)), 2, 4, 0.3))
            t = topology_indices(bfs_all_pairs(g), L, has_virtual_node=True)
            assert t.min() >= 0 and t.max() < L + 4

    def test_requires_positive_L(self):
        with pytest.raises(ValueError):
            topology_indices(np.zeros((2, 2), dtype=int), 0)


class TestEdgeIndices:
    def test_diagonal_self(self):
        g = random_graph(np.random.default_rng(5), 6, 3, 4, 0.5)
        e = edge_indices(g)
        assert np.all(np.diag(e) == edge_self(3))

    def test_edgeless_all_no_edge(self):
        g = Graph(node_types=[0, 0, 0], edges=[], num_edge_types=2)
        e = edge_indices(g)
        off = ~np.eye(3, dtype=bool)
        assert np.all(e[off] == edge_no_edge(2))

    def test_matches_dictionary_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 12)), 3, 4, 0.4)
            if rng.random() < 0.5:
                g = attach_virtual_node(g)
            lookup = {}
            for i, j, t in g.edges:
                lookup[(i, j)] = t
                lookup[(j, i)] = t
            e = edge_indices(g)
            n = g.num_nodes
            for i in range(n):
                for j in range(n):
                    if i == j:
                        want = edge_self(3)
                    elif g.has_virtual_node and (i == 0 or j == 0):
                        want = edge_vn(3)
                    else:
                        want = lookup.get((i, j), edge_no_edge(3))
                    assert e[i, j] == want


class TestPermutation:
    def test_identity(self):
        g = random_graph(np.random.default_rng(7), 8, 2, 4, 0.4)
        h = permute_graph(g, list(range(8)))
        assert h.node_types == g.node_types
        assert sorted(h.edges) == sorted(g.edges)

    def test_inverse_composition(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 9, 2, 4, 0.4)
        perm = rng.permutation(9).tolist()
        inv = [0] * 9
        for old, new in enumerate(perm):
            inv[new] = old
        h = permute_graph(permute_graph(g, perm), inv)
        assert h.node_types == g.node_types
        assert sorted(h.edges) == sorted(g.edges)

    def test_non_bijection_rejected(self):
        g = random_graph(np.random.default_rng(9), 4, 1, 4, 0.5)
        with pytest.raises(ValueError):
            permute_graph(g, [0, 0, 1, 2])

    def test_vn_must_stay_fixed(self):
        g = attach_virtual_node(random_graph(np.random.default_rng(10), 4, 1, 4, 0.5))
        with pytest.raises(ValueError):
            permute_graph(g, [1, 0, 2, 3, 4])

    def test_index_matrices_equivariant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, 3, 4, float(rng.uniform(0.1, 0.6)))
            perm = rng.permutation(n).tolist()
            h = permute_graph(g, perm)
            p = np.array(perm)
            t_g = topology_indices(bfs_all_pairs(g), 3)
            t_h = topology_indices(bfs_all_pairs(h), 3)
            np.testing.assert_array_equal(t_h[np.ix_(p, p)], t_g)
            e_g = edge_indices(g)
            e_h = edge_indices(h)
            np.testing.assert_array_equal(e_h[np.ix_(p, p)], e_g)

    def test_sample_labels_follow(self):
        g = Graph(node_types=[0, 1, 2], edges=[(0, 1, 0)], num_edge_types=1)
        s = GraphSample(graph=g, node_labels=[0, 1, 2])
        out = permute_sample(s, [2, 0, 1])
        assert out.node_labels == [1, 2, 0]
        assert out.graph.node_types == (1, 2, 0)
