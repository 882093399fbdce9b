"""Encoding tables, node embeddings, Laplacian positional encodings."""

import math

import numpy as np
import pytest

from grpe.encodings import (DEGREE_CLAMP, embed_nodes, embed_nodes_backward,
                            init_tables, laplacian_pe, normalized_laplacian,
                            sign_flip_augment)
from grpe.errors import ConfigError, ShapeError
from grpe.graph import Graph, attach_virtual_node, permute_graph
from grpe.model import ModelConfig
from grpe.synthetic import random_graph


def cfg(**kw):
    base = dict(layers=1, d_z=16, ffn_dim=16, heads=4, L=5, num_edge_types=4,
                node_vocab=6, pe_mode="grpe")
    base.update(kw)
    return ModelConfig(**base)


class TestInitTables:
    def test_deterministic(self):
        t1, e1, n1, _ = init_tables(cfg(), 123)
        t2, e2, n2, _ = init_tables(cfg(), 123)
        np.testing.assert_array_equal(t1.query.value.data, t2.query.value.data)
        np.testing.assert_array_equal(e1.value.value.data, e2.value.value.data)
        np.testing.assert_array_equal(n1.type_table.value.data, n2.type_table.value.data)

    def test_row_counts(self):
        topo, edge, nodes, _ = init_tables(cfg(L=5, num_edge_types=4), 0)
        # L = 5 gives 5 + 4 bucket rows; E = 4 gives 4 + 3
        for p in (topo.query, topo.key, topo.value):
            assert p.shape == (9, 16)
        for p in (edge.query, edge.key, edge.value):
            assert p.shape == (7, 16)
        assert nodes.type_table.shape == (7, 16)  # vocab 6 + reserved VN row
        assert nodes.degree_table.shape == (DEGREE_CLAMP, 16)

    def test_graphormer_only_when_requested(self):
        _, _, _, g = init_tables(cfg(), 0)
        assert g is None
        _, _, _, g = init_tables(cfg(pe_mode="graphormer"), 0)
        assert g.b.shape == (9, 4)
        assert g.edge_emb.shape == (7, 16)
        assert g.w.shape == (16, 4)

    def test_graphormer_shared_w(self):
        _, _, _, g = init_tables(cfg(pe_mode="graphormer", graphormer_shared_w=True), 0)
        assert g.w.shape == (16, 1)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            init_tables(cfg(d_z=15, heads=4), 0)

    def test_init_statistics(self):
        topo, edge, nodes, _ = init_tables(cfg(d_z=128, node_vocab=700), 0)
        entries = np.concatenate([p.value.data.ravel() for p in
                                  (topo.query, topo.key, topo.value,
                                   edge.query, edge.key, edge.value,
                                   nodes.type_table, nodes.degree_table)])
        assert entries.size > 1e5
        # sample mean within 3 sigma of 0 for normal(0, 0.02)
        assert abs(entries.mean()) < 3 * 0.02 / math.sqrt(entries.size)
        assert abs(entries.std() - 0.02) < 0.002


class TestEmbedNodes:
    def test_equal_types_equal_rows(self):
        g = Graph(node_types=[2, 2], edges=[], num_edge_types=0)
        _, _, nodes, _ = init_tables(cfg(), 0)
        x = embed_nodes(g, nodes, use_degree=False)
        np.testing.assert_array_equal(x[0], x[1])

    def test_isolated_degree_row(self):
        g = Graph(node_types=[1, 1], edges=[(0, 1, 0)], num_edge_types=1)
        iso = Graph(node_types=[1], edges=[], num_edge_types=1)
        _, _, nodes, _ = init_tables(cfg(), 0)
        x = embed_nodes(iso, nodes, use_degree=True)
        want = nodes.type_table.value.data[1] + nodes.degree_table.value.data[0]
        np.testing.assert_array_equal(x[0], want)
        x2 = embed_nodes(g, nodes, use_degree=True)
        want2 = nodes.type_table.value.data[1] + nodes.degree_table.value.data[1]
        np.testing.assert_array_equal(x2[0], want2)

    def test_vn_uses_reserved_row(self):
        g = attach_virtual_node(Graph(node_types=[0], edges=[], num_edge_types=0))
        _, _, nodes, _ = init_tables(cfg(), 0)
        x = embed_nodes(g, nodes, use_degree=False)
        np.testing.assert_array_equal(x[0], nodes.type_table.value.data[6])

    def test_out_of_vocab_rejected(self):
        g = Graph(node_types=[6], edges=[], num_edge_types=0)
        _, _, nodes, _ = init_tables(cfg(), 0)  # vocab is 6, valid types 0..5
        with pytest.raises(ConfigError, match="vocabulary"):
            embed_nodes(g, nodes, use_degree=False)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        _, _, nodes, _ = init_tables(cfg(), 0)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, 2, 6, 0.4)
            perm = rng.permutation(n).tolist()
            x = embed_nodes(g, nodes, use_degree=True)
            xp = embed_nodes(permute_graph(g, perm), nodes, use_degree=True)
            np.testing.assert_array_equal(xp[np.array(perm)], x)

    def test_backward_scatters_into_tables(self):
        g = Graph(node_types=[3, 3, 1], edges=[(0, 1, 0)], num_edge_types=1)
        _, _, nodes, _ = init_tables(cfg(), 0)
        d_x = np.ones((3, 16))
        embed_nodes_backward(d_x, g, nodes, use_degree=False)
        np.testing.assert_array_equal(nodes.type_table.grad.data[3], 2 * np.ones(16))
        np.testing.assert_array_equal(nodes.type_table.grad.data[1], np.ones(16))
        np.testing.assert_array_equal(nodes.type_table.grad.data[0], np.zeros(16))


class TestLaplacianPE:
    def test_connected_graph_null_eigenvalue(self):
        from grpe.linalg import jacobi_eigh
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            # ring plus random chords: connected by construction
            edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
            for _ in range(n):
                i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
                edges.add((i, j))
            g = Graph(node_types=[0] * n,
                      edges=[(min(i, j), max(i, j), 0) for i, j in edges],
                      num_edge_types=1)
            w, _ = jacobi_eigh(normalized_laplacian(g))
            assert abs(w[0]) < 1e-10

    def test_k2_eigenvalues(self):
        g = Graph(node_types=[0, 0], edges=[(0, 1, 0)], num_edge_types=1)
        from grpe.linalg import jacobi_eigh
        w, _ = jacobi_eigh(normalized_laplacian(g))
        np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-12)

    def test_residuals_random_graph(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(rng, 12, 1, 4, 0.35)
            lap = normalized_laplacian(g)
            pe = laplacian_pe(g, 12)
            from grpe.linalg import jacobi_eigh
            w, _ = jacobi_eigh(lap)
            for c in range(12):
                resid = np.abs(lap @ pe[:, c] - w[c] * pe[:, c]).max()
                assert resid < 1e-8

    def test_sign_convention(self):
        g = random_graph(np.random.default_rng(3), 10, 1, 4, 0.4)
        pe = laplacian_pe(g, 5)
        for c in range(5):
            j = np.argmax(np.abs(pe[:, c]))
            assert pe[j, c] > 0

    def test_vn_row_zero(self):
        g = attach_virtual_node(random_graph(np.random.default_rng(4), 6, 1, 4, 0.5))
        pe = laplacian_pe(g, 4)
        assert pe.shape == (7, 4)
        np.testing.assert_array_equal(pe[0], np.zeros(4))

    def test_k_too_large_rejected(self):
        g = random_graph(np.random.default_rng(5), 4, 1, 4, 0.5)
        with pytest.raises(ShapeError):
            laplacian_pe(g, 5)


class TestSignFlip:
    def test_all_plus_seed_is_identity(self):
        pe = np.random.default_rng(6).normal(size=(5, 3))
        for seed in range(200):
            flips = np.random.default_rng(seed).integers(0, 2, size=3) * 2 - 1
            if np.all(flips == 1):
                out = sign_flip_augment(pe, seed)
                np.testing.assert_array_equal(out, pe)
                return
        pytest.fail("no all-plus seed found in 200 tries")

    def test_involution_with_same_seed(self):
        pe = np.random.default_rng(7).normal(size=(6, 4))
        once = sign_flip_augment(pe, 11)
        twice = sign_flip_augment(once, 11)
        np.testing.assert_array_equal(twice, pe)

    def test_loss_distribution_symmetric_under_global_flip(self):
        # flips form a group: augmenting pe and -pe gives the same loss
        # distribution, so Monte-Carlo means agree within sampling noise
        from grpe.graph import GraphSample
        from grpe.model import build_model, loss_and_grad

        ring = Graph(node_types=[0] * 8,
                     edges=[(i, (i + 1) % 8, 0) for i in range(8)], num_edge_types=1)
        config = cfg(pe_mode="laplacian", num_edge_types=1, lap_pe_dim=4, seed=3)
        model = build_model(config)
        prep = model.prepare(GraphSample(graph=ring, target=0.3))
        base_pe = prep.input_pe

        def mean_loss(pe0):
            vals = []
            for seed in range(64):
                flipped = sign_flip_augment(pe0, seed)
                from dataclasses import replace
                pred = model.forward(replace(prep, input_pe=flipped))
                vals.append(loss_and_grad(pred, prep.target, "graph_regression")[0])
            return np.mean(vals), np.std(vals)

        m1, s1 = mean_loss(base_pe)
        m2, s2 = mean_loss(-base_pe)
        sigma = math.sqrt(s1 ** 2 + s2 ** 2) / math.sqrt(64)
        assert abs(m1 - m2) <= 3 * max(sigma, 1e-12)
