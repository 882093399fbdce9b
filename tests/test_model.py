"""Model assembly, readouts, losses, and the synthetic task generators."""

import math

import numpy as np
import pytest

from grpe.errors import ConfigError
from grpe.graph import Graph, GraphSample, permute_sample
from grpe.model import ModelConfig, PreparedSample, build_model, loss, loss_and_grad
from grpe.synthetic import (degree_classes, floyd_warshall, make_synthetic,
                            random_graph, spd2_fraction)


def small_cfg(**kw):
    base = dict(layers=2, d_z=16, ffn_dim=16, heads=2, L=3, num_edge_types=3,
                node_vocab=6, seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_presets_match_published_sizes(self):
        tiny = ModelConfig.preset("tiny")
        assert (tiny.layers, tiny.d_z, tiny.ffn_dim, tiny.heads) == (4, 64, 64, 8)
        small = ModelConfig.preset("small")
        assert (small.layers, small.d_z, small.ffn_dim, small.heads) == (12, 80, 80, 8)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.preset("huge")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_z=30, heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(pe_mode="spectral")
        with pytest.raises(ConfigError):
            ModelConfig(L=0)

    def test_small_parameter_count_near_published(self):
        cfg = ModelConfig.preset("small", node_vocab=32, num_edge_types=4)
        model = build_model(cfg)
        count = model.num_parameters()
        assert abs(count - 489_000) / 489_000 < 0.15

    def test_tiny_parameter_count_near_published(self):
        cfg = ModelConfig.preset("tiny", node_vocab=32, num_edge_types=4)
        model = build_model(cfg)
        assert abs(model.num_parameters() - 106_000) / 106_000 < 0.15


class TestBuildModel:
    def test_tiny_has_four_blocks_sharing_tables(self):
        model = build_model(ModelConfig.preset("tiny"))
        assert len(model.blocks) == 4
        assert all(b.topology is model.topology for b in model.blocks)
        assert all(b.edge is model.edge for b in model.blocks)

    def test_same_seed_same_first_forward(self):
        g = random_graph(np.random.default_rng(0), 6, 3, 6, 0.5)
        sample = GraphSample(graph=g, target=0.5)
        m1 = build_model(small_cfg(seed=9))
        m2 = build_model(small_cfg(seed=9))
        assert m1.forward(m1.prepare(sample)) == m2.forward(m2.prepare(sample))

    def test_different_seed_different_params(self):
        m1 = build_model(small_cfg(seed=1))
        m2 = build_model(small_cfg(seed=2))
        assert not np.array_equal(m1.head_w.value.data, m2.head_w.value.data)


class TestForward:
    def test_single_real_node_depends_on_type(self):
        model = build_model(small_cfg())
        preds = set()
        for t in range(3):
            g = Graph(node_types=[t], edges=[], num_edge_types=3)
            preds.add(model.forward(model.prepare(GraphSample(graph=g, target=0.0))))
        assert len(preds) == 3  # deterministic function of the node type

    def test_requires_virtual_node(self):
        model = build_model(small_cfg())
        g = random_graph(np.random.default_rng(1), 4, 3, 6, 0.5)
        prep = model.prepare(GraphSample(graph=g, target=0.0))
        bare = PreparedSample(graph=g, topo_idx=prep.topo_idx[1:, 1:],
                              edge_idx=prep.edge_idx[1:, 1:], target=0.0)
        with pytest.raises(ConfigError):
            model.forward(bare)

    def test_bfs_only_for_modes_that_read_buckets(self, monkeypatch):
        from grpe import graph as graphs
        calls = []
        real = graphs.bounded_distances
        monkeypatch.setattr(graphs, "bounded_distances",
                            lambda *args: calls.append(1) or real(*args))
        s = GraphSample(graph=random_graph(np.random.default_rng(3), 6, 3, 6, 0.5), target=0.0)
        for mode, reads in (("none", False), ("laplacian", False),
                            ("grpe", True), ("graphormer", True)):
            calls.clear()
            model = build_model(small_cfg(pe_mode=mode, lap_pe_dim=4))
            prep = model.prepare(s)
            assert bool(calls) == reads, mode
            assert (prep.topo_idx is not None) == reads and (prep.edge_idx is not None) == reads
            assert math.isfinite(model.forward(prep))

    def test_prepare_validates_no_graph_again(self, monkeypatch):
        from grpe import graph as graphs
        s = GraphSample(graph=random_graph(np.random.default_rng(3), 6, 3, 6, 0.5), target=0.0)
        calls = []
        real = graphs.Graph.__post_init__
        monkeypatch.setattr(graphs.Graph, "__post_init__",
                            lambda self: calls.append(1) or real(self))
        for edge_types in (3, 5):  # the sample's own universe, then a wider one
            calls.clear()
            prep = build_model(small_cfg(num_edge_types=edge_types)).prepare(s)
            assert calls == [] and prep.graph.num_edge_types == edge_types
            assert prep.graph.edges == tuple((i + 1, j + 1, t) for i, j, t in s.graph.edges)

    def test_task_target_mismatch(self):
        model = build_model(small_cfg())
        g = random_graph(np.random.default_rng(2), 4, 3, 6, 0.5)
        with pytest.raises(ConfigError):
            model.prepare(GraphSample(graph=g, node_labels=[0] * 4))

    def test_graph_level_permutation_invariance(self):
        rng = np.random.default_rng(3)
        model = build_model(small_cfg(seed=5))
        for _ in range(25):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 3, 6, float(rng.uniform(0.1, 0.6)))
            s = GraphSample(graph=g, target=0.0)
            p1 = model.forward(model.prepare(s))
            p2 = model.forward(model.prepare(permute_sample(s, rng.permutation(n).tolist())))
            assert abs(p1 - p2) < 1e-10

    def test_node_level_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        model = build_model(small_cfg(task="node_classification", num_classes=3, seed=5))
        for _ in range(25):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 3, 6, float(rng.uniform(0.1, 0.6)))
            s = GraphSample(graph=g, node_labels=degree_classes(g))
            perm = rng.permutation(n).tolist()
            out = model.forward(model.prepare(s))
            out_p = model.forward(model.prepare(permute_sample(s, perm)))
            assert np.abs(out_p[np.array(perm)] - out).max() < 1e-10

    def test_zero_tables_match_vanilla_prediction(self):
        g = random_graph(np.random.default_rng(5), 7, 3, 6, 0.4)
        s = GraphSample(graph=g, target=0.0)
        m_grpe = build_model(small_cfg(pe_mode="grpe", seed=11))
        m_none = build_model(small_cfg(pe_mode="none", seed=11))
        for tables in (m_grpe.topology, m_grpe.edge):
            for p in (tables.query, tables.key, tables.value):
                p.value.data[...] = 0.0
        assert abs(m_grpe.forward(m_grpe.prepare(s))
                   - m_none.forward(m_none.prepare(s))) < 1e-12

    def test_degree_toggle_changes_predictions_iff_on(self):
        g = random_graph(np.random.default_rng(6), 6, 3, 6, 0.5)
        s = GraphSample(graph=g, target=0.0)
        base = build_model(small_cfg(pe_mode="graphormer", use_degree=False, seed=2))
        with_deg = build_model(small_cfg(pe_mode="graphormer", use_degree=True, seed=2))
        p_off = base.forward(base.prepare(s))
        p_on = with_deg.forward(with_deg.prepare(s))
        assert p_off != p_on
        again = build_model(small_cfg(pe_mode="graphormer", use_degree=False, seed=2))
        assert base.forward(base.prepare(s)) == again.forward(again.prepare(s))

    def test_traces_row_stochastic_per_layer(self):
        model = build_model(small_cfg())
        g = random_graph(np.random.default_rng(7), 5, 3, 6, 0.5)
        _, maps = model.forward(model.prepare(GraphSample(graph=g, target=0.0)),
                                want_trace=True)
        assert len(maps) == model.config.layers
        for attn in maps:
            np.testing.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-12)

    def test_traced_maps_fast_equal_naive(self):
        # same weights, well away from their small initial values
        rng = np.random.default_rng(17)
        fast = build_model(small_cfg(seed=3))
        naive = build_model(small_cfg(seed=3, fast=False))
        for (_, p), (_, q) in zip(fast.parameters(), naive.parameters()):
            p.value.data += rng.normal(0.0, 0.3, p.value.shape)
            q.value.data[...] = p.value.data
        preps = [fast.prepare(GraphSample(graph=random_graph(rng, n, 3, 6, 0.5), target=0.0))
                 for n in (4, 8, 6)]
        sizes = [p.graph.num_nodes for p in preps]
        for group in (preps[1], preps):
            _, maps_f = fast.forward(group, want_trace=True)
            _, maps_n = naive.forward(group, want_trace=True)
            assert len(maps_f) == len(maps_n) == fast.config.layers
            for a_f, a_n in zip(maps_f, maps_n):
                assert np.abs(a_f - a_n).max() < 1e-10
        for a_f, a_n in zip(maps_f, maps_n):  # the packed group: (H, B, N, N)
            assert a_f.shape == (2, len(sizes), max(sizes), max(sizes))
            for b, size in enumerate(sizes):
                assert (a_f[:, b, :, size:] == 0.0).all()
                assert (a_n[:, b, :, size:] == 0.0).all()


class TestLoss:
    def test_exact_prediction_zero(self):
        assert loss(0.7, 0.7, "graph_regression") == 0.0

    def test_unit_offset_unit_mae(self):
        assert loss(1.5, 0.5, "graph_regression") == 1.0
        assert loss(-0.5, 0.5, "graph_regression") == 1.0

    def test_uniform_logits_cross_entropy(self):
        logits = np.zeros((4, 6))
        labels = np.array([0, 1, 2, 3])
        assert abs(loss(logits, labels, "node_classification") - math.log(6)) < 1e-12

    def test_gradient_of_cross_entropy(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        _, got = loss_and_grad(logits, labels, "node_classification")
        eps = 1e-6
        for i in range(5):
            for c in range(3):
                logits[i, c] += eps
                up = loss(logits, labels, "node_classification")
                logits[i, c] -= 2 * eps
                down = loss(logits, labels, "node_classification")
                logits[i, c] += eps
                assert abs((up - down) / (2 * eps) - got[i, c]) < 1e-6

    def test_nan_prediction_rejected(self):
        from grpe.errors import NumericError
        with pytest.raises(NumericError):
            loss(float("nan"), 0.0, "graph_regression")


class TestSynthetic:
    def test_triangle_spd2_zero(self):
        tri = Graph(node_types=[0, 0, 0], edges=[(0, 1, 0), (1, 2, 0), (0, 2, 0)],
                    num_edge_types=1)
        assert spd2_fraction(tri) == 0.0

    def test_path_spd2_third(self):
        path = Graph(node_types=[0, 0, 0], edges=[(0, 1, 0), (1, 2, 0)], num_edge_types=1)
        assert abs(spd2_fraction(path) - 1 / 3) < 1e-15

    def test_degree_classes_buckets(self):
        star = Graph(node_types=[0] * 6, edges=[(0, i, 0) for i in range(1, 6)],
                     num_edge_types=1)
        labels = degree_classes(star)
        assert labels[0] == 2      # degree 5
        assert labels[1:] == [0] * 5  # leaves have degree 1

    def test_targets_match_independent_recomputation(self):
        # second brute-force pass: BFS over adjacency sets, then counting
        from collections import deque
        samples = make_synthetic("spd2_fraction", 250, (4, 14), seed=77)
        samples += make_synthetic("degree_class", 250, (4, 14), seed=78)
        for s in samples:
            g = s.graph
            n = g.num_nodes
            adj = {i: set() for i in range(n)}
            for i, j, _ in g.edges:
                adj[i].add(j)
                adj[j].add(i)
            if s.target is not None:
                pairs2 = 0
                for src in range(n):
                    seen = {src: 0}
                    q = deque([src])
                    while q:
                        u = q.popleft()
                        for w in adj[u]:
                            if w not in seen:
                                seen[w] = seen[u] + 1
                                q.append(w)
                    pairs2 += sum(1 for t, d in seen.items() if d == 2 and t > src)
                assert abs(s.target - pairs2 / (n * (n - 1) / 2)) < 1e-12
            else:
                for i in range(n):
                    d = len(adj[i])
                    want = 0 if d <= 1 else (1 if d <= 3 else 2)
                    assert s.node_labels[i] == want

    def test_determinism(self):
        a = make_synthetic("spd2_fraction", 20, (5, 9), seed=3)
        b = make_synthetic("spd2_fraction", 20, (5, 9), seed=3)
        for s, t in zip(a, b):
            assert s.graph == t.graph and s.target == t.target

    def test_degenerate_size_range_rejected(self):
        with pytest.raises(ConfigError):
            make_synthetic("spd2_fraction", 5, (9, 4), seed=0)
        with pytest.raises(ConfigError):
            make_synthetic("spd2_fraction", 5, (1, 4), seed=0)

    def test_floyd_warshall_disconnected(self):
        g = Graph(node_types=[0, 0, 0], edges=[(0, 1, 0)], num_edge_types=1)
        d = floyd_warshall(g)
        assert d[0, 1] == 1 and d[0, 2] == -1 and d[2, 2] == 0
