"""Attention variants: naive/fast equivalence, reductions, the contrast
with feature-independent biases, and block-level properties."""

import math

import numpy as np
import pytest

from grpe.attention import (AttentionParams, PEMode, TransformerBlock,
                            _graphormer_scores_fwd, _scores_fwd, _values_fwd,
                            merge_heads, mha_forward, score_dot_counter, split_heads)
from grpe.encodings import init_tables
from grpe.errors import ConfigError
from grpe.graph import (Graph, GraphSample, attach_virtual_node, bfs_all_pairs,
                        edge_indices, topology_indices)
from grpe.model import ModelConfig, build_model
from grpe.synthetic import random_graph
from grpe.tensor import Parameter, finite_diff_check, softmax_lastdim


def table_cfg(L=3, e=2, d_z=16, heads=2, **kw):
    base = dict(layers=1, d_z=d_z, ffn_dim=d_z, heads=heads, L=L,
                num_edge_types=e, node_vocab=4, pe_mode="grpe")
    base.update(kw)
    return ModelConfig(**base)


def make_inputs(rng, n, L, e, d_z, seed=0):
    cfg = table_cfg(L=L, e=e, d_z=d_z)
    topo, edge, _, _ = init_tables(cfg, seed)
    g = attach_virtual_node(random_graph(rng, n, e, 4, float(rng.uniform(0.1, 0.6))))
    t_idx = topology_indices(bfs_all_pairs(g), L, has_virtual_node=True)
    e_idx = edge_indices(g)
    m = g.num_nodes
    q = rng.normal(size=(m, d_z))
    k = rng.normal(size=(m, d_z))
    v = rng.normal(size=(m, d_z))
    return topo, edge, t_idx, e_idx, q, k, v


def attn_params(rng, d_x, d_z, heads):
    return AttentionParams(w_query=Parameter(rng.normal(0, 0.1, (d_x, d_z))),
                           w_key=Parameter(rng.normal(0, 0.1, (d_x, d_z))),
                           w_value=Parameter(rng.normal(0, 0.1, (d_x, d_z))),
                           w_out=Parameter(rng.normal(0, 0.1, (d_z, d_z))),
                           heads=heads)


def attention(x, params, kind, t_idx=None, e_idx=None, topo=None, edge=None):
    """One attention layer as the model runs it; returns (z, attention map)."""
    z, cache = mha_forward(x, params, PEMode(kind), t_idx, e_idx, topo, edge, None)
    return z, cache["attn"]


def score_map(q, k, t_idx, e_idx, topo, edge, heads, kind="grpe_fast"):
    """The model's score dispatch on (N, d_z) queries and keys: (H, N, N)."""
    scores, _ = _scores_fwd(PEMode(kind), split_heads(q, heads), split_heads(k, heads),
                            t_idx, e_idx, topo, edge, None)
    return scores


def value_rows(attn, v, t_idx, e_idx, topo, edge, heads, kind="grpe_fast"):
    """The model's value dispatch on (N, d_z) values: (N, d_z), heads merged."""
    zh, _ = _values_fwd(PEMode(kind), attn, split_heads(v, heads), t_idx, e_idx, topo, edge)
    return merge_heads(zh)


def graphormer_map(q, k, t_idx, e_idx, gbias, heads):
    """The scalar-bias score kernel on (N, d_z) queries and keys."""
    scores, _ = _graphormer_scores_fwd(split_heads(q, heads), split_heads(k, heads),
                                       t_idx, e_idx, gbias)
    return scores


class TestPlainAttention:
    def test_single_node(self):
        rng = np.random.default_rng(0)
        params = attn_params(rng, 8, 8, 2)
        x = rng.normal(size=(1, 8))
        z, attn = attention(x, params, "none")
        np.testing.assert_allclose(attn, np.ones((2, 1, 1)))
        want = (x @ params.w_value.value.data) @ params.w_out.value.data
        np.testing.assert_allclose(z, want, atol=1e-12)

    def test_identical_features_uniform_rows(self):
        rng = np.random.default_rng(1)
        params = attn_params(rng, 8, 8, 2)
        x = np.tile(rng.normal(size=(1, 8)), (5, 1))
        _, attn = attention(x, params, "none")
        np.testing.assert_allclose(attn, np.full((2, 5, 5), 0.2), atol=1e-12)

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(2)
        d_z, heads, n = 12, 3, 6
        params = attn_params(rng, d_z, d_z, heads)
        x = rng.normal(size=(n, d_z))
        z, attn = attention(x, params, "none")

        # independent straight-line computation, one head at a time
        dh = d_z // heads
        q = x @ params.w_query.value.data
        k = x @ params.w_key.value.data
        v = x @ params.w_value.value.data
        z_heads = []
        for h in range(heads):
            qs, ks, vs = (m[:, h * dh:(h + 1) * dh] for m in (q, k, v))
            s = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    s[i, j] = float(qs[i] @ ks[j]) / math.sqrt(dh)
            a = np.exp(s - s.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            z_heads.append(a @ vs)
            assert np.abs(a - attn[h]).max() < 1e-12
        want = np.concatenate(z_heads, axis=1) @ params.w_out.value.data
        assert np.abs(z - want).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        params = attn_params(rng, 8, 8, 4)
        _, attn = attention(rng.normal(size=(7, 8)), params, "none")
        np.testing.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-12)


class TestGrpeScores:
    def test_zero_tables_reduce_to_plain(self):
        rng = np.random.default_rng(4)
        topo, edge, t_idx, e_idx, q, k, _ = make_inputs(rng, 7, 3, 2, 16)
        for tables in (topo, edge):
            for p in (tables.query, tables.key, tables.value):
                p.value.data[...] = 0.0
        got = score_map(q, k, t_idx, e_idx, topo, edge, heads=2)
        qh, kh = split_heads(q, 2), split_heads(k, 2)
        plain = (qh @ kh.transpose(0, 2, 1)) * (1.0 / math.sqrt(8))
        np.testing.assert_array_equal(got, plain)
        naive = score_map(q, k, t_idx, e_idx, topo, edge, heads=2, kind="grpe_naive")
        assert np.abs(naive - plain).max() < 1e-12

    def test_zero_features_zero_scores(self):
        rng = np.random.default_rng(5)
        topo, edge, t_idx, e_idx, q, k, _ = make_inputs(rng, 6, 3, 2, 16)
        zq, zk = np.zeros_like(q), np.zeros_like(k)
        for kind in ("grpe_naive", "grpe_fast"):
            np.testing.assert_array_equal(score_map(zq, zk, t_idx, e_idx, topo, edge, heads=2,
                                                    kind=kind),
                                          np.zeros((2, q.shape[0], q.shape[0])))

    def test_fast_equals_naive_randomized(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 33))
            L = int(rng.choice([1, 3, 5]))
            e = int(rng.choice([1, 4]))
            topo, edge, t_idx, e_idx, q, k, _ = make_inputs(
                rng, n, L, e, 16, seed=int(rng.integers(0, 1 << 31)))
            s_f = score_map(q, k, t_idx, e_idx, topo, edge, heads=2)
            s_n = score_map(q, k, t_idx, e_idx, topo, edge, heads=2, kind="grpe_naive")
            worst = max(worst, float(np.abs(s_f - s_n).max()))
        assert worst < 1e-10

    def test_single_bucket_degenerate(self):
        # force every pair into one bucket: scores = dot + per-row constants
        rng = np.random.default_rng(7)
        cfg = table_cfg(L=1, e=1, d_z=8, heads=1)
        topo, edge, _, _ = init_tables(cfg, 0)
        n = 5
        t_idx = np.full((n, n), 2, dtype=np.int64)  # FAR bucket everywhere
        e_idx = np.full((n, n), 1, dtype=np.int64)  # NO_EDGE everywhere
        q = rng.normal(size=(n, 8))
        k = rng.normal(size=(n, 8))
        got = score_map(q, k, t_idx, e_idx, topo, edge, heads=1)[0]
        pq = topo.query.value.data[2]
        pk = topo.key.value.data[2]
        eq = edge.query.value.data[1]
        ek = edge.key.value.data[1]
        want = (q @ k.T + (q @ (pq + eq))[:, None] + (k @ (pk + ek))[None, :]) / math.sqrt(8)
        assert np.abs(got - want).max() < 1e-12

    def test_feature_sensitivity_contrast(self):
        # two pairs share both buckets; the encoding-aware map distinguishes
        # them through features, the scalar-bias map cannot
        rng = np.random.default_rng(8)
        cfg = table_cfg(L=2, e=1, d_z=8, heads=1, pe_mode="graphormer")
        topo, edge, _, gbias = init_tables(cfg, 3)
        n = 4
        t_idx = np.ones((n, n), dtype=np.int64)
        e_idx = np.zeros((n, n), dtype=np.int64)
        q = rng.normal(size=(n, 8))
        k = rng.normal(size=(n, 8))
        s = score_map(q, k, t_idx, e_idx, topo, edge, heads=1, kind="grpe_naive")[0]
        dot = (q @ k.T) / math.sqrt(8)
        a_enc = s - dot
        assert abs(a_enc[0, 1] - a_enc[2, 3]) > 1e-3  # feature-dependent
        g = graphormer_map(q, k, t_idx, e_idx, gbias, heads=1)[0]
        bias = g - dot
        assert abs(bias[0, 1] - bias[2, 3]) < 1e-12  # identical buckets, same bias


class TestGrpeValues:
    def test_zero_tables_reduce_to_weighted_sum(self):
        rng = np.random.default_rng(9)
        topo, edge, t_idx, e_idx, _, _, v = make_inputs(rng, 6, 3, 2, 16)
        for p in (topo.value, edge.value):
            p.value.data[...] = 0.0
        n = v.shape[0]
        attn = softmax_lastdim(rng.normal(size=(2, n, n)))
        got = value_rows(attn, v, t_idx, e_idx, topo, edge, heads=2)
        want = merge_heads(attn @ split_heads(v, 2))
        np.testing.assert_array_equal(got, want)

    def test_identity_attention_picks_diagonal_buckets(self):
        rng = np.random.default_rng(10)
        cfg = table_cfg(L=2, e=2, d_z=8, heads=1)
        topo, edge, _, _ = init_tables(cfg, 1)
        n = 4
        g = attach_virtual_node(random_graph(rng, n - 1, 2, 4, 0.5))
        t_idx = topology_indices(bfs_all_pairs(g), 2, has_virtual_node=True)
        e_idx = edge_indices(g)
        v = rng.normal(size=(n, 8))
        attn = np.eye(n)[None, :, :]
        got = value_rows(attn, v, t_idx, e_idx, topo, edge, heads=1)
        want = v + topo.value.value.data[0] + edge.value.value.data[edge_indices(g)[0, 0]]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_fast_equals_naive_randomized(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 33))
            L = int(rng.choice([1, 3, 5]))
            e = int(rng.choice([1, 4]))
            topo, edge, t_idx, e_idx, _, _, v = make_inputs(
                rng, n, L, e, 16, seed=int(rng.integers(0, 1 << 31)))
            m = v.shape[0]
            attn = softmax_lastdim(rng.normal(size=(2, m, m)))
            z_f = value_rows(attn, v, t_idx, e_idx, topo, edge, heads=2)
            z_n = value_rows(attn, v, t_idx, e_idx, topo, edge, heads=2, kind="grpe_naive")
            worst = max(worst, float(np.abs(z_f - z_n).max()))
        assert worst < 1e-10


class TestGraphormerScores:
    def test_zero_bias_is_plain(self):
        rng = np.random.default_rng(12)
        cfg = table_cfg(L=2, e=2, d_z=8, heads=2, pe_mode="graphormer")
        _, _, _, gbias = init_tables(cfg, 0)
        gbias.b.value.data[...] = 0.0
        gbias.edge_emb.value.data[...] = 0.0
        n = 5
        t_idx = np.zeros((n, n), dtype=np.int64)
        e_idx = np.zeros((n, n), dtype=np.int64)
        q = rng.normal(size=(n, 8))
        k = rng.normal(size=(n, 8))
        got = graphormer_map(q, k, t_idx, e_idx, gbias, heads=2)
        qh, kh = split_heads(q, 2), split_heads(k, 2)
        np.testing.assert_array_equal(got, qh @ kh.transpose(0, 2, 1) / math.sqrt(4))

    def test_matches_per_pair_evaluation(self):
        rng = np.random.default_rng(13)
        cfg = table_cfg(L=3, e=2, d_z=8, heads=2, pe_mode="graphormer")
        _, _, _, gbias = init_tables(cfg, 5)
        g = attach_virtual_node(random_graph(rng, 6, 2, 4, 0.4))
        t_idx = topology_indices(bfs_all_pairs(g), 3, has_virtual_node=True)
        e_idx = edge_indices(g)
        n = g.num_nodes
        q = rng.normal(size=(n, 8))
        k = rng.normal(size=(n, 8))
        got = graphormer_map(q, k, t_idx, e_idx, gbias, heads=2)
        for h in range(2):
            for i in range(n):
                for j in range(n):
                    qs = q[i, h * 4:(h + 1) * 4]
                    ks = k[j, h * 4:(h + 1) * 4]
                    want = (float(qs @ ks) / 2.0
                            + gbias.b.value.data[t_idx[i, j], h]
                            + float(gbias.edge_emb.value.data[e_idx[i, j]]
                                    @ gbias.w.value.data[:, h]))
                    assert abs(got[h, i, j] - want) < 1e-12

    @pytest.mark.parametrize("shared_w", [False, True])
    def test_bias_gradients_match_finite_differences(self, shared_w):
        cfg = table_cfg(L=2, e=2, d_z=8, heads=2, layers=2, pe_mode="graphormer",
                        graphormer_shared_w=shared_w, seed=5)
        model = build_model(cfg)
        rng = np.random.default_rng(15)
        for _, p in model.parameters():  # well away from the small initial values
            p.value.data += rng.normal(0.0, 0.3, p.value.shape)
        gbias = model.graphormer
        assert gbias.w.shape[1] == (1 if shared_w else 2)
        # a second component, so the UNREACHABLE bucket occurs too
        g = random_graph(rng, 7, 2, 4, 0.5)
        g = Graph(node_types=g.node_types + (1, 2), edges=g.edges + ((7, 8, 1),),
                  num_edge_types=2)
        prep = model.prepare(GraphSample(graph=g, target=0.0))
        model.zero_grad()
        _, cache = model.forward_with_cache(prep)
        model.backward(1.0, cache)
        params = [gbias.b, gbias.edge_emb, gbias.w]
        assert all(np.abs(p.grad.data).max() > 1e-3 for p in params)
        assert finite_diff_check(lambda: model.forward(prep), params) < 1e-7


class TestMultiHeadAttention:
    def test_single_head_equals_composition(self):
        rng = np.random.default_rng(14)
        topo, edge, t_idx, e_idx, _, _, _ = make_inputs(rng, 5, 3, 2, 16)
        params = attn_params(rng, 16, 16, 1)
        x = rng.normal(size=(t_idx.shape[0], 16))
        z, _ = attention(x, params, "grpe_fast", t_idx, e_idx, topo, edge)
        q = x @ params.w_query.value.data
        k = x @ params.w_key.value.data
        v = x @ params.w_value.value.data
        s = score_map(q, k, t_idx, e_idx, topo, edge, heads=1)
        attn = softmax_lastdim(s)
        zz = value_rows(attn, v, t_idx, e_idx, topo, edge, heads=1)
        want = zz @ params.w_out.value.data
        np.testing.assert_allclose(z, want, atol=1e-14)

    def test_fast_equals_naive_end_to_end(self):
        rng = np.random.default_rng(15)
        topo, edge, t_idx, e_idx, _, _, _ = make_inputs(rng, 9, 3, 2, 16)
        params = attn_params(rng, 16, 16, 4)
        x = rng.normal(size=(t_idx.shape[0], 16))
        z_f, _ = attention(x, params, "grpe_fast", t_idx, e_idx, topo, edge)
        z_n, _ = attention(x, params, "grpe_naive", t_idx, e_idx, topo, edge)
        assert np.abs(z_f - z_n).max() < 1e-10

    def test_mode_none_equals_plain(self):
        # grpe with every encoding term switched off is plain attention:
        # bit for bit on the fast path, to rounding on the per-pair loop
        rng = np.random.default_rng(16)
        topo, edge, t_idx, e_idx, _, _, _ = make_inputs(rng, 5, 3, 2, 16)
        params = attn_params(rng, 16, 16, 2)
        x = rng.normal(size=(t_idx.shape[0], 16))
        z_plain, _ = attention(x, params, "none")
        off = dict(use_topology=False, use_edge=False, use_value=False)
        z_fast, _ = mha_forward(x, params, PEMode("grpe_fast", **off),
                                t_idx, e_idx, topo, edge, None)
        z_naive, _ = mha_forward(x, params, PEMode("grpe_naive", **off),
                                 t_idx, e_idx, topo, edge, None)
        np.testing.assert_array_equal(z_fast, z_plain)
        assert np.abs(z_naive - z_plain).max() < 1e-12

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="rotary"):
            PEMode("rotary")


class TestDotCounter:
    def test_fast_path_beats_naive_budget(self):
        rng = np.random.default_rng(19)
        n, L, e = 256, 5, 4
        cfg = table_cfg(L=L, e=e, d_z=16, heads=1)
        topo, edge, _, _ = init_tables(cfg, 0)
        t_idx = rng.integers(0, L + 4, size=(n, n))
        e_idx = rng.integers(0, e + 3, size=(n, n))
        q = rng.normal(size=(n, 16))
        k = rng.normal(size=(n, 16))

        score_dot_counter.reset()
        score_map(q, k, t_idx, e_idx, topo, edge, heads=1, kind="grpe_naive")
        naive_count = score_dot_counter.total
        score_dot_counter.reset()
        score_map(q, k, t_idx, e_idx, topo, edge, heads=1)
        fast_count = score_dot_counter.total

        assert naive_count == 4 * n * n
        assert fast_count <= n * ((L + 4) + (e + 3)) * 2
        assert naive_count / fast_count >= 9


class TestTransformerBlock:
    def _block(self, rng, d_z, heads, topo, edge, zero_out=False):
        from grpe.attention import BlockParams
        params = BlockParams(
            attn=attn_params(rng, d_z, d_z, heads),
            ln1_gain=Parameter(np.ones(d_z)),
            ln1_bias=Parameter(np.zeros(d_z)),
            ln2_gain=Parameter(np.ones(d_z)),
            ln2_bias=Parameter(np.zeros(d_z)),
            ffn_w1=Parameter(rng.normal(0, 0.1, (d_z, d_z))),
            ffn_b1=Parameter(np.zeros(d_z)),
            ffn_w2=Parameter(rng.normal(0, 0.1, (d_z, d_z))),
            ffn_b2=Parameter(np.zeros(d_z)))
        if zero_out:
            params.attn.w_out.value.data[...] = 0.0
            params.ffn_w2.value.data[...] = 0.0
        return TransformerBlock(params, topology=topo, edge=edge)

    def test_zeroed_projections_make_identity(self):
        rng = np.random.default_rng(20)
        topo, edge, t_idx, e_idx, _, _, _ = make_inputs(rng, 6, 3, 2, 16)
        block = self._block(rng, 16, 2, topo, edge, zero_out=True)
        x = rng.normal(size=(t_idx.shape[0], 16))
        out, _ = block.forward(x, PEMode("grpe_fast"), t_idx, e_idx)
        np.testing.assert_array_equal(out, x)

    def test_gradient_check_through_block(self):
        rng = np.random.default_rng(21)
        topo, edge, t_idx, e_idx, _, _, _ = make_inputs(rng, 5, 3, 2, 16)
        block = self._block(rng, 16, 2, topo, edge)
        n = t_idx.shape[0]
        x = rng.normal(size=(n, 16))
        w = rng.normal(size=(n, 16))
        mode = PEMode("grpe_fast")

        def loss_fn():
            out, _ = block.forward(x, mode, t_idx, e_idx)
            return float((out * w).sum())

        for p in (block.params.attn.w_query, block.params.ffn_w1, topo.query,
                  edge.value, block.params.ln1_gain):
            p.zero_grad()
        out, cache = block.forward(x, mode, t_idx, e_idx)
        block.backward(w, cache)
        from grpe.tensor import finite_diff_check
        params = [block.params.attn.w_query, block.params.attn.w_out,
                  block.params.ffn_w1, block.params.ffn_b2,
                  block.params.ln1_gain, block.params.ln2_bias,
                  topo.query, topo.value, edge.key, edge.value]
        err = finite_diff_check(loss_fn, params, eps=1e-6, max_coords_per_param=20, seed=0)
        assert err < 1e-5

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = attach_virtual_node(random_graph(rng, n, 2, 4, 0.5))
            t_idx = topology_indices(bfs_all_pairs(g), 3, has_virtual_node=True)
            e_idx = edge_indices(g)
            cfg = table_cfg(L=3, e=2, d_z=16, heads=2)
            topo, edge, _, _ = init_tables(cfg, int(rng.integers(0, 1 << 31)))
            block = self._block(rng, 16, 2, topo, edge)
            m = g.num_nodes
            x = rng.normal(size=(m, 16))
            perm = np.concatenate([[0], 1 + rng.permutation(m - 1)])
            out, _ = block.forward(x, PEMode("grpe_fast"), t_idx, e_idx)
            out_p, _ = block.forward(x[np.argsort(perm)],
                                     PEMode("grpe_fast"),
                                     t_idx[np.ix_(np.argsort(perm), np.argsort(perm))],
                                     e_idx[np.ix_(np.argsort(perm), np.argsort(perm))])
            np.testing.assert_allclose(out_p, out[np.argsort(perm)], atol=1e-10)


class TestSharedTables:
    def test_blocks_share_single_parameter_instances(self):
        cfg = ModelConfig(layers=3, d_z=16, ffn_dim=16, heads=2, L=3,
                          num_edge_types=2, node_vocab=4, pe_mode="grpe")
        model = build_model(cfg)
        first = model.blocks[0]
        for blk in model.blocks[1:]:
            assert blk.topology is first.topology
            assert blk.edge is first.edge
        assert model.blocks[0].topology.query is model.topology.query

    def test_gradients_from_all_layers_accumulate(self):
        rng = np.random.default_rng(23)
        cfg = ModelConfig(layers=2, d_z=16, ffn_dim=16, heads=2, L=3,
                          num_edge_types=2, node_vocab=4, pe_mode="grpe", seed=4)
        model = build_model(cfg)
        g = random_graph(rng, 5, 2, 4, 0.5)
        prep = model.prepare(GraphSample(graph=g, target=1.0))
        model.zero_grad()
        pred, cache = model.forward_with_cache(prep)
        model.backward(1.0, cache)
        two_layer_grad = model.topology.query.grad.data.copy()

        cfg1 = ModelConfig(layers=1, d_z=16, ffn_dim=16, heads=2, L=3,
                           num_edge_types=2, node_vocab=4, pe_mode="grpe", seed=4)
        model1 = build_model(cfg1)
        model1.zero_grad()
        pred1, cache1 = model1.forward_with_cache(model1.prepare(GraphSample(graph=g, target=1.0)))
        model1.backward(1.0, cache1)
        one_layer_grad = model1.topology.query.grad.data
        # the shared table collects contributions from every layer
        assert np.abs(two_layer_grad).sum() > 0
        assert not np.allclose(two_layer_grad, one_layer_grad)
