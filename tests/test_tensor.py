"""Tensor core and the raw kernels the model runs: softmax and LayerNorm
against closed forms and central differences, the row gather/scatter of
the embeddings and the fast bucket kernels against explicit loops, the
projection products of attention against central differences, and the
eigensolver against its residual identities."""

import warnings

import numpy as np
import pytest

from grpe.attention import (AttentionParams, PEMode, _gather_buckets, _scatter_buckets,
                            mha_backward, mha_forward)
from grpe.encodings import (DEGREE_CLAMP, embed_nodes, embed_nodes_backward, init_tables,
                            normalized_laplacian)
from grpe.errors import ConfigError, NumericError, ShapeError
from grpe.graph import Graph, attach_virtual_node
from grpe.linalg import jacobi_eigh
from grpe.model import ModelConfig, build_model
from grpe.synthetic import random_graph
from grpe.tensor import (Parameter, Tensor, finite_diff_check, layer_norm_rows,
                         layer_norm_rows_backward, softmax_lastdim,
                         softmax_lastdim_backward)


def central_diff(f, x, eps=1e-6):
    """Numerical gradient of a scalar function of a flat numpy array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + eps
        fp = f()
        x.flat[i] = orig - eps
        fm = f()
        x.flat[i] = orig
        g.flat[i] = (fp - fm) / (2 * eps)
    return g


def node_tables(vocab=6, d_z=16):
    cfg = ModelConfig(layers=1, d_z=d_z, ffn_dim=d_z, heads=4, L=3,
                      num_edge_types=1, node_vocab=vocab)
    return init_tables(cfg, 0)[2]


class TestTensorInvariants:
    def test_shape_tracks_data(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.size == 4

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_parameter_grad_shape_and_zero(self):
        p = Parameter(np.ones((3, 2)))
        assert p.grad.shape == p.value.shape
        p.grad.data += 5.0
        p.zero_grad()
        assert np.all(p.grad.data == 0.0)


class TestMatmul:
    """The projection products of one attention layer."""

    @staticmethod
    def params(rng, d_x, d_z, heads):
        return AttentionParams(*(Parameter(rng.normal(0, 0.5, shape))
                                 for shape in [(d_x, d_z)] * 3 + [(d_z, d_z)]),
                               heads=heads)

    def test_shape_error(self):
        params = self.params(np.random.default_rng(0), 4, 4, 1)
        with pytest.raises(ShapeError):
            mha_forward(np.zeros((2, 3)), params, PEMode("none"), None, None, None, None, None)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        params = self.params(rng, 4, 6, 2)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 6))  # random projection makes the loss scalar
        mode = PEMode("none")

        def f():
            out, _ = mha_forward(x, params, mode, None, None, None, None, None)
            return float((out * w).sum())

        _, cache = mha_forward(x, params, mode, None, None, None, None, None)
        dx = mha_backward(w, cache)
        np.testing.assert_allclose(dx, central_diff(f, x), rtol=1e-6, atol=1e-9)
        for p in (params.w_query, params.w_key, params.w_value, params.w_out):
            np.testing.assert_allclose(p.grad.data, central_diff(f, p.value.data),
                                       rtol=1e-6, atol=1e-9)


class TestSoftmaxRows:
    def test_equal_logits_uniform(self):
        out = softmax_lastdim(np.array([[3.5, 3.5, 3.5]]))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_stability_at_large_magnitudes(self):
        out = softmax_lastdim(np.array([[1e4, 1e4 - 1000.0]]))
        assert abs(out[0, 0] - 1.0) < 1e-12
        assert out[0, 1] < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = softmax_lastdim(rng.normal(scale=40.0, size=(50, 7)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_row_dimension_rejected(self):
        with pytest.raises(ValueError):
            softmax_lastdim(np.zeros((3, 0)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def f():
            e = np.exp(x - x.max(axis=1, keepdims=True))
            return float((e / e.sum(axis=1, keepdims=True) * w).sum())

        dx = softmax_lastdim_backward(w, softmax_lastdim(x))
        np.testing.assert_allclose(dx, central_diff(f, x), rtol=1e-6, atol=1e-9)


class TestGatherRows:
    """Row gathers by index and their scatter-add backwards: the embedding
    lookups, and the per-head bucket scatter of the fast kernels."""

    def test_constant_index(self):
        nodes = node_tables()
        x = embed_nodes(Graph(node_types=[2] * 5, edges=[], num_edge_types=1), nodes)
        assert x.shape == (5, 16)
        np.testing.assert_array_equal(x, np.broadcast_to(nodes.type_table.value.data[2], (5, 16)))

    def test_backward_counts_duplicates(self):
        nodes = node_tables()
        g = Graph(node_types=[1, 1, 1, 2], edges=[(0, 1, 0)], num_edge_types=1)
        d_x = np.random.default_rng(4).normal(size=(4, 16))
        embed_nodes_backward(d_x, g, nodes, use_degree=True)
        type_grad, degree_grad = nodes.type_table.grad.data, nodes.degree_table.grad.data
        np.testing.assert_array_equal(type_grad[1], d_x[0] + d_x[1] + d_x[2])
        np.testing.assert_array_equal(type_grad[2], d_x[3])
        np.testing.assert_array_equal(type_grad[0], 0.0)
        np.testing.assert_array_equal(degree_grad[1], d_x[0] + d_x[1])  # degree 1
        np.testing.assert_array_equal(degree_grad[0], d_x[2] + d_x[3])  # isolated

    def test_out_of_range_index(self):
        # type == vocab is the virtual node's reserved row; a real node
        # may not alias it
        nodes = node_tables(vocab=6)
        g = attach_virtual_node(Graph(node_types=[0, 6], edges=[], num_edge_types=1))
        with pytest.raises(ConfigError, match="vocabulary"):
            embed_nodes(g, nodes)

    def test_scatter_matches_explicit_loop_bitwise(self):
        # the bucket gather and its adjoint scatter, query side (axis 0) and
        # key side (axis 1), against per-pair loops; both bit for bit, for
        # one graph and for a group of graphs (a leading group axis)
        rng = np.random.default_rng(4)
        for case in range(20):
            heads, n, rows = (int(v) for v in rng.integers(1, 7, size=3))
            group = () if case % 2 else (int(rng.integers(1, 4)),)
            idx = rng.integers(0, rows, size=group + (n, n))
            values = rng.normal(size=(heads,) + group + (n, n))
            table = rng.normal(size=(heads,) + group + (n, rows))
            for axis in (0, 1):
                got = _scatter_buckets(values, idx, rows, by_key=axis == 1)
                want = np.zeros((heads,) + group + (n, rows))
                gathered = np.zeros((heads,) + group + (n, n))
                for h in range(heads):
                    for b in np.ndindex(*group):
                        for i in range(n):
                            for j in range(n):
                                node, bucket = (i, j)[axis], idx[b + (i, j)]
                                want[(h,) + b + (node, bucket)] += values[(h,) + b + (i, j)]
                                gathered[(h,) + b + (i, j)] = table[(h,) + b + (node, bucket)]
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(_gather_buckets(table, idx, by_key=axis == 1),
                                              gathered)

    def test_forward_matches_explicit_loop(self):
        rng = np.random.default_rng(5)
        nodes = node_tables()
        g = random_graph(rng, 9, 1, 6, 0.5)
        x = embed_nodes(g, nodes, use_degree=True)
        degrees = g.degrees()
        for i, t in enumerate(g.node_types):
            row = (nodes.type_table.value.data[t]
                   + nodes.degree_table.value.data[min(degrees[i], DEGREE_CLAMP - 1)])
            np.testing.assert_array_equal(x[i], row)


class TestElementwise:
    def test_relu_kills_negatives(self):
        model = build_model(ModelConfig(layers=1, d_z=16, ffn_dim=32, heads=2, L=3,
                                        num_edge_types=1, node_vocab=4))
        x = np.random.default_rng(6).normal(size=(7, 16))
        _, cache = model.blocks[0].forward(x, PEMode("none"), None, None)
        pre, act = cache["pre"], cache["act"]
        assert (pre < 0).any() and (pre > 0).any()
        np.testing.assert_array_equal(act[pre <= 0], 0.0)
        np.testing.assert_array_equal(act[pre > 0], pre[pre > 0])

    def test_layer_norm_zero_variance_convention(self):
        out = layer_norm_rows(np.full((2, 5), 3.7), np.ones(5), np.zeros(5))
        np.testing.assert_array_equal(out, np.zeros((2, 5)))

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 8)) * 3 + 5
        out = layer_norm_rows(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_all_backwards_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 8))
        w = rng.normal(size=(1, 8))
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)

        def softmax_loss():
            e = np.exp(x - x.max())
            return float((e / e.sum() * w).sum())

        np.testing.assert_allclose(softmax_lastdim_backward(w, softmax_lastdim(x)),
                                   central_diff(softmax_loss, x), rtol=1e-6, atol=1e-9)

        def ln_loss():
            mu = x.mean(axis=1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
            return float((((x - mu) / np.sqrt(var + 1e-5) * gain + bias) * w).sum())

        dx, dg, dbias = layer_norm_rows_backward(w, x, gain)
        np.testing.assert_allclose(dx, central_diff(ln_loss, x), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(dg, central_diff(ln_loss, gain), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(dbias, central_diff(ln_loss, bias), rtol=1e-6, atol=1e-9)

    def test_randomized_backward_sweep(self):
        # the finite-difference agreement invariant for every raw kernel
        # with a backward, across 100 randomized shapes; softmax also runs
        # batched over a leading head axis, as in attention
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 6))
            lead = (int(rng.integers(1, 4)),) if rng.random() < 0.5 else ()
            x = rng.normal(size=lead + (m, n))
            w = rng.normal(size=lead + (m, n))
            gain = rng.normal(size=n)

            ds = softmax_lastdim_backward(w, softmax_lastdim(x))

            def softmax_loss():
                e = np.exp(x - x.max(axis=-1, keepdims=True))
                return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

            np.testing.assert_allclose(ds, central_diff(softmax_loss, x),
                                       rtol=1e-5, atol=1e-7)

            def ln_loss():
                mu = x.mean(axis=-1, keepdims=True)
                var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
                return float((((x - mu) / np.sqrt(var + 1e-5) * gain) * w).sum())

            if n > 1:  # zero variance of 1-wide rows makes the check degenerate
                dln, dg, _ = layer_norm_rows_backward(w, x, gain)
                np.testing.assert_allclose(dln, central_diff(ln_loss, x),
                                           rtol=1e-4, atol=1e-6)
                np.testing.assert_allclose(dg, central_diff(ln_loss, gain),
                                           rtol=1e-5, atol=1e-7)


class TestFiniteDiffCheck:
    def test_quadratic_loss(self):
        p = Parameter(np.array([1.0, -2.0, 3.0]))
        p.grad.data[:] = p.value.data  # analytic gradient of 0.5 * ||p||^2
        err = finite_diff_check(lambda: 0.5 * float((p.value.data ** 2).sum()), [p])
        assert err < 1e-9

    def test_linear_loss(self):
        p = Parameter(np.array([0.3, 0.7, -1.1, 4.0]))
        p.grad.data[:] = 1.0
        # eps large enough that cancellation noise stays below the bound
        err = finite_diff_check(lambda: float(p.value.data.sum()), [p], eps=1e-5)
        assert err < 1e-10

    def test_wrong_gradient_detected(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad.data[:] = [1.0, 2.5]  # second coordinate is wrong
        err = finite_diff_check(lambda: float(p.value.data.sum()), [p])
        assert err > 0.5

    def test_non_finite_loss_raises(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(NumericError):
            finite_diff_check(lambda: float("nan"), [p])


class TestJacobiEigh:
    def test_diagonal_input(self):
        w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        # columns are signed unit vectors picking out the sorted order
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_two_by_two_analytic(self):
        w, _ = jacobi_eigh([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_random_symmetric_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(10, 10))
            s = (a + a.T) / 2
            w, v = jacobi_eigh(s)
            assert np.abs(s @ v - v * w[None, :]).max() < 1e-8
            assert np.abs(v.T @ v - np.eye(10)).max() < 1e-8
            assert np.all(np.diff(w) >= -1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh([[0.0, 1.0], [0.5, 0.0]])

    def test_single_element(self):
        w, v = jacobi_eigh([[4.0]])
        np.testing.assert_array_equal(w, [4.0])
        np.testing.assert_array_equal(v, [[1.0]])

    def test_huge_rotation_ratio_does_not_overflow(self):
        # theta = (a_qq - a_pp) / (2 a_pq) beyond 1e154 once squared
        # overflowed. Seeds 577 and 695 are sparse Laplacians that reached
        # such a pivot; the 2 x 2 case has one on its first rotation.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (577, 695):
                rng = np.random.default_rng(seed)
                n = int(rng.integers(8, 17))
                lap = normalized_laplacian(random_graph(rng, n, 1, 4, float(rng.uniform(0.1, 0.5))))
                w, v = jacobi_eigh(lap)
                assert np.abs(lap @ v - v * w[None, :]).max() < 1e-8
                assert np.abs(v.T @ v - np.eye(n)).max() < 1e-8
            big = np.array([[0.0, 1.0], [1.0, 1e160]])
            w, v = jacobi_eigh(big)
        assert np.abs(big @ v - v * w[None, :]).max() < 1e-12 * 1e160
        assert abs(w[0]) < 1e-150 and w[1] == 1e160
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-150)
