"""Acceptance criteria, one test per criterion, at pinned tolerances.

Each test prints a single machine-readable pass line with the measured
quantity; run with ``pytest -s tests/test_acceptance.py`` to see them.
The two training-based criteria (ablation ordering, overfit) are the slow
ones; everything else is property-based and fast.
"""

import time

import numpy as np
import pytest

from grpe.attention import PEMode, _scores_fwd, _values_fwd, score_dot_counter, split_heads
from grpe.encodings import init_tables, normalized_laplacian
from grpe.graph import (GraphSample, attach_virtual_node, bfs_all_pairs,
                        edge_indices, permute_sample, topology_indices)
from grpe.linalg import jacobi_eigh
from grpe.model import ModelConfig, PreparedSample, build_model, loss_and_grad
from grpe.synthetic import floyd_warshall, make_synthetic, random_graph
from grpe.tensor import finite_diff_check, softmax_lastdim
from grpe.training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train


FAST, NAIVE = PEMode("grpe_fast"), PEMode("grpe_naive")


def report(criterion, detail):
    print(f"\n[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def selfcheck_green():
    """Oracle suites must pass before any training-based criterion runs."""
    from grpe.selfcheck import run_suites
    results = run_suites(cases=20, seed=99)
    bad = [r.name for r in results if not r.passed]
    assert not bad, f"selfcheck suites failed: {bad}"
    return True


def test_01_fast_naive_equivalence():
    """Fast score/value assembly matches the per-pair reference everywhere."""
    rng = np.random.default_rng(1001)
    started = time.time()
    worst = 0.0
    cases = 200
    for i in range(cases):
        n = int(rng.integers(2, 33))
        L = (1, 3, 5)[i % 3]
        e = (1, 4)[i % 2]
        cfg = ModelConfig(layers=1, d_z=16, ffn_dim=16, heads=2, L=L,
                          num_edge_types=e, node_vocab=4, pe_mode="grpe")
        topology, edge, _, _ = init_tables(cfg, int(rng.integers(0, 1 << 31)))
        g = attach_virtual_node(random_graph(rng, n, e, 4, float(rng.uniform(0.1, 0.6))))
        t_idx = topology_indices(bfs_all_pairs(g), L, has_virtual_node=True)[None]
        e_idx = edge_indices(g)[None]
        m = g.num_nodes  # one graph, run as a group of one
        qh, kh, vh = (split_heads(rng.normal(size=(1, m, 16)), 2) for _ in range(3))
        s_fast, _ = _scores_fwd(FAST, qh, kh, t_idx, e_idx, topology, edge, None)
        s_naive, _ = _scores_fwd(NAIVE, qh, kh, t_idx, e_idx, topology, edge, None)
        worst = max(worst, float(np.abs(s_fast - s_naive).max()))
        attn = softmax_lastdim(rng.normal(size=(2, 1, m, m)))
        z_fast, _ = _values_fwd(FAST, attn, vh, t_idx, e_idx, topology, edge)
        z_naive, _ = _values_fwd(NAIVE, attn, vh, t_idx, e_idx, topology, edge)
        worst = max(worst, float(np.abs(z_fast - z_naive).max()))
    elapsed = time.time() - started
    assert worst < 1e-10
    assert elapsed < 60
    report("01 fast/naive equivalence",
           f"{cases} cases, max abs deviation {worst:.3e}, {elapsed:.1f}s")


def test_02_zero_table_reduction():
    """All-zero encoding rows collapse the model to a vanilla transformer."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    cases = 50
    for _ in range(cases):
        seed = int(rng.integers(0, 1 << 31))
        grpe_cfg = ModelConfig(layers=2, d_z=32, ffn_dim=32, heads=4, L=3,
                               num_edge_types=2, node_vocab=6, pe_mode="grpe", seed=seed)
        none_cfg = ModelConfig(**{**grpe_cfg.__dict__, "pe_mode": "none"})
        m_grpe, m_none = build_model(grpe_cfg), build_model(none_cfg)
        for tables in (m_grpe.topology, m_grpe.edge):
            for p in (tables.query, tables.key, tables.value):
                p.value.data[...] = 0.0
        g = random_graph(rng, int(rng.integers(2, 12)), 2, 6, float(rng.uniform(0.1, 0.6)))
        s = GraphSample(graph=g, target=0.0)
        pred_g, cache_g = m_grpe._run(m_grpe.prepare(s))
        pred_n, cache_n = m_none._run(m_none.prepare(s))
        worst = max(worst,
                    float(np.abs(cache_g["x_final"] - cache_n["x_final"]).max()),
                    abs(pred_g - pred_n))
    assert worst < 1e-12
    report("02 zero-table reduction", f"{cases} cases, max deviation {worst:.3e}")


def test_03_gradient_correctness_all_parameter_groups():
    """Finite differences validate every parameter group of the tiny preset."""
    started = time.time()
    results = {}
    for pe in ("grpe", "graphormer"):
        rng = np.random.default_rng(1003)
        cfg = ModelConfig.preset("tiny", L=5, num_edge_types=3, node_vocab=8,
                                 seed=17, pe_mode=pe,
                                 use_degree=(pe == "graphormer"))
        model = build_model(cfg)
        g = random_graph(rng, 6, 3, 8, 0.5)
        prep = model.prepare(GraphSample(graph=g, target=0.75))

        def loss_fn():
            value, _ = loss_and_grad(model.forward(prep), prep.target, cfg.task)
            return value

        model.zero_grad()
        pred, cache = model.forward_with_cache(prep)
        _, d_pred = loss_and_grad(pred, prep.target, cfg.task)
        model.backward(d_pred, cache)

        groups = {
            "projections": lambda n: ".attn.w_" in n,
            "heads": lambda n: n.startswith("head."),
            "ffn": lambda n: ".ffn_" in n,
            "norm": lambda n: ".ln" in n,
            "topology_tables": lambda n: n.startswith("topology."),
            "edge_tables": lambda n: n.startswith("edge."),
            "embeddings": lambda n: n.startswith("nodes."),
        }
        if pe == "graphormer":
            groups["graphormer_bias"] = lambda n: n.startswith("graphormer.")
        for gname, match in groups.items():
            params = [p for name, p in model.parameters() if match(name)]
            err = finite_diff_check(loss_fn, params, eps=1e-6,
                                    max_coords_per_param=25, seed=3)
            results[f"{pe}/{gname}"] = err
            assert err < 1e-5, f"{pe}/{gname}: {err:.3e}"
    elapsed = time.time() - started
    assert elapsed < 300
    worst = max(results.values())
    report("03 gradient correctness",
           f"{len(results)} parameter groups, worst rel err {worst:.3e}, {elapsed:.0f}s")


def test_03b_far_and_unreachable_rows_receive_gradients():
    """Small L plus a disconnected graph exercises the special bucket rows."""
    from grpe.graph import Graph, topo_far, topo_unreachable
    # two layers: with one layer only the virtual-node attention row can
    # reach the graph readout, and real-pair buckets would get no gradient
    cfg = ModelConfig(layers=2, d_z=16, ffn_dim=16, heads=2, L=1,
                      num_edge_types=1, node_vocab=4, seed=3)
    model = build_model(cfg)
    # path of length 2 (has a FAR pair at L=1) plus an isolated node
    g = Graph(node_types=[0, 1, 2, 3], edges=[(0, 1, 0), (1, 2, 0)], num_edge_types=1)
    prep = model.prepare(GraphSample(graph=g, target=0.3))
    assert (prep.topo_idx == topo_far(1)).any()
    assert (prep.topo_idx == topo_unreachable(1)).any()

    def loss_fn():
        value, _ = loss_and_grad(model.forward(prep), prep.target, cfg.task)
        return value

    model.zero_grad()
    pred, cache = model.forward_with_cache(prep)
    _, d_pred = loss_and_grad(pred, prep.target, cfg.task)
    model.backward(d_pred, cache)
    assert np.abs(model.topology.query.grad.data[topo_far(1)]).max() > 0
    assert np.abs(model.topology.query.grad.data[topo_unreachable(1)]).max() > 0
    err = finite_diff_check(loss_fn, [model.topology.query, model.topology.key,
                                      model.topology.value], eps=1e-6, seed=0)
    assert err < 1e-5
    report("03b special-bucket gradients", f"rel err {err:.3e}")


def test_04_permutation_invariance_and_equivariance():
    """Graph predictions invariant, node outputs equivariant, 100 cases."""
    rng = np.random.default_rng(1004)
    g_model = build_model(ModelConfig(layers=2, d_z=32, ffn_dim=32, heads=4, L=3,
                                      num_edge_types=3, node_vocab=6, seed=21))
    n_model = build_model(ModelConfig(layers=2, d_z=32, ffn_dim=32, heads=4, L=3,
                                      num_edge_types=3, node_vocab=6, seed=22,
                                      task="node_classification"))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, 3, 6, float(rng.uniform(0.1, 0.6)))
        perm = rng.permutation(n).tolist()

        s = GraphSample(graph=g, target=0.0)
        p1 = g_model.forward(g_model.prepare(s))
        p2 = g_model.forward(g_model.prepare(permute_sample(s, perm)))
        worst = max(worst, abs(p1 - p2))

        labels = rng.integers(0, 3, size=n).tolist()
        sn = GraphSample(graph=g, node_labels=labels)
        o1 = n_model.forward(n_model.prepare(sn))
        o2 = n_model.forward(n_model.prepare(permute_sample(sn, perm)))
        worst = max(worst, float(np.abs(o2[np.array(perm)] - o1).max()))
    assert worst < 1e-10
    report("04 permutation invariance/equivariance",
           f"100 cases, max deviation {worst:.3e}")


def test_05_bfs_equals_floyd_warshall():
    rng = np.random.default_rng(1005)
    cases = 200
    for _ in range(cases):
        n = int(rng.integers(1, 21))
        g = random_graph(rng, n, 2, 4, float(rng.uniform(0.0, 0.5)))
        if rng.random() < 0.5:
            g = attach_virtual_node(g)
        np.testing.assert_array_equal(bfs_all_pairs(g), floyd_warshall(g))
    report("05 BFS = Floyd-Warshall", f"{cases} cases, exact integer equality")


def test_06_eigensolver_bounds():
    rng = np.random.default_rng(1006)
    cases = 50
    worst_resid = worst_ortho = worst_range = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 16))
        g = random_graph(rng, n, 1, 4, float(rng.uniform(0.1, 0.6)))
        lap = normalized_laplacian(g)
        wv, vv = jacobi_eigh(lap)
        worst_resid = max(worst_resid, float(np.abs(lap @ vv - vv * wv[None, :]).max()))
        worst_ortho = max(worst_ortho, float(np.abs(vv.T @ vv - np.eye(n)).max()))
        worst_range = max(worst_range, float(-wv.min()), float(wv.max() - 2.0))
    assert worst_resid < 1e-8
    assert worst_ortho < 1e-8
    assert worst_range < 1e-10
    report("06 eigensolver", f"{cases} graphs, residual {worst_resid:.3e}, "
           f"orthonormality {worst_ortho:.3e}, range excess {worst_range:.3e}")


def test_07_ablation_ordering(selfcheck_green):
    """Mean test MAE over 3 seeds: full < each single component < none.

    The published ordering is directional context only; absolute values
    are not reproduced. The no-encoding transformer sees node types and
    graph size but no structure, so it bottoms out near the target spread.
    """
    started = time.time()
    train_set = make_synthetic("spd2_fraction", 512, (8, 16), seed=100)
    test_set = make_synthetic("spd2_fraction", 128, (8, 16), seed=101)
    variants = {
        "full": dict(pe_mode="grpe"),
        "topology_only": dict(pe_mode="grpe", use_topology=True, use_edge=False,
                              use_value=False),
        "edge_only": dict(pe_mode="grpe", use_topology=False, use_edge=True,
                          use_value=False),
        "none": dict(pe_mode="none"),
    }
    means = {}
    for name, kw in variants.items():
        maes = []
        for seed in (0, 1, 2):
            cfg = ModelConfig(layers=2, d_z=32, ffn_dim=32, heads=4, L=5,
                              num_edge_types=4, node_vocab=8, seed=seed, **kw)
            model = build_model(cfg)
            train(model, train_set, TrainConfig(epochs=120, batch_size=8,
                                                lr_start=8e-4))
            maes.append(evaluate(model, test_set)["mae"])
        means[name] = sum(maes) / len(maes)
    elapsed = time.time() - started
    assert means["full"] < means["topology_only"], means
    assert means["full"] < means["edge_only"], means
    assert means["topology_only"] < means["none"], means
    assert means["edge_only"] < means["none"], means
    assert elapsed < 1800
    report("07 ablation ordering",
           "mean test MAE over 3 seeds: "
           + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
           + f", {elapsed:.0f}s")


def test_08_overfit_sanity(selfcheck_green):
    """Tiny preset drives train MAE below 0.05 on 64 graphs in 200 epochs."""
    started = time.time()
    data = make_synthetic("spd2_fraction", 64, (8, 16), seed=42)
    cfg = ModelConfig.preset("tiny", num_edge_types=4, node_vocab=8, seed=7)
    model = build_model(cfg)
    history = train(model, data, TrainConfig(epochs=200, batch_size=8,
                                             stop_at_train_loss=0.045))
    elapsed = time.time() - started
    assert history[-1].train_loss < 0.05
    assert history[-1].epoch <= 200
    assert elapsed < 300
    report("08 overfit sanity",
           f"train MAE {history[-1].train_loss:.4f} after {history[-1].epoch} "
           f"epochs, {elapsed:.0f}s")


def test_09_complexity_dot_product_counts():
    """Counter evidence that the precompute removes the N^2 encoding dots."""
    rng = np.random.default_rng(1009)
    n, L, e = 256, 5, 4
    cfg = ModelConfig(layers=1, d_z=16, ffn_dim=16, heads=1, L=L,
                      num_edge_types=e, node_vocab=4, pe_mode="grpe")
    topology, edge, _, _ = init_tables(cfg, 0)
    t_idx = rng.integers(0, L + 4, size=(1, n, n))  # one graph, run as a group of one
    e_idx = rng.integers(0, e + 3, size=(1, n, n))
    qh = split_heads(rng.normal(size=(1, n, 16)), 1)
    kh = split_heads(rng.normal(size=(1, n, 16)), 1)

    score_dot_counter.reset()
    s_naive, _ = _scores_fwd(NAIVE, qh, kh, t_idx, e_idx, topology, edge, None)
    naive_count = score_dot_counter.total
    score_dot_counter.reset()
    s_fast, _ = _scores_fwd(FAST, qh, kh, t_idx, e_idx, topology, edge, None)
    fast_count = score_dot_counter.total

    assert np.abs(s_fast - s_naive).max() < 1e-10  # counting the same work
    assert naive_count == 4 * n * n
    assert fast_count <= n * ((L + 4) + (e + 3)) * 2
    ratio = naive_count / fast_count
    assert ratio >= 9
    report("09 complexity evidence",
           f"naive {naive_count} vs fast {fast_count} encoding dots "
           f"({ratio:.1f}x reduction) at N={n}")


def test_10_max_distance_expressiveness():
    """Bucketing at L=1 collapses far structure that L=3 separates.

    Two distance structures agree entry-wise once bucketed at L=1 but
    differ at distances 2 vs 3; the model output is bitwise identical at
    L=1 and the L=3 index matrices are distinct. (Distance matrices are
    constructed directly: for actual graphs the L=1 buckets pin down the
    full adjacency and hence every distance, so only the bucketed view
    can be made to collide.)
    """
    from grpe.graph import Graph

    path = Graph(node_types=[0, 0, 0, 0], edges=[(0, 1, 0), (1, 2, 0), (2, 3, 0)],
                 num_edge_types=1)
    g = attach_virtual_node(path)
    d_a = bfs_all_pairs(g)           # d(1, 4) = 3 among real nodes
    d_b = d_a.copy()
    d_b[1, 4] = d_b[4, 1] = 2        # valid distance structure, far pair closer
    e_idx = edge_indices(g)

    t1_a = topology_indices(d_a, 1, has_virtual_node=True)
    t1_b = topology_indices(d_b, 1, has_virtual_node=True)
    np.testing.assert_array_equal(t1_a, t1_b)  # identical at L=1

    t3_a = topology_indices(d_a, 3, has_virtual_node=True)
    t3_b = topology_indices(d_b, 3, has_virtual_node=True)
    assert (t3_a != t3_b).any()                 # distinct at L=3

    def predict(L, t_idx):
        cfg = ModelConfig(layers=2, d_z=32, ffn_dim=32, heads=4, L=L,
                          num_edge_types=1, node_vocab=4, seed=33)
        model = build_model(cfg)
        prep = PreparedSample(graph=g, topo_idx=t_idx, edge_idx=e_idx, target=0.0)
        return model.forward(prep)

    p1_a = predict(1, t1_a)
    p1_b = predict(1, t1_b)
    assert p1_a == p1_b  # bitwise identical at L=1

    p3_a = predict(3, t3_a)
    p3_b = predict(3, t3_b)
    assert p3_a != p3_b  # L=3 separates the pair

    report("10 max-distance expressiveness",
           f"L=1 outputs bitwise equal ({p1_a!r}); L=3 outputs differ "
           f"by {abs(p3_a - p3_b):.3e}")


def test_11_determinism_and_checkpointing(tmp_path):
    """Same seed, same curves; save/load exact; resume = uninterrupted."""
    data = make_synthetic("spd2_fraction", 32, (6, 12), seed=200)
    cfg = ModelConfig(layers=2, d_z=32, ffn_dim=32, heads=4, L=3,
                      num_edge_types=4, node_vocab=8, seed=5)
    tcfg = TrainConfig(epochs=6, batch_size=8)

    h1 = train(build_model(cfg), data, TrainConfig(epochs=6, batch_size=8))
    h2 = train(build_model(cfg), data, TrainConfig(epochs=6, batch_size=8))
    assert [(r.epoch, r.train_loss, r.lr) for r in h1] == \
           [(r.epoch, r.train_loss, r.lr) for r in h2]

    straight = build_model(cfg)
    h_straight = train(straight, data, tcfg)
    resumed = build_model(cfg)
    train(resumed, data, tcfg, stop_epoch=3)
    mid = tmp_path / "mid.json"
    save_checkpoint(resumed, mid)
    restored = load_checkpoint(mid)
    probe = restored.prepare(data[0])
    assert restored.forward(probe) == resumed.forward(resumed.prepare(data[0]))
    h_rest = train(restored, data, tcfg)
    assert [(r.epoch, r.train_loss, r.lr) for r in h_straight[3:]] == \
           [(r.epoch, r.train_loss, r.lr) for r in h_rest]
    for s in data[:8]:
        assert straight.forward(straight.prepare(s)) == \
            restored.forward(restored.prepare(s))
    report("11 determinism & checkpointing",
           "identical curves, exact save/load round trip, resumed run matches")
