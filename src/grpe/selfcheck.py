"""Built-in verification suites: the oracles, runnable from the CLI.

Each suite compares an optimized or composite path against an independent
reference (naive double loop, Floyd-Warshall, a vanilla forward, residual
identities) and reports case counts plus the worst deviation observed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import graph as graphs
from .attention import PEMode, _scores_fwd, _values_fwd, split_heads
from .encodings import init_tables, normalized_laplacian
from .errors import ConfigError
from .linalg import jacobi_eigh
from .model import ModelConfig, build_model
from .synthetic import floyd_warshall, random_graph
from .tensor import softmax_lastdim

EQUIVALENCE_TOL = 1e-10
REDUCTION_TOL = 1e-12
EIGEN_TOL = 1e-8


@dataclass
class SuiteResult:
    name: str
    cases: int
    max_deviation: float
    threshold: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"suite {self.name}: cases={self.cases} "
                f"max_deviation={self.max_deviation:.3e} "
                f"threshold={self.threshold:.0e} {status}")


def _table_config(L, num_edge_types, d_z=16, heads=2):
    return ModelConfig(layers=1, d_z=d_z, ffn_dim=d_z, heads=heads, L=L,
                       num_edge_types=num_edge_types, node_vocab=4,
                       pe_mode="grpe")


FAST, NAIVE = PEMode("grpe_fast"), PEMode("grpe_naive")


def suite_equivalence(cases: int = 200, seed: int = 0) -> SuiteResult:
    """Fast score/value assembly vs the per-pair double loop, through the
    dispatchers the model runs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        n = int(rng.integers(2, 32))
        L = int(rng.choice([1, 3, 5]))
        e_types = int(rng.choice([1, 4]))
        cfg = _table_config(L, e_types)
        topology, edge, _, _ = init_tables(cfg, int(rng.integers(0, 2 ** 31)))
        g = graphs.attach_virtual_node(
            random_graph(rng, n, e_types, cfg.node_vocab, float(rng.uniform(0.1, 0.5))))
        t_idx = graphs.topology_indices(graphs.bfs_all_pairs(g), L, True)
        e_idx = graphs.edge_indices(g)
        m = g.num_nodes
        qh, kh, vh = (split_heads(rng.normal(size=(m, cfg.d_z)), cfg.heads) for _ in range(3))
        s_fast, _ = _scores_fwd(FAST, qh, kh, t_idx, e_idx, topology, edge, None)
        s_naive, _ = _scores_fwd(NAIVE, qh, kh, t_idx, e_idx, topology, edge, None)
        worst = max(worst, float(np.abs(s_fast - s_naive).max()))
        attn = softmax_lastdim(rng.normal(size=(cfg.heads, m, m)))
        z_fast, _ = _values_fwd(FAST, attn, vh, t_idx, e_idx, topology, edge)
        z_naive, _ = _values_fwd(NAIVE, attn, vh, t_idx, e_idx, topology, edge)
        worst = max(worst, float(np.abs(z_fast - z_naive).max()))
    return SuiteResult("equivalence", cases, worst, EQUIVALENCE_TOL,
                       worst < EQUIVALENCE_TOL)


def suite_bfs(cases: int = 200, seed: int = 0) -> SuiteResult:
    """BFS all-pairs distances vs Floyd-Warshall, and the topology buckets
    of the L-bounded distance pass vs the buckets of both, for L in
    {1, 2, 5}; exact integer equality."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(cases):
        n = int(rng.integers(1, 21))
        g = random_graph(rng, n, 1, 4, float(rng.uniform(0.0, 0.4)))
        vn = bool(rng.random() < 0.5)
        if vn:
            g = graphs.attach_virtual_node(g)
        d_bfs, d_fw = graphs.bfs_all_pairs(g), floyd_warshall(g)
        mismatches += int((d_bfs != d_fw).sum())
        for L in (1, 2, 5):
            t = graphs.topology_indices(graphs.bounded_distances(g, L), L, vn)
            for d in (d_bfs, d_fw):
                mismatches += int((t != graphs.topology_indices(d, L, vn)).sum())
    return SuiteResult("bfs", cases, float(mismatches), 0.0, mismatches == 0,
                       note="deviation counts mismatched entries")


GRAPH_KINDS = ("random", "one_node", "edgeless", "disconnected")


def _graph_of_kind(rng, kind: str):
    """A small graph of the given kind and the edge-type count to model it
    with: 0 for graphs without edges, so that E = 0 is covered too."""
    if kind == "one_node":
        return random_graph(rng, 1, 1, 4, 0.0), 0
    if kind == "edgeless":
        return random_graph(rng, int(rng.integers(2, 7)), 1, 4, 0.0), 0
    e_types = int(rng.choice([1, 3]))
    if kind == "random":
        return random_graph(rng, int(rng.integers(2, 10)), e_types, 4,
                            float(rng.uniform(0.2, 0.6))), e_types
    parts = [random_graph(rng, int(rng.integers(2, 6)), e_types, 4, 0.7) for _ in range(2)]
    off = parts[0].num_nodes
    edges = parts[0].edges + tuple((i + off, j + off, t) for i, j, t in parts[1].edges)
    return graphs.Graph(node_types=parts[0].node_types + parts[1].node_types, edges=edges,
                        num_edge_types=e_types), e_types


def _parameter_gradients(model, prep) -> dict:
    """Gradient of the prediction with respect to every parameter."""
    model.zero_grad()
    _, cache = model.forward_with_cache(prep)
    model.backward(1.0, cache)
    return {name: p.grad.data.copy() for name, p in model.parameters()}


def suite_gradients(cases: int = 32, seed: int = 0) -> SuiteResult:
    """Every parameter gradient of the fast kernels vs the naive double loop.

    Case c runs use_topology/use_edge/use_value combination c % 8 on graph
    kind (c // 8) % 4 (random, one-node, edgeless, disconnected) with L =
    (1, 2, 5)[c % 3]; one-node and edgeless graphs use E = 0. Weights are
    drawn well away from their small initial values, so every bucket row
    moves the prediction.
    """
    rng = np.random.default_rng(seed)
    combos = list(itertools.product((True, False), repeat=3))
    worst = 0.0
    for case in range(cases):
        use_t, use_e, use_v = combos[case % 8]
        g, e_types = _graph_of_kind(rng, GRAPH_KINDS[(case // 8) % 4])
        cfg = ModelConfig(layers=2, d_z=8, ffn_dim=8, heads=2, L=(1, 2, 5)[case % 3],
                          num_edge_types=e_types, node_vocab=4, pe_mode="grpe",
                          use_topology=use_t, use_edge=use_e, use_value=use_v,
                          seed=int(rng.integers(0, 2 ** 31)))
        fast = build_model(cfg)
        naive = build_model(ModelConfig(**{**cfg.__dict__, "fast": False}))
        for (_, p), (_, q) in zip(fast.parameters(), naive.parameters()):
            p.value.data += rng.normal(0.0, 0.3, p.value.shape)
            q.value.data[...] = p.value.data
        sample = graphs.GraphSample(graph=g, target=0.0)
        g_fast = _parameter_gradients(fast, fast.prepare(sample))
        g_naive = _parameter_gradients(naive, naive.prepare(sample))
        worst = max(worst, max(float(np.abs(g_fast[k] - g_naive[k]).max()) for k in g_fast))
    return SuiteResult("gradients", cases, worst, EQUIVALENCE_TOL, worst < EQUIVALENCE_TOL)


# Every attention path a model can run: grpe fast and naive with each of
# the 8 use_topology/use_edge/use_value combinations, graphormer with and
# without a shared projection, laplacian and none.
BATCH_VARIANTS = tuple(
    [dict(pe_mode="grpe", fast=fast, use_topology=t, use_edge=e, use_value=v)
     for fast in (True, False) for t, e, v in itertools.product((True, False), repeat=3)]
    + [dict(pe_mode="graphormer", graphormer_shared_w=False),
       dict(pe_mode="graphormer", graphormer_shared_w=True),
       dict(pe_mode="laplacian"), dict(pe_mode="none")])


def suite_batching(cases: int = 40, seed: int = 0) -> SuiteResult:
    """A packed group against each of its graphs run alone: predictions and
    summed parameter gradients.

    Case c runs variant c % 20 of ``BATCH_VARIANTS`` on task (c // 20) % 2
    (graph regression, node classification), with L = (1, 2, 5)[c % 3].
    The group holds one graph of each kind (random, one-node, edgeless,
    disconnected) and one more random graph, in random order, so sizes mix
    and most graphs are padded; every fourth case instead holds three
    relabellings of one random graph, a group with no padding. Each graph
    gets a random output gradient; odd cases also apply per-graph dropout
    masks.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        task = ("graph_regression", "node_classification")[(case // 20) % 2]
        cfg = ModelConfig(layers=2, d_z=8, ffn_dim=8, heads=2, L=(1, 2, 5)[case % 3],
                          num_edge_types=3, node_vocab=4, task=task, num_classes=3,
                          lap_pe_dim=4, seed=int(rng.integers(0, 2 ** 31)),
                          **BATCH_VARIANTS[case % len(BATCH_VARIANTS)])
        model = build_model(cfg)
        for _, p in model.parameters():
            p.value.data += rng.normal(0.0, 0.3, p.value.shape)
        if case % 4 == 3:
            g, _ = _graph_of_kind(rng, "random")
            group = [graphs.permute_graph(g, rng.permutation(g.num_nodes)) for _ in range(3)]
        else:
            kinds = list(GRAPH_KINDS) + ["random"]
            group = [_graph_of_kind(rng, kinds[k])[0] for k in rng.permutation(len(kinds))]
        preps, d_preds = [], []
        for g in group:
            n = g.num_nodes
            if task == "graph_regression":
                sample = graphs.GraphSample(graph=g, target=0.0)
                d_preds.append(float(rng.normal()))
            else:
                sample = graphs.GraphSample(graph=g, node_labels=rng.integers(0, 3, n).tolist())
                d_preds.append(rng.normal(size=(n, 3)))
            preps.append(model.prepare(sample))
        drops = None
        if case % 2:
            drops = [model.draw_dropout(p.graph.num_nodes, 0.3, rng) for p in preps]

        model.zero_grad()
        alone = []
        for i, prep in enumerate(preps):
            pred, cache = model._run(prep, drop=None if drops is None else [drops[i]])
            model.backward(d_preds[i], cache)
            alone.append(pred)
        grads = {name: p.grad.data.copy() for name, p in model.parameters()}
        model.zero_grad()
        packed, cache = model._run(preps, drop=drops)
        model.backward(d_preds, cache)
        for a, b in zip(alone, packed):
            worst = max(worst, float(np.abs(np.asarray(a) - np.asarray(b)).max()))
        for name, p in model.parameters():
            worst = max(worst, float(np.abs(p.grad.data - grads[name]).max()))
    return SuiteResult("batching", cases, worst, EQUIVALENCE_TOL, worst < EQUIVALENCE_TOL)


def suite_reduction(cases: int = 50, seed: int = 0) -> SuiteResult:
    """Zeroed encoding tables must make the full model a vanilla transformer."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        model_seed = int(rng.integers(0, 2 ** 31))
        grpe_cfg = ModelConfig(layers=2, d_z=32, ffn_dim=32, heads=4, L=3,
                               num_edge_types=2, node_vocab=6, pe_mode="grpe",
                               seed=model_seed)
        plain_cfg = ModelConfig(**{**grpe_cfg.__dict__, "pe_mode": "none"})
        m_grpe = build_model(grpe_cfg)
        m_plain = build_model(plain_cfg)
        for tables in (m_grpe.topology, m_grpe.edge):
            for p in (tables.query, tables.key, tables.value):
                p.value.data[...] = 0.0
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, 2, 6, float(rng.uniform(0.1, 0.5)))
        sample = graphs.GraphSample(graph=g, target=0.0)
        pg = m_grpe.prepare(sample)
        pred_g, cache_g = m_grpe._run(pg)
        pred_p, cache_p = m_plain._run(m_plain.prepare(sample))
        worst = max(worst, float(np.abs(cache_g["x_final"] - cache_p["x_final"]).max()),
                    abs(pred_g - pred_p))
    return SuiteResult("reduction", cases, worst, REDUCTION_TOL, worst < REDUCTION_TOL)


def suite_eigensolver(cases: int = 50, seed: int = 0) -> SuiteResult:
    """Normalized-Laplacian eigenpairs: residual, range, orthonormality.

    Residual and orthonormality are bounded by 1e-8; eigenvalues must lie
    in [-1e-10, 2 + 1e-10]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_range = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 16))
        g = random_graph(rng, n, 1, 4, float(rng.uniform(0.1, 0.6)))
        lap = normalized_laplacian(g)
        w, v = jacobi_eigh(lap)
        residual = float(np.abs(lap @ v - v * w[None, :]).max())
        ortho = float(np.abs(v.T @ v - np.eye(n)).max())
        worst = max(worst, residual, ortho)
        worst_range = max(worst_range, 0.0, float(-w.min()), float(w.max() - 2.0))
    passed = worst < EIGEN_TOL and worst_range < 1e-10
    return SuiteResult("eigensolver", cases, worst, EIGEN_TOL, passed,
                       note=f"eigenvalue range excess {worst_range:.3e} (bound 1e-10)")


def verify_targets(samples) -> SuiteResult:
    """Recompute dataset targets with a second brute-force pass.

    The generator derives targets from Floyd-Warshall; this check recounts
    them from BFS distances and raw degrees. A one-node regression record
    has no node pairs, so its target is undefined; it is skipped and
    counted in the note.
    """
    worst = 0.0
    skipped = 0
    for s in samples:
        g = s.graph
        if s.target is not None:
            if g.num_nodes < 2:
                skipped += 1
                continue
            d = graphs.bfs_all_pairs(g)
            iu = np.triu_indices(g.num_nodes, k=1)
            frac = float((d[iu] == 2).sum()) / len(iu[0])
            worst = max(worst, abs(s.target - frac))
        else:
            for deg, label in zip(g.degrees(), s.node_labels):
                want = 0 if deg <= 1 else (1 if deg <= 3 else 2)
                worst = max(worst, float(abs(label - want)))
    note = "re-derived from BFS distances and degrees"
    if skipped:
        note += f"; skipped {skipped} one-node record(s) with no node pairs"
    return SuiteResult("targets", len(samples) - skipped, worst, 1e-12, worst < 1e-12,
                       note=note)


SUITES = {
    "equivalence": suite_equivalence,
    "bfs": suite_bfs,
    "gradients": suite_gradients,
    "reduction": suite_reduction,
    "eigensolver": suite_eigensolver,
    "batching": suite_batching,
}


def run_suites(names=None, cases=None, seed: int = 0, inject_fault: bool = False):
    """Run the named suites (all by default); returns SuiteResult list."""
    if cases is not None and cases < 1:
        raise ConfigError(f"cases must be >= 1, got {cases}")
    selected = list(SUITES) if not names else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        fn = SUITES[name]
        results.append(fn(**({} if cases is None else {"cases": cases}), seed=seed))
    if inject_fault:
        results.append(SuiteResult("injected-fault", 1, 1.0, 0.0, False,
                                   note="synthetic failure for harness testing"))
    return results
