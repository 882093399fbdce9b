"""Workload definitions and seeded input generation.

Everything here is plain numpy: the inputs and their ``spd2`` targets are
made without importing the program, so the program sees them only through
``parse_graphs`` on the JSONL files written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

NODE_VOCAB = 8
EDGE_TYPES = 4
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


@dataclass(frozen=True)
class Shape:
    """Erdos-Renyi graphs: ``nodes`` real nodes; the edge probability is
    drawn per graph from ``prob`` or, when ``degree`` is set, chosen so the
    expected degree is drawn from ``degree``."""

    nodes: tuple
    prob: tuple | None = None
    degree: tuple | None = None


@dataclass(frozen=True)
class Variant:
    """One model the workload trains and evaluates."""

    name: str
    config: dict
    train_graphs: int
    eval_graphs: int


@dataclass(frozen=True)
class Workload:
    name: str
    index: int                     # mixed into the seed so workloads never share inputs
    shape: Shape
    model: dict                    # ModelConfig fields shared by the variants
    variants: tuple
    latency_graphs: int            # graphs predicted for latency, each by every variant
    latency_per_round: int = 0     # of them per round, in turn; 0: all of them
    batch_size: int = 8
    lr_start: float = 2e-4
    horizon_epochs: int = 120      # schedule horizon; each round trains one epoch of it
    ckpt_shape: Shape | None = None  # set: the model is trained and saved before the timed process
    ckpt_train_graphs: int = 0
    ckpt_epochs: int = 0
    check_graphs: int = 3

    @property
    def trains_in_worker(self) -> bool:
        return self.ckpt_shape is None

    @property
    def train_count(self) -> int:
        return max(v.train_graphs for v in self.variants)

    @property
    def test_count(self) -> int:
        return max([self.latency_graphs] + [v.eval_graphs for v in self.variants])

    @property
    def per_round(self) -> int:
        return self.latency_per_round or self.latency_graphs

    @property
    def min_rounds(self) -> int:
        """Rounds needed to predict every latency graph once."""
        return -(-self.latency_graphs // self.per_round)

    @property
    def tail_percentile(self) -> float:
        """Highest percentile of the fewest latency samples a run takes that
        still has ``TAIL_BEYOND`` samples beyond it."""
        return 100.0 * (1.0 - TAIL_BEYOND / self.latency_graphs)


SMALL = Shape(nodes=(8, 16), prob=(0.15, 0.45))
MID = Shape(nodes=(48, 80), degree=(2.0, 6.0))
LARGE = Shape(nodes=(200, 256), degree=(2.0, 6.0))

ABLATION_MODEL = dict(layers=2, d_z=32, ffn_dim=32, heads=4, L=5)
TINY_MODEL = dict(layers=4, d_z=64, ffn_dim=64, heads=8, L=5)  # the "tiny" preset

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ablation_small", index=1, shape=SMALL, model=ABLATION_MODEL,
        variants=(
            Variant("full", dict(pe_mode="grpe"), 512, 200),
            Variant("topology_only", dict(pe_mode="grpe", use_edge=False, use_value=False), 512, 200),
            Variant("edge_only", dict(pe_mode="grpe", use_topology=False, use_value=False), 512, 200),
            Variant("none", dict(pe_mode="none"), 512, 200),
        ),
        latency_graphs=200, lr_start=8e-4),
    Workload(
        name="tiny_mid", index=2, shape=MID, model=TINY_MODEL,
        variants=(Variant("full", dict(pe_mode="grpe"), 64, 40),),
        latency_graphs=40),
    Workload(
        name="eval_large", index=3, shape=LARGE, model=TINY_MODEL,
        variants=(Variant("full", dict(pe_mode="grpe"), 0, 10),),
        # Rounds are short and many, so that slow phases of a shared machine
        # are spread over every metric rather than hitting one of them.
        latency_graphs=40, latency_per_round=8,
        ckpt_shape=MID, ckpt_train_graphs=16, ckpt_epochs=6),
    Workload(
        # Jacobi makes a laplacian graph ~20x dearer than a graphormer one,
        # so graphormer gets 8x the graphs to keep both visible in each rate.
        name="baselines_small", index=4, shape=SMALL, model=ABLATION_MODEL,
        variants=(
            Variant("graphormer", dict(pe_mode="graphormer"), 512, 400),
            Variant("laplacian", dict(pe_mode="laplacian"), 64, 24),
        ),
        latency_graphs=100, lr_start=8e-4),
    # Test-only: a few seconds end to end, for the output-format test. Two
    # layers, because with one the virtual node's readout sees no distance bucket.
    Workload(
        name="smoke", index=5, shape=SMALL, model=dict(layers=2, d_z=16, ffn_dim=16, heads=2, L=3),
        variants=(Variant("full", dict(pe_mode="grpe"), 16, 40),
                  Variant("laplacian", dict(pe_mode="laplacian"), 16, 40)),
        latency_graphs=40),
)}

PUBLIC_WORKLOADS = ("ablation_small", "tiny_mid", "eval_large", "baselines_small")


def model_config(w: Workload, variant: Variant, seed: int = 0) -> dict:
    cfg = dict(w.model)
    cfg.update(num_edge_types=EDGE_TYPES, node_vocab=NODE_VOCAB, seed=seed)
    cfg.update(variant.config)
    return cfg


def train_kwargs(w: Workload) -> dict:
    """TrainConfig fields: one train() call per round trains one epoch of
    this horizon, so the learning rate follows the full schedule."""
    return dict(epochs=w.horizon_epochs, batch_size=w.batch_size, lr_start=w.lr_start)


# ---------------------------------------------------------------------------
# graphs, distances and targets
# ---------------------------------------------------------------------------

def halton(i: int, base: int) -> float:
    """The i-th point (i >= 1) of the van der Corput sequence in ``base``."""
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def random_record(rng, shape: Shape, u: float, v: float) -> dict:
    """One graph as a file record (without its target). ``u`` and ``v`` in
    [0, 1) place its node count and its edge density within the shape."""
    lo, hi = shape.nodes
    n = lo + min(int(u * (hi - lo + 1)), hi - lo)
    if shape.degree is not None:
        p = (shape.degree[0] + v * (shape.degree[1] - shape.degree[0])) / (n - 1)
    else:
        p = shape.prob[0] + v * (shape.prob[1] - shape.prob[0])
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    types = rng.integers(0, EDGE_TYPES, size=int(keep.sum()))
    edges = [[int(i), int(j), int(t)] for i, j, t in zip(iu[keep], ju[keep], types)]
    nodes = rng.integers(0, NODE_VOCAB, size=n).tolist()
    return {"nodes": nodes, "edges": edges}


def distances(n: int, edges) -> np.ndarray:
    """All-pairs hop distances by frontier expansion; -1 across components."""
    adj = np.zeros((n, n))
    for i, j, _ in edges:
        adj[i, j] = adj[j, i] = 1.0
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    hop = 0
    while frontier.any():
        hop += 1
        nxt = (frontier @ adj > 0) & ~reached
        dist[nxt] = hop
        reached |= nxt
        frontier = nxt.astype(np.float64)
    return dist


def spd2_target(rec: dict) -> float:
    """Fraction of unordered node pairs at shortest-path distance exactly 2."""
    n = len(rec["nodes"])
    d = distances(n, rec["edges"])
    iu = np.triu_indices(n, k=1)
    return int((d[iu] == 2).sum()) / len(iu[0])


def make_records(rng, shape: Shape, count: int) -> list:
    """``count`` graphs whose sizes and densities follow a randomly shifted
    Halton sequence: every prefix of the list covers the shape evenly, so
    the work in a prefix barely changes from seed to seed while the graphs
    themselves do."""
    shift_u, shift_v = rng.random(2)
    out = []
    for i in range(1, count + 1):
        rec = random_record(rng, shape, (halton(i, 2) + shift_u) % 1.0,
                            (halton(i, 3) + shift_v) % 1.0)
        rec["target"] = spd2_target(rec)
        out.append(rec)
    return out


def relabel(rec: dict, perm) -> dict:
    """The same graph with node ``i`` renamed ``perm[i]``."""
    nodes = [0] * len(rec["nodes"])
    for old, new in enumerate(perm):
        nodes[int(new)] = rec["nodes"][old]
    edges = sorted([min(int(perm[i]), int(perm[j])), max(int(perm[i]), int(perm[j])), t]
                   for i, j, t in rec["edges"])
    return {"nodes": nodes, "edges": edges, "target": rec["target"]}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def generate(w: Workload, seed: int, workdir) -> dict:
    """Write every input file of one run (the same seed gives the same
    files). Returns their paths by name, and the benchmark's own copy of
    the test targets."""
    rng = np.random.default_rng([seed, w.index])
    test = make_records(rng, w.shape, w.test_count)
    sets = {
        "train": make_records(rng, w.shape, w.train_count),
        "test": test,
        "checks": make_records(rng, SMALL, 2),  # small graphs for the finite differences
        "perm": [relabel(rec, rng.permutation(len(rec["nodes"])))
                 for rec in test[:w.latency_graphs]],
        "ckpt_train": make_records(rng, w.ckpt_shape, w.ckpt_train_graphs) if w.ckpt_shape else None,
    }
    meta = {"test_targets": [r["target"] for r in test]}
    for name, records in sets.items():
        meta[name] = None if records is None else str(workdir / f"{name}.jsonl")
        if records is not None:
            write_jsonl(meta[name], records)
    return meta


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a list (numpy's default rule)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
