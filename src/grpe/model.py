"""Full model assembly: presets, forward/backward, readouts, and losses.

A model is a stack of pre-norm transformer blocks over type embeddings,
with one topology table set and one edge table set shared by reference
across all blocks. Graph-level tasks read out from the virtual node at
index 0; node-level tasks read out per real node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graphs
from .attention import AttentionParams, BlockParams, PEMode, TransformerBlock
from .encodings import (NodeEmbeddings, embed_nodes, embed_nodes_backward,
                        init_tables, laplacian_pe)
from .errors import ConfigError, NumericError
from .tensor import Parameter, softmax_lastdim

PE_MODES = ("none", "grpe", "graphormer", "laplacian")
TASKS = ("graph_regression", "node_classification")

# Layer count / hidden dim / FFN dim / heads of the two published sizes.
PRESETS = {
    "tiny": dict(layers=4, d_z=64, ffn_dim=64, heads=8),
    "small": dict(layers=12, d_z=80, ffn_dim=80, heads=8),
}

INIT_STD = 0.02

# Most rows any bucket or type table may have. A config asking for more is
# refused before a table, its gradient and its Adam moments are allocated.
MAX_TABLE_ROWS = 1024


@dataclass
class ModelConfig:
    layers: int = 4
    d_z: int = 64
    ffn_dim: int = 64
    heads: int = 8
    L: int = 5
    num_edge_types: int = 4
    node_vocab: int = 32
    pe_mode: str = "grpe"
    fast: bool = True
    use_degree: bool = False
    use_topology: bool = True
    use_edge: bool = True
    use_value: bool = True
    graphormer_shared_w: bool = False
    task: str = "graph_regression"
    num_classes: int = 3
    lap_pe_dim: int = 8
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.pe_mode not in PE_MODES:
            raise ConfigError(f"pe_mode must be one of {PE_MODES}, got {self.pe_mode!r}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.heads < 1 or self.ffn_dim < 1 or self.d_z < 1:
            raise ConfigError("d_z, ffn_dim and heads must be >= 1")
        if self.d_z % self.heads != 0:
            raise ConfigError(f"d_z={self.d_z} not divisible by heads={self.heads}")
        if self.L < 1:
            raise ConfigError("L must be >= 1")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.num_edge_types < 0 or self.node_vocab < 1:
            raise ConfigError("num_edge_types must be >= 0 and node_vocab >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.lap_pe_dim < 1 or self.lap_pe_dim > self.d_z:
            raise ConfigError("lap_pe_dim must be in [1, d_z]")
        for field, rows in (("L", graphs.topo_bucket_count(self.L)),
                            ("num_edge_types", graphs.edge_bucket_count(self.num_edge_types)),
                            ("node_vocab", self.node_vocab + 1)):
            if rows > MAX_TABLE_ROWS:
                raise ConfigError(f"{field}={getattr(self, field)} needs a table of {rows} "
                                  f"rows, above the cap of {MAX_TABLE_ROWS}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "ModelConfig":
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
        merged = dict(PRESETS[name])
        merged.update(overrides)
        return cls(**merged)

    def attention_mode(self) -> PEMode:
        if self.pe_mode in ("none", "laplacian"):
            return PEMode("none")
        if self.pe_mode == "graphormer":
            return PEMode("graphormer")
        kind = "grpe_fast" if self.fast else "grpe_naive"
        return PEMode(kind, self.use_topology, self.use_edge, self.use_value)


@dataclass
class PreparedSample:
    """A graph with the virtual node attached and its index matrices.

    The index matrices are None when the model's attention reads no
    buckets (``pe_mode`` none and laplacian).
    """

    graph: graphs.Graph
    topo_idx: np.ndarray | None
    edge_idx: np.ndarray | None
    target: float | None = None
    node_labels: np.ndarray | None = None
    input_pe: np.ndarray | None = None  # additive input encoding rows, or None


class Model:
    """GRPE-style graph transformer with hand-wired backward passes."""

    def __init__(self, config: ModelConfig, nodes: NodeEmbeddings, topology, edge,
                 graphormer, blocks, head_w: Parameter, head_b: Parameter):
        self.config = config
        self.nodes = nodes
        self.topology = topology
        self.edge = edge
        self.graphormer = graphormer
        self.blocks = blocks
        self.head_w = head_w
        self.head_b = head_b
        self.trainer = None  # TrainerState once training starts

    # -- parameter registry -------------------------------------------------

    def parameters(self):
        """All parameters as (stable name, Parameter) pairs."""
        out = [("nodes.type_table", self.nodes.type_table),
               ("nodes.degree_table", self.nodes.degree_table),
               ("topology.query", self.topology.query),
               ("topology.key", self.topology.key),
               ("topology.value", self.topology.value),
               ("edge.query", self.edge.query),
               ("edge.key", self.edge.key),
               ("edge.value", self.edge.value)]
        if self.graphormer is not None:
            out += [("graphormer.b", self.graphormer.b),
                    ("graphormer.edge_emb", self.graphormer.edge_emb),
                    ("graphormer.w", self.graphormer.w)]
        for i, blk in enumerate(self.blocks):
            p = blk.params
            out += [(f"blocks.{i}.ln1_gain", p.ln1_gain),
                    (f"blocks.{i}.ln1_bias", p.ln1_bias),
                    (f"blocks.{i}.attn.w_query", p.attn.w_query),
                    (f"blocks.{i}.attn.w_key", p.attn.w_key),
                    (f"blocks.{i}.attn.w_value", p.attn.w_value),
                    (f"blocks.{i}.attn.w_out", p.attn.w_out),
                    (f"blocks.{i}.ln2_gain", p.ln2_gain),
                    (f"blocks.{i}.ln2_bias", p.ln2_bias),
                    (f"blocks.{i}.ffn_w1", p.ffn_w1),
                    (f"blocks.{i}.ffn_b1", p.ffn_b1),
                    (f"blocks.{i}.ffn_w2", p.ffn_w2),
                    (f"blocks.{i}.ffn_b2", p.ffn_b2)]
        out += [("head.weight", self.head_w), ("head.bias", self.head_b)]
        return out

    def zero_grad(self):
        for _, p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.value.size for _, p in self.parameters())

    # -- data preparation ----------------------------------------------------

    def prepare(self, sample: graphs.GraphSample) -> PreparedSample:
        """Attach the virtual node and build index matrices for one sample."""
        cfg = self.config
        if cfg.task == "graph_regression" and sample.target is None:
            raise ConfigError("graph_regression expects samples with a scalar target")
        if cfg.task == "node_classification" and sample.node_labels is None:
            raise ConfigError("node_classification expects samples with node labels")
        try:
            sample = graphs.restamp_edge_types(sample, cfg.num_edge_types)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        g = graphs.attach_virtual_node(sample.graph)
        topo_idx = edge_idx = None
        if cfg.attention_mode().kind != "none":  # the plain kernels read no buckets
            dist = graphs.bounded_distances(g, cfg.L)
            topo_idx = graphs.topology_indices(dist, cfg.L, has_virtual_node=True)
            edge_idx = graphs.edge_indices(g)
        input_pe = None
        if cfg.pe_mode == "laplacian":
            k = min(cfg.lap_pe_dim, g.num_real_nodes)
            pe = laplacian_pe(g, k)
            input_pe = np.zeros((g.num_nodes, cfg.d_z))
            input_pe[:, :k] = pe
        labels = None
        if sample.node_labels is not None:
            labels = np.array(sample.node_labels, dtype=np.int64)
            if labels.size and labels.max() >= cfg.num_classes:
                raise ConfigError(f"node label outside [0, {cfg.num_classes})")
        return PreparedSample(graph=g, topo_idx=topo_idx, edge_idx=edge_idx,
                              target=sample.target, node_labels=labels,
                              input_pe=input_pe)

    # -- forward / backward ---------------------------------------------------

    def _run(self, group, drop=None):
        """Forward over one prepared sample, or over a list of them run as
        one padded group (see ``attention``); returns ``(prediction, cache)``.

        A single sample's prediction is one value, a group's a list of them
        in group order. A group of one runs on the graph's own (N, d) arrays,
        without a group axis. ``drop`` is None or one ``draw_dropout`` entry
        per graph. ``cache["blocks"]`` holds each block's cache, and with it
        that layer's attention map.
        """
        cfg = self.config
        single = isinstance(group, PreparedSample)
        preps = [group] if single else list(group)
        if not all(p.graph.has_virtual_node for p in preps):
            raise ConfigError("forward expects a prepared graph with the virtual node attached")
        sizes = [p.graph.num_nodes for p in preps]
        n = max(sizes)
        rows = []
        for p in preps:
            emb = embed_nodes(p.graph, self.nodes, cfg.use_degree)
            rows.append(emb if p.input_pe is None else emb + p.input_pe)
        mode = cfg.attention_mode()
        t_idx = e_idx = key_bias = None
        if len(preps) == 1:
            x, t_idx, e_idx = rows[0], preps[0].topo_idx, preps[0].edge_idx
        else:
            x = _pad_rows(rows, n)
            if mode.kind != "none":
                t_idx = _pad_pairs([p.topo_idx for p in preps], n)
                e_idx = _pad_pairs([p.edge_idx for p in preps], n)
            if min(sizes) < n:
                key_bias = _key_bias(sizes, n)
        block_caches = []
        for layer, blk in enumerate(self.blocks):
            masks = None
            if drop is not None:
                per_graph = [d[layer] for d in drop]  # (attention, FFN) masks per graph
                masks = per_graph[0] if len(preps) == 1 else \
                    tuple(_pad_rows([m[k] for m in per_graph], n) for k in (0, 1))
            x, cache = blk.forward(x, mode, t_idx, e_idx, key_bias=key_bias, drop=masks)
            block_caches.append(cache)
        x3 = x.reshape(len(preps), n, cfg.d_z)
        if cfg.task == "graph_regression":
            values = x3[:, 0] @ self.head_w.value.data[:, 0] + self.head_b.value.data[0]
            preds = [float(v) for v in values]
        else:
            logits = x3[:, 1:] @ self.head_w.value.data + self.head_b.value.data
            preds = [logits[b, :size - 1] for b, size in enumerate(sizes)]
        cache = {"preps": preps, "sizes": sizes, "single": single,
                 "blocks": block_caches, "x_final": x}
        return (preds[0] if single else preds), cache

    def forward(self, prep, want_trace: bool = False):
        """Prediction for one prepared sample, or a list of them for a group.

        With ``want_trace`` it returns ``(prediction, maps)``: one
        (H, [B,] N, N) attention map per layer, rows summing to 1 and
        padded keys of a group weighted exactly 0."""
        pred, cache = self._run(prep)
        if not want_trace:
            return pred
        return pred, [blk["mha_cache"]["attn"] for blk in cache["blocks"]]

    def forward_with_cache(self, prep):
        return self._run(prep)

    def predict(self, sample: graphs.GraphSample):
        return self.forward(self.prepare(sample))

    def draw_dropout(self, num_nodes: int, rate: float, rng) -> list:
        """Per-block (attention, FFN) dropout masks for one graph, scaled by
        1 / (1 - rate) and drawn from ``rng`` in the order the blocks apply them."""
        shape = (num_nodes, self.config.d_z)
        return [tuple((rng.random(shape) >= rate) / (1.0 - rate) for _ in range(2))
                for _ in self.blocks]

    def backward(self, d_pred, cache):
        """Accumulate gradients of a scalar loss given d loss / d prediction
        (a list, one per graph, when the forward ran a group)."""
        x, sizes = cache["x_final"], cache["sizes"]
        d_preds = [d_pred] if cache["single"] else d_pred
        x3 = x.reshape(len(sizes), -1, x.shape[-1])
        d_x = np.zeros_like(x3)
        if self.config.task == "graph_regression":
            g = np.array([float(v) for v in d_preds])
            self.head_w.grad.data[:, 0] += g @ x3[:, 0]
            self.head_b.grad.data[0] += g.sum()
            d_x[:, 0] = g[:, None] * self.head_w.value.data[:, 0]
        else:
            d_logits = _pad_rows([np.asarray(d) for d in d_preds], x3.shape[1] - 1)
            flat = d_logits.reshape(-1, d_logits.shape[-1])
            self.head_w.grad.data += x3[:, 1:].reshape(len(flat), -1).T @ flat
            self.head_b.grad.data += flat.sum(axis=0)
            d_x[:, 1:] = d_logits @ self.head_w.value.data.T
        d_x = d_x.reshape(x.shape)
        for blk, blk_cache in zip(reversed(self.blocks), reversed(cache["blocks"])):
            d_x = blk.backward(d_x, blk_cache)
        for d_rows, p, size in zip(d_x.reshape(x3.shape), cache["preps"], sizes):
            embed_nodes_backward(d_rows[:size], p.graph, self.nodes, self.config.use_degree)


def _pad_rows(arrays, n: int) -> np.ndarray:
    """Stack (n_b, ...) arrays, n_b <= n, into one zero-padded (B, n, ...) array."""
    out = np.zeros((len(arrays), n) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    for slot, a in zip(out, arrays):
        slot[:len(a)] = a
    return out


def _pad_pairs(mats, n: int) -> np.ndarray:
    """Stack (n_b, n_b) bucket matrices into one (B, n, n) array whose
    padded pairs hold bucket 0."""
    out = np.zeros((len(mats), n, n), dtype=mats[0].dtype)
    for slot, m in zip(out, mats):
        slot[:len(m), :len(m)] = m
    return out


def _key_bias(sizes, n: int) -> np.ndarray:
    """(B, 1, n) score bias: -inf on each graph's padded keys, 0 elsewhere."""
    return np.where(np.arange(n) < np.array(sizes)[:, None], 0.0, -np.inf)[:, None, :]


def _normal_param(rng, *shape) -> Parameter:
    return Parameter(rng.normal(0.0, INIT_STD, size=shape))


def build_model(config: ModelConfig) -> Model:
    """Deterministically instantiate a model from its configuration.

    Encoding tables are created once and every block holds references to
    the same objects. Parameter draws use fixed, mode-independent streams
    so models differing only in ``pe_mode`` share identical weights.
    """
    base = np.random.SeedSequence(config.seed)
    enc_seed, block_seed = base.spawn(2)
    topology, edge, nodes, gbias = init_tables(config, enc_seed)
    rng = np.random.default_rng(block_seed)

    blocks = []
    for _ in range(config.layers):
        attn = AttentionParams(w_query=_normal_param(rng, config.d_z, config.d_z),
                               w_key=_normal_param(rng, config.d_z, config.d_z),
                               w_value=_normal_param(rng, config.d_z, config.d_z),
                               w_out=_normal_param(rng, config.d_z, config.d_z),
                               heads=config.heads)
        params = BlockParams(attn=attn,
                             ln1_gain=Parameter(np.ones(config.d_z)),
                             ln1_bias=Parameter(np.zeros(config.d_z)),
                             ln2_gain=Parameter(np.ones(config.d_z)),
                             ln2_bias=Parameter(np.zeros(config.d_z)),
                             ffn_w1=_normal_param(rng, config.d_z, config.ffn_dim),
                             ffn_b1=Parameter(np.zeros(config.ffn_dim)),
                             ffn_w2=_normal_param(rng, config.ffn_dim, config.d_z),
                             ffn_b2=Parameter(np.zeros(config.d_z)))
        blocks.append(TransformerBlock(params, topology=topology, edge=edge, graphormer=gbias))

    out_dim = 1 if config.task == "graph_regression" else config.num_classes
    head_w = _normal_param(rng, config.d_z, out_dim)
    head_b = Parameter(np.zeros(out_dim))
    return Model(config, nodes, topology, edge, gbias, blocks, head_w, head_b)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _check_finite_pred(pred):
    arr = np.asarray(pred, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("prediction contains non-finite values")


def loss(pred, target, task: str) -> float:
    """Scalar training loss: MAE for regression, mean cross-entropy for
    node classification."""
    value, _ = loss_and_grad(pred, target, task)
    return value


def loss_and_grad(pred, target, task: str):
    _check_finite_pred(pred)
    if task == "graph_regression":
        diff = float(pred) - float(target)
        return abs(diff), float(np.sign(diff))
    if task != "node_classification":
        raise ConfigError(f"unknown task {task!r}")
    logits = np.asarray(pred, dtype=np.float64)
    labels = np.asarray(target, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ConfigError(f"logits {logits.shape} do not match {labels.shape[0]} labels")
    n = logits.shape[0]
    probs = softmax_lastdim(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = float(-logp[np.arange(n), labels].sum() / n)
    one_hot = np.zeros_like(logits)
    one_hot[np.arange(n), labels] = 1.0
    d_logits = (probs - one_hot) * (1.0 / n)
    return value, d_logits
