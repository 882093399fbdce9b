"""Learnable encoding tables and input embeddings.

Topology and edge tables carry one row per bucket, with independent
query/key/value variants. A single instance of each table is shared by
reference across every transformer layer, so all layers read and write
the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graphs
from .errors import ConfigError, NumericError, ShapeError
from .linalg import jacobi_eigh
from .tensor import Parameter

INIT_STD = 0.02
DEGREE_CLAMP = 64  # degrees at or above this share the last row


@dataclass
class TopologyTables:
    """Query/key/value rows per topology bucket, each (L + 4) x d_z."""

    query: Parameter
    key: Parameter
    value: Parameter


@dataclass
class EdgeTables:
    """Query/key/value rows per edge bucket, each (E + 3) x d_z."""

    query: Parameter
    key: Parameter
    value: Parameter


@dataclass
class GraphormerBias:
    """Feature-independent attention biases of the scalar-bias baseline.

    ``b`` holds one scalar per (topology bucket, head); ``edge_emb`` and
    ``w`` produce the per-head edge bias as ``edge_emb[bucket] . w[:, h]``.
    With ``shared_w`` the projection collapses to a single shared vector
    (w has one column used by every head).
    """

    b: Parameter          # (L + 4, H)
    edge_emb: Parameter   # (E + 3, d_z)
    w: Parameter          # (d_z, H) or (d_z, 1) when shared
    shared_w: bool = False


@dataclass
class NodeEmbeddings:
    """Type and degree lookup tables for input features.

    ``type_table`` has one row per vocabulary entry plus a trailing
    reserved row for the virtual node. Degree lookups clamp at
    ``DEGREE_CLAMP - 1``.
    """

    type_table: Parameter    # (V + 1, d_z); row V is the virtual-node row
    degree_table: Parameter  # (DEGREE_CLAMP, d_z)

    @property
    def vocab(self) -> int:
        return self.type_table.shape[0] - 1


def _draw(rng, *shape) -> Parameter:
    return Parameter(rng.normal(0.0, INIT_STD, size=shape))


def init_tables(config, seed):
    """Create all encoding parameters for a model configuration.

    Entries are drawn from normal(0, 0.02) in a fixed order, so the same
    seed always yields bit-identical tables. Returns ``(topology, edge,
    nodes, graphormer)``; the last entry is None unless the configuration
    uses the scalar-bias attention mode.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``. ``config``
    is a ``ModelConfig``, which has already validated every field read here.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    table_seed, gbias_seed = base.spawn(2)
    rng = np.random.default_rng(table_seed)

    n_topo = graphs.topo_bucket_count(config.L)
    n_edge = graphs.edge_bucket_count(config.num_edge_types)
    topology = TopologyTables(query=_draw(rng, n_topo, config.d_z),
                              key=_draw(rng, n_topo, config.d_z),
                              value=_draw(rng, n_topo, config.d_z))
    edge = EdgeTables(query=_draw(rng, n_edge, config.d_z),
                      key=_draw(rng, n_edge, config.d_z),
                      value=_draw(rng, n_edge, config.d_z))
    nodes = NodeEmbeddings(type_table=_draw(rng, config.node_vocab + 1, config.d_z),
                           degree_table=_draw(rng, DEGREE_CLAMP, config.d_z))

    graphormer = None
    if config.pe_mode == "graphormer":
        grng = np.random.default_rng(gbias_seed)
        shared = config.graphormer_shared_w
        w_cols = 1 if shared else config.heads
        graphormer = GraphormerBias(b=_draw(grng, n_topo, config.heads),
                                    edge_emb=_draw(grng, n_edge, config.d_z),
                                    w=_draw(grng, config.d_z, w_cols),
                                    shared_w=shared)
    return topology, edge, nodes, graphormer


def embed_nodes(g: graphs.Graph, emb: NodeEmbeddings, use_degree: bool = False) -> np.ndarray:
    """Input features: type row per node, plus a degree row when enabled.

    The virtual node maps to the reserved trailing type row; its degree is
    taken as 0 (it has no real edges). A node type outside the vocabulary
    is a ``ConfigError``: the data does not fit the model.
    """
    vocab = emb.vocab
    ids = np.array(g.node_types, dtype=np.int64)
    if g.has_virtual_node:
        ids[0] = vocab
    real = ids[1:] if g.has_virtual_node else ids
    if real.max(initial=0) >= vocab:
        raise ConfigError(f"node type {int(real.max())} outside the model's "
                          f"vocabulary [0, {vocab})")
    x = emb.type_table.value.data[ids]
    if use_degree:
        deg = np.minimum(np.array(g.degrees(), dtype=np.int64), DEGREE_CLAMP - 1)
        x = x + emb.degree_table.value.data[deg]
    if not np.all(np.isfinite(x)):
        raise NumericError("node embeddings contain non-finite entries")
    return x


def embed_nodes_backward(d_x: np.ndarray, g: graphs.Graph, emb: NodeEmbeddings,
                         use_degree: bool = False):
    """Scatter input-feature gradients back into the lookup tables."""
    ids = np.array(g.node_types, dtype=np.int64)
    if g.has_virtual_node:
        ids[0] = emb.vocab
    np.add.at(emb.type_table.grad.data, ids, d_x)
    if use_degree:
        deg = np.minimum(np.array(g.degrees(), dtype=np.int64), DEGREE_CLAMP - 1)
        np.add.at(emb.degree_table.grad.data, deg, d_x)


def normalized_laplacian(g: graphs.Graph) -> np.ndarray:
    """I - D^(-1/2) A D^(-1/2) over the real nodes; isolated nodes get 0
    in D^(-1/2)."""
    n = g.num_real_nodes
    offset = 1 if g.has_virtual_node else 0
    a = np.zeros((n, n))
    for i, j, _ in g.edges:
        a[i - offset, j - offset] = 1.0
        a[j - offset, i - offset] = 1.0
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    return np.eye(n) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


def laplacian_pe(g: graphs.Graph, k: int) -> np.ndarray:
    """Eigenvectors of the normalized Laplacian for the k smallest
    eigenvalues, one column each.

    Computed on the real nodes only; the virtual-node row (if present) is
    zero. Column signs are fixed deterministically: the entry of largest
    magnitude is made positive (first such entry on ties).
    """
    n = g.num_real_nodes
    if k > n:
        raise ShapeError(f"requested {k} eigenvectors from a {n}-node graph")
    if k < 1:
        raise ShapeError("k must be >= 1")
    lap = normalized_laplacian(g)
    _, vecs = jacobi_eigh(lap)
    cols = vecs[:, :k].copy()
    for c in range(k):
        j = int(np.argmax(np.abs(cols[:, c])))
        if cols[j, c] < 0:
            cols[:, c] = -cols[:, c]
    if g.has_virtual_node:
        out = np.zeros((g.num_nodes, k))
        out[1:] = cols
        return out
    return cols


def sign_flip_augment(pe: np.ndarray, seed) -> np.ndarray:
    """Multiply each column by an independent +/-1 drawn from the seed."""
    rng = np.random.default_rng(seed)
    flips = rng.integers(0, 2, size=pe.shape[1]) * 2 - 1
    return pe * flips[None, :]
