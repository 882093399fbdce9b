"""Attention variants and the transformer block.

Four score paths share one softmax/value pipeline:

* ``none``: plain scaled dot product;
* ``grpe_naive``: per-pair dot products against topology/edge encoding
  rows, the O(N^2 d) reference implementation;
* ``grpe_fast``: the same map assembled from precomputed node-feature x
  encoding-row products plus index lookups, an algebraic identity of the
  naive form (verified against it, never trusted on its own);
* ``graphormer``: feature-independent scalar bucket biases.

All kernels are batched over heads: matrices are split to (H, N, d_h) and
encoding tables to (H, R, d_h) column blocks, mirroring how q/k/v are
sliced. Every forward returns its result and a cache, and has a matching
backward that reads that cache and accumulates into the shared
``Parameter`` gradients; there is no tape. The attention map of a layer
is ``cache["attn"]`` of ``mha_forward``.

The fast grpe kernels treat the two bucket kinds alike: each loops over
the enabled (tables, bucket matrix) pairs, topology before edge, and
adds one node-topology or node-edge term per pair to the scores and
values. The naive kernels spell both terms out per pair, as the
reference they are checked against.

A group of graphs runs as one pass. Node features are then (B, N, d),
with every graph padded to the group's largest node count N; per-head
arrays are (H, B, N, .) and bucket matrices (B, N, N). Padded pairs hold
bucket 0, and ``key_bias`` adds -inf to the scores of padded keys, so no
real node attends to padding. Padded rows still compute finite values,
but every gradient reaching them is an exact zero: the readout reads no
padded row and a padded key has zero attention weight, so padding adds
only zeros to every parameter gradient. Without the group axis (a single
graph) every kernel takes the same arrays minus that axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (Parameter, layer_norm_rows, layer_norm_rows_backward,
                     softmax_lastdim, softmax_lastdim_backward)

SCORE_KINDS = ("none", "grpe_naive", "grpe_fast", "graphormer")


class DotProductCounter:
    """Counts vector dot products spent assembling encoding score terms.

    Only the query/key-vs-encoding-row products are counted (the shared
    q . k term and the value path are excluded), so naive and fast paths
    can be compared on the work the precompute actually removes.
    """

    def __init__(self):
        self.total = 0

    def add(self, n: int):
        self.total += int(n)

    def reset(self):
        self.total = 0


score_dot_counter = DotProductCounter()


@dataclass
class AttentionParams:
    """Projection weights of one attention layer (no biases)."""

    w_query: Parameter   # (d_x, d_z)
    w_key: Parameter
    w_value: Parameter
    w_out: Parameter     # (d_z, d_z)
    heads: int

    def __post_init__(self):
        d_z = self.w_query.shape[1]
        if d_z % self.heads != 0:
            raise ConfigError(f"d_z={d_z} not divisible by heads={self.heads}")


@dataclass(frozen=True)
class PEMode:
    """Which score path to run and which encoding components to enable."""

    kind: str
    use_topology: bool = True
    use_edge: bool = True
    use_value: bool = True

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ConfigError(f"unknown attention mode {self.kind!r}; expected one of {SCORE_KINDS}")


# Axis orders that move the head axis to the front and back, by the rank
# of the split array: (rows, H, d_h) for one graph, (B, rows, H, d_h) for a group.
_HEADS_FIRST = {3: (1, 0, 2), 4: (2, 0, 1, 3)}
_HEADS_BACK = {3: (1, 0, 2), 4: (1, 2, 0, 3)}


def split_heads(m: np.ndarray, heads: int) -> np.ndarray:
    """([B,] rows, d_z) -> (H, [B,] rows, d_z / H), contiguous per head."""
    split = m.reshape(m.shape[:-1] + (heads, m.shape[-1] // heads))
    return np.ascontiguousarray(split.transpose(_HEADS_FIRST[split.ndim]))


def merge_heads(m: np.ndarray) -> np.ndarray:
    """(H, [B,] rows, d_h) -> ([B,] rows, H * d_h); inverse of split_heads."""
    return m.transpose(_HEADS_BACK[m.ndim]).reshape(m.shape[1:-1] + (-1,))


def _rows(m: np.ndarray) -> np.ndarray:
    """(H, ..., N, k) -> (H, rows, k): every graph's nodes as one row block."""
    return m.reshape(m.shape[0], -1, m.shape[-1])


def _fold_table_grad(param: Parameter, d_split: np.ndarray):
    param.grad.data += merge_heads(d_split)


# ---------------------------------------------------------------------------
# bucket gathers and scatters over flat positions
#
# A per-node bucket table (H, [B,] N, R) is read per pair (i, j) at node i
# (the query side) or node j (the key side) and bucket idx[i, j]. Flattening
# each head's table to one row turns that into one 1-D position per pair, so
# a gather is one ``np.take`` and its adjoint scatter one ``np.bincount``.
# Positions are rebuilt per call rather than cached: they cost about as much
# memory as the bucket matrix itself, for every layer whose cache is alive.
# ---------------------------------------------------------------------------

def _bucket_positions(idx: np.ndarray, buckets: int, by_key: bool) -> np.ndarray:
    """Raveled ``node * buckets + idx[.., i, j]`` over ([B,] N, N), where
    node counts through the group: ``b * N + i`` (query) or ``b * N + j`` (key)."""
    n = idx.shape[-1]
    node = np.arange(0, idx.size // n * buckets, buckets)
    return (node.reshape((-1, 1, n) if by_key else (-1, n, 1)) + idx).ravel()


def _gather_buckets(table: np.ndarray, idx: np.ndarray, by_key: bool = False) -> np.ndarray:
    """(H, [B,] N, R) per-node bucket table -> (H, [B,] N, N) values
    ``table[h, i, idx[i, j]]``, or ``table[h, j, idx[i, j]]`` when ``by_key``."""
    heads = table.shape[0]
    pos = _bucket_positions(idx, table.shape[-1], by_key)
    return table.reshape(heads, -1).take(pos, axis=1).reshape((heads,) + idx.shape)


def _bucket_sums(pairs: np.ndarray, pos: np.ndarray, size: int) -> np.ndarray:
    """(H, ...) pair values -> (H, size) sums per flat position ``pos``.

    One ``np.bincount`` serves every head: head h's positions are offset
    by ``h * size``. It adds each bin's terms in pair order, starting from
    zero, so the sums equal a sequential ``np.add.at`` into zeros bit for bit.
    """
    heads = pairs.shape[0]
    flat = (np.arange(0, heads * size, size)[:, None] + pos).ravel()
    return np.bincount(flat, weights=pairs.ravel(),
                       minlength=heads * size).reshape(heads, size)


def _scatter_buckets(pairs: np.ndarray, idx: np.ndarray, buckets: int,
                     by_key: bool = False) -> np.ndarray:
    """Adjoint of ``_gather_buckets``: (H, [B,] N, N) -> (H, [B,] N, R) bucket sums."""
    heads = pairs.shape[0]
    pos = _bucket_positions(idx, buckets, by_key)
    sums = _bucket_sums(pairs, pos, idx.size // idx.shape[-1] * buckets)
    return sums.reshape(heads, *idx.shape[:-1], buckets)


# ---------------------------------------------------------------------------
# score kernels (forward + backward), batched over heads
# ---------------------------------------------------------------------------

def _plain_scores_fwd(qh, kh):
    scale = 1.0 / math.sqrt(qh.shape[-1])
    cache = {"kind": "none", "qh": qh, "kh": kh, "scale": scale}
    return (qh @ kh.swapaxes(-1, -2)) * scale, cache


def _plain_scores_bwd(d_scores, cache):
    g = d_scores * cache["scale"]
    dqh = g @ cache["kh"]
    dkh = g.swapaxes(-1, -2) @ cache["qh"]
    return dqh, dkh


def _as_group(m: np.ndarray, heads_first: bool) -> np.ndarray:
    """A view with an explicit group axis: (H, B, N, .) or (B, N, N)."""
    if heads_first:
        return m.reshape(m.shape[0], -1, *m.shape[-2:])
    return m.reshape(-1, *m.shape[-2:])


def _grpe_scores_naive_fwd(qh, kh, t_idx, e_idx, topology, edge, mode):
    heads, dh = qh.shape[0], qh.shape[-1]
    scale = 1.0 / math.sqrt(dh)
    pq = split_heads(topology.query.value.data, heads) if mode.use_topology else None
    pk = split_heads(topology.key.value.data, heads) if mode.use_topology else None
    eq = split_heads(edge.query.value.data, heads) if mode.use_edge else None
    ek = split_heads(edge.key.value.data, heads) if mode.use_edge else None

    shape = qh.shape[:-1] + qh.shape[-2:-1]
    dot = np.zeros(shape)
    topo_term = np.zeros(shape) if mode.use_topology else None
    edge_term = np.zeros(shape) if mode.use_edge else None
    q4, k4 = _as_group(qh, True), _as_group(kh, True)
    dot4 = _as_group(dot, True)
    topo4 = _as_group(topo_term, True) if mode.use_topology else None
    edge4 = _as_group(edge_term, True) if mode.use_edge else None
    for b in range(q4.shape[1]):
        t_b = _as_group(t_idx, False)[b] if mode.use_topology else None
        e_b = _as_group(e_idx, False)[b] if mode.use_edge else None
        n = q4.shape[2]
        for h in range(heads):
            q, k = q4[h, b], k4[h, b]
            for i in range(n):
                for j in range(n):
                    dot4[h, b, i, j] = np.dot(q[i], k[j])
                    if mode.use_topology:
                        t = t_b[i, j]
                        topo4[h, b, i, j] = np.dot(q[i], pq[h][t]) + np.dot(k[j], pk[h][t])
                    if mode.use_edge:
                        e = e_b[i, j]
                        edge4[h, b, i, j] = np.dot(q[i], eq[h][e]) + np.dot(k[j], ek[h][e])
    pairs = dot.size // heads
    if mode.use_topology:
        score_dot_counter.add(2 * heads * pairs)
    if mode.use_edge:
        score_dot_counter.add(2 * heads * pairs)

    scores = dot.copy()
    if topo_term is not None:
        scores += topo_term
    if edge_term is not None:
        scores += edge_term
    scores *= scale
    cache = {"kind": "grpe_naive", "qh": qh, "kh": kh, "t_idx": t_idx, "e_idx": e_idx,
             "topology": topology, "edge": edge, "mode": mode, "scale": scale,
             "pq": pq, "pk": pk, "eq": eq, "ek": ek}
    return scores, cache


def _grpe_scores_naive_bwd(d_scores, cache):
    qh, kh = cache["qh"], cache["kh"]
    mode = cache["mode"]
    pq, pk, eq, ek = cache["pq"], cache["pk"], cache["eq"], cache["ek"]
    heads = qh.shape[0]
    dqh = np.zeros_like(qh)
    dkh = np.zeros_like(kh)
    dpq = np.zeros_like(pq) if mode.use_topology else None
    dpk = np.zeros_like(pk) if mode.use_topology else None
    deq = np.zeros_like(eq) if mode.use_edge else None
    dek = np.zeros_like(ek) if mode.use_edge else None
    q4, k4 = _as_group(qh, True), _as_group(kh, True)
    dq4, dk4 = _as_group(dqh, True), _as_group(dkh, True)
    ds4 = _as_group(d_scores, True)
    for b in range(q4.shape[1]):
        t_b = _as_group(cache["t_idx"], False)[b] if mode.use_topology else None
        e_b = _as_group(cache["e_idx"], False)[b] if mode.use_edge else None
        n = q4.shape[2]
        for h in range(heads):
            q, k = q4[h, b], k4[h, b]
            for i in range(n):
                for j in range(n):
                    g = ds4[h, b, i, j] * cache["scale"]
                    if g == 0.0:
                        continue
                    dq4[h, b, i] += g * k[j]
                    dk4[h, b, j] += g * q[i]
                    if mode.use_topology:
                        t = t_b[i, j]
                        dq4[h, b, i] += g * pq[h][t]
                        dk4[h, b, j] += g * pk[h][t]
                        dpq[h][t] += g * q[i]
                        dpk[h][t] += g * k[j]
                    if mode.use_edge:
                        e = e_b[i, j]
                        dq4[h, b, i] += g * eq[h][e]
                        dk4[h, b, j] += g * ek[h][e]
                        deq[h][e] += g * q[i]
                        dek[h][e] += g * k[j]
    if mode.use_topology:
        _fold_table_grad(cache["topology"].query, dpq)
        _fold_table_grad(cache["topology"].key, dpk)
    if mode.use_edge:
        _fold_table_grad(cache["edge"].query, deq)
        _fold_table_grad(cache["edge"].key, dek)
    return dqh, dkh


def _grpe_scores_fast_fwd(qh, kh, t_idx, e_idx, topology, edge, mode):
    heads, dh = qh.shape[0], qh.shape[-1]
    scale = 1.0 / math.sqrt(dh)
    q_rows, k_rows = _rows(qh), _rows(kh)
    scores = qh @ kh.swapaxes(-1, -2)
    kinds = []   # (tables, bucket matrix, pq, pk) per enabled kind, for the backward
    for on, tables, idx in ((mode.use_topology, topology, t_idx), (mode.use_edge, edge, e_idx)):
        if not on:
            continue
        pq = split_heads(tables.query.value.data, heads)
        pk = split_heads(tables.key.value.data, heads)
        a_q = q_rows @ pq.transpose(0, 2, 1)   # (H, rows, R): q_i . P_b for every bucket b
        a_k = k_rows @ pk.transpose(0, 2, 1)
        score_dot_counter.add(2 * a_q.size)
        scores += _gather_buckets(a_q, idx) + _gather_buckets(a_k, idx, by_key=True)
        kinds.append((tables, idx, pq, pk))
    scores *= scale
    cache = {"kind": "grpe_fast", "qh": qh, "kh": kh, "scale": scale, "kinds": kinds}
    return scores, cache


def _grpe_scores_fast_bwd(d_scores, cache):
    qh, kh = cache["qh"], cache["kh"]
    g = d_scores * cache["scale"]
    dqh = g @ kh
    dkh = g.swapaxes(-1, -2) @ qh
    q_rows, k_rows = _rows(qh), _rows(kh)
    dq_rows, dk_rows = _rows(dqh), _rows(dkh)   # views: += writes into dqh, dkh
    for tables, idx, pq, pk in cache["kinds"]:
        da_q = _rows(_scatter_buckets(g, idx, pq.shape[1]))
        da_k = _rows(_scatter_buckets(g, idx, pk.shape[1], by_key=True))
        dq_rows += da_q @ pq
        dk_rows += da_k @ pk
        _fold_table_grad(tables.query, da_q.transpose(0, 2, 1) @ q_rows)
        _fold_table_grad(tables.key, da_k.transpose(0, 2, 1) @ k_rows)
    return dqh, dkh


def _graphormer_scores_fwd(qh, kh, t_idx, e_idx, gbias):
    heads, dh = qh.shape[0], qh.shape[-1]
    scale = 1.0 / math.sqrt(dh)
    dot = qh @ kh.swapaxes(-1, -2)
    b = gbias.b.value.data
    topo_term = b.T.take(t_idx, axis=1)                   # (H, [B,] N, N)
    ew = gbias.edge_emb.value.data @ gbias.w.value.data   # (E + 3, H or 1)
    edge_term = ew.T.take(e_idx, axis=1)
    if gbias.shared_w:
        edge_term = np.broadcast_to(edge_term, (heads,) + e_idx.shape)
    # Only the dot term is scaled; the biases are added as-is.
    scores = dot * scale + topo_term + edge_term
    cache = {"kind": "graphormer", "qh": qh, "kh": kh, "t_idx": t_idx,
             "e_idx": e_idx, "gbias": gbias, "scale": scale}
    return scores, cache


def _graphormer_scores_bwd(d_scores, cache):
    qh, kh = cache["qh"], cache["kh"]
    t_idx, e_idx, gbias = cache["t_idx"], cache["e_idx"], cache["gbias"]
    g = d_scores * cache["scale"]
    dqh = g @ kh
    dkh = g.swapaxes(-1, -2) @ qh
    gbias.b.grad.data += _bucket_sums(d_scores, t_idx.ravel(), gbias.b.shape[0]).T
    w = gbias.w.value.data
    d_bias = d_scores.sum(axis=0, keepdims=True) if gbias.shared_w else d_scores
    d_ew = _bucket_sums(d_bias, e_idx.ravel(), gbias.edge_emb.shape[0]).T  # (E + 3, H or 1)
    gbias.edge_emb.grad.data += d_ew @ w.T
    gbias.w.grad.data += gbias.edge_emb.value.data.T @ d_ew
    return dqh, dkh


def _scores_fwd(mode, qh, kh, t_idx, e_idx, topology, edge, gbias):
    """(H, [B,] N, N) scaled scores and the cache ``_scores_bwd`` reads."""
    if mode.kind == "none":
        return _plain_scores_fwd(qh, kh)
    if mode.kind == "grpe_naive":
        return _grpe_scores_naive_fwd(qh, kh, t_idx, e_idx, topology, edge, mode)
    if mode.kind == "grpe_fast":
        return _grpe_scores_fast_fwd(qh, kh, t_idx, e_idx, topology, edge, mode)
    if mode.kind == "graphormer":
        return _graphormer_scores_fwd(qh, kh, t_idx, e_idx, gbias)
    raise ConfigError(f"unknown attention mode {mode.kind!r}")


def _scores_bwd(d_scores, cache):
    kind = cache["kind"]
    if kind == "none":
        return _plain_scores_bwd(d_scores, cache)
    if kind == "grpe_naive":
        return _grpe_scores_naive_bwd(d_scores, cache)
    if kind == "grpe_fast":
        return _grpe_scores_fast_bwd(d_scores, cache)
    return _graphormer_scores_bwd(d_scores, cache)


# ---------------------------------------------------------------------------
# value kernels
# ---------------------------------------------------------------------------

def _values_plain_fwd(attn, vh):
    zh = attn @ vh
    return zh, {"kind": "plain", "attn": attn, "vh": vh}


def _values_plain_bwd(d_zh, cache):
    d_attn = d_zh @ cache["vh"].swapaxes(-1, -2)
    d_vh = cache["attn"].swapaxes(-1, -2) @ d_zh
    return d_attn, d_vh


def _grpe_values_fast_fwd(attn, vh, t_idx, e_idx, topology, edge):
    heads = attn.shape[0]
    zh = attn @ vh
    z_rows = _rows(zh)
    kinds = []   # (tables, bucket matrix, pv, bucket mass) per kind, for the backward
    for tables, idx in ((topology, t_idx), (edge, e_idx)):
        pv = split_heads(tables.value.value.data, heads)
        # Bucket mass: total attention each query spends on every bucket.
        mass = _rows(_scatter_buckets(attn, idx, pv.shape[1]))
        z_rows += mass @ pv
        kinds.append((tables, idx, pv, mass))
    cache = {"kind": "grpe_fast", "attn": attn, "vh": vh, "kinds": kinds}
    return zh, cache


def _grpe_values_fast_bwd(d_zh, cache):
    attn, vh = cache["attn"], cache["vh"]
    d_attn = d_zh @ vh.swapaxes(-1, -2)
    d_vh = attn.swapaxes(-1, -2) @ d_zh
    dz_rows = _rows(d_zh)
    for tables, idx, pv, mass in cache["kinds"]:
        d_attn += _gather_buckets(dz_rows @ pv.transpose(0, 2, 1), idx)
        _fold_table_grad(tables.value, mass.transpose(0, 2, 1) @ dz_rows)
    return d_attn, d_vh


def _grpe_values_naive_fwd(attn, vh, t_idx, e_idx, topology, edge):
    heads = attn.shape[0]
    pv = split_heads(topology.value.value.data, heads)
    ev = split_heads(edge.value.value.data, heads)
    zh = np.zeros_like(vh)
    a4, v4, z4 = _as_group(attn, True), _as_group(vh, True), _as_group(zh, True)
    for b in range(a4.shape[1]):
        t_b, e_b = _as_group(t_idx, False)[b], _as_group(e_idx, False)[b]
        n = a4.shape[2]
        for h in range(heads):
            for i in range(n):
                acc = np.zeros(v4.shape[3])
                for j in range(n):
                    acc += a4[h, b, i, j] * (v4[h, b, j] + pv[h][t_b[i, j]] + ev[h][e_b[i, j]])
                z4[h, b, i] = acc
    cache = {"kind": "grpe_naive", "attn": attn, "vh": vh, "t_idx": t_idx, "e_idx": e_idx,
             "topology": topology, "edge": edge, "pv": pv, "ev": ev}
    return zh, cache


def _grpe_values_naive_bwd(d_zh, cache):
    attn, vh = cache["attn"], cache["vh"]
    pv, ev = cache["pv"], cache["ev"]
    heads = attn.shape[0]
    d_attn = np.zeros_like(attn)
    d_vh = np.zeros_like(vh)
    dpv = np.zeros_like(pv)
    dev = np.zeros_like(ev)
    a4, v4, g4 = _as_group(attn, True), _as_group(vh, True), _as_group(d_zh, True)
    da4, dv4 = _as_group(d_attn, True), _as_group(d_vh, True)
    for b in range(a4.shape[1]):
        t_b = _as_group(cache["t_idx"], False)[b]
        e_b = _as_group(cache["e_idx"], False)[b]
        n = a4.shape[2]
        for h in range(heads):
            for i in range(n):
                g = g4[h, b, i]
                for j in range(n):
                    t, e = t_b[i, j], e_b[i, j]
                    da4[h, b, i, j] = np.dot(g, v4[h, b, j] + pv[h][t] + ev[h][e])
                    a = a4[h, b, i, j]
                    dv4[h, b, j] += a * g
                    dpv[h][t] += a * g
                    dev[h][e] += a * g
    _fold_table_grad(cache["topology"].value, dpv)
    _fold_table_grad(cache["edge"].value, dev)
    return d_attn, d_vh


def _values_fwd(mode, attn, vh, t_idx, e_idx, topology, edge):
    if mode.kind in ("grpe_naive", "grpe_fast") and mode.use_value:
        if mode.kind == "grpe_naive":
            return _grpe_values_naive_fwd(attn, vh, t_idx, e_idx, topology, edge)
        return _grpe_values_fast_fwd(attn, vh, t_idx, e_idx, topology, edge)
    return _values_plain_fwd(attn, vh)


def _values_bwd(d_zh, cache):
    if cache["kind"] == "grpe_naive":
        return _grpe_values_naive_bwd(d_zh, cache)
    if cache["kind"] == "grpe_fast":
        return _grpe_values_fast_bwd(d_zh, cache)
    return _values_plain_bwd(d_zh, cache)


# ---------------------------------------------------------------------------
# multi-head attention with cache (training path)
# ---------------------------------------------------------------------------

def mha_forward(x: np.ndarray, params: AttentionParams, mode: PEMode,
                topo_idx, edge_idx, topology, edge, gbias, key_bias=None):
    """Attention over (N, d_x) node features, or a padded (B, N, d_x) group
    whose ``key_bias`` (B, 1, N) is -inf on padded keys and 0 elsewhere.

    Returns ``(out, cache)``; ``cache["attn"]`` is the (H, [B,] N, N)
    attention map, rows summing to 1."""
    if x.ndim not in (2, 3) or x.shape[-1] != params.w_query.shape[0]:
        raise ShapeError(f"attention input {x.shape} does not match W ({params.w_query.shape})")
    h = params.heads
    x_rows = x.reshape(-1, x.shape[-1])
    shape = x.shape[:-1] + (-1,)
    qh = split_heads((x_rows @ params.w_query.value.data).reshape(shape), h)
    kh = split_heads((x_rows @ params.w_key.value.data).reshape(shape), h)
    vh = split_heads((x_rows @ params.w_value.value.data).reshape(shape), h)

    scores, s_cache = _scores_fwd(mode, qh, kh, topo_idx, edge_idx, topology, edge, gbias)
    if key_bias is not None:
        scores += key_bias
    attn = softmax_lastdim(scores)
    zh, v_cache = _values_fwd(mode, attn, vh, topo_idx, edge_idx, topology, edge)
    z = merge_heads(zh).reshape(len(x_rows), -1)
    out = (z @ params.w_out.value.data).reshape(shape)

    cache = {"x": x_rows, "params": params, "attn": attn, "z": z,
             "s_cache": s_cache, "v_cache": v_cache}
    return out, cache


def mha_backward(d_out: np.ndarray, cache) -> np.ndarray:
    params: AttentionParams = cache["params"]
    x, z, attn = cache["x"], cache["z"], cache["attn"]
    h = params.heads

    d_rows = d_out.reshape(z.shape[0], -1)
    params.w_out.grad.data += z.T @ d_rows
    d_z = d_rows @ params.w_out.value.data.T
    d_zh = split_heads(d_z.reshape(attn.shape[1:-1] + (-1,)), h)

    d_attn, d_vh = _values_bwd(d_zh, cache["v_cache"])
    d_scores = softmax_lastdim_backward(d_attn, attn)
    d_qh, d_kh = _scores_bwd(d_scores, cache["s_cache"])

    d_q, d_k, d_v = (merge_heads(d).reshape(z.shape) for d in (d_qh, d_kh, d_vh))
    params.w_query.grad.data += x.T @ d_q
    params.w_key.grad.data += x.T @ d_k
    params.w_value.grad.data += x.T @ d_v
    d_x = d_q @ params.w_query.value.data.T
    d_x += d_k @ params.w_key.value.data.T
    d_x += d_v @ params.w_value.value.data.T
    return d_x.reshape(d_out.shape[:-1] + (-1,))


# ---------------------------------------------------------------------------
# transformer block (pre-norm)
# ---------------------------------------------------------------------------

@dataclass
class BlockParams:
    attn: AttentionParams
    ln1_gain: Parameter
    ln1_bias: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter
    ffn_w1: Parameter
    ffn_b1: Parameter
    ffn_w2: Parameter
    ffn_b2: Parameter


class TransformerBlock:
    """Pre-norm block: x + MHA(LN(x)), then + FFN(LN(.)).

    The FFN is a single hidden layer with ReLU. Encoding tables (and the
    scalar-bias parameters, when used) are shared across blocks by holding
    references to the same objects.
    """

    def __init__(self, params: BlockParams, topology=None, edge=None, graphormer=None):
        self.params = params
        self.topology = topology
        self.edge = edge
        self.graphormer = graphormer

    def forward(self, x: np.ndarray, mode: PEMode, topo_idx, edge_idx,
                key_bias=None, drop=None):
        """``x`` is (N, d) or a padded (B, N, d) group (see ``mha_forward``).
        ``drop`` is None or the (attention, FFN) dropout masks, each shaped
        like ``x`` and already scaled by 1 / (1 - rate)."""
        p = self.params
        u = layer_norm_rows(x, p.ln1_gain.value.data, p.ln1_bias.value.data)
        a, mha_cache = mha_forward(u, p.attn, mode, topo_idx, edge_idx, self.topology,
                                   self.edge, self.graphormer, key_bias=key_bias)
        mask_a = mask_f = None
        if drop is not None:
            mask_a, mask_f = drop
            a = a * mask_a
        h = x + a

        w = layer_norm_rows(h, p.ln2_gain.value.data, p.ln2_bias.value.data)
        w_rows = w.reshape(-1, w.shape[-1])
        pre = w_rows @ p.ffn_w1.value.data + p.ffn_b1.value.data
        act = np.maximum(pre, 0.0)
        f = (act @ p.ffn_w2.value.data + p.ffn_b2.value.data).reshape(x.shape)
        if mask_f is not None:
            f = f * mask_f
        out = h + f

        cache = {"x": x, "u": u, "h": h, "w": w_rows, "pre": pre, "act": act,
                 "mha_cache": mha_cache, "mask_a": mask_a, "mask_f": mask_f}
        return out, cache

    def backward(self, d_out: np.ndarray, cache) -> np.ndarray:
        p = self.params
        d_f = d_out
        if cache["mask_f"] is not None:
            d_f = d_f * cache["mask_f"]
        d_f = d_f.reshape(-1, d_f.shape[-1])
        p.ffn_b2.grad.data += d_f.sum(axis=0)
        p.ffn_w2.grad.data += cache["act"].T @ d_f
        d_act = d_f @ p.ffn_w2.value.data.T
        d_pre = d_act * (cache["pre"] > 0.0)
        p.ffn_b1.grad.data += d_pre.sum(axis=0)
        p.ffn_w1.grad.data += cache["w"].T @ d_pre
        d_w = (d_pre @ p.ffn_w1.value.data.T).reshape(d_out.shape)
        d_h_ln, d_g2, d_b2 = layer_norm_rows_backward(d_w, cache["h"], p.ln2_gain.value.data)
        p.ln2_gain.grad.data += d_g2
        p.ln2_bias.grad.data += d_b2
        d_h = d_out + d_h_ln

        d_a = d_h
        if cache["mask_a"] is not None:
            d_a = d_a * cache["mask_a"]
        d_u = mha_backward(d_a, cache["mha_cache"])
        d_x_ln, d_g1, d_b1 = layer_norm_rows_backward(d_u, cache["x"], p.ln1_gain.value.data)
        p.ln1_gain.grad.data += d_g1
        p.ln1_bias.grad.data += d_b1
        return d_h + d_x_ln
