"""Correctness checks, computed apart from the program.

``reference_predict`` is an independent forward pass written from the
paper's equations and the bucket conventions in the program's README. It
builds its own shortest-path distances and bucket matrices, reads the
model's parameters by name and shares no code with the program. The
``check_*`` functions compare program outputs against it, against finite
differences and against properties the method must have; each returns a
``Check`` and raises nothing on a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import distances

LN_EPS = 1e-5                # layer-norm epsilon of the model
REFERENCE_TOL = 1e-9         # (a) independent forward vs predict
PERMUTATION_TOL = 1e-10      # (c) relabelled real nodes
MAE_TOL = 1e-12              # (e) evaluate() vs fsum over predict
FD_STEPS = (1e-6, 1e-7, 1e-8)  # (b) a ReLU kink inside one step is retried at the next
FD_ATOL = 1e-7
FD_RTOL = 1e-5
SPECTRAL_GAP = 1e-2          # laplacian graphs whose PE is unique enough to recompute


@dataclass
class Check:
    name: str
    ok: bool
    worst: float
    detail: str = ""

    def line(self) -> str:
        state = "ok" if self.ok else "FAILED"
        return f"check {self.name}: {state} worst={self.worst:.3e} {self.detail}".rstrip()


# ---------------------------------------------------------------------------
# (a) independent forward pass
# ---------------------------------------------------------------------------

def buckets(rec: dict, L: int, num_edge_types: int):
    """Topology and edge bucket matrices with the virtual node at index 0.

    Topology rows: 0..L exact distance, L+1 finite but farther, L+2 other
    component, L+3 a pair with the virtual node. Edge rows: 0..E-1 edge
    type, E no edge, E+1 the diagonal, E+2 a pair with the virtual node.
    The virtual node's own diagonal entry is distance 0 and the diagonal
    edge row, like every other node's.
    """
    n_real = len(rec["nodes"])
    n = n_real + 1
    d = distances(n_real, rec["edges"])
    topo = np.full((n, n), L + 3, dtype=np.int64)
    topo[1:, 1:] = np.where(d < 0, L + 2, np.minimum(d, L + 1))
    topo[0, 0] = 0
    edge = np.full((n, n), num_edge_types, dtype=np.int64)
    for i, j, t in rec["edges"]:
        edge[i + 1, j + 1] = edge[j + 1, i + 1] = t
    edge[0, :] = edge[:, 0] = num_edge_types + 2
    edge[np.arange(n), np.arange(n)] = num_edge_types + 1
    return topo, edge


def normalized_laplacian(rec: dict) -> np.ndarray:
    n = len(rec["nodes"])
    a = np.zeros((n, n))
    for i, j, _ in rec["edges"]:
        a[i, j] = a[j, i] = 1.0
    deg = a.sum(axis=1)
    s = np.zeros(n)
    s[deg > 0] = deg[deg > 0] ** -0.5
    return np.eye(n) - s[:, None] * a * s[None, :]


def laplacian_pe(rec: dict, k: int):
    """Eigenvectors of the k smallest normalized-Laplacian eigenvalues, each
    signed so its largest-magnitude entry is positive; None when that is not
    unique (a repeated eigenvalue or a tie for the largest entry)."""
    w, v = np.linalg.eigh(normalized_laplacian(rec))
    n = len(w)
    for c in range(k):
        lo = w[c] - w[c - 1] if c > 0 else np.inf
        hi = w[c + 1] - w[c] if c + 1 < n else np.inf
        if min(lo, hi) < SPECTRAL_GAP:
            return None
    cols = v[:, :k].copy()
    for c in range(k):
        mags = np.sort(np.abs(cols[:, c]))
        if n > 1 and mags[-1] - mags[-2] < 1e-6:
            return None
        j = int(np.argmax(np.abs(cols[:, c])))
        if cols[j, c] < 0:
            cols[:, c] = -cols[:, c]
    return cols


def _layer_norm(x, gain, bias):
    centred = x - x.mean(axis=1, keepdims=True)
    return centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + LN_EPS) * gain + bias


def _softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_predict(params: dict, cfg: dict, rec: dict) -> float:
    """Graph-level prediction of the model given by ``params`` (name ->
    array) and ``cfg`` (ModelConfig fields) on one file record."""
    if cfg.get("use_degree") or cfg.get("dropout") or cfg.get("task") != "graph_regression":
        raise ValueError("reference covers graph regression without degree rows or dropout")
    L, n_edge, heads = cfg["L"], cfg["num_edge_types"], cfg["heads"]
    mode = cfg["pe_mode"]
    topo, edge = buckets(rec, L, n_edge)
    types = params["nodes.type_table"]
    x = types[[types.shape[0] - 1] + list(rec["nodes"])].copy()
    if mode == "laplacian":
        k = min(cfg["lap_pe_dim"], len(rec["nodes"]))
        pe = laplacian_pe(rec, k)
        if pe is None:
            raise ValueError("laplacian PE of this graph is not unique")
        x[1:, :k] += pe
    d_z = x.shape[1]
    dh = d_z // heads
    grpe = mode == "grpe"
    use_t = grpe and cfg["use_topology"]
    use_e = grpe and cfg["use_edge"]
    use_v = grpe and cfg["use_value"]
    if mode == "graphormer":
        edge_bias = params["graphormer.edge_emb"] @ params["graphormer.w"]   # (E+3, H or 1)
    for b in range(cfg["layers"]):
        p = lambda name: params[f"blocks.{b}.{name}"]  # noqa: E731
        u = _layer_norm(x, p("ln1_gain"), p("ln1_bias"))
        q, k_, v = u @ p("attn.w_query"), u @ p("attn.w_key"), u @ p("attn.w_value")
        z = np.zeros_like(x)
        for h in range(heads):
            c = slice(h * dh, (h + 1) * dh)
            qh, kh, vh = q[:, c], k_[:, c], v[:, c]
            logits = qh @ kh.T
            # a_ij = q_i.k_j + q_i.P^Q[psi_ij] + k_j.P^K[psi_ij] + (same for edges)
            if use_t:
                logits += np.einsum("id,ijd->ij", qh, params["topology.query"][:, c][topo])
                logits += np.einsum("jd,ijd->ij", kh, params["topology.key"][:, c][topo])
            if use_e:
                logits += np.einsum("id,ijd->ij", qh, params["edge.query"][:, c][edge])
                logits += np.einsum("jd,ijd->ij", kh, params["edge.key"][:, c][edge])
            logits /= math.sqrt(dh)
            if mode == "graphormer":
                logits += params["graphormer.b"][topo, h]
                logits += edge_bias[edge, h if edge_bias.shape[1] > 1 else 0]
            a = _softmax(logits)
            out = a @ vh
            if use_v:
                # z_i = sum_j a_ij (v_j + P^V[psi_ij] + E^V[phi_ij])
                rows = params["topology.value"][:, c][topo] + params["edge.value"][:, c][edge]
                out += np.einsum("ij,ijd->id", a, rows)
            z[:, c] = out
        x = x + z @ p("attn.w_out")
        w = _layer_norm(x, p("ln2_gain"), p("ln2_bias"))
        x = x + np.maximum(w @ p("ffn_w1") + p("ffn_b1"), 0.0) @ p("ffn_w2") + p("ffn_b2")
    return float(x[0] @ params["head.weight"][:, 0] + params["head.bias"][0])


def reference_eligible(cfg: dict, rec: dict) -> bool:
    """Whether ``reference_predict`` defines a unique answer for this graph."""
    if cfg["pe_mode"] != "laplacian":
        return True
    return laplacian_pe(rec, min(cfg["lap_pe_dim"], len(rec["nodes"]))) is not None


def check_reference(name, params, cfg, records, preds) -> Check:
    if not records:
        return Check(f"a_reference[{name}]", False, math.inf, "no graph with a unique reference")
    worst = max(abs(reference_predict(params, cfg, rec) - p) for rec, p in zip(records, preds))
    return Check(f"a_reference[{name}]", worst <= REFERENCE_TOL, worst, f"graphs={len(records)}")


# ---------------------------------------------------------------------------
# (b) finite differences against Model.backward
# ---------------------------------------------------------------------------

def check_gradients(name, model, prep, rng) -> Check:
    """Central differences of the prediction on two coordinates of every
    parameter (its largest gradient and a random one) against the gradient
    ``Model.backward`` accumulates for d pred = 1."""
    model.zero_grad()
    _, cache = model.forward_with_cache(prep)
    model.backward(1.0, cache)
    grads = {pname: p.grad.data.copy() for pname, p in model.parameters()}
    model.zero_grad()
    worst = 0.0
    bad = []
    checked = 0
    for pname, p in model.parameters():
        flat = p.value.data.reshape(-1)
        g = grads[pname].reshape(-1)
        for c in {int(np.argmax(np.abs(g))), int(rng.integers(flat.size))}:
            err = min(_fd_error(model, prep, flat, c, g[c], eps) for eps in FD_STEPS)
            checked += 1
            worst = max(worst, err)
            if err > FD_ATOL + FD_RTOL * abs(g[c]):
                bad.append(f"{pname}[{c}]")
    return Check(f"b_gradients[{name}]", not bad, worst,
                 f"coords={checked}" + (f" bad={bad[:4]}" if bad else ""))


def _fd_error(model, prep, flat, c, analytic, eps) -> float:
    orig = flat[c]
    flat[c] = orig + eps
    f_plus = model.forward(prep)
    flat[c] = orig - eps
    f_minus = model.forward(prep)
    flat[c] = orig
    return abs(analytic - (f_plus - f_minus) / (2.0 * eps))


# ---------------------------------------------------------------------------
# (c)-(f): properties and round trips
# ---------------------------------------------------------------------------

def check_permutation(name, preds, perm_preds) -> Check:
    worst = max(abs(a - b) for a, b in zip(preds, perm_preds))
    return Check(f"c_permutation[{name}]", worst <= PERMUTATION_TOL, worst,
                 f"graphs={len(preds)}")


def check_checkpoint(name, saved_preds, loaded_preds) -> Check:
    """Bit-for-bit equality of the two models' predictions."""
    same = [np.float64(a).tobytes() == np.float64(b).tobytes()
            for a, b in zip(saved_preds, loaded_preds)]
    worst = max(abs(a - b) for a, b in zip(saved_preds, loaded_preds))
    return Check(f"d_checkpoint[{name}]", all(same) and len(same) > 0, worst,
                 f"graphs={len(same)}")


def check_mae(name, mae, preds, targets) -> Check:
    ref = math.fsum(abs(p - t) for p, t in zip(preds, targets)) / len(preds)
    worst = abs(mae - ref)
    return Check(f"e_mae[{name}]", worst <= MAE_TOL, worst, f"graphs={len(preds)}")


def check_determinism(name, params_a: dict, params_b: dict) -> Check:
    """Bit-for-bit equality of two parameter sets (name -> array)."""
    diff = [k for k in params_a
            if k not in params_b or params_a[k].tobytes() != params_b[k].tobytes()]
    diff += [k for k in params_b if k not in params_a]
    worst = max((float(np.abs(params_a[k] - params_b[k]).max()) for k in params_a
                 if k in params_b and params_a[k].shape == params_b[k].shape), default=0.0)
    return Check(f"f_determinism[{name}]", not diff, worst,
                 f"tensors={len(params_a)}" + (f" differ={diff[:4]}" if diff else ""))
