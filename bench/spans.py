"""Per-layer tracing by wrapping the program's functions in place.

Each timed function is replaced, at the module or class attribute through
which the program calls it, by a wrapper that records a span (name, start,
end, parent). A layer's self time is its spans' durations minus the part
covered by their child spans. Spans stay in memory and are written once,
when the traced run ends. A name that no longer exists in the program is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array

# (metric prefix, module, attribute path). The attribute is the one the
# program looks up at call time, so a function imported by name into
# another module is wrapped there.
TIMED = (
    ("graph.parse_graphs", "grpe.graph", "parse_graphs"),
    ("graph.restamp_edge_types", "grpe.graph", "restamp_edge_types"),
    ("graph.attach_virtual_node", "grpe.graph", "attach_virtual_node"),
    ("graph.bfs_all_pairs", "grpe.graph", "bfs_all_pairs"),
    ("graph.topology_indices", "grpe.graph", "topology_indices"),
    ("graph.edge_indices", "grpe.graph", "edge_indices"),
    ("encodings.embed_nodes", "grpe.model", "embed_nodes"),
    ("encodings.embed_nodes_backward", "grpe.model", "embed_nodes_backward"),
    ("encodings.laplacian_pe", "grpe.model", "laplacian_pe"),
    ("linalg.jacobi_eigh", "grpe.encodings", "jacobi_eigh"),
    ("model.prepare", "grpe.model", "Model.prepare"),
    ("model.forward", "grpe.model", "Model._run"),  # under forward and forward_with_cache
    ("model.backward", "grpe.model", "Model.backward"),
    ("model.loss_and_grad", "grpe.training", "loss_and_grad"),
    ("attention.block_forward", "grpe.attention", "TransformerBlock.forward"),
    ("attention.block_backward", "grpe.attention", "TransformerBlock.backward"),
    ("attention.mha_forward", "grpe.attention", "mha_forward"),
    ("attention.mha_backward", "grpe.attention", "mha_backward"),
    ("attention.scores_forward", "grpe.attention", "_scores_fwd"),
    ("attention.scores_backward", "grpe.attention", "_scores_bwd"),
    ("attention.values_forward", "grpe.attention", "_values_fwd"),
    ("attention.values_backward", "grpe.attention", "_values_bwd"),
    ("tensor.softmax", "grpe.attention", "softmax_lastdim"),
    ("tensor.softmax_backward", "grpe.attention", "softmax_lastdim_backward"),
    ("tensor.layer_norm", "grpe.attention", "layer_norm_rows"),
    ("tensor.layer_norm_backward", "grpe.attention", "layer_norm_rows_backward"),
    ("training.train", "grpe.training", "train"),
    ("training.adam_step", "grpe.training", "adam_step"),
    ("training.evaluate", "grpe.training", "evaluate"),
    ("training.save_checkpoint", "grpe.training", "save_checkpoint"),
    ("training.load_checkpoint", "grpe.training", "load_checkpoint"),
)

# Counters kept at a wrapped call: (metric, wrapped metric prefix, amount).
COUNTED = (
    ("graph.node_pairs", "model.prepare", lambda args, out: out.graph.num_nodes ** 2),
    ("linalg.jacobi_calls", "linalg.jacobi_eigh", lambda args, out: 1),
    ("model.forward_calls", "model.forward", lambda args, out: 1),
    ("model.backward_calls", "model.backward", lambda args, out: 1),
    ("training.adam_steps", "training.adam_step", lambda args, out: 1),
    ("training.checkpoint_bytes", "training.save_checkpoint",
     lambda args, out: os.path.getsize(args[1])),
)

SCORE_DOTS = "attention.score_dot_products"  # read from attention.score_dot_counter


def metric_units() -> dict:
    units = {f"{prefix}_s": "s" for prefix, _, _ in TIMED}
    units.update({name: "bytes" if name.endswith("_bytes") else "count"
                  for name, _, _ in COUNTED})
    units[SCORE_DOTS] = "count"
    return units


class Tracer:
    def __init__(self):
        self.names = [prefix for prefix, _, _ in TIMED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = [0.0] * len(TIMED)
        self.counts = {name: 0 for name, _, _ in COUNTED}
        self.missing = []
        self._stack = []          # [span index, child time] per open span
        self._restore = []
        self._dots = None

    def install(self):
        counters = {}
        for name, target, amount in COUNTED:
            counters.setdefault(target, []).append((name, amount))
        for idx, (prefix, module, attr) in enumerate(TIMED):
            owner, leaf, fn = _resolve(module, attr)
            if fn is None:
                self.missing.append(f"{prefix}_s")
                self.missing += [name for name, _ in counters.get(prefix, ())]
                continue
            setattr(owner, leaf, self._wrap(fn, idx, counters.get(prefix, ())))
            self._restore.append((owner, leaf, fn))
        counter = _attention_counter()
        if counter is None:
            self.missing.append(SCORE_DOTS)
        else:
            self._dots = (counter, counter.total)

    def uninstall(self):
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore = []
        if self._dots is not None:
            counter, before = self._dots
            self.counts[SCORE_DOTS] = counter.total - before
            self._dots = None

    def _wrap(self, fn, idx, counters):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(idx)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_time[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.start[span] = t0
                self.end[span] = t1
            for name, amount in counters:
                self.counts[name] += amount(args, out)
            return out

        return wrapper

    def metrics(self) -> dict:
        out = {f"{prefix}_s": self.self_time[i] for i, prefix in enumerate(self.names)}
        out.update(self.counts)
        for name in self.missing:
            out.pop(name, None)
        return out

    def write(self, path):
        """One JSON list [name, start, end, parent span] per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i],
                                     self.end[i], self.parent[i]]) + "\n")


def _resolve(module, attr):
    """(owner, leaf name, current value) for ``module:attr``; value None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, leaf, getattr(owner, leaf, None)


def _attention_counter():
    try:
        counter = importlib.import_module("grpe.attention").score_dot_counter
    except (ImportError, AttributeError):
        return None
    return counter if hasattr(counter, "total") else None
