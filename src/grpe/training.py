"""Optimizer, schedule, training/eval loops, and checkpointing.

A batch is a gradient accumulation window of ``batch_size`` graphs. The
window runs as a few packed groups (``group_by_size``): its graphs are
sorted by node count and cut into consecutive groups whose padded size
``B * N_max ** 2`` (virtual node included) stays within
``MAX_GROUP_PAIRS``; each group is one padded forward and backward pass.
``evaluate`` and ``mean_loss`` group their whole set the same way.
Everything is deterministic given the seeds: data order, sign flips and
dropout masks come from a dedicated generator, drawn per graph in window
order, whose state is checkpointed, so a resumed run continues the exact
same stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError
from .model import Model, ModelConfig, build_model, loss_and_grad
from .encodings import sign_flip_augment

CHECKPOINT_FORMAT = "grpe-checkpoint"
CHECKPOINT_VERSION = 1

# Pair budget of one packed group: the 64 x 64 pairs of one 64-node graph
# (virtual node included), so a group never holds larger caches than a
# graph of that size run alone.
MAX_GROUP_PAIRS = 4096


@dataclass
class TrainConfig:
    epochs: int
    lr_start: float = 2e-4
    lr_end: float = 1e-9
    batch_size: int = 8
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = None      # off by default
    weight_decay: float = 0.0           # decoupled, applied after the Adam step
    warmup_steps: int = 0
    lap_sign_flip: bool = False         # random eigenvector sign flips per epoch
    stop_at_train_loss: float | None = None
    seed: int | None = None             # trainer stream; derived from model seed if None

    def __post_init__(self):
        for name in ("lr_start", "lr_end", "weight_decay", "adam_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.lr_start > self.lr_end > 0):
            raise ConfigError("need lr_start > lr_end > 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be > 0 (or None), got {self.grad_clip!r}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps!r}")


class EpochRecord(NamedTuple):
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


class TrainerState:
    """Optimizer moments plus the RNG/progress needed to resume exactly."""

    def __init__(self, model: Model, seed):
        self.m = {name: np.zeros_like(p.value.data) for name, p in model.parameters()}
        self.v = {name: np.zeros_like(p.value.data) for name, p in model.parameters()}
        self.t = 0
        self.rng = np.random.default_rng(seed)
        self.epochs_done = 0
        self.global_step = 0


def lr_at(step: int, total_steps: int, lr_start: float, lr_end: float) -> float:
    """Linear interpolation from lr_start (step 0) to lr_end (last step).

    Written so both endpoints are exact."""
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return lr_start
    frac = step / total_steps
    return lr_start * (1.0 - frac) + lr_end * frac


def _scheduled_lr(cfg: TrainConfig, step: int, total_steps: int) -> float:
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        return cfg.lr_start * (step + 1) / cfg.warmup_steps
    decay_total = max(total_steps - cfg.warmup_steps, 1)
    decay_step = min(step - cfg.warmup_steps, decay_total) if cfg.warmup_steps else step
    return lr_at(decay_step, decay_total if cfg.warmup_steps else total_steps,
                 cfg.lr_start, cfg.lr_end)


def adam_step(named_params, state: TrainerState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0,
              grad_clip: float | None = None):
    """Bias-corrected Adam update over the accumulated gradients.

    Parameters update in registry order with plain numpy elementwise math,
    so repeated runs are bit-identical.
    """
    if grad_clip is not None:
        sq = math.fsum(float((p.grad.data ** 2).sum()) for _, p in named_params)
        norm = math.sqrt(sq)
        if norm > grad_clip:
            factor = grad_clip / norm
            for _, p in named_params:
                p.grad.data *= factor
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in named_params:
        g = p.grad.data
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.value.data -= lr * update
        if weight_decay:
            p.value.data -= lr * weight_decay * p.value.data
    for name, p in named_params:
        if not np.isfinite(p.value.data).all():
            raise NumericError(f"parameter {name!r} has non-finite entries after "
                               f"optimizer step {state.t}")


def group_by_size(sizes) -> list:
    """Cut positions ``0..len(sizes)-1`` into packed groups.

    Positions are sorted by size, ties by position, then cut into
    consecutive groups whose padded size ``len(group) * max_size ** 2``
    stays within ``MAX_GROUP_PAIRS``; a graph above it is a group of one.
    """
    groups = []
    for pos in sorted(range(len(sizes)), key=lambda i: (sizes[i], i)):
        if groups and (len(groups[-1]) + 1) * sizes[pos] ** 2 <= MAX_GROUP_PAIRS:
            groups[-1].append(pos)
        else:
            groups.append([pos])
    return groups


def _target(model: Model, prep):
    return prep.target if model.config.task == "graph_regression" else prep.node_labels


def train(model: Model, train_set, cfg: TrainConfig, val_set=None,
          stop_epoch: int | None = None) -> list:
    """Train in place; returns one EpochRecord per completed epoch.

    The schedule horizon is ``cfg.epochs``; ``stop_epoch`` interrupts the
    run early without shortening the horizon. Calling again on a model
    with an existing trainer state resumes from ``epochs_done`` using the
    stored RNG and optimizer moments, which makes an interrupted run
    indistinguishable from an uninterrupted one.
    """
    if not train_set:
        raise ConfigError("training set is empty")
    prepared = [model.prepare(s) for s in train_set]
    val_prepared = [model.prepare(s) for s in val_set] if val_set else None
    if model.trainer is None:
        seed = cfg.seed if cfg.seed is not None else np.random.SeedSequence(
            model.config.seed).spawn(3)[2]
        model.trainer = TrainerState(model, seed)
    st = model.trainer
    params = model.parameters()
    task, rate = model.config.task, model.config.dropout
    n_batches = math.ceil(len(prepared) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches

    last_epoch = cfg.epochs if stop_epoch is None else min(stop_epoch, cfg.epochs)
    history = []
    for epoch in range(st.epochs_done, last_epoch):
        order = st.rng.permutation(len(prepared))
        sample_losses = []
        lr = cfg.lr_start
        for b in range(n_batches):
            window = [int(i) for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            model.zero_grad()
            # Every random draw of the window happens here, graph by graph
            # in window order, before any group runs.
            preps, drops = [], []
            for idx in window:
                prep = prepared[idx]
                if cfg.lap_sign_flip and prep.input_pe is not None:
                    flipped = sign_flip_augment(prep.input_pe,
                                                int(st.rng.integers(0, 2 ** 31)))
                    prep = replace(prep, input_pe=flipped)
                preps.append(prep)
                if rate > 0:
                    drops.append(model.draw_dropout(prep.graph.num_nodes, rate, st.rng))
            for group in group_by_size([p.graph.num_nodes for p in preps]):
                preds, cache = model._run([preps[i] for i in group],
                                          drop=[drops[i] for i in group] if drops else None)
                d_preds = []
                for i, pred in zip(group, preds):
                    value, d_pred = loss_and_grad(pred, _target(model, preps[i]), task)
                    if not math.isfinite(value):
                        raise NumericError(f"loss diverged (non-finite) at epoch "
                                           f"{epoch + 1}, sample {window[i]}")
                    d_preds.append(d_pred * (1.0 / len(window)))
                    sample_losses.append(value)
                model.backward(d_preds, cache)
            lr = _scheduled_lr(cfg, st.global_step, total_steps)
            adam_step(params, st, lr, cfg.beta1, cfg.beta2, cfg.adam_eps,
                      cfg.weight_decay, cfg.grad_clip)
            st.global_step += 1
        train_loss = math.fsum(sample_losses) / len(sample_losses)
        val_loss = float("nan")
        if val_prepared is not None:
            val_loss = mean_loss(model, val_prepared)
        st.epochs_done = epoch + 1
        history.append(EpochRecord(epoch + 1, train_loss, val_loss, lr))
        if cfg.stop_at_train_loss is not None and train_loss < cfg.stop_at_train_loss:
            break
    return history


def mean_loss(model: Model, prepared) -> float:
    values = []
    for group in group_by_size([p.graph.num_nodes for p in prepared]):
        preps = [prepared[i] for i in group]
        for prep, pred in zip(preps, model.forward(preps)):
            value, _ = loss_and_grad(pred, _target(model, prep), model.config.task)
            values.append(value)
    return math.fsum(values) / len(values)


def evaluate(model: Model, dataset) -> dict:
    """Task metrics over a dataset.

    Regression reports MAE. Node classification reports plain accuracy and
    class-weighted accuracy (mean per-class recall over observed classes).
    Reductions are exact sums, so dataset order cannot change the result.
    Graphs are prepared one packed group at a time.
    """
    c = model.config.num_classes
    correct = np.zeros(c, dtype=np.int64)
    totals = np.zeros(c, dtype=np.int64)
    errs, ce = [], []
    # prepare() adds the virtual node, so a prepared graph has one node more
    for group in group_by_size([s.graph.num_nodes + 1 for s in dataset]):
        preps = [model.prepare(dataset[i]) for i in group]
        for prep, pred in zip(preps, model.forward(preps)):
            if model.config.task == "graph_regression":
                errs.append(abs(pred - prep.target))
                continue
            value, _ = loss_and_grad(pred, prep.node_labels, model.config.task)
            ce.append(value)
            pred_cls = pred.argmax(axis=1)
            for cls in range(c):
                mask = prep.node_labels == cls
                totals[cls] += int(mask.sum())
                correct[cls] += int((pred_cls[mask] == cls).sum())
    if model.config.task == "graph_regression":
        return {"mae": math.fsum(errs) / len(errs), "count": len(errs)}
    seen = totals > 0
    recalls = correct[seen] / totals[seen]
    return {"accuracy": float(correct.sum() / totals.sum()),
            "weighted_accuracy": float(recalls.mean()),
            "loss": math.fsum(ce) / len(ce),
            "count": len(ce)}


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path):
    """Write a versioned JSON checkpoint with named tensors.

    Floats round-trip exactly through JSON (shortest-repr encoding), so a
    reloaded model reproduces forward outputs bit for bit.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {name: p.value.data.reshape(-1).tolist()
                   for name, p in model.parameters()},
        "shapes": {name: list(p.value.shape) for name, p in model.parameters()},
        "trainer": None,
    }
    st = model.trainer
    if st is not None:
        payload["trainer"] = {
            "t": st.t,
            "m": {k: v.reshape(-1).tolist() for k, v in st.m.items()},
            "v": {k: v.reshape(-1).tolist() for k, v in st.v.items()},
            "rng_state": st.rng.bit_generator.state,
            "epochs_done": st.epochs_done,
            "global_step": st.global_step,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> Model:
    """Rebuild a model (and trainer state, if saved) from a checkpoint.

    A file that is not a well-formed checkpoint raises ``CheckpointError``;
    a non-finite tensor entry raises ``NumericError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('version')}")
    try:
        config = ModelConfig(**payload["config"])
    except (TypeError, KeyError, ConfigError) as exc:
        raise CheckpointError(f"bad config block: {exc}") from None
    model = build_model(config)
    params, shapes = payload.get("params"), payload.get("shapes")
    if not isinstance(params, dict) or not isinstance(shapes, dict):
        raise CheckpointError(f"{path} lacks its params or shapes block")
    for name, p in model.parameters():
        if name not in params or name not in shapes:
            raise CheckpointError(f"missing tensor {name!r}")
        try:
            shape = tuple(shapes[name])
            value = np.array(params[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"tensor {name!r} is malformed: {exc}") from None
        if shape != p.value.shape or value.size != p.value.size:
            raise CheckpointError(
                f"tensor {name!r} has shape {shape}, expected {tuple(p.value.shape)}")
        if not np.all(np.isfinite(value)):
            raise NumericError(f"tensor {name!r} has non-finite entries")
        p.value.data[...] = value.reshape(shape)
        p.zero_grad()
    tr = payload.get("trainer")
    if tr is not None:
        try:
            model.trainer = _trainer_from(model, tr)
        except (TypeError, KeyError, ValueError) as exc:
            raise CheckpointError(f"bad trainer block: {exc!r}") from None
    return model


def _trainer_from(model: Model, tr: dict) -> TrainerState:
    st = TrainerState(model, 0)
    st.t = int(tr["t"])
    for key in st.m:
        if key not in tr["m"] or key not in tr["v"]:
            raise CheckpointError(f"missing optimizer moment for {key!r}")
        st.m[key] = np.array(tr["m"][key], dtype=np.float64).reshape(st.m[key].shape)
        st.v[key] = np.array(tr["v"][key], dtype=np.float64).reshape(st.v[key].shape)
    st.rng.bit_generator.state = tr["rng_state"]
    st.epochs_done = int(tr["epochs_done"])
    st.global_step = int(tr["global_step"])
    return st
