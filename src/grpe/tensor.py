"""Parameter storage and the raw numpy kernels the layers share.

``Tensor`` holds a finite float64 array and ``Parameter`` pairs one with
its accumulated gradient. The helpers below work on plain arrays, each
with a ``*_backward`` companion. There is no tape: composite layers wire
their own reverse passes from these pieces, which keeps the dependency
surface at numpy and makes the finite-difference checker an honest
oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

LAYER_NORM_EPS = 1e-5


class Tensor:
    """Row-major float64 array wrapper.

    Invariants: ``len(data) == product(shape)`` (guaranteed by the ndarray
    backing) and every entry finite. NaN or Inf anywhere is an error state,
    checked at construction unless ``check`` is false.
    """

    __slots__ = ("data",)

    def __init__(self, data, check: bool = True):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if check and arr.size and not np.all(np.isfinite(arr)):
            raise NumericError("tensor contains non-finite entries")
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)})"


class Parameter:
    """An array, held as a ``Tensor``, paired with an accumulated gradient
    of the same shape.

    Gradients accumulate across backward calls; ``zero_grad`` resets them.
    The trainer is the single writer of ``value``.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = Tensor(value)
        self.grad = Tensor(np.zeros_like(self.value.data), check=False)

    def zero_grad(self):
        self.grad.data[...] = 0.0

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Parameter(shape={tuple(self.shape)})"


# ---------------------------------------------------------------------------
# softmax and layer norm on raw arrays
# ---------------------------------------------------------------------------

def softmax_lastdim(arr: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis of a raw array."""
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_lastdim_backward(d_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dX = Y * (dY - sum(dY * Y)) along the last axis."""
    inner = (d_out * out).sum(axis=-1, keepdims=True)
    return out * (d_out - inner)


def layer_norm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Normalize each row of a raw array to mean 0 / variance 1, then affine.

    A zero-variance row maps to zero before gain/bias (epsilon-regularized).
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    y = (x - mu) / np.sqrt(var + LAYER_NORM_EPS)
    return y * gain + bias


def layer_norm_rows_backward(d_out, x, gain):
    """Returns (dx, dgain, dbias); stats are recomputed from x."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = (x - mu) * inv
    dgain = (d_out * y).reshape(-1, x.shape[-1]).sum(axis=0)
    dbias = d_out.reshape(-1, x.shape[-1]).sum(axis=0)
    dy = d_out * gain
    dx = inv * (dy - dy.mean(axis=-1, keepdims=True)
                - y * (dy * y).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# finite-difference gradient checker
# ---------------------------------------------------------------------------

def finite_diff_check(loss_fn, params, eps: float = 1e-6,
                      max_coords_per_param: int | None = None,
                      seed: int = 0) -> float:
    """Compare stored analytic gradients against central differences.

    ``loss_fn`` is a zero-argument callable returning a scalar; it must be a
    pure function of the current parameter values. Analytic gradients are
    read from each parameter's ``.grad`` (populate them before calling).
    Returns max over checked coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.

    ``max_coords_per_param`` subsamples coordinates (seeded) so large models
    stay checkable in bounded time.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat_val = p.value.data.reshape(-1)
        flat_grad = p.grad.data.reshape(-1)
        n = flat_val.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for c in coords:
            orig = flat_val[c]
            flat_val[c] = orig + eps
            f_plus = float(loss_fn())
            flat_val[c] = orig - eps
            f_minus = float(loss_fn())
            flat_val[c] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("loss function returned a non-finite value")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = flat_grad[c]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            if err > worst:
                worst = err
    return worst
