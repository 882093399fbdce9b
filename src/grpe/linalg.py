"""Symmetric eigensolver via cyclic Jacobi rotations.

Self-contained on purpose: the Laplacian positional-encoding baseline
depends on it and its residuals are part of the verification suites.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

SYMMETRY_TOL = 1e-10
OFF_DIAG_TOL = 1e-12
MAX_SWEEPS = 100
# theta * theta overflows above about 1.34e154. From BIG_THETA up, the
# tangent formula below equals its limit 0.5 / theta bit for bit, so the
# limit takes over there without changing any result that did not overflow.
BIG_THETA = 1e150


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt((off * off).sum()))


def jacobi_eigh(s, max_sweeps: int = MAX_SWEEPS, off_tol: float = OFF_DIAG_TOL):
    """Eigendecomposition of a symmetric matrix.

    Performs cyclic Jacobi sweeps until the off-diagonal Frobenius norm
    drops below ``off_tol`` (or raises after ``max_sweeps``). Returns
    ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of an orthogonal matrix, so that
    ``S @ V == V @ diag(w)`` up to solver accuracy.
    """
    a = np.array(s, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"jacobi_eigh expects a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ShapeError("jacobi_eigh expects n >= 1")
    if np.abs(a - a.T).max(initial=0.0) >= SYMMETRY_TOL:
        raise ValueError("jacobi_eigh: input is not symmetric within 1e-10")

    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v

    converged = _off_diagonal_norm(a) < off_tol
    for _ in range(max_sweeps):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                # Stable tangent of the rotation angle, smaller root.
                if abs(theta) > BIG_THETA:
                    t = 0.5 / theta
                elif theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c

                app, aqq = a[p, p], a[q, q]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - sn * col_q
                a[:, q] = sn * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sn * row_q
                a[q, :] = sn * row_p + c * row_q
                # Recompute the 2x2 block analytically to avoid drift.
                a[p, p] = c * c * app - 2.0 * sn * c * apq + sn * sn * aqq
                a[q, q] = sn * sn * app + 2.0 * sn * c * apq + c * c * aqq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
        converged = _off_diagonal_norm(a) < off_tol
    if not converged:
        raise NumericError(f"jacobi_eigh did not converge in {max_sweeps} sweeps")

    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
