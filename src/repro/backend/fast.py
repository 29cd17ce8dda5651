"""The ``fast`` profile: fused float32 GEMMs where they measured faster.

Opt-in via ``REPRO_BACKEND=fast``.  The profile overrides only the kernels
that measured faster than the reference backend by more than the noise
floor: every run of ``repro.core.bench._bench_kernel_sections`` must show
the override's speedup above the highest "speedup" any *inherited* kernel
(identical code on both sides, so pure noise) shows in the same run.  The
conv forward GEMM, the conv backward GEMM pair and the dense backward pass
that rule; the dense forward, the im2col scatter and batch-norm are
inherited from :class:`~repro.backend.numpy_backend.NumpyBackend` and are
byte-identical to it (``tests/test_backend.py`` pins that, so a re-added
override has to bring its own measurement).

Each override collapses the leading (sample/candidate) axes into a single
``(N*L, K) @ (K, out)`` GEMM on contiguous float32 operands, so BLAS sees
one large problem instead of a gufunc loop of small ones (the weight
gradients become one transposed GEMM instead of an einsum or a per-slice
GEMM plus ``_unbroadcast`` sum).  That changes the floating-point
reduction *grouping*, so outputs are only equal to the reference within
tolerance -- ``fast`` is excluded from the byte-identity golden tests and
covered by the tolerance parity suite in ``tests/test_backend.py``
instead.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.numpy_backend import NumpyBackend


def _flat32(x: np.ndarray) -> np.ndarray:
    """Contiguous float32 2-D view of an array's trailing feature axis."""
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]), dtype=np.float32)


class FastBackend(NumpyBackend):
    """Throughput-first kernels; tolerance-equal to the reference backend."""

    name = "fast"
    byte_identical = False

    def conv_cols_matmul(self, cols: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
        n, length, k = cols.shape
        flat = np.ascontiguousarray(cols.reshape(n * length, k), dtype=np.float32)
        kernel = np.ascontiguousarray(w_mat.T, dtype=np.float32)
        return (flat @ kernel).reshape(n, length, kernel.shape[1])

    def conv_grads(
        self,
        grad_mat: np.ndarray,
        cols: np.ndarray,
        w_mat: np.ndarray,
        weight_shape: Tuple[int, ...],
    ) -> Tuple[np.ndarray, np.ndarray]:
        n, length, out_c = grad_mat.shape
        flat_grad = _flat32(grad_mat)  # (N*L, out_c)
        kernel = np.ascontiguousarray(w_mat, dtype=np.float32)
        grad_cols = (flat_grad @ kernel).reshape(n, length, w_mat.shape[1])
        # einsum("nlo,nlk->ok") fused into one transposed GEMM.
        grad_w = (flat_grad.T @ _flat32(cols)).reshape(weight_shape)
        return grad_cols, grad_w

    def linear_grads(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        w_t: np.ndarray,
        bias_shape: Optional[Tuple[int, ...]],
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        flat_grad = _flat32(grad)  # (M, out)
        flat_x = _flat32(x)  # (M, in)
        w = np.ascontiguousarray(np.swapaxes(w_t, -1, -2), dtype=np.float32)
        grad_x = (flat_grad @ w).reshape(x.shape)
        grad_w = flat_grad.T @ flat_x  # (out, in): the layer's weight shape
        grad_b = (
            None if bias_shape is None else flat_grad.sum(axis=0).reshape(bias_shape)
        )
        return grad_x, grad_w, grad_b
