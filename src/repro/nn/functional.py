"""Low-level NumPy ops: im2col convolution plumbing and losses."""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_hw",
    "im2col",
    "col2im",
    "contract",
    "softmax",
    "cross_entropy",
    "cross_entropy_grad",
]


# ----------------------------------------------------------------------
# Verified fast contractions
# ----------------------------------------------------------------------
# einsum(optimize=True) picks shape-dependent contraction paths; for most
# conv shapes a single broadcast matmul / tensordot computes the exact
# same BLAS reduction order several times faster, but for some (small
# feature-map) shapes einsum dispatches differently and the results
# drift by ulps -- enough to perturb a training trajectory.  `contract`
# therefore verifies the fast path ONCE per (spec, shapes, dtypes): the
# first call computes both and compares bitwise; only shapes where the
# fast path is bit-identical ever use it again.  einsum's dispatch is a
# pure function of shapes/dtypes, so one agreeing sample certifies the
# shape class.

_CONTRACT_FAST = {
    # conv forward: (O, F) x (N, F, P) -> (N, O, P)
    "of,nfp->nop": lambda w, cols: np.matmul(w, cols),
    # conv dX: (O, F) x (N, O, P) -> (N, F, P)
    "of,nop->nfp": lambda w, dy: np.matmul(w.swapaxes(0, 1), dy),
    # conv dW: (N, O, P) x (N, F, P) -> (O, F)
    "nop,nfp->of": lambda dy, cols: np.tensordot(
        dy, cols, axes=((0, 2), (0, 2))
    ),
}
_CONTRACT_OK: dict[tuple, bool] = {}


def contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, a, b, optimize=True)``, bit-for-bit, through the
    fast single-GEMM path whenever that path has been verified identical
    for this shape class."""
    key = (spec, a.shape, b.shape, a.dtype.char, b.dtype.char)
    ok = _CONTRACT_OK.get(key)
    if ok:
        return _CONTRACT_FAST[spec](a, b)
    ein = np.einsum(spec, a, b, optimize=True)
    if ok is None:
        _CONTRACT_OK[key] = bool(
            np.array_equal(ein, _CONTRACT_FAST[spec](a, b))
        )
    return ein


def conv_output_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    """Spatial output size of a convolution."""
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError("convolution output would be empty")
    return oh, ow


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C*k*k, OH*OW) patch matrix."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    if pad:
        # Zeros plus one interior copy: what np.pad(mode="constant")
        # builds, without its per-call bookkeeping.
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
    else:
        padded = x
    # One strided view + one copy beats fancy indexing by a wide margin
    # on the conv-heavy forward pass; rows are in (C, k, k) order, the
    # layout col2im's taps unpack.
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (k, k), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(n, c * k * k, oh * ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    k: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add back to image space)."""
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    # k*k strided slice-adds instead of one giant np.add.at scatter:
    # each kernel tap touches disjoint addresses, so the adds vectorize.
    taps = cols.reshape(n, c, k, k, oh, ow)
    for ki in range(k):
        for kj in range(k):
            padded[
                :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ] += taps[:, :, ki, kj]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer ``labels`` under ``logits``."""
    probs = softmax(logits)
    n = logits.shape[0]
    eps = 1e-12
    return float(-np.log(probs[np.arange(n), labels] + eps).mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d logits."""
    probs = softmax(logits)
    n = logits.shape[0]
    probs[np.arange(n), labels] -= 1.0
    return probs / n
