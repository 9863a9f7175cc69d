"""Low-level NumPy ops: im2col convolution plumbing and losses."""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_hw",
    "im2col",
    "col2im",
    "contract",
    "contract_verified",
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


def contract_verified(
    spec: str, a: np.ndarray, b_shape: tuple, b_dtype: np.dtype
) -> bool:
    """Whether :func:`contract` runs the fast path for this shape class."""
    key = (spec, a.shape, b_shape, a.dtype.char, np.dtype(b_dtype).char)
    return bool(_CONTRACT_OK.get(key))


def contract(
    spec: str, a: np.ndarray, b: np.ndarray, whole: tuple | None = None
) -> np.ndarray:
    """``np.einsum(spec, a, b, optimize=True)``, bit-for-bit, through the
    fast single-GEMM path whenever that path has been verified identical
    for this shape class.

    ``whole`` (conv forward only): ``b`` is a run of images of an
    operand of shape ``whole`` whose class is verified; the fast path
    runs one GEMM per image, so the run's output rows are the bytes the
    whole operand's would be."""
    key = (spec, a.shape, whole or b.shape, a.dtype.char, b.dtype.char)
    ok = _CONTRACT_OK.get(key)
    if ok:
        return _CONTRACT_FAST[spec](a, b)
    if whole is not None and whole != b.shape:
        raise ValueError("a run of images needs a verified whole class")
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


#: Bytes of column planes im2col gathers per run of images, so pass 2
#: reads them back from cache.
_GATHER_BYTES = 256 * 1024


def _inside(offset: int, stride: int, pad: int, size: int, count: int):
    """The outputs ``[lo, hi)`` of ``range(count)`` whose input index
    ``offset + stride*j - pad`` lies in ``[0, size)``, and the input
    index of ``lo``."""
    lo = min(count, max(0, -((offset - pad) // stride)))
    hi = max(lo, min(count, (size - 1 + pad - offset) // stride + 1))
    return lo, hi, offset + stride * lo - pad


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C*k*k, OH*OW) patch matrix, rows in (C, k, k)
    order (the layout col2im's taps unpack).

    Two copies, a run of images at a time, and no padded image.  Pass 1
    writes planes ``(run, C, k, min(stride, k), depth, OW)``: for kernel
    column ``kj`` and row phase ``ki % stride``, the zero-padded rows of
    that phase, shifted by ``kj`` and subsampled to the ``OW`` output
    columns.  Tap ``(ki, kj)`` reads rows ``ki // stride`` onwards of
    its phase, one contiguous ``OH*OW`` run, so pass 2 copies long runs
    into place, one kernel row ``ki`` at a time.
    """
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    phases = min(stride, k)
    depth = (k - 1) // stride + oh
    cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    rows = max(1, _GATHER_BYTES // (c * k * phases * depth * ow * x.itemsize))
    # Zero once: runs rewrite the same in-image cells, so the padding
    # cells stay zero.
    planes = np.zeros((min(rows, n), c, k, phases, depth, ow), dtype=x.dtype)
    for start in range(0, n, rows):
        run = x[start : start + rows]
        m = len(run)
        for kj in range(k):
            lo, hi, col = _inside(kj, stride, pad, w, ow)
            for phase in range(phases):
                top, bottom, row = _inside(phase, stride, pad, h, depth)
                planes[:m, :, kj, phase, top:bottom, lo:hi] = run[
                    :,
                    :,
                    row : row + stride * (bottom - top) : stride,
                    col : col + stride * (hi - lo) : stride,
                ]
        for ki in range(k):
            q = ki // stride
            cols[start : start + m, :, ki] = planes[:m, :, :, ki % stride, q : q + oh]
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
