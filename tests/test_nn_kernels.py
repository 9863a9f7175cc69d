"""Generated-input equivalence of the NN forward kernels against their
straightforward formulations: ``im2col`` against ``np.pad`` plus one
strided view, the chunked inference ``Conv2d.forward`` against the
whole-batch forward that keeps backward state, ``BatchNorm2d.forward``
against the out-of-place formula.  All must agree byte for byte,
``-0.0`` and strided inputs included."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import BatchNorm2d, Conv2d
from repro.nn import functional, layers
from repro.nn.functional import (
    contract,
    contract_verified,
    conv_output_hw,
    im2col,
)
from repro.nn.layers import _no_backward_state

#: Element values: plenty of signed zeros next to ordinary floats.
ELEMENTS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.5]),
    st.floats(-1e3, 1e3, width=32),
)


def im2col_oracle(x, k, stride, pad):
    """The ``np.pad`` + ``sliding_window_view`` im2col."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (k, k), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)


@st.composite
def conv_inputs(draw):
    """(x, k, stride, pad, gather_bytes) with x contiguous,
    channel/column-strided, or a transposed view."""
    k = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.sampled_from([1, 2, 3]))
    pad = draw(st.sampled_from([0, 1, 2]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    # The smallest image with a non-empty output: with padding that
    # is narrower than the kernel.
    low = max(1, k - 2 * pad)
    h = draw(st.integers(low, 9))
    w = draw(st.integers(low, 9))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    base_shape = {
        "contiguous": (n, c, h, w),
        "strided": (n, 2 * c, h, 2 * w),
        "transposed": (n, c, w, h),
    }[layout]
    base = draw(arrays(dtype, base_shape, elements=ELEMENTS))
    x = {
        "contiguous": base,
        "strided": base[:, ::2, :, ::2],
        "transposed": base.transpose(0, 1, 3, 2),
    }[layout]
    # Plane bytes gathered per run: the default (one run here), or a
    # budget small enough to split the batch into runs.
    gather_bytes = draw(st.one_of(st.none(), st.integers(1, 4096)))
    return x, k, stride, pad, gather_bytes


@given(conv_inputs())
def test_im2col_matches_pad_oracle(case):
    x, k, stride, pad, gather_bytes = case
    expected = im2col_oracle(x, k, stride, pad)
    with pytest.MonkeyPatch.context() as patch:
        if gather_bytes is not None:
            patch.setattr(functional, "_GATHER_BYTES", gather_bytes)
        got = im2col(x, k, stride, pad)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@st.composite
def conv_chunk_cases(draw):
    """A Conv2d, an input batch, and a chunk size (in images) that the
    batch is below, equal to, or several times plus a remainder."""
    k = draw(st.sampled_from([1, 2, 3]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.sampled_from([0, 1]))
    c = draw(st.integers(1, 3))
    low = max(1, k - 2 * pad)
    h = draw(st.integers(low, 6))
    w = draw(st.integers(low, 6))
    split = draw(st.sampled_from(["below", "exact", "remainder"]))
    if split == "below":
        rows = draw(st.integers(2, 4))
        n = draw(st.integers(1, rows - 1))
    elif split == "exact":
        rows = n = draw(st.integers(1, 4))
    else:
        rows = draw(st.integers(2, 3))
        n = rows * draw(st.integers(2, 3)) + draw(st.integers(1, rows - 1))
    conv = Conv2d(
        c,
        draw(st.integers(1, 4)),
        k,
        stride=stride,
        pad=pad,
        bias=draw(st.booleans()),
        rng=np.random.default_rng(draw(st.integers(0, 2**16))),
    )
    if conv.bias is not None:
        conv.bias.value[...] = draw(
            arrays(np.float32, conv.bias.value.shape, elements=ELEMENTS)
        )
    if draw(st.booleans()):
        conv.weight_transform = lambda weight: np.where(
            weight >= 0, np.float32(0.5), np.float32(-0.5)
        )
    x = draw(arrays(np.float32, (n, c, h, w), elements=ELEMENTS))
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    image_bytes = c * k * k * oh * ow * x.itemsize
    # Any byte budget from `rows` images up to just below `rows + 1`.
    chunk_bytes = rows * image_bytes + draw(st.integers(0, image_bytes - 1))
    return conv, x, rows, chunk_bytes


@given(conv_chunk_cases())
def test_inference_conv_chunks_match_retained_forward(case):
    conv, x, rows, chunk_bytes = case
    chunks = []

    def recording_im2col(x, k, stride, pad):
        chunks.append(x.shape[0])
        return im2col(x, k, stride, pad)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "_CONV_CHUNK_BYTES", chunk_bytes)
        # contract's first call for a shape class returns einsum's
        # result, which may carry the other sign on an exact zero; warm
        # the class so both sides compare steady-state outputs.
        conv.forward(x)
        patch.setattr(layers, "im2col", recording_im2col)
        expected = conv.forward(x)
        # Keeping backward state: one whole-batch patch matrix, kept.
        assert chunks == [len(x)]
        assert conv._cache[1].shape[0] == len(x)
        chunks.clear()
        with _no_backward_state():
            got = conv.forward(x)
    # Chunked exactly when the whole batch's GEMM class is verified fast
    # (einsum's result for a class that is not cannot be split by rows).
    n, c, _, _ = x.shape
    whole = (n, c * conv.kernel**2, expected.shape[2] * expected.shape[3])
    if contract_verified("of,nfp->nop", conv.effective_weight(), whole, x.dtype):
        assert chunks == [min(rows, n - start) for start in range(0, n, rows)]
    else:
        assert chunks == [n]
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    assert conv._cache is None


def test_contract_runs_of_images_need_a_verified_class():
    rng = np.random.default_rng(0)
    weight = rng.standard_normal((4, 18)).astype(np.float32)
    cols = rng.standard_normal((5, 18, 49)).astype(np.float32)
    with pytest.raises(ValueError, match="verified"):
        contract("of,nfp->nop", weight, cols[1:3], cols.shape)
    contract("of,nfp->nop", weight, cols)  # verifies the class
    whole = contract("of,nfp->nop", weight, cols)
    if contract_verified("of,nfp->nop", weight, cols.shape, cols.dtype):
        run = contract("of,nfp->nop", weight, cols[1:3], cols.shape)
        assert run.tobytes() == whole[1:3].tobytes()
    else:
        with pytest.raises(ValueError, match="verified"):
            contract("of,nfp->nop", weight, cols[1:3], cols.shape)


def batchnorm_oracle(bn, x, training):
    """Out-of-place BatchNorm forward (stats as the layer computes them)."""
    if training:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    else:
        mean, var = bn.running_mean, bn.running_var
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = bn.gamma.value[None, :, None, None] * x_hat + bn.beta.value[
        None, :, None, None
    ]
    return out, x_hat


@st.composite
def batchnorm_cases(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    h = draw(st.integers(1, 5))
    w = draw(st.integers(1, 5))
    x = draw(arrays(np.float32, (n, c, h, w), elements=ELEMENTS))
    channel = arrays(np.float32, (c,), elements=ELEMENTS)
    variance = arrays(np.float32, (c,), elements=st.floats(0.0, 1e3, width=32))
    bn = BatchNorm2d(c)
    bn.gamma.value[...] = draw(channel)
    bn.beta.value[...] = draw(channel)
    bn.running_mean = draw(channel)
    bn.running_var = draw(variance)
    return bn, x, draw(st.booleans())


@given(batchnorm_cases())
def test_batchnorm_matches_out_of_place_formula(case):
    bn, x, training = case
    expected, x_hat = batchnorm_oracle(bn, x, training)
    stats = (bn.running_mean.copy(), bn.running_var.copy())
    got = bn.forward(x, training=training)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    # The retained state is what backward reads: the same x_hat.
    assert bn._cache[0].tobytes() == x_hat.tobytes()
    # An inference forward gives the same bytes and keeps no state.
    bn.running_mean, bn.running_var = stats
    with _no_backward_state():
        again = bn.forward(x, training=training)
    assert again.tobytes() == expected.tobytes()
    assert bn._cache is None
