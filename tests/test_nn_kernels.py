"""Generated-input equivalence of the NN forward kernels against their
straightforward formulations: ``im2col`` against ``np.pad`` plus one
strided view, ``BatchNorm2d.forward`` against the out-of-place formula.
Both must agree byte for byte, ``-0.0`` and strided inputs included."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import BatchNorm2d
from repro.nn.functional import conv_output_hw, im2col
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
    """(x, k, stride, pad) with x contiguous, channel/column-strided, or
    a transposed view."""
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.sampled_from([0, 1]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    low = max(1, k - 2 * pad)
    h = draw(st.integers(low, 7))
    w = draw(st.integers(low, 7))
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
    return x, k, stride, pad


@given(conv_inputs())
def test_im2col_matches_pad_oracle(case):
    x, k, stride, pad = case
    expected = im2col_oracle(x, k, stride, pad)
    got = im2col(x, k, stride, pad)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


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
