"""Neural-network layers with explicit manual backprop.

Small by design: exactly the layer set ResNet-20 and VGG-11 need, in
NumPy, with the forward pass caching what the backward pass consumes.
Forwards that no backward will consume (inference probes, the attack
search's candidate and suffix passes) run inside
:func:`_no_backward_state`, where layers keep none of that state: a
stacked suffix pass would otherwise hold every conv's patch matrix
alive until the next forward.
Conv2d and Linear support an optional ``weight_transform`` -- a
quantizer applied to the weight in the forward pass whose gradient is
passed straight through (STE), which is how the binary-weight hardening
baselines of Table II train.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .functional import (
    col2im,
    contract,
    contract_verified,
    conv_output_hw,
    im2col,
)

__all__ = [
    "Parameter",
    "Layer",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Sequential",
]

WeightTransform = Callable[[np.ndarray], np.ndarray]


#: Whether forwards keep what their backward reads.
_RETAIN_BACKWARD_STATE = True

#: Patch-matrix bytes per im2col -> GEMM chunk of an inference forward:
#: about what a core's L2 holds next to the GEMM's working set.
_CONV_CHUNK_BYTES = 512 * 1024


@contextmanager
def _no_backward_state() -> Iterator[None]:
    """Forwards inside this block feed no backward: layers drop their
    patch matrices, normalized activations and masks instead of
    caching them.  Outputs are unchanged; a ``backward`` after such a
    forward fails its "forward before backward" assertion."""
    global _RETAIN_BACKWARD_STATE
    previous = _RETAIN_BACKWARD_STATE
    _RETAIN_BACKWARD_STATE = False
    try:
        yield
    finally:
        _RETAIN_BACKWARD_STATE = previous


class Parameter:
    """A trainable array with its gradient accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Layer:
    """Base layer: ``forward`` caches, ``backward`` returns dX."""

    def params(self) -> dict[str, Parameter]:
        """Trainable parameters, keyed by local name."""
        return {}

    def children(self) -> list[tuple[str, "Layer"]]:
        """Named sub-layers, for hierarchical traversal."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


def _kaiming(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)


class Conv2d(Layer):
    """3x3/1x1-style convolution via im2col and one GEMM per image.

    A forward that keeps backward state builds the whole batch's patch
    matrix and keeps it for ``backward``.  Under
    :func:`_no_backward_state` the forward keeps nothing, and once the
    batch's GEMM class is verified to run the fast path (after its
    first forward) it runs im2col -> GEMM on chunks of about
    :data:`_CONV_CHUNK_BYTES` of patch matrix, so each chunk is still in
    cache when the GEMM reads it.  The output bytes are the same.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int | None = None,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(_kaiming((out_channels, fan_in), fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.weight_transform: WeightTransform | None = None
        self._cache: tuple | None = None

    def params(self) -> dict[str, Parameter]:
        named = {"weight": self.weight}
        if self.bias is not None:
            named["bias"] = self.bias
        return named

    def effective_weight(self) -> np.ndarray:
        if self.weight_transform is not None:
            return self.weight_transform(self.weight.value)
        return self.weight.value

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k, stride, pad = self.kernel, self.stride, self.pad
        oh, ow = conv_output_hw(h, w, k, stride, pad)
        weight = self.effective_weight()
        # The fast path runs one GEMM per image, so chunks of a verified
        # class give the whole batch's bytes; einsum's cannot be split.
        whole = (n, c * k * k, oh * ow)
        rows = n
        if not _RETAIN_BACKWARD_STATE and contract_verified(
            "of,nfp->nop", weight, whole, x.dtype
        ):
            rows = max(1, _CONV_CHUNK_BYTES // (whole[1] * whole[2] * x.itemsize))
        parts = []
        for start in range(0, n, rows):
            cols = im2col(x[start : start + rows], k, stride, pad)
            parts.append(contract("of,nfp->nop", weight, cols, whole))
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if self.bias is not None:
            out += self.bias.value[None, :, None]
        self._cache = (x.shape, cols) if _RETAIN_BACKWARD_STATE else None
        return np.ascontiguousarray(out.reshape(n, self.out_channels, oh, ow))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "forward before backward"
        x_shape, cols = self._cache
        n = dy.shape[0]
        dy_flat = np.ascontiguousarray(dy.reshape(n, self.out_channels, -1))
        # STE: the gradient w.r.t. the raw weight equals the gradient
        # w.r.t. the transformed weight.
        self.weight.grad += contract("nop,nfp->of", dy_flat, cols)
        if self.bias is not None:
            self.bias.grad += dy_flat.sum(axis=(0, 2))
        weight = self.effective_weight()
        dcols = contract("of,nop->nfp", weight, dy_flat)
        return col2im(dcols, x_shape, self.kernel, self.stride, self.pad)


class Linear(Layer):
    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _kaiming((out_features, in_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.weight_transform: WeightTransform | None = None
        self._x: np.ndarray | None = None

    def params(self) -> dict[str, Parameter]:
        named = {"weight": self.weight}
        if self.bias is not None:
            named["bias"] = self.bias
        return named

    def effective_weight(self) -> np.ndarray:
        if self.weight_transform is not None:
            return self.weight_transform(self.weight.value)
        return self.weight.value

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if _RETAIN_BACKWARD_STATE else None
        out = x @ self.effective_weight().T
        if self.bias is not None:
            out += self.bias.value
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._x is not None
        self.weight.grad += dy.T @ self._x
        if self.bias is not None:
            self.bias.grad += dy.sum(axis=0)
        return dy @ self.effective_weight()


class BatchNorm2d(Layer):
    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None

    def params(self) -> dict[str, Parameter]:
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(np.float32)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(np.float32)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        # (x - mean) * inv_std * gamma + beta: the same float32 ops in
        # the same order, with two fewer full-size temporaries.
        x_hat = x - mean[None, :, None, None]
        x_hat *= inv_std[None, :, None, None]
        self._cache = (
            (x_hat, inv_std, x.shape, training) if _RETAIN_BACKWARD_STATE else None
        )
        out = self.gamma.value[None, :, None, None] * x_hat
        out += self.beta.value[None, :, None, None]
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        x_hat, inv_std, shape, was_training = self._cache
        n, _, h, w = shape
        m = n * h * w
        self.gamma.grad += (dy * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        gamma = self.gamma.value[None, :, None, None]
        dxhat = dy * gamma
        if not was_training:
            # Eval mode: running stats don't depend on x.
            return (dxhat * inv_std[None, :, None, None]).astype(np.float32)
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (
            dxhat - sum_dxhat / m - x_hat * sum_dxhat_xhat / m
        ) * inv_std[None, :, None, None]
        return dx.astype(np.float32)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if _RETAIN_BACKWARD_STATE else None
        return x * mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return dy * self._mask


class MaxPool2d(Layer):
    """Non-overlapping k x k max pooling."""

    def __init__(self, k: int = 2):
        self.k = k
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial size {h}x{w} not divisible by {k}")
        blocks = x.reshape(n, c, h // k, k, w // k, k)
        out = blocks.max(axis=(3, 5))
        self._cache = (
            (blocks == out[:, :, :, None, :, None], x.shape)
            if _RETAIN_BACKWARD_STATE
            else None
        )
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        mask, shape = self._cache
        n, c, h, w = shape
        k = self.k
        spread = mask * dy[:, :, :, None, :, None]
        return spread.reshape(n, c, h, w).astype(np.float32)


class GlobalAvgPool(Layer):
    """Mean over the spatial dimensions -> (N, C)."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        n, c, h, w = self._shape
        return np.broadcast_to(
            dy[:, :, None, None] / (h * w), self._shape
        ).astype(np.float32)


class Flatten(Layer):
    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return dy.reshape(self._shape)


class Sequential(Layer):
    def __init__(self, *layers: Layer):
        self.layers = list(layers)

    def children(self) -> list[tuple[str, Layer]]:
        return [(str(index), layer) for index, layer in enumerate(self.layers)]

    def params(self) -> dict[str, Parameter]:
        named = {}
        for index, layer in enumerate(self.layers):
            for name, param in layer.params().items():
                named[f"{index}.{name}"] = param
        return named

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def forward_from(
        self, x: np.ndarray, start: int, training: bool = False
    ) -> np.ndarray:
        """Suffix forward: run ``layers[start:]`` on ``x``, the input
        activation of layer ``start``.  With ``x`` taken from a cached
        full forward, the result is bit-identical to running the whole
        network -- the prefix would recompute exactly those values.
        ``start >= len(self.layers)`` returns ``x`` unchanged (the
        "suffix" past the last layer is the identity on the logits)."""
        if not 0 <= start <= len(self.layers):
            raise IndexError(
                f"suffix start {start} out of range 0..{len(self.layers)}"
            )
        for layer in self.layers[start:]:
            x = layer.forward(x, training=training)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy
