"""Optimizable blur kernels and the reblur distance they are trained on.

The blur operator is plain 2-D cross-correlation with edge-clamped
(replicate) padding: for an n x n kernel K (n odd, center c = n // 2)

    (K . u)[p] = sum_q K[q] * u[clip(p + q - c)]

The reblur distance is the pixel-mean squared error between the reblurred
clean estimate and the blurry target, and both analytic gradients fall out
of the chain rule:

    dL/dK[q]   = (2 / P) * sum_p r[p] * u_pad[p + q]          (r = K.u - y)
    dL/du      = adjoint(K) applied to (2 / P) * r

where the adjoint accounts for the replicate padding by folding the pad
margins back onto the edge pixels.

A guided reverse step needs all three; a step with guidance off needs
none, and never calls this module.  The guided step calls the array core
that gives all three in one fused pass over a single residual,
:func:`correlate2d_clamped_loss_and_grads`.  It works in the Fourier domain
on the edge-padded canvas of shape (H + 2c, W + 2c), transforming the padded
field, the kernel and the scaled residual once each; the forward blur, the
kernel gradient and the adjoint are each one product and one inverse
transform.  The field and the kernel share one batched transform, and so do
the two gradient products, so a pass makes four transform calls, not six.
The calls go straight to scipy's compiled pocketfft kernels (``r2c`` and
``c2r`` of ``scipy.fft._pocketfft.pypocketfft``), through ``_rfft2`` and
``_irfft2``, with the arguments ``scipy.fft.rfft2``/``irfft2`` pass them;
on the sampler's small canvases the public wrappers' argument handling is
a large share of each transform.  Those two helpers are the only users of
the private extension, and the tests pin them to the public functions bit
for bit.
``reblur`` is its ``Field`` wrapper, the one entry point for the distance
and its gradients.  On a zero field the pass's scaled residual is
(2 / P) * (0 - y) exactly, so its field gradient is the adjoint applied to
that; the adjoint identity is checked on the pass itself.  ``convolve`` and
the planted blur stay on ``ndimage.correlate`` (``correlate2d_clamped``), the
definition of every generated dataset.

``_edge_pad`` (the replicate-padded canvas) and ``_fold_margins`` (its
adjoint, folding the margins back onto the edge pixels) also serve the
conv net in :mod:`postcast.denoisers`, over a (channels, H, W) stack.

The array-level primitives live at the bottom of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.fft._pocketfft import pypocketfft

from .errors import ParameterError, ShapeError
from .fields import Field, require_same_shape


@dataclass
class BlurKernel:
    """An n x n array of unconstrained kernel parameters (n odd).

    Mutable on purpose: the guided sampler refines ``params`` in place
    across reverse steps.
    """

    params: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.params, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"kernel must be square, got shape {arr.shape}")
        if arr.shape[0] % 2 == 0:
            raise ParameterError(f"kernel size must be odd, got {arr.shape[0]}")
        self.params = arr

    def mean(self) -> float:
        """Mean parameter; finite for every finite kernel."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self.params.mean()
        if not np.isfinite(mean) and np.isfinite(self.params).all():
            # The sum overflowed, to inf or, where partial sums overflowed
            # both ways, to inf - inf = NaN; entries scaled to at most 1 in
            # size cannot.
            scale = np.abs(self.params).max()
            mean = (self.params / scale).mean() * scale
        return float(mean)


@dataclass(frozen=True)
class KernelConfig:
    """Initialization of the optimizable blur kernel."""

    size: int = 9
    init_mean: float = 0.6
    init_std: float = 0.1

    def __post_init__(self):
        if self.size < 1 or self.size % 2 == 0:
            raise ParameterError(f"kernel size must be odd and positive, got {self.size}")
        if not math.isfinite(self.init_mean):
            raise ParameterError(f"kernel init_mean must be finite, got {self.init_mean}")
        if not 0 <= self.init_std < math.inf:
            raise ParameterError(f"kernel init_std must be finite and >= 0, got {self.init_std}")
        # numpy's ziggurat normal draws |z| <= ~13.7 from 53-bit uniforms.
        if not math.isfinite(abs(self.init_mean) + 16 * self.init_std):
            raise ParameterError(f"kernel init_std must keep |init_mean| + 16 * init_std "
                                 f"finite, got {self.init_mean} and {self.init_std}")


def init_kernel(n: int = 9, mean: float = 0.6, std: float = 0.1, seed=None) -> BlurKernel:
    """Draw kernel parameters i.i.d. from Normal(mean, std^2).

    The arguments obey :class:`KernelConfig`'s rules.  ``seed`` may be an int
    or an existing numpy Generator (the sampler passes its run generator
    through so the whole run consumes one stream).
    """
    KernelConfig(n, mean, std)
    rng = np.random.default_rng(seed)
    return BlurKernel(rng.normal(mean, std, size=(n, n)))


def convolve(kernel: BlurKernel, field: Field) -> Field:
    """Blur ``field`` with the kernel (cross-correlation, replicate padding)."""
    return field.like(correlate2d_clamped(field.values, kernel.params))


def reblur(kernel: BlurKernel, x0_est: Field, y_prime: Field) -> tuple[float, Field, np.ndarray]:
    """Reblur distance and both its gradients from one residual.

    Returns ``(loss, grad_field, grad_kernel)``: the pixel-mean squared error
    between the reblurred estimate and the target, its gradient in
    ``x0_est`` (a field in the same unit regime) and its gradient in the
    kernel parameters, shape (n, n).
    """
    require_same_shape(x0_est, y_prime, "x0_est and y_prime")
    if x0_est.units != y_prime.units:
        raise ParameterError(
            f"x0_est and y_prime must share a unit regime, got {x0_est.units!r} vs {y_prime.units!r}"
        )
    loss, grad_values, grad_weights = correlate2d_clamped_loss_and_grads(
        x0_est.values, kernel.params, y_prime.values
    )
    return loss, x0_est.like(grad_values), grad_weights


# ---------------------------------------------------------------------------
# Array-level primitives.  All take/return plain 2-D float64 arrays.
# ---------------------------------------------------------------------------


def correlate2d_clamped(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Cross-correlate with replicate padding; same shape as ``values``."""
    return ndimage.correlate(values, weights, mode="nearest")


def correlate2d_clamped_loss_and_grads(
    values: np.ndarray, weights: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """``(loss, grad_values, grad_weights)`` of the reblur distance, fused.

    With r = correlate2d_clamped(values, weights) - target and
    g = (2 / r.size) * r, returns mean(r**2), the adjoint of the blur applied
    to g and the gradient of
    sum(g * correlate2d_clamped(values, W)) in W, all from one residual.

    Everything lives on the edge-padded canvas of shape (Hc, Wc) = (H + 2c,
    W + 2c), with c = n // 2 and Hc = H + n - 1 >= n, so the kernel and the
    residual fit on it zero-extended.  The circular products computed there
    never wrap an index (per axis; the other is the same):

    * forward, sum_j P[p + j] K[j] for p < H and j < n: p + j <= H + n - 2
      = Hc - 1;
    * kernel gradient, sum_p P[p + q] G[p] for q < n and p < H: the same
      bound;
    * adjoint, sum_p G[p] K[m - p] for m < Hc and p < H: a negative m - p
      wraps to m - p + Hc >= Hc - H + 1 = n, where the zero-extended kernel
      is zero.

    So each is exact up to rounding, and the adjoint's full-size spread is
    folded onto the edge pixels its margins were replicated from.

    The four transforms call pocketfft directly (:func:`_rfft2`,
    :func:`_irfft2`), so the scaled residual is zero-extended onto the canvas
    here, where ``scipy.fft.rfft2``'s ``s=`` argument would do it; every
    output keeps the bits of the public ``scipy.fft`` calls.
    """
    h, w = values.shape
    n = weights.shape[0]
    c = n // 2
    width = w + n - 1
    # The padded field and the zero-extended kernel go through one batched
    # transform, and so do the two gradient products; each slice keeps the
    # bits of its own 2-D transform, in fewer calls.
    inputs = np.zeros((2, h + n - 1, width))
    inputs[0] = _edge_pad(values, n)
    inputs[1, :n, :n] = weights
    f_padded, f_weights = _rfft2(inputs)
    r = _irfft2(f_padded * np.conj(f_weights), width)[:h, :w] - target
    loss = float(np.mean(r * r))
    upstream = np.zeros(inputs.shape[1:])
    upstream[:h, :w] = (2.0 / r.size) * r
    f_upstream = _rfft2(upstream)
    products = np.empty((2,) + f_padded.shape, dtype=f_padded.dtype)
    np.multiply(f_padded, np.conj(f_upstream), out=products[0])
    np.multiply(f_upstream, f_weights, out=products[1])
    grad_weights, spread = _irfft2(products, width)
    return loss, _fold_margins(spread, c, h, w), grad_weights[:n, :n]


def _rfft2(a: np.ndarray) -> np.ndarray:
    """``scipy.fft.rfft2(a)``: the real transform of the last two axes.

    Calls the pocketfft extension that ``scipy.fft`` itself calls, with the
    arguments it would pass (unnormalised, one thread), and skips the
    wrapper's argument handling, a large share of each call on the small
    canvases the sampler transforms.
    """
    return pypocketfft.r2c(a, (a.ndim - 2, a.ndim - 1), True, 0, None, 1)


def _irfft2(a: np.ndarray, width: int) -> np.ndarray:
    """``scipy.fft.irfft2(a, s)`` for a half spectrum of the last two axes,
    with ``s = (a.shape[-2], width)``; divides by the canvas size like it."""
    return pypocketfft.c2r(a, (a.ndim - 2, a.ndim - 1), width, False, 2, None, 1)


def _edge_pad(values: np.ndarray, size: int) -> np.ndarray:
    """(..., H, W) -> (..., H + size - 1, W + size - 1), the replicate-padded canvas.

    Pads the last two axes of a 2-D or 3-D array by size // 2.  Slice
    assignment gives the bits of ``np.pad(mode="edge")`` in about half its
    time: the rows are copied out first, then the columns, corners included.
    """
    c = size // 2
    h, w = values.shape[-2:]
    out = np.empty(values.shape[:-2] + (h + 2 * c, w + 2 * c), dtype=values.dtype)
    out[..., c : c + h, c : c + w] = values
    out[..., :c, c : c + w] = values[..., :1, :]
    out[..., c + h :, c : c + w] = values[..., -1:, :]
    out[..., :c] = out[..., c : c + 1]
    out[..., c + w :] = out[..., c + w - 1 : c + w]
    return out


def _fold_margins(spread: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    """(..., h + 2c, w + 2c) -> (..., h, w): fold the c-wide margins of the
    last two axes onto the edge pixels they were replicated from.

    The rows fold first, then the columns, each with direct slices.
    """
    if c == 0:
        return spread
    rows = spread[..., c : c + h, :].copy()
    rows[..., 0, :] += spread[..., :c, :].sum(axis=-2)
    rows[..., -1, :] += spread[..., c + h :, :].sum(axis=-2)
    out = rows[..., c : c + w].copy()
    out[..., 0] += rows[..., :c].sum(axis=-1)
    out[..., -1] += rows[..., c + w :].sum(axis=-1)
    return out
