"""Optimizable blur kernels and the reblur distance they are trained on.

The blur operator is plain 2-D cross-correlation with edge-clamped
(replicate) padding: for an n x n kernel K (n odd, center c = n // 2)

    (K . u)[p] = sum_q K[q] * u[clip(p + q - c)]

``distance`` is the pixel-mean squared error between the reblurred clean
estimate and the blurry target, and both analytic gradients fall out of the
chain rule:

    dL/dK[q]   = (2 / P) * sum_p r[p] * u_pad[p + q]          (r = K.u - y)
    dL/du      = adjoint(K) applied to (2 / P) * r

where the adjoint accounts for the replicate padding by folding the pad
margins back onto the edge pixels.

The sampler needs all three at every reverse step, so :func:`reblur` gets
them in one fused pass over a single residual
(:func:`correlate2d_clamped_loss_and_grads`).  It works in the Fourier domain
on the edge-padded canvas of shape (H + 2c, W + 2c), transforming the padded
field, the kernel and the scaled residual once each; the forward blur, the
kernel gradient and the adjoint are each one product and one inverse
transform.  ``distance``, ``grad_wrt_field`` and ``grad_wrt_kernel`` are thin
wrappers on it.

The direct primitives (``correlate2d_clamped`` and its adjoint and weight
gradient) stay: the convolutional denoiser's small multi-channel kernels are
cheaper that way, and the tests use them as the reference for the fused pass.
The array-level primitives live at the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft, ndimage, signal

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

    @property
    def size(self) -> int:
        return self.params.shape[0]

    def mean(self) -> float:
        return float(self.params.mean())


def init_kernel(n: int = 9, mean: float = 0.6, std: float = 0.1, seed=None) -> BlurKernel:
    """Draw kernel parameters i.i.d. from Normal(mean, std^2).

    ``seed`` may be an int or an existing numpy Generator (the sampler passes
    its run generator through so the whole run consumes one stream).
    """
    if n < 1 or n % 2 == 0:
        raise ParameterError(f"kernel size must be odd and positive, got {n}")
    if std < 0:
        raise ParameterError(f"kernel init std must be >= 0, got {std}")
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


def distance(kernel: BlurKernel, x0_est: Field, y_prime: Field) -> float:
    """Pixel-mean squared error between the reblurred estimate and target."""
    return reblur(kernel, x0_est, y_prime)[0]


def grad_wrt_kernel(kernel: BlurKernel, x0_est: Field, y_prime: Field) -> np.ndarray:
    """d distance / d kernel params, shape (n, n)."""
    return reblur(kernel, x0_est, y_prime)[2]


def grad_wrt_field(kernel: BlurKernel, x0_est: Field, y_prime: Field) -> Field:
    """d distance / d x0_est, as a field in the same unit regime."""
    return reblur(kernel, x0_est, y_prime)[1]


def adjoint_convolve(kernel: BlurKernel, field: Field) -> Field:
    """The exact adjoint of :func:`convolve` (for inner-product checks)."""
    return field.like(correlate2d_clamped_adjoint(field.values, kernel.params))


# ---------------------------------------------------------------------------
# Array-level primitives.  All take/return plain 2-D float64 arrays.
# ---------------------------------------------------------------------------


def correlate2d_clamped(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Cross-correlate with replicate padding; same shape as ``values``."""
    return ndimage.correlate(values, weights, mode="nearest")


def correlate2d_clamped_adjoint(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Adjoint of ``correlate2d_clamped`` in its first argument.

    Zero-extended full convolution scatters each output back over the padded
    canvas; folding the margins then routes pad contributions to the edge
    pixels they were replicated from.
    """
    c = weights.shape[0] // 2
    spread = signal.convolve2d(values, weights, mode="full")
    folded = _fold_margin(spread, c, values.shape[0], axis=0)
    return _fold_margin(folded, c, values.shape[1], axis=1)


def correlate2d_clamped_weight_grad(
    values: np.ndarray, upstream: np.ndarray, size: int
) -> np.ndarray:
    """Gradient of ``sum(upstream * correlate2d_clamped(values, W))`` in W."""
    c = size // 2
    padded = np.pad(values, c, mode="edge")
    return signal.correlate2d(padded, upstream, mode="valid")


def correlate2d_clamped_loss_and_grads(
    values: np.ndarray, weights: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """``(loss, grad_values, grad_weights)`` of the reblur distance, fused.

    With r = correlate2d_clamped(values, weights) - target and
    g = (2 / r.size) * r, returns mean(r**2), correlate2d_clamped_adjoint(g,
    weights) and correlate2d_clamped_weight_grad(values, g, n), all from one
    residual.

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
    folded onto the edge pixels exactly as in the direct adjoint.
    """
    h, w = values.shape
    n = weights.shape[0]
    c = n // 2
    padded = np.pad(values, c, mode="edge")
    canvas = padded.shape
    f_padded = fft.rfft2(padded)
    f_weights = fft.rfft2(weights, canvas)
    r = fft.irfft2(f_padded * np.conj(f_weights), canvas)[:h, :w] - target
    loss = float(np.mean(r * r))
    f_upstream = fft.rfft2((2.0 / r.size) * r, canvas)
    grad_weights = fft.irfft2(f_padded * np.conj(f_upstream), canvas)[:n, :n]
    spread = fft.irfft2(f_upstream * f_weights, canvas)
    grad_values = _fold_margin(_fold_margin(spread, c, h, axis=0), c, w, axis=1)
    return loss, grad_values, grad_weights


def _fold_margin(arr: np.ndarray, c: int, out_len: int, axis: int) -> np.ndarray:
    """Collapse c-wide margins onto the first/last row along ``axis``."""
    if c == 0:
        return arr
    arr = np.moveaxis(arr, axis, 0)
    out = arr[c : c + out_len].copy()
    out[0] += arr[:c].sum(axis=0)
    out[-1] += arr[c + out_len :].sum(axis=0)
    return np.moveaxis(out, 0, axis)
