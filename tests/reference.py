"""Direct single-channel references for the blur's adjoint and weight gradient.

The package computes both inside its FFT reblur pass (and the adjoint in
``adjoint_convolve``); the tests check them against these ``scipy.signal``
forms, built without the package's own padding and folding helpers.
"""

import numpy as np
from scipy import signal


def moveaxis_fold(arr, c, out_len, axis):
    """Axis-generic margin fold: collapse the c-wide margins along ``axis``
    onto its first and last row, through an ``np.moveaxis`` round trip."""
    if c == 0:
        return arr
    arr = np.moveaxis(arr, axis, 0)
    out = arr[c : c + out_len].copy()
    out[0] += arr[:c].sum(axis=0)
    out[-1] += arr[c + out_len :].sum(axis=0)
    return np.moveaxis(out, 0, axis)


def correlate2d_clamped_adjoint(values, weights):
    """Adjoint of ``correlate2d_clamped`` in its first argument.

    Zero-extended full convolution scatters each output back over the padded
    canvas; folding the margins then routes pad contributions to the edge
    pixels they were replicated from.
    """
    c = weights.shape[0] // 2
    h, w = values.shape
    spread = signal.convolve2d(values, weights, mode="full")
    return moveaxis_fold(moveaxis_fold(spread, c, h, axis=0), c, w, axis=1)


def correlate2d_clamped_weight_grad(values, upstream, size):
    """Gradient of ``sum(upstream * correlate2d_clamped(values, W))`` in W."""
    padded = np.pad(values, size // 2, mode="edge")
    return signal.correlate2d(padded, upstream, mode="valid")
