"""Direct references the package's fast paths are tested against.

- The blur's single-channel adjoint and weight gradient: the package
  computes both inside its FFT reblur pass; the tests check them against
  these ``scipy.signal`` forms, built without the package's own padding and
  folding helpers.
- The multi-channel correlation, its adjoint and its weight gradient as
  loops over (out, in) channel pairs of the single-channel forms; the
  package contracts the channels in one matrix product.
- The field-to-component distances as they were taken before the
  package's one-gather recompute of near pairs: one component at a time,
  with repeated means found through a dict of their bytes.  The package's
  distances must equal them bit for bit.
- The mixture fit as it ran before its fixed-point exits: k-means for
  every pass and EM for every iteration, on those distances, with each EM
  iteration callable on its own.  The package's fit must equal it bit for
  bit.
- The motion-blur streak as a per-sample, per-neighbour loop; the
  package's vectorized deposit must equal it bit for bit.
- Field synthesis with every bump evaluated on full coordinate grids; the
  package's row-and-column terms must give the same fields bit for bit.
- A schedule's cumulative products, taken from its betas as a Python-float
  loop; the tests' diffusion oracles read them instead of the schedule's
  own coefficient table.
"""

import math

import numpy as np
from scipy import signal

from postcast.errors import DataError
from postcast.fields import DATA_UNITS, Field
from postcast.kernel import correlate2d_clamped
from postcast.synthetic import _NEAR, ANISOTROPY_RANGE, BACKGROUND_NOISE


def alpha_bars(schedule):
    """[1, abar_1, ..., abar_T] as Python floats: a running product of
    1 - beta_t, one step at a time, which gives the bits of ``np.cumprod``."""
    bars = [1.0]
    for beta in schedule.betas.tolist():
        bars.append(bars[-1] * (1.0 - beta))
    return bars


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


def correlate_channels_loop(values, weights):
    """Multi-channel clamped correlation, one (out, in) channel pair at a
    time: out[o] = sum_i correlate2d_clamped(values[i], weights[o, i])."""
    out = np.zeros((weights.shape[0],) + values.shape[1:])
    for o in range(weights.shape[0]):
        for i in range(values.shape[0]):
            out[o] += correlate2d_clamped(values[i], weights[o, i])
    return out


def correlate_channels_adjoint_loop(upstream, weights):
    """Adjoint of ``correlate_channels_loop`` in its first argument, one
    channel pair at a time."""
    out = np.zeros((weights.shape[1],) + upstream.shape[1:])
    for o in range(weights.shape[0]):
        for i in range(weights.shape[1]):
            out[i] += correlate2d_clamped_adjoint(upstream[o], weights[o, i])
    return out


def correlate_channels_weight_grad_loop(values, upstream, size):
    """Gradient of ``sum(upstream * correlate_channels_loop(values, W))`` in
    W, one channel pair at a time."""
    grad = np.empty((upstream.shape[0], values.shape[0], size, size))
    for o in range(upstream.shape[0]):
        for i in range(values.shape[0]):
            grad[o, i] = correlate2d_clamped_weight_grad(values[i], upstream[o], size)
    return grad


def first_occurrences_by_bytes(means):
    """For each row of ``means``, the index of the first row with the same
    bytes, through a dict keyed by each row's bytes."""
    first = {}
    return [first.setdefault(m.tobytes(), j) for j, m in enumerate(means)]


def sq_distances_per_component(x, x2, means):
    """(n, k) squared distances as the package took them before its one-gather
    recompute: the expanded product, near pairs taken again from their
    differences one component at a time, and each repeated mean given the
    column of its first occurrence by :func:`first_occurrences_by_bytes`."""
    m2 = np.einsum("ij,ij->i", means, means)
    sq = np.maximum(x2[:, None] - 2.0 * (x @ means.T) + m2[None, :], 0.0)
    near = sq < _NEAR * (x2[:, None] + m2[None, :])
    for j in np.flatnonzero(near.any(axis=0)):
        rows = np.flatnonzero(near[:, j])
        sq[rows, j] = ((x[rows] - means[j]) ** 2).sum(axis=1)
    return sq[:, first_occurrences_by_bytes(means)]


def kmeans_every_pass(x, x2, k, rng, iters=10):
    """Lloyd k-means that runs all ``iters`` passes; returns the labels."""
    n = x.shape[0]
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(iters):
        labels = sq_distances_per_component(x, x2, centers).argmin(axis=1)
        for i in range(k):
            members = x[labels == i]
            if len(members):
                centers[i] = members.mean(axis=0)
    return labels


def initial_mixture(x, labels, k, rng):
    """The weights, (k, d) means and variances EM starts from, one
    component per k-means cluster; an empty cluster takes a drawn field."""
    n, d = x.shape
    weights = np.empty(k)
    means = np.empty((k, d))
    variances = np.empty(k)
    for i in range(k):
        members = x[labels == i]
        if len(members) == 0:
            members = x[rng.choice(n, size=1)]
        weights[i] = max(len(members), 1) / n
        means[i] = members.mean(axis=0)
        variances[i] = max(((members - means[i]) ** 2).mean(), 1e-8)
    return weights / weights.sum(), means, variances


def em_iteration(x, x2, weights, means, variances, it):
    """EM iteration ``it`` (from 0): the log-likelihood of the mixture that
    enters it, and the weights, means and variances that leave it."""
    n, d = x.shape
    k = len(weights)
    sq = sq_distances_per_component(x, x2, means)
    log_p = (
        np.log(weights)[None, :]
        - 0.5 * d * np.log(2.0 * np.pi * variances)[None, :]
        - sq / (2.0 * variances)[None, :]
    )
    norm = np.logaddexp.reduce(log_p, axis=1)
    resp = np.exp(log_p - norm[:, None])
    total = resp.sum(axis=0)
    emptied = np.flatnonzero(total == 0)
    if emptied.size:
        raise DataError(
            f"mixture component {emptied[0]} lost every field at EM iteration {it + 1}"
            f" (its responsibilities all underflow to 0); try a smaller k than {k}"
        )
    weights = total / n
    means = (resp.T @ x) / total[:, None]
    moment = resp.T @ x2
    spread = moment - total * np.einsum("ij,ij->i", means, means)
    tight = spread < _NEAR * moment
    spread[tight] = (resp[:, tight] * sq_distances_per_component(x, x2, means[tight])).sum(axis=0)
    variances = np.maximum(np.maximum(spread, 0.0) / (d * total), 1e-8)
    return float(norm.sum()), weights, means, variances


def fit_gmm_every_iteration(x, k, iters, seed):
    """The mixture fit over the stacked model-unit fields ``x``, running
    every k-means pass and every EM iteration.

    Returns the k-means labels, the mixture's weights, (k, d) means and
    sigmas, and the EM trace.
    """
    x2 = np.einsum("ij,ij->i", x, x)
    rng = np.random.default_rng(seed)
    labels = kmeans_every_pass(x, x2, k, rng)
    weights, means, variances = initial_mixture(x, labels, k, rng)
    trace = []
    for it in range(iters):
        loglik, weights, means, variances = em_iteration(x, x2, weights, means, variances, it)
        trace.append(loglik)
    return labels, weights / weights.sum(), means, np.sqrt(variances), trace


def motion_blur_kernel_loop(size, length, angle):
    """A line streak through the center, one bilinear deposit at a time."""
    c = size // 2
    k = np.zeros((size, size))
    steps = max(int(math.ceil(length * 8)), 1)
    for s in np.linspace(-length / 2, length / 2, steps):
        y = c + s * math.sin(angle)
        x = c + s * math.cos(angle)
        y0, x0 = int(math.floor(y)), int(math.floor(x))
        fy, fx = y - y0, x - x0
        for dy2, wy in ((0, 1 - fy), (1, fy)):
            for dx2, wx in ((0, 1 - fx), (1, fx)):
                yy, xx = y0 + dy2, x0 + dx2
                if 0 <= yy < size and 0 <= xx < size:
                    k[yy, xx] += wy * wx
    return k / k.sum()


def generate_fields_loop(spec, count):
    """``count`` fields from ``spec``, each bump built on full (H, W) grids."""
    rng = np.random.default_rng(spec.seed)
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width].astype(np.float64)
    fields = []
    for _ in range(count):
        values = np.abs(rng.normal(0.0, BACKGROUND_NOISE, size=(spec.height, spec.width)))
        n_cells = rng.poisson(spec.cells_mean)
        for _ in range(n_cells):
            cy = rng.uniform(0, spec.height)
            cx = rng.uniform(0, spec.width)
            amp = rng.uniform(*spec.amplitude_range)
            sig_a = rng.uniform(*spec.sigma_range)
            sig_b = sig_a * rng.uniform(*ANISOTROPY_RANGE)
            theta = rng.uniform(0, math.pi)
            dy = ys - cy
            dx = xs - cx
            u = dx * math.cos(theta) + dy * math.sin(theta)
            v = -dx * math.sin(theta) + dy * math.cos(theta)
            values += amp * np.exp(-0.5 * ((u / sig_a) ** 2 + (v / sig_b) ** 2))
        fields.append(Field(np.clip(values, 0.0, 1.0), DATA_UNITS))
    return fields
