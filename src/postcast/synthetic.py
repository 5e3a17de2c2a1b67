"""Synthetic precipitation-like fields, planted blurs, and the mixture prior.

Fields are sums of anisotropic Gaussian bumps (a Poisson number per field)
over a small positive noise floor, clipped to [0, 1].  ``plant_blur`` pairs a
clean field with a blurry one produced by a known kernel so recovery can be
scored against ground truth; severity plays the role of forecast lead time
(0 is the identity kernel).  ``fit_gmm_prior`` fits the isotropic mixture the
analytic denoiser runs on, via seeded k-means initialization and EM over
flattened model-unit fields; every field-to-component distance there is one
matrix product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .denoisers import GaussianMixtureModel
from .errors import DataError, NumericError, ParameterError, ShapeError
from .fields import DATA_UNITS, Field
from .kernel import BlurKernel, KernelConfig, convolve

BLUR_FAMILIES = ("gaussian", "motion", "mixed")

#: Each field starts as |Normal(0, BACKGROUND_NOISE)| noise before its cells.
BACKGROUND_NOISE = 0.02
#: A cell's minor axis is its major axis times a uniform draw from this range.
ANISOTROPY_RANGE = (0.35, 1.0)


@dataclass(frozen=True)
class FieldSpec:
    """Shape and texture of generated fields."""

    height: int = 64
    width: int = 64
    cells_mean: float = 4.0
    amplitude_range: tuple = (0.3, 0.95)
    sigma_range: tuple = (2.0, 9.0)
    seed: int = 0

    def __post_init__(self):
        if self.height < 1:
            raise ParameterError(f"height must be >= 1, got {self.height}")
        if self.width < 1:
            raise ParameterError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.cells_mean < math.inf:
            raise ParameterError(f"cells_mean must be finite and >= 0, got {self.cells_mean}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PlantedPair:
    """A clean field, its blurred version, and the kernel that links them."""

    clean: Field
    blurry: Field
    kernel_true: BlurKernel


def generate_fields(spec: FieldSpec, count: int) -> list:
    """Generate ``count`` fields deterministically from ``spec.seed``."""
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(spec.seed)
    ys = np.arange(spec.height, dtype=np.float64)[:, None]
    xs = np.arange(spec.width, dtype=np.float64)[None, :]
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
            # Each rotated coordinate is a (H, 1) term plus a (1, W) term;
            # only their sums and what follows run on the full grid.
            u = dx * math.cos(theta) + dy * math.sin(theta)
            v = -dx * math.sin(theta) + dy * math.cos(theta)
            u /= sig_a
            v /= sig_b
            np.square(u, out=u)
            np.square(v, out=v)
            u += v
            u *= -0.5
            np.exp(u, out=u)
            u *= amp
            values += u
        fields.append(Field(np.clip(values, 0.0, 1.0), DATA_UNITS))
    return fields


# ---------------------------------------------------------------------------
# Planted blurs
# ---------------------------------------------------------------------------


def gaussian_blur_kernel(size: int, sigma: float) -> np.ndarray:
    c = size // 2
    ys, xs = np.mgrid[-c : c + 1, -c : c + 1].astype(np.float64)
    k = np.exp(-0.5 * (ys**2 + xs**2) / sigma**2)
    return k / k.sum()


def motion_blur_kernel(size: int, length: float, angle: float) -> np.ndarray:
    """A line streak through the center, deposited with bilinear weights.

    Each sample point along the streak deposits onto its four neighbours;
    ``np.add.at`` accumulates the deposits unbuffered in (sample, dy, dx)
    order, so every sum is taken in the order of a per-sample loop.
    """
    c = size // 2
    s = np.linspace(-length / 2, length / 2, max(int(math.ceil(length * 8)), 1))
    y = c + s * math.sin(angle)
    x = c + s * math.cos(angle)
    y0, x0 = np.floor(y), np.floor(x)
    fy, fx = y - y0, x - x0
    rows, cols = np.broadcast_arrays((y0[:, None, None] + [[0], [1]]).astype(np.intp),
                                     (x0[:, None, None] + [0, 1]).astype(np.intp))
    weights = (np.stack([1 - fy, fy], axis=1)[:, :, None]
               * np.stack([1 - fx, fx], axis=1)[:, None, :])
    inside = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size)
    k = np.zeros((size, size))
    np.add.at(k, (rows[inside], cols[inside]), weights[inside])
    return k / k.sum()


def plant_blur(
    clean: Field,
    family: str = "gaussian",
    severity: int = 1,
    size: int = 9,
) -> PlantedPair:
    """Blur ``clean`` with a known kernel whose strength grows with severity.

    severity 0 always yields the identity (delta) kernel, so the blurry field
    equals the clean one.  Kernels are normalized to sum 1, which keeps
    blurry fields inside [0, 1] with no clipping.  Each plan's kernel is
    built once per process; every call returns a kernel of its own.
    """
    if family not in BLUR_FAMILIES:
        raise ParameterError(f"unknown blur family {family!r}; expected one of {BLUR_FAMILIES}")
    if severity < 0:
        raise ParameterError(f"severity must be >= 0, got {severity}")
    KernelConfig(size=size)
    kernel = BlurKernel(_planted_kernel(family, severity, size).copy())
    blurry = convolve(kernel, clean)
    return PlantedPair(clean=clean, blurry=blurry, kernel_true=kernel)


def _planted_params(family: str, severity: int, size: int) -> np.ndarray:
    """The planted kernel, built from scratch."""
    angle = math.radians(20.0 + 35.0 * severity)
    if severity == 0:
        params = np.zeros((size, size))
        params[size // 2, size // 2] = 1.0
    elif family == "gaussian":
        params = gaussian_blur_kernel(size, sigma=0.5 + 0.55 * severity)
    elif family == "motion":
        params = motion_blur_kernel(size, length=1.0 + 2.0 * severity, angle=angle)
    else:  # mixed
        params = 0.5 * gaussian_blur_kernel(size, sigma=0.5 + 0.55 * severity)
        params = params + 0.5 * motion_blur_kernel(size, length=1.0 + 2.0 * severity, angle=angle)
    return params


@functools.lru_cache(maxsize=64)
def _planted_kernel(family: str, severity: int, size: int) -> np.ndarray:
    """:func:`_planted_params`, built once per plan and shared read-only.

    A dataset plants the same few plans on every pair; each call of
    :func:`plant_blur` copies the shared array into a kernel of its own.
    """
    params = _planted_params(family, severity, size)
    params.flags.writeable = False
    return params


# ---------------------------------------------------------------------------
# Mixture prior fit
# ---------------------------------------------------------------------------


# Relative size below which an expanded squared distance, or an M-step spread
# from the moment identity, is taken again from the differences themselves.
_NEAR = 1e-4


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits; -0.0 and 0.0 differ,
    where ``np.array_equal`` on the floats would call them equal."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _first_occurrences(means: np.ndarray) -> np.ndarray:
    """For each row of ``means``, the index of the first row with its bits.

    Each row is keyed by its first 64-bit word.  A row whose key an earlier
    row holds is compared whole with that row, as int64 bits, so -0.0 and
    0.0 differ.  Only when different rows share a first word (dry leading
    pixels, say) are the rows with that word keyed by all their bytes, so
    the work stays linear in the rows.
    """
    heads = means[:, 0].view(np.int64).tolist()
    first = {}
    index = np.array([first.setdefault(head, j) for j, head in enumerate(heads)], dtype=np.intp)
    contested = {heads[j] for j, i in enumerate(index.tolist())
                 if i != j and not _same_bits(means[j], means[i])}
    if contested:
        first = {}
        for j, head in enumerate(heads):
            if head in contested:
                index[j] = first.setdefault(means[j].tobytes(), j)
    return index


def _sq_distances(x: np.ndarray, x2: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from the rows of ``x`` to the rows of ``means``.

    Expands ||x - m||^2 = ||x||^2 - 2 x.m + ||m||^2, so the work is one
    matrix product and no (n, k, d) difference array is built; ``x2`` holds
    the row norms ||x||^2.  The expansion's rounding error scales with
    ||x||^2 + ||m||^2, not with the distance: it can push a near-zero
    distance below 0, hence the clamp, and a field at a tight component
    (a duplicated field, a one-member cluster) would pick up an error that
    the 1e-8 variance floor magnifies.  Pairs closer than _NEAR of that
    scale are taken again from their differences: all (row, component)
    pairs are gathered at once, in chunks of at most n pairs, so no
    temporary is larger than ``x``, and each pair's sum runs over the same
    d values in the same order as a per-component loop would.

    BLAS may round the same column differently at different positions of a
    product, so a repeated mean (a duplicated field drawn twice as a
    k-means center) copies the column of its first occurrence, found by
    :func:`_first_occurrences`: identical means tie exactly, and argmin
    breaks the tie towards the lower index.  Only first occurrences are
    taken again from differences, since only their columns are returned.
    """
    n, k = len(x), len(means)
    index = _first_occurrences(means)
    m2 = np.einsum("ij,ij->i", means, means)
    sq = np.maximum(x2[:, None] - 2.0 * (x @ means.T) + m2[None, :], 0.0)
    near = sq < _NEAR * (x2[:, None] + m2[None, :])
    near[:, index != np.arange(k)] = False
    rows, cols = np.nonzero(near)
    for start in range(0, rows.size, n):
        r, c = rows[start : start + n], cols[start : start + n]
        diff = x[r]
        diff -= means[c]
        diff *= diff
        sq[r, c] = diff.sum(axis=1)
    # The index copy is F-ordered; the reductions that follow round by
    # memory layout, so it is returned even when no mean repeats.
    return sq[:, index]


def _kmeans(x: np.ndarray, x2: np.ndarray, k: int, rng, iters: int = 10) -> np.ndarray:
    """Plain Lloyd k-means; returns the final assignment labels.

    ``x2`` is the row norms of ``x``, for :func:`_sq_distances`.  ``iters``
    is a maximum: a pass whose labels equal the previous pass's ends the
    loop, because the same members give the same centers bit for bit, so
    every later pass would repeat it.  The labels are those of running all
    ``iters`` passes; ``iters=0`` returns all zeros.
    """
    n = x.shape[0]
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for it in range(iters):
        previous, labels = labels, _sq_distances(x, x2, centers).argmin(axis=1)
        if it and np.array_equal(labels, previous):
            break
        for i in range(k):
            members = x[labels == i]
            if len(members):
                centers[i] = members.mean(axis=0)
    return labels


def fit_gmm_prior(fields, k: int, iters: int = 50, seed: int = 0, return_trace: bool = False):
    """Fit an isotropic Gaussian mixture over flattened model-unit fields.

    The fields are stacked once into an (n, d) array, and each data-unit
    row is converted there in place, with the bits :func:`to_model` would
    give; a value that overflows in the conversion raises NumericError.
    The returned mixture always lives in model units (it feeds the
    diffusion denoiser).  With
    ``return_trace`` the per-iteration log-likelihood comes back too, which
    is non-decreasing under EM.

    ``iters`` is a maximum.  EM is a fixed-point map: when an iteration's
    M-step hands back the weights, means and variances that entered it, bit
    for bit, every later iteration computes the same numbers again.  The
    loop stops there and repeats the last log-likelihood up to ``iters``
    entries, so the mixture and the trace are those of running every
    iteration.  k-means stops at its own fixed point (see :func:`_kmeans`).

    Every field-to-component distance comes from :func:`_sq_distances`, one
    (n, d) x (d, k) matrix product plus one gather of the near pairs.  The
    M-step variance needs no second distance matrix: with the new means
    m_k = sum_n r_nk x_n / total_k,
    sum_n r_nk ||x_n - m_k||^2 = sum_n r_nk ||x_n||^2 - total_k ||m_k||^2.
    Only for a tight component, where that difference cancels, are the
    distances to it taken instead.
    """
    fields = list(fields)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if len(fields) < k:
        raise DataError(f"need at least k={k} fields, got {len(fields)}")
    shape = fields[0].shape
    for i, f in enumerate(fields):
        if f.shape != shape:
            raise ShapeError(f"field {i} has shape {f.shape}, but field 0 has {shape}")
    x = np.empty((len(fields), fields[0].values.size))
    # An overflow is reported by the finiteness check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for row, f in zip(x, fields):
            if f.units == DATA_UNITS:
                np.multiply(f.values.ravel(), 2.0, out=row)
                row -= 1.0
            else:
                row[:] = f.values.ravel()
    if not np.isfinite(x).all():
        bad = np.isfinite(x).all(axis=1).argmin()
        raise NumericError(f"field {bad} has non-finite values in model units")
    n, d = x.shape
    x2 = np.einsum("ij,ij->i", x, x)
    rng = np.random.default_rng(seed)

    labels = _kmeans(x, x2, k, rng)
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
    weights /= weights.sum()

    trace = []
    for it in range(iters):
        # E-step: scalar responsibilities per (field, component), via logs.
        sq = _sq_distances(x, x2, means)
        log_p = (
            np.log(weights)[None, :]
            - 0.5 * d * np.log(2.0 * np.pi * variances)[None, :]
            - sq / (2.0 * variances)[None, :]
        )
        norm = np.logaddexp.reduce(log_p, axis=1)
        trace.append(float(norm.sum()))
        resp = np.exp(log_p - norm[:, None])
        # M-step.
        total = resp.sum(axis=0)
        emptied = np.flatnonzero(total == 0)
        if emptied.size:
            raise DataError(
                f"mixture component {emptied[0]} lost every field at EM iteration {it + 1}"
                f" (its responsibilities all underflow to 0); try a smaller k than {k}"
            )
        new_weights, new_means = total / n, (resp.T @ x) / total[:, None]
        # Compared before the old means go, so the check keeps no extra copy.
        fixed = _same_bits(new_weights, weights) and _same_bits(new_means, means)
        weights, means = new_weights, new_means
        # sum_n r_nk ||x_n - m_k||^2 by the moment identity, unless it cancels
        # to below _NEAR of its terms (a tight component): then from distances.
        moment = resp.T @ x2
        spread = moment - total * np.einsum("ij,ij->i", means, means)
        tight = spread < _NEAR * moment
        spread[tight] = (resp[:, tight] * _sq_distances(x, x2, means[tight])).sum(axis=0)
        new_variances = np.maximum(np.maximum(spread, 0.0) / (d * total), 1e-8)
        fixed = fixed and _same_bits(new_variances, variances)
        variances = new_variances
        if fixed:
            # A fixed point: every later iteration repeats this one exactly.
            trace += trace[-1:] * (iters - len(trace))
            break

    gmm = GaussianMixtureModel(
        weights=weights / weights.sum(),
        means=means.reshape(k, *shape),
        sigmas=np.sqrt(variances),
    )
    return (gmm, trace) if return_trace else gmm
