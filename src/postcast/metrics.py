"""Meteorological skill metrics and unit conversions.

Critical success index with optional max-pooling:

    CSI = TP / (TP + FN + FP)

computed after thresholding both grids (>= tau -> 1) and, for pool > 1,
max-pooling the binary grids with window = stride = pool (edges replicated up
to a multiple of the window).  A pair with no positives anywhere scores 1 by
convention.  Pooled variants credit near misses: a hit only has to land in
the right pool cell, not the exact pixel.

Also here: the Z-R reflectivity/rain-rate conversion dBZ = 10 log10(a) +
10 b log10(R) with a = 58.53, b = 1.56; the piecewise pixel -> VIL map; and
the per-dataset threshold table used when scoring published archives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fields import Field, require_same_shape

ZR_A = 58.53
ZR_B = 1.56

#: Highest published evaluation threshold per dataset (units vary by archive).
DATASET_THRESHOLDS = {
    "sevir": 32.24,        # VIL, kg/m^2
    "hko7": 30.0,          # rain rate, mm/h
    "taasrad19": 30.0,     # rain rate, mm/h
    "srad2018": 30.0,      # rain rate, mm/h
    "scwds_cap30": 40.0,   # reflectivity, dBZ
    "scwds_cr": 40.0,      # reflectivity, dBZ
    "meteonet": 47.0,      # reflectivity, dBZ
}


@dataclass(frozen=True)
class CsiScore:
    csi: float
    tp: int
    fp: int
    fn: int


def max_pool(values: np.ndarray, window: int) -> np.ndarray:
    """Max-pool with window = stride.  A short last block, or a window past the
    axis, pools what the axis has left, as replicating its edge would."""
    if window < 1:
        raise ParameterError(f"pool window must be >= 1, got {window}")
    if window == 1:
        return values.copy()
    rows = np.maximum.reduceat(values, range(0, values.shape[0], window), axis=0)
    return np.maximum.reduceat(rows, range(0, values.shape[1], window), axis=1)


def csi_counts(pred: Field, obs: Field, tau: float, pool: int = 1) -> tuple[int, int, int]:
    """(TP, FP, FN) after thresholding at tau and pooling."""
    require_same_shape(pred, obs, "pred and obs")
    p = max_pool((pred.values >= tau).astype(np.uint8), pool)
    o = max_pool((obs.values >= tau).astype(np.uint8), pool)
    tp = int(np.sum((p == 1) & (o == 1)))
    fp = int(np.sum((p == 1) & (o == 0)))
    fn = int(np.sum((p == 0) & (o == 1)))
    return tp, fp, fn


def csi(pred: Field, obs: Field, tau: float, pool: int = 1) -> CsiScore:
    """Critical success index at one threshold and pooling."""
    tp, fp, fn = csi_counts(pred, obs, tau, pool)
    return CsiScore(csi=csi_from_counts(tp, fp, fn), tp=tp, fp=fp, fn=fn)


def csi_from_counts(tp: int, fp: int, fn: int) -> float:
    """CSI with the vacuous all-negative case scored as 1."""
    denom = tp + fp + fn
    if denom == 0:
        return 1.0
    return tp / denom


def csi_tally(preds, obs, tau: float, pool: int = 1):
    """Per-pair (TP, FP, FN) of paired fields, and their sums (pooled counts)."""
    counts = [csi_counts(p, o, tau, pool) for p, o in zip(preds, obs, strict=True)]
    totals = tuple(sum(c[i] for c in counts) for i in range(3))
    return counts, totals


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------


def zr_rain_to_dbz(rain):
    """Rain rate (mm/h) to reflectivity (dBZ); rain must be positive."""
    rain_arr = np.asarray(rain, dtype=np.float64)
    if np.any(rain_arr <= 0):
        raise ParameterError("rain rate must be > 0 for the log conversion")
    dbz = 10.0 * np.log10(ZR_A) + 10.0 * ZR_B * np.log10(rain_arr)
    return float(dbz) if np.isscalar(rain) else dbz


def dbz_to_rain(dbz):
    """Exact inverse of :func:`zr_rain_to_dbz`."""
    dbz_arr = np.asarray(dbz, dtype=np.float64)
    rain = 10.0 ** ((dbz_arr - 10.0 * np.log10(ZR_A)) / (10.0 * ZR_B))
    return float(rain) if np.isscalar(dbz) else rain


def vil_pixel_to_kgm2(pixel):
    """Map archived pixel values (0..254) to VIL in kg/m^2.

    Piecewise: 0 below 5, linear (x - 2) / 90.66 up to 18, exponential
    exp((x - 83.9) / 38.9) up to 254.
    """
    x = np.asarray(pixel, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 254):
        raise ParameterError("pixel values must lie in [0, 254]")
    flat = np.atleast_1d(x)
    out = np.zeros_like(flat)
    mid = (flat > 5) & (flat <= 18)
    high = flat > 18
    out[mid] = (flat[mid] - 2.0) / 90.66
    out[high] = np.exp((flat[high] - 83.9) / 38.9)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------


def quantile_threshold(fields, q: float) -> float:
    """The q-quantile (linear interpolation) over all pixels of the fields."""
    if isinstance(fields, Field):
        fields = [fields]
    fields = list(fields)
    if not fields:
        raise ParameterError("need at least one field to compute a quantile")
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"quantile must lie in [0, 1], got {q}")
    pooled = np.concatenate([f.values.ravel() for f in fields])
    return float(np.quantile(pooled, q))


def threshold_table(dataset_tag: str) -> float:
    """The published evaluation threshold of a named archive.

    Synthetic data takes its threshold from :func:`quantile_threshold`.
    """
    try:
        return DATASET_THRESHOLDS[dataset_tag.lower()]
    except KeyError:
        known = ", ".join(sorted(DATASET_THRESHOLDS))
        raise ParameterError(f"unknown dataset tag {dataset_tag!r}; known tags: {known}") from None
