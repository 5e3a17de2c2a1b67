"""Statistics, correctness checks and the machine record for the benchmark."""

from __future__ import annotations

import os
import platform

import numpy as np
from scipy.special import logsumexp

#: Percentiles reported beside the median, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int, beyond: int = 10):
    """Highest percentile above the median with >= ``beyond`` of n samples past it.

    Returns None when even the lowest candidate leaves fewer than ``beyond``
    samples beyond it, so the median is all the run can support.
    """
    for p in TAIL_PERCENTILES:
        # n * (100 - p) / 100 samples lie beyond p; counted in exact tenths.
        if n * round(1000 - 10 * p) >= 1000 * beyond:
            return p
    return None


def mixture_loglik(weights, means, sigmas, x: np.ndarray) -> float:
    """Total log-likelihood of the rows of x under an isotropic mixture.

    ``means`` is (k, d) and ``x`` is (n, d), both flattened model-unit fields.
    Distances are taken one component at a time to keep memory at n x d.
    """
    n, d = x.shape
    variances = np.asarray(sigmas, dtype=np.float64) ** 2
    sq = np.stack([((x - m) ** 2).sum(axis=1) for m in means], axis=1)
    log_p = (
        np.log(weights)[None, :]
        - 0.5 * d * np.log(2.0 * np.pi * variances)[None, :]
        - sq / (2.0 * variances)[None, :]
    )
    return float(logsumexp(log_p, axis=1).sum())


def loglik_not_below(final: float, em_last: float, rel_tol: float = 1e-9) -> bool:
    """EM never lowers the likelihood: the saved mixture must score at least
    the last E-step value, up to summation-order rounding."""
    return final >= em_last - rel_tol * abs(em_last)


def grid_problems(values: np.ndarray, shape=(64, 64)) -> list:
    """Reasons a deblurred grid is unacceptable (empty when it is fine)."""
    problems = []
    if values.shape != shape:
        problems.append(f"shape {values.shape} != {shape}")
    if not np.all(np.isfinite(values)):
        problems.append("non-finite values")
    elif values.min() < 0.0 or values.max() > 1.0:
        problems.append(f"values outside [0, 1]: [{values.min()}, {values.max()}]")
    return problems


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(blas_threads: int, seed: int) -> dict:
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "seed": seed,
    }
