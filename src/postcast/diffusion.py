"""Noise schedules, forward noising, and reverse-process statistics.

Discrete-time Gaussian diffusion over 2-D fields.  With betas b_1..b_T,
a_t = 1 - b_t and abar_t = prod_{u<=t} a_u (abar_0 := 1):

    forward:    x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps
    clean est.: x0_hat = (x_t - sqrt(1 - abar_t) eps_hat) / sqrt(abar_t)
    posterior:  mean = sqrt(abar_{t-1}) b_t / (1 - abar_t) * x0_hat
                     + sqrt(a_t) (1 - abar_{t-1}) / (1 - abar_t) * x_t
                var  = (1 - abar_{t-1}) / (1 - abar_t) * b_t

All step-indexed operations take t in {1..T}; ``forward_sample`` also accepts
t = 0 and returns x_0 unchanged.

The reverse step works on plain model-unit arrays:
``NoiseSchedule.coefficients(t)`` hands it every per-step scalar as one row
of a table built once per schedule, and ``x0_from_noise`` and
``posterior_mean`` compute the clean estimate and the posterior mean from
that row; the row's ``var`` is the posterior variance.  Each table entry is
the same float expression the per-step accessors give, so both routes give
the same bits.

These pieces make the whole reverse step when guidance is off: clean
estimate, posterior mean, and a draw at the posterior variance.  The guided
step in :mod:`postcast.sampler` only shifts the clean estimate between the
first two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, StepRangeError
from .fields import MODEL_UNITS, Field, require_same_shape, require_units


class StepCoefficients(NamedTuple):
    """Every scalar one reverse step at t needs, as plain floats."""

    abar: float  # abar_t
    root_abar: float  # sqrt(abar_t)
    root_one_minus_abar: float  # sqrt(1 - abar_t)
    one_minus_abar: float  # 1 - abar_t
    coeff_x0: float  # sqrt(abar_{t-1}) b_t / (1 - abar_t)
    coeff_xt: float  # sqrt(a_t) (1 - abar_{t-1}) / (1 - abar_t)
    var: float  # (1 - abar_{t-1}) / (1 - abar_t) * b_t
    root_abar_prev_beta: float  # sqrt(abar_{t-1}) b_t


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances; everything else is derived from them.

    ``betas[i]`` is the variance added at step ``i + 1``; ``alphas``
    (1 - betas) and ``alpha_bars`` (their cumulative product) are aligned
    the same way.  Use the accessors for 1-indexed lookups (``alpha_bar``
    also accepts t = 0, which is 1 by definition), and ``coefficients`` for
    everything one reverse step needs in a single validated lookup.
    The betas must be a non-empty 1-D array of finite values in (0, 1).
    """

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ParameterError(f"betas must be a non-empty 1-D array, got shape {betas.shape}")
        outside = ~((betas > 0.0) & (betas < 1.0))  # NaN and +-inf land here too
        if outside.any():
            raise ParameterError(
                f"every beta must be finite and lie in (0, 1), got {float(betas[outside][0])}"
            )
        object.__setattr__(self, "betas", betas)

    @property
    def T(self) -> int:
        return len(self.betas)

    @cached_property
    def alphas(self) -> np.ndarray:
        return 1.0 - self.betas

    @cached_property
    def alpha_bars(self) -> np.ndarray:
        return np.cumprod(self.alphas)

    def _check_step(self, t: int, lo: int = 1) -> None:
        if not isinstance(t, (int, np.integer)):
            raise StepRangeError(f"step index must be an integer, got {t!r}")
        if t < lo or t > self.T:
            raise StepRangeError(f"step t={t} outside {{{lo}..{self.T}}}")

    def beta(self, t: int) -> float:
        self._check_step(t)
        return float(self.betas[t - 1])

    def alpha(self, t: int) -> float:
        self._check_step(t)
        return float(self.alphas[t - 1])

    def alpha_bar(self, t: int) -> float:
        self._check_step(t, lo=0)
        if t == 0:
            return 1.0
        return float(self.alpha_bars[t - 1])

    def coefficients(self, t: int) -> StepCoefficients:
        """The coefficient row of reverse step t (t in 1..T)."""
        self._check_step(t)
        return self._coefficient_table[t - 1]

    @cached_property
    def _coefficient_table(self) -> list:
        """One StepCoefficients per step, built on first use.

        Each column is the accessor formula evaluated elementwise, in the
        same order of operations, so every entry has the bits of the scalar
        arithmetic (IEEE +, -, *, / and sqrt are correctly rounded either
        way).
        """
        betas = self.betas
        abar = self.alpha_bars
        abar_prev = np.concatenate(([1.0], abar[:-1]))
        denom = 1.0 - abar
        columns = (
            abar,
            np.sqrt(abar),
            np.sqrt(1.0 - abar),
            denom,
            np.sqrt(abar_prev) * betas / denom,
            np.sqrt(self.alphas) * (1.0 - abar_prev) / denom,
            (1.0 - abar_prev) / denom * betas,
            np.sqrt(abar_prev) * betas,
        )
        return [StepCoefficients(*row) for row in zip(*(c.tolist() for c in columns))]


@dataclass(frozen=True)
class ScheduleConfig:
    """Length and end variances of a linear schedule, checked without building it."""

    t: int = 1000
    beta_1: float = 1e-4
    beta_t: float = 0.02

    def __post_init__(self):
        if self.t < 2:
            raise ParameterError(f"schedule t must be >= 2, got {self.t}")
        if not self.beta_1 <= self.beta_t:
            raise ParameterError(
                f"need beta_1 <= beta_t, got beta_1={self.beta_1}, beta_t={self.beta_t}"
            )
        NoiseSchedule(betas=np.array([self.beta_1, self.beta_t]))  # its (0, 1) rule, on the ends


def linear_schedule(T: int, beta_1: float = 1e-4, beta_T: float = 0.02) -> NoiseSchedule:
    """Evenly spaced variances from beta_1 to beta_T inclusive.

    Parameters
    ----------
    T : int
        Number of diffusion steps, at least 2.
    beta_1, beta_T : float
        First and last per-step variances, 0 < beta_1 <= beta_T < 1.
    """
    ScheduleConfig(T, beta_1, beta_T)
    return NoiseSchedule(betas=np.linspace(beta_1, beta_T, T, dtype=np.float64))


def forward_sample(schedule: NoiseSchedule, x0: Field, t: int, noise: Field) -> Field:
    """Jump the clean field straight to step t with the given unit noise."""
    require_units(x0, MODEL_UNITS, "x0")
    require_units(noise, MODEL_UNITS, "noise")
    require_same_shape(x0, noise, "x0 and noise")
    schedule._check_step(t, lo=0)
    abar = schedule.alpha_bar(t)
    values = math.sqrt(abar) * x0.values + math.sqrt(1.0 - abar) * noise.values
    return Field(values, MODEL_UNITS)


def x0_from_noise(row: StepCoefficients, x_t: np.ndarray, eps_hat: np.ndarray) -> np.ndarray:
    """Invert the forward jump with a noise estimate and the step's
    coefficient row (no clamping here)."""
    return (x_t - row.root_one_minus_abar * eps_hat) / row.root_abar


def posterior_mean(row: StepCoefficients, x0_est: np.ndarray, x_t: np.ndarray) -> np.ndarray:
    """Mean of the reverse-step posterior; its variance is ``row.var``.

    At t = 1 the variance is exactly 0 and the mean collapses to the clean
    estimate (abar_0 = 1 kills the x_t coefficient).
    """
    return row.coeff_x0 * x0_est + row.coeff_xt * x_t
