"""Blur-guided reverse diffusion with per-step kernel refinement.

One reverse step at index t does, in order:

1. estimate the clean field from the noise prediction, clamped to [-1, 1];
2. measure the reblur distance L between the blurred estimate and the blurry
   target, and take its gradients in the kernel and in the estimate, all in
   one fused pass over a single residual;
3. choose the guidance scale s: either the configured override, or
   s = clamp(((x_t - mu) . grad - C) / max(L, 1e-12), 0, s_max) with mu
   the *unguided* posterior mean;
4. shift the estimate by -s (1 - abar_t) / (sqrt(abar_{t-1}) beta_t) * grad,
   which moves the posterior mean by exactly -s * grad (the coefficients
   cancel against the mean's x0 weight);
5. recompute posterior statistics from the shifted estimate;
6. draw x_{t-1} (deterministically equal to the mean at t = 1);
7. descend the kernel on L at the pre-guidance estimate, with the step size
   decayed as lr * cos^2(pi/2 * (T - t)/T) over the run.

Called with no kernel and no target, the step runs with guidance off:
stages 2-4 and 7 are skipped and what is left is the prior's plain DDPM
ancestral step.  Guidance is a correction on top of that step, as in
diffusion posterior sampling, so unguided sampling needs no second step.

One reverse loop walks t = T..1.  ``postcast_deblur`` runs it from pure
noise and a freshly initialized kernel against a blurry data-unit target,
and returns the data-unit result plus the full per-step trace;
``unguided_sample`` runs it with guidance off.

The reverse path runs on plain model-unit arrays: the step takes x_t and
the target as arrays and returns x_{t-1} as one, and the denoiser returns
its noise estimate as one.  Only ``postcast_deblur`` and ``unguided_sample``
build and check :class:`Field` units and shapes, once per run.  Every
intermediate a stage produces is checked for finiteness where that stage
ends, so a blow-up is reported at the stage that caused it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, StepCoefficients, posterior_mean, x0_from_noise
from .errors import NumericError, ParameterError, ShapeError
from .fields import (
    DATA_UNITS,
    MODEL_UNITS,
    Field,
    clamp01,
    require_finite,
    require_units,
    to_data,
    to_model,
)
from .kernel import BlurKernel, KernelConfig, correlate2d_clamped_loss_and_grads, init_kernel

#: The auto scale divides by max(loss, LOSS_FLOOR), so a zero loss stays finite.
LOSS_FLOOR = 1e-12


@dataclass(frozen=True)
class GuidanceConfig:
    """Knobs for the guided reverse process.

    ``fixed_scale`` (if set) bypasses the automatic scale entirely;
    ``fixed_kernel`` freezes the kernel at its initialization.
    """

    lr: float = 2e-4
    C: float = 0.0
    s_max: float = 1e6
    fixed_scale: float | None = None
    fixed_kernel: bool = False

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"kernel lr must be finite and > 0, got {self.lr}")
        if not math.isfinite(self.C):
            raise ParameterError(f"guidance offset c must be finite, got {self.C}")
        if not self.s_max >= 0:
            raise ParameterError(f"s_max must be >= 0, got {self.s_max}")
        if self.fixed_scale is not None and not math.isfinite(self.fixed_scale):
            raise ParameterError(f"fixed_scale must be finite, got {self.fixed_scale}")


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics for one reverse step (kernel mean is post-update)."""

    t: int
    loss: float
    scale: float
    kernel_mean: float


@dataclass
class SamplerTrace:
    """Everything a run produced: the result, the kernel, the step records."""

    records: list
    x0: Field | None = None
    kernel: BlurKernel | None = None


def kernel_lr_at(config: GuidanceConfig, schedule: NoiseSchedule, t: int) -> float:
    """Kernel step size at reverse step t: lr * cos^2(pi/2 * (T - t)/T), full lr at t = T."""
    progress = (schedule.T - t) / schedule.T
    return config.lr * math.cos(0.5 * math.pi * progress) ** 2


def auto_scale(x_t, mu, grad_x, loss: float, config: GuidanceConfig) -> float:
    """Guidance scale for the current step, from plain arrays of one shape.

    A configured ``fixed_scale`` wins regardless of the other inputs.
    Otherwise the scale is the first-order estimate
    ((x_t - mu) . grad - C) / max(loss, LOSS_FLOOR), clamped to [0, s_max],
    with ``mu`` the unguided posterior mean.
    """
    if config.fixed_scale is not None:
        return float(config.fixed_scale)
    if not math.isfinite(loss):
        raise NumericError(f"reblur loss is non-finite ({loss})")
    inner = float(np.sum((x_t - mu) * grad_x))
    if not math.isfinite(inner):
        raise NumericError(f"guidance inner product is non-finite ({inner})")
    raw = (inner - config.C) / max(loss, LOSS_FLOOR)
    return float(min(max(raw, 0.0), config.s_max))


def _clean_estimate(row: StepCoefficients, x_t: np.ndarray, eps_hat: np.ndarray) -> np.ndarray:
    """Stage 1: the clean estimate, checked before it is clamped."""
    if eps_hat.shape != x_t.shape:
        raise ShapeError(f"noise estimate shape {eps_hat.shape} != x_t shape {x_t.shape}")
    x0 = x0_from_noise(row, x_t, eps_hat)
    require_finite(x0, "clean estimate")
    return np.clip(x0, -1.0, 1.0)


def guided_reverse_step(
    schedule: NoiseSchedule,
    denoiser,
    kernel: BlurKernel | None,
    y_prime: np.ndarray | None,
    x_t: np.ndarray,
    t: int,
    config: GuidanceConfig,
    rng,
) -> tuple[np.ndarray, StepRecord | None]:
    """One reverse step; mutates ``kernel`` in place, returns (x_{t-1}, record).

    ``x_t``, ``y_prime`` and x_{t-1} are model-unit arrays of one shape.
    With no kernel and no target, guidance is off: stages 2-4 and 7 are
    skipped, the step is the prior's plain ancestral step, and the record
    is None.  Non-finite values abort with a NumericError naming the stage
    that produced them.
    """
    guided = kernel is not None
    if guided != (y_prime is not None):
        raise ParameterError("pass both a kernel and a target, or neither to turn guidance off")
    if guided and y_prime.shape != x_t.shape:
        raise ShapeError(f"x_t and y_prime must share a shape, got {x_t.shape} vs {y_prime.shape}")
    row = schedule.coefficients(t)
    stage_idx, stage_name = 1, "clean estimate"
    try:
        x0 = _clean_estimate(row, x_t, denoiser.predict_noise(x_t, t, schedule))

        if guided:
            stage_idx, stage_name = 2, "reblur distance"
            loss, grad_x, grad_k = correlate2d_clamped_loss_and_grads(x0, kernel.params, y_prime)
            require_finite(grad_x, "reblur gradient")

            stage_idx, stage_name = 3, "guidance scale"
            mu_unguided = posterior_mean(row, x0, x_t)
            require_finite(mu_unguided, "unguided posterior mean")
            s = auto_scale(x_t, mu_unguided, grad_x, loss, config)

            stage_idx, stage_name = 4, "guidance shift"
            shift = s * row.one_minus_abar / row.root_abar_prev_beta
            x0 = x0 - shift * grad_x
            require_finite(x0, "guided clean estimate")

        stage_idx, stage_name = 5, "posterior statistics"
        mu = posterior_mean(row, x0, x_t)
        require_finite(mu, "posterior mean")

        stage_idx, stage_name = 6, "ancestral draw"
        if t > 1:  # the last step draws nothing
            mu = mu + math.sqrt(row.var) * rng.standard_normal(mu.shape)

        stage_idx, stage_name = 7, "kernel update"
        if guided and not config.fixed_kernel:
            kernel.params -= kernel_lr_at(config, schedule, t) * grad_k
            if not np.all(np.isfinite(kernel.params)):
                raise NumericError("kernel parameters went non-finite")
    except NumericError as exc:
        raise NumericError(f"step t={t}, stage {stage_idx} ({stage_name}): {exc}") from exc
    if not guided:
        return mu, None
    return mu, StepRecord(t=t, loss=loss, scale=s, kernel_mean=kernel.mean())


def _reverse_run(
    schedule: NoiseSchedule, denoiser, kernel, y_prime, x: np.ndarray, config: GuidanceConfig, rng
) -> tuple[np.ndarray, list]:
    """Walk the array ``x`` from t = T down to 1; returns (x_0, the step records).

    Guidance is off when ``kernel`` and ``y_prime`` are None.  The step is
    called by its module-level name, so a wrapper installed on
    ``postcast.sampler.guided_reverse_step`` sees every step of both runs.
    numpy's floating-point warnings are off over the loop, because each
    stage checks its own output: a blow-up is one NumericError even when
    warnings are errors.  On a numeric abort the partial trace is attached
    to the raised error as ``exc.partial_trace``.
    """
    records = []
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for t in range(schedule.T, 0, -1):
                x, record = guided_reverse_step(
                    schedule, denoiser, kernel, y_prime, x, t, config, rng
                )
                if record is not None:
                    records.append(record)
    except NumericError as exc:
        exc.partial_trace = SamplerTrace(records=records, x0=None, kernel=kernel)
        raise
    return x, records


def postcast_deblur(
    schedule: NoiseSchedule,
    denoiser,
    y_prime: Field,
    config: GuidanceConfig = GuidanceConfig(),
    seed=0,
    kernel_config: KernelConfig = KernelConfig(),
) -> SamplerTrace:
    """Deblur a data-unit field by guiding an unconditional reverse run.

    Returns a SamplerTrace whose ``x0`` is back in data units, clamped to
    [0, 1], with the refined kernel and one record per step (t = T first).
    On a numeric abort the partial trace is attached to the raised error as
    ``exc.partial_trace``.
    """
    require_units(y_prime, DATA_UNITS, "y_prime")
    rng = np.random.default_rng(seed)
    kernel = init_kernel(
        kernel_config.size, kernel_config.init_mean, kernel_config.init_std, rng
    )
    x = rng.standard_normal(y_prime.shape)
    x, records = _reverse_run(schedule, denoiser, kernel, to_model(y_prime).values, x, config, rng)
    return SamplerTrace(records=records, x0=clamp01(to_data(Field(x, MODEL_UNITS))), kernel=kernel)


def unguided_sample(
    schedule: NoiseSchedule,
    denoiser,
    height: int,
    width: int,
    seed=0,
) -> Field:
    """Draw one model-unit field from the prior: the reverse run with guidance off."""
    for name, size in (("height", height), ("width", width)):
        if size < 1:
            raise ShapeError(f"{name} must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    x = Field(rng.standard_normal((height, width)), MODEL_UNITS)
    return x.like(_reverse_run(schedule, denoiser, None, None, x.values, GuidanceConfig(), rng)[0])
