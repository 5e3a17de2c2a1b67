"""Guided reverse diffusion: scale rule, step identity, whole-run behavior.

The load-bearing check is the guided-mean identity: implementing guidance as
a shift of the clean estimate must move the posterior mean by exactly
-s * grad, because the shift coefficient cancels against the posterior's
clean-estimate coefficient.  Acceptance criterion 3 runs it over a whole
run.  Here the step is pinned around it: guidance off against the plain
ancestral step, determinism, abort paths, loss descent.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

import postcast as pc
from postcast.fields import require_finite
from postcast.sampler import kernel_lr_at
from reference import alpha_bars


@pytest.fixture(scope="module")
def small_problem():
    """A 16x16 mixture prior plus one planted blurry field."""
    fields = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=21), 40)
    gmm = pc.fit_gmm_prior(fields, 4, iters=20, seed=1)
    clean = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=22), 1)[0]
    pair = pc.plant_blur(clean, "mixed", 3)
    return gmm, pair


def test_guidance_config_validation():
    with pytest.raises(pc.ParameterError):
        pc.GuidanceConfig(lr=0.0)
    with pytest.raises(pc.ParameterError):
        pc.GuidanceConfig(fixed_scale=math.inf)
    with pytest.raises(pc.ParameterError):
        pc.KernelConfig(size=4)


def test_kernel_lr_schedule_shapes():
    sch = pc.linear_schedule(100)
    cos = pc.GuidanceConfig(lr=0.01)

    assert kernel_lr_at(cos, sch, 100) == 0.01  # full rate at the noisy end
    assert kernel_lr_at(cos, sch, 1) < 0.01 * 0.001
    rates = [kernel_lr_at(cos, sch, t) for t in range(100, 0, -1)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_auto_scale_formula_and_clamping():
    rng = np.random.default_rng(0)
    x_t = rng.standard_normal((4, 4))
    mu = rng.standard_normal((4, 4))
    grad = rng.standard_normal((4, 4))
    cfg = pc.GuidanceConfig(lr=0.01, C=-2.0, s_max=50.0)
    loss = 0.3
    expected = (float(np.sum((x_t - mu) * grad)) + 2.0) / 0.3
    expected = min(max(expected, 0.0), 50.0)
    assert pc.auto_scale(x_t, mu, grad, loss, cfg) == expected

    # the loss floor, 1e-12, takes over for tiny losses
    tiny = pc.GuidanceConfig(lr=0.01, C=-1.0, s_max=math.inf)
    s_floor = pc.auto_scale(x_t, mu, grad, 0.0, tiny)
    inner = float(np.sum((x_t - mu) * grad))
    assert s_floor == pytest.approx((inner + 1.0) / 1e-12)

    # clamping rails, [0, s_max]
    railed = pc.GuidanceConfig(lr=0.01, C=-1e9, s_max=3500.0)
    assert pc.auto_scale(x_t, mu, grad, loss, railed) == 3500.0
    assert pc.auto_scale(x_t, mu, grad, loss, replace(railed, C=1e9)) == 0.0

    with pytest.raises(pc.NumericError):
        pc.auto_scale(x_t, mu, grad, math.nan, cfg)


def test_fixed_scale_bypasses_the_estimate():
    z = np.zeros((2, 2))
    cfg = pc.GuidanceConfig(lr=0.01, fixed_scale=3500.0, C=123.0)
    assert pc.auto_scale(z, z, z, 0.5, cfg) == 3500.0


def test_zero_scale_fixed_kernel_equals_unguided_bitwise(small_problem):
    """With s = 0 and a frozen kernel the guided step is the step with
    guidance off.

    Same seeds on both sides; every intermediate state must match to the
    bit across a full reverse chain.
    """
    gmm, pair = small_problem
    sch = pc.linear_schedule(100, 1e-4, 0.05)
    ym = pc.to_model(pair.blurry).values
    cfg = pc.GuidanceConfig(lr=0.005, fixed_scale=0.0, fixed_kernel=True)
    kernel = pc.init_kernel(5, 0.02, 0.01, seed=3)
    off = pc.GuidanceConfig()
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    xa = rng_a.standard_normal((16, 16))
    xb = rng_b.standard_normal((16, 16))
    for t in range(sch.T, 0, -1):
        xa, _ = pc.guided_reverse_step(sch, gmm, kernel, ym, xa, t, cfg, rng_a)
        xb, record = pc.guided_reverse_step(sch, gmm, None, None, xb, t, off, rng_b)
        assert record is None
        assert np.array_equal(xa, xb), f"diverged at t={t}"


def test_final_step_consumes_no_randomness(small_problem):
    gmm, pair = small_problem
    sch = pc.linear_schedule(60, 1e-4, 0.05)
    ym = pc.to_model(pair.blurry).values
    cfg = pc.GuidanceConfig(lr=0.005, C=-220.0, s_max=3500.0)
    x1 = np.random.default_rng(8).standard_normal((16, 16))
    out = []
    for spin in (0, 1000):
        rng = np.random.default_rng(42)
        rng.standard_normal(spin)  # desynchronize the streams on purpose
        kernel = pc.init_kernel(5, 0.02, 0.01, seed=6)
        x_prev, _ = pc.guided_reverse_step(sch, gmm, kernel, ym, x1, 1, cfg, rng)
        out.append(x_prev)
    assert np.array_equal(out[0], out[1])


def test_deblur_run_shape_units_and_trace(small_problem):
    gmm, pair = small_problem
    sch = pc.linear_schedule(60, 1e-4, 0.05)
    cfg = pc.GuidanceConfig(lr=0.005, C=-220.0, s_max=3500.0)
    kc = pc.KernelConfig(size=5, init_mean=0.02, init_std=0.01)
    trace = pc.postcast_deblur(sch, gmm, pair.blurry, cfg, seed=0, kernel_config=kc)
    assert trace.x0.units == pc.DATA_UNITS
    assert trace.x0.shape == pair.blurry.shape
    assert trace.x0.values.min() >= 0.0 and trace.x0.values.max() <= 1.0
    assert [r.t for r in trace.records] == list(range(60, 0, -1))
    assert trace.kernel.params.shape == (5, 5)
    assert all(np.isfinite(r.loss) and np.isfinite(r.scale) for r in trace.records)


def test_deblur_requires_data_units(small_problem):
    gmm, pair = small_problem
    sch = pc.linear_schedule(10)
    with pytest.raises(pc.UnitsError):
        pc.postcast_deblur(sch, gmm, pc.to_model(pair.blurry))


def test_deblur_is_deterministic_in_the_seed(small_problem):
    gmm, pair = small_problem
    sch = pc.linear_schedule(60, 1e-4, 0.05)
    cfg = pc.GuidanceConfig(lr=0.005, C=-220.0, s_max=3500.0)
    kc = pc.KernelConfig(size=5, init_mean=0.02, init_std=0.01)
    a = pc.postcast_deblur(sch, gmm, pair.blurry, cfg, seed=11, kernel_config=kc)
    b = pc.postcast_deblur(sch, gmm, pair.blurry, cfg, seed=11, kernel_config=kc)
    c = pc.postcast_deblur(sch, gmm, pair.blurry, cfg, seed=12, kernel_config=kc)
    assert np.array_equal(a.x0.values, b.x0.values)
    assert np.array_equal(a.kernel.params, b.kernel.params)
    assert not np.array_equal(a.x0.values, c.x0.values)


def test_reblur_loss_collapses_over_the_run(small_problem):
    """The recorded pre-guidance loss falls by orders of magnitude.

    Per-step descent is only statistical (ancestral noise), so assert a
    majority of downhill steps plus a hard drop first to last.
    """
    gmm, pair = small_problem
    sch = pc.linear_schedule(60, 1e-4, 0.05)
    cfg = pc.GuidanceConfig(lr=0.005, C=-220.0, s_max=3500.0)
    kc = pc.KernelConfig(size=5, init_mean=0.02, init_std=0.01)
    for seed in (0, 1, 2):
        trace = pc.postcast_deblur(sch, gmm, pair.blurry, cfg, seed=seed, kernel_config=kc)
        losses = [r.loss for r in trace.records]
        assert losses[-1] < 0.05 * losses[0]
        downhill = np.mean(np.diff(losses) <= 0)
        assert downhill > 0.6


def test_divergence_aborts_with_stage_and_partial_trace(small_problem):
    """A destructive kernel rate blows up; the error names step and stage
    and carries everything computed so far."""
    gmm, pair = small_problem
    sch = pc.linear_schedule(60, 1e-4, 0.05)
    bad = pc.GuidanceConfig(lr=50.0, C=-220.0, s_max=3500.0)
    kc = pc.KernelConfig(size=5, init_mean=0.02, init_std=0.01)
    with pytest.raises(pc.NumericError, match=r"step t=\d+, stage \d") as info:
        with np.errstate(over="ignore", invalid="ignore"):
            pc.postcast_deblur(sch, gmm, pair.blurry, bad, seed=5, kernel_config=kc)
    partial = info.value.partial_trace
    assert partial.x0 is None
    assert partial.kernel is not None
    assert len(partial.records) > 0
    assert partial.records[0].t == 60


# ---------------------------------------------------------------------------
# The array-level step against a copy of the Field-level step it replaced
# ---------------------------------------------------------------------------


class _FieldLevelMixture:
    """The mixture's noise estimate as the Field-level step computed it:
    scalars taken from the betas, constants rebuilt per call, scipy's
    logsumexp."""

    def __init__(self, gmm):
        self.gmm = gmm

    def predict_noise(self, x_t, t, schedule):
        gmm = self.gmm
        abar = alpha_bars(schedule)[t]
        root_abar = np.sqrt(abar)
        x = x_t.ravel()
        means = gmm.means.reshape(gmm.n_components, -1)
        variances = abar * gmm.sigmas**2 + (1.0 - abar)
        sq = np.maximum(
            x @ x - 2.0 * root_abar * (means @ x)
            + abar * np.einsum("ij,ij->i", means, means),
            0.0,
        )
        log_r = (
            np.log(gmm.weights) - 0.5 * x.size * np.log(2.0 * np.pi * variances)
            - sq / (2.0 * variances)
        )
        resp = np.exp(log_r - logsumexp(log_r))
        shrink = root_abar * gmm.sigmas**2 / variances
        mean = (resp * (1.0 - shrink * root_abar)) @ means + (resp @ shrink) * x
        return (x_t - np.sqrt(abar) * mean.reshape(x_t.shape)) / np.sqrt(1.0 - abar)


def _field_level_posterior(sch, x0_est, x_t, t):
    beta = float(sch.betas[t - 1])
    alpha = 1.0 - beta
    bars = alpha_bars(sch)
    abar_t, abar_prev = bars[t], bars[t - 1]
    denom = 1.0 - abar_t
    coeff_x0 = math.sqrt(abar_prev) * beta / denom
    coeff_xt = math.sqrt(alpha) * (1.0 - abar_prev) / denom
    mean = pc.Field(coeff_x0 * x0_est.values + coeff_xt * x_t.values, pc.MODEL_UNITS)
    return mean, (1.0 - abar_prev) / denom * beta


def _field_level_step(sch, denoiser, kernel, y_prime, x_t, t, cfg, rng):
    """The guided step as it was written on Fields, with a Field per stage.

    The denoiser works on arrays; a non-finite clean estimate, plain or
    guided, is reported under the name the array step gives it."""
    eps_hat = denoiser.predict_noise(x_t.values, t, sch)
    bars = alpha_bars(sch)
    abar = bars[t]
    x0_values = (x_t.values - math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(abar)
    require_finite(x0_values, "clean estimate")
    x0_est = pc.Field(np.clip(x0_values, -1.0, 1.0), pc.MODEL_UNITS)
    loss, grad_x, grad_k = pc.reblur(kernel, x0_est, y_prime)
    mu_unguided, _ = _field_level_posterior(sch, x0_est, x_t, t)
    s = pc.auto_scale(x_t.values, mu_unguided.values, grad_x.values, loss, cfg)
    shift = s * (1.0 - abar) / (math.sqrt(bars[t - 1]) * float(sch.betas[t - 1]))
    x0_guided_values = x0_est.values - shift * grad_x.values
    require_finite(x0_guided_values, "guided clean estimate")
    x0_guided = pc.Field(x0_guided_values, pc.MODEL_UNITS)
    mu, var = _field_level_posterior(sch, x0_guided, x_t, t)
    if t > 1:
        values = mu.values + math.sqrt(var) * rng.standard_normal(mu.shape)
    else:
        values = mu.values
    if not cfg.fixed_kernel:
        kernel.params -= kernel_lr_at(cfg, sch, t) * grad_k
    return pc.Field(values, pc.MODEL_UNITS), (loss, s, kernel.mean())


_BASE = pc.GuidanceConfig(lr=0.005, C=-220.0, s_max=3500.0)


@pytest.mark.parametrize("prior", ["mixture", "conv"])
@pytest.mark.parametrize(
    "cfg",
    [_BASE, replace(_BASE, fixed_scale=1e306), replace(_BASE, fixed_scale=3500.0),
     replace(_BASE, fixed_kernel=True)],
    ids=["auto", "diverging-scale", "fixed-scale", "fixed-kernel"],
)
def test_array_step_equals_the_field_level_step_bitwise(small_problem, prior, cfg):
    """A whole T=250 guided run, step by step: x_{t-1}, loss, scale, kernel
    mean and the final kernel all carry the bits of the Field-level step.

    A fixed scale of 1e306 blows the guidance shift up at the first step;
    then both steps must abort at the same t with the same message.
    """
    gmm, pair = small_problem
    if prior == "mixture":
        lean, reference = gmm, _FieldLevelMixture(gmm)
    else:
        lean = reference = pc.init_conv_denoiser(seed=3)
    sch = pc.linear_schedule(250, 1e-4, 0.06)
    ym = pc.to_model(pair.blurry)
    kernels = [pc.init_kernel(5, 0.02, 0.01, seed=4) for _ in range(2)]
    rngs = [np.random.default_rng(17) for _ in range(2)]
    xb = pc.Field(np.random.default_rng(16).standard_normal(ym.shape), pc.MODEL_UNITS)
    xa = xb.values
    for t in range(sch.T, 0, -1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                xb, expected = _field_level_step(
                    sch, reference, kernels[1], ym, xb, t, cfg, rngs[1]
                )
            except pc.NumericError as exc:
                with pytest.raises(pc.NumericError, match=rf"^step t={t}, .*{re.escape(str(exc))}"):
                    pc.guided_reverse_step(sch, lean, kernels[0], ym.values, xa, t, cfg, rngs[0])
                assert cfg.fixed_scale == 1e306
                return
            xa, record = pc.guided_reverse_step(
                sch, lean, kernels[0], ym.values, xa, t, cfg, rngs[0]
            )
        assert np.array_equal(xa, xb.values), f"x diverged at t={t}"
        assert (record.loss, record.scale, record.kernel_mean) == expected, f"t={t}"
    assert np.array_equal(kernels[0].params, kernels[1].params)


def test_unguided_step_equals_the_field_level_step_bitwise(small_problem):
    """The step with guidance off (no kernel, no target) is the plain
    ancestral step of the Field-level code, to the bit."""
    gmm, _ = small_problem
    sch = pc.linear_schedule(250, 1e-4, 0.06)
    reference = _FieldLevelMixture(gmm)
    off = pc.GuidanceConfig()
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    xb = pc.Field(np.random.default_rng(6).standard_normal((16, 16)), pc.MODEL_UNITS)
    xa = xb.values
    for t in range(sch.T, 0, -1):
        xa, _ = pc.guided_reverse_step(sch, gmm, None, None, xa, t, off, rng_a)
        eps_hat = reference.predict_noise(xb.values, t, sch)
        abar = alpha_bars(sch)[t]
        x0 = np.clip((xb.values - math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(abar), -1.0, 1.0)
        mu, var = _field_level_posterior(sch, pc.Field(x0, pc.MODEL_UNITS), xb, t)
        noise = math.sqrt(var) * rng_b.standard_normal(mu.shape) if t > 1 else 0.0
        xb = pc.Field(mu.values + noise, pc.MODEL_UNITS)
        assert np.array_equal(xa, xb.values), f"diverged at t={t}"


class _OverflowingDenoiser:
    """A finite noise estimate so large that the clean estimate overflows."""

    def predict_noise(self, x_t, t, schedule):
        return np.full(x_t.shape, -1e308)


@pytest.mark.parametrize(
    "case, stage",
    [("overflowing-estimate", "stage 1 (clean estimate)"),
     ("huge-kernel", "stage 2 (reblur distance)"),
     ("huge-fixed-scale", "stage 4 (guidance shift)")],
)
def test_non_finite_values_are_reported_at_their_stage(small_problem, case, stage):
    """Each blow-up is labelled with the stage whose output went non-finite
    (the stages the Field-level step reported, checked on the same inputs)."""
    gmm, pair = small_problem
    sch = pc.linear_schedule(250, 1e-4, 0.06)
    denoiser = _OverflowingDenoiser() if case == "overflowing-estimate" else gmm
    kernel = pc.BlurKernel(np.full((5, 5), 1e306 if case == "huge-kernel" else 0.02))
    cfg = pc.GuidanceConfig(fixed_scale=1e306) if case == "huge-fixed-scale" else _BASE
    x = np.random.default_rng(0).standard_normal((16, 16))
    ym = pc.to_model(pair.blurry).values
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(pc.NumericError, match=rf"^step t=250, {re.escape(stage)}: "):
            pc.guided_reverse_step(sch, denoiser, kernel, ym, x, 250, cfg, np.random.default_rng(1))


def test_an_overflowing_estimate_aborts_a_deblur_at_stage_1(small_problem):
    _, pair = small_problem
    sch = pc.linear_schedule(250, 1e-4, 0.06)
    with np.errstate(over="ignore"):
        with pytest.raises(pc.NumericError, match=r"step t=250, stage 1 \(clean estimate\)") as info:
            pc.postcast_deblur(sch, _OverflowingDenoiser(), pair.blurry, _BASE, seed=0)
    assert info.value.partial_trace.records == []


def test_an_overflowing_estimate_aborts_a_guidance_off_run_at_stage_1():
    """Guidance off runs the same labelled step as a deblur."""
    sch = pc.linear_schedule(250, 1e-4, 0.06)
    with np.errstate(over="ignore"):
        with pytest.raises(pc.NumericError, match=r"^step t=250, stage 1 \(clean estimate\): ") as info:
            pc.unguided_sample(sch, _OverflowingDenoiser(), 16, 16, seed=0)
    assert info.value.partial_trace.records == []


@pytest.mark.parametrize("height, width, name", [(-1, 8, "height"), (8, -1, "width"),
                                                 (0, 8, "height"), (8, 0, "width")])
def test_unguided_sample_rejects_non_positive_sizes_before_drawing(height, width, name,
                                                                   monkeypatch):
    net = pc.init_conv_denoiser(seed=0)
    drawn = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: drawn.append(a) or default_rng(*a))
    with pytest.raises(pc.ShapeError, match=rf"^{name} must be >= 1, got {min(height, width)}$"):
        pc.unguided_sample(pc.linear_schedule(10), net, height, width)
    assert drawn == []


def test_fields_are_built_only_at_the_run_boundary(small_problem, monkeypatch):
    """No reverse step builds a Field: a deblur builds as many at T=10 as at
    T=40, and so does a draw with guidance off."""
    gmm, pair = small_problem
    built = []
    field_init = pc.Field.__post_init__

    def counting_init(self):
        built.append(self)
        field_init(self)

    monkeypatch.setattr(pc.Field, "__post_init__", counting_init)
    counts = []
    for T in (10, 40):
        sch = pc.linear_schedule(T, 1e-4, 0.05)
        built.clear()
        pc.postcast_deblur(sch, gmm, pair.blurry, _BASE, seed=0)
        deblur = len(built)
        built.clear()
        pc.unguided_sample(sch, gmm, 16, 16, seed=0)
        counts.append((deblur, len(built)))
    assert counts[0] == counts[1]


class _WiderDenoiser:
    """A noise estimate one column wider than x_t."""

    def predict_noise(self, x_t, t, schedule):
        return np.zeros((x_t.shape[0], x_t.shape[1] + 1))


def test_a_wrongly_shaped_noise_estimate_is_a_shape_error(small_problem):
    _, pair = small_problem
    sch = pc.linear_schedule(10)
    with pytest.raises(pc.ShapeError, match=r"noise estimate shape \(16, 17\) != x_t shape"):
        pc.postcast_deblur(sch, _WiderDenoiser(), pair.blurry, _BASE, seed=0)


def test_a_target_of_another_shape_is_a_shape_error(small_problem):
    gmm, pair = small_problem
    kernel = pc.init_kernel(5, 0.02, 0.01, seed=0)
    ym = pc.to_model(pair.blurry).values
    for y in (ym[:, :-1], ym[0]):
        with pytest.raises(pc.ShapeError, match="x_t and y_prime must share a shape"):
            pc.guided_reverse_step(pc.linear_schedule(10), gmm, kernel, y, np.zeros((16, 16)),
                                   10, _BASE, np.random.default_rng(0))


def test_guidance_needs_both_a_kernel_and_a_target(small_problem):
    gmm, pair = small_problem
    sch = pc.linear_schedule(10)
    x = np.zeros((16, 16))
    kernel = pc.init_kernel(5, 0.02, 0.01, seed=0)
    for k, y in ((kernel, None), (None, pc.to_model(pair.blurry).values)):
        with pytest.raises(pc.ParameterError, match="or neither"):
            pc.guided_reverse_step(sch, gmm, k, y, x, 10, _BASE, np.random.default_rng(0))
