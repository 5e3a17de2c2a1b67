"""Schedule algebra, forward noising, and reverse-posterior statistics.

The expectations here are all independently derivable: hand-computed
products for tiny schedules, sequential products against the cumulative
ones, Monte Carlo moments for the forward jump, and brute-force quadrature
for the reverse posterior.
"""

import math
import struct

import numpy as np
import pytest

import postcast as pc


def _unit_field(value, shape=(1, 1)):
    return pc.Field(np.full(shape, value), pc.MODEL_UNITS)


def test_linear_schedule_endpoints_and_validation():
    sch = pc.linear_schedule(5, 0.1, 0.3)
    assert sch.T == 5
    assert sch.beta(1) == 0.1
    assert sch.beta(5) == 0.3
    assert np.allclose(np.diff(sch.betas), 0.05)
    with pytest.raises(pc.ParameterError):
        pc.linear_schedule(1)
    with pytest.raises(pc.ParameterError):
        pc.linear_schedule(10, 0.0, 0.02)
    with pytest.raises(pc.ParameterError):
        pc.linear_schedule(10, 0.03, 0.02)
    with pytest.raises(pc.ParameterError):
        pc.linear_schedule(10, 0.5, 1.0)


@pytest.mark.parametrize(
    "betas",
    [[0.5, 1.5, 0.2], [0.5, 0.0, 0.2], [0.1, -0.1], [0.1, np.nan], [np.inf], [1.0], [],
     [[0.1, 0.2]]],
    ids=["above-one", "zero", "negative", "nan", "inf", "one", "empty", "2-d"],
)
def test_hand_built_schedule_rejects_betas_outside_the_open_unit_interval(betas):
    """Rejected when the schedule is built, not as NaN rows at the first step."""
    with pytest.raises(pc.ParameterError, match="beta"):
        pc.NoiseSchedule(betas=np.array(betas))


def test_two_step_constant_schedule_by_hand():
    """beta = 0.5 twice: alpha_bar_1 = 0.5, alpha_bar_2 = 0.25."""
    sch = pc.linear_schedule(2, 0.5, 0.5)
    assert sch.alpha_bar(0) == 1.0
    assert sch.alpha_bar(1) == 0.5
    assert sch.alpha_bar(2) == 0.25
    assert sch.alpha(1) == 0.5
    assert sch.alpha(2) == 0.5


def test_cumulative_products_match_sequential_products():
    sch = pc.linear_schedule(200, 1e-4, 0.05)
    running = 1.0
    for t in range(1, sch.T + 1):
        running *= sch.alpha(t)
        assert sch.alpha_bar(t) == pytest.approx(running, rel=1e-13)
        assert sch.alpha(t) == 1.0 - sch.beta(t)


def test_step_range_checks():
    sch = pc.linear_schedule(10)
    for t in (0, 11, -3):
        with pytest.raises(pc.StepRangeError):
            sch.beta(t)
    with pytest.raises(pc.StepRangeError):
        sch.alpha_bar(-1)
    with pytest.raises(pc.StepRangeError):
        sch.alpha_bar(2.5)
    assert sch.alpha_bar(0) == 1.0


def test_forward_sample_t0_is_identity():
    sch = pc.linear_schedule(10)
    rng = np.random.default_rng(1)
    x0 = pc.Field(rng.standard_normal((4, 4)), pc.MODEL_UNITS)
    noise = pc.Field(rng.standard_normal((4, 4)), pc.MODEL_UNITS)
    out = pc.forward_sample(sch, x0, 0, noise)
    assert np.array_equal(out.values, x0.values)


def test_forward_sample_demands_model_units_and_matching_shapes():
    sch = pc.linear_schedule(10)
    x0 = pc.Field(np.zeros((4, 4)), pc.DATA_UNITS)
    noise = _unit_field(0.0, (4, 4))
    with pytest.raises(pc.UnitsError):
        pc.forward_sample(sch, x0, 1, noise)
    with pytest.raises(pc.ShapeError):
        pc.forward_sample(sch, _unit_field(0.0, (4, 4)), 1, _unit_field(0.0, (4, 5)))


def test_estimate_x0_inverts_forward_sample():
    sch = pc.linear_schedule(100, 1e-4, 0.04)
    rng = np.random.default_rng(2)
    x0 = pc.Field(rng.uniform(-1, 1, (8, 8)), pc.MODEL_UNITS)
    for t in (1, 17, 50, 100):
        noise = pc.Field(rng.standard_normal((8, 8)), pc.MODEL_UNITS)
        x_t = pc.forward_sample(sch, x0, t, noise)
        rec = pc.x0_from_noise(sch.coefficients(t), x_t.values, noise.values)
        assert np.allclose(rec, x0.values, atol=1e-12)


def test_forward_sample_moments_monte_carlo():
    """Mean sqrt(abar)*x0 and variance 1 - abar, to within 1%.

    1000 draws over a 20x20 grid is 4e5 samples; the variance estimator's
    relative standard error is sqrt(2/n) ~ 0.2%, so 1% is a 4-sigma band.
    """
    sch = pc.linear_schedule(100, 1e-4, 0.02)
    x0 = _unit_field(0.37, (20, 20))
    rng = np.random.default_rng(7)
    t = 60
    draws = np.stack([
        pc.forward_sample(sch, x0, t, pc.Field(rng.standard_normal((20, 20)), pc.MODEL_UNITS)).values
        for _ in range(1000)
    ]).ravel()
    abar = sch.alpha_bar(t)
    assert draws.mean() == pytest.approx(math.sqrt(abar) * 0.37, rel=0.01)
    assert draws.var() == pytest.approx(1.0 - abar, rel=0.01)


def test_posterior_stats_match_quadrature():
    """Bayes by brute force: product of the two Gaussians, integrated on a grid."""
    sch = pc.linear_schedule(50, 1e-4, 0.05)
    x0v, xtv = 0.3, -0.7
    grid = np.linspace(-6, 6, 200001)
    for t in (2, 10, 25, 50):
        a = sch.alpha(t)
        ab_prev = sch.alpha_bar(t - 1)
        logp = (
            -0.5 * (xtv - math.sqrt(a) * grid) ** 2 / sch.beta(t)
            - 0.5 * (grid - math.sqrt(ab_prev) * x0v) ** 2 / (1.0 - ab_prev)
        )
        w = np.exp(logp - logp.max())
        w /= w.sum()
        mean_q = float((w * grid).sum())
        var_q = float((w * (grid - mean_q) ** 2).sum())
        mu = pc.posterior_mean(sch.coefficients(t), np.full((1, 1), x0v), np.full((1, 1), xtv))
        assert abs(mu[0, 0] - mean_q) < 1e-4
        assert abs(sch.coefficients(t).var - var_q) < 1e-4


def test_posterior_at_t1_collapses_to_clean_estimate():
    sch = pc.linear_schedule(50, 1e-4, 0.05)
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1, 1, (6, 6))
    x1 = rng.standard_normal((6, 6))
    row = sch.coefficients(1)
    assert row.var == 0.0
    assert np.allclose(pc.posterior_mean(row, x0, x1), x0, atol=1e-12)


def test_default_schedule_invariants():
    """The stock 1000-step schedule: monotone alpha_bar, near-total noising."""
    sch = pc.linear_schedule(1000)
    assert sch.T == 1000
    assert sch.beta(1) == 1e-4
    assert sch.beta(1000) == 0.02
    bars = np.array([sch.alpha_bar(t) for t in range(0, 1001)])
    assert np.all(np.diff(bars) < 0)
    assert bars[0] == 1.0
    assert bars[-1] < 5e-5
    # every posterior variance is positive past t=1 and below its beta
    for t in (2, 100, 500, 1000):
        beta = sch.beta(t)
        var = (1.0 - sch.alpha_bar(t - 1)) / (1.0 - sch.alpha_bar(t)) * beta
        assert 0.0 < var < beta


def _hand_built_schedule():
    """Uneven betas supplied directly; alphas and alpha_bars derive from them."""
    return pc.NoiseSchedule(betas=np.array([0.3, 0.02, 0.25, 0.6, 0.05, 0.4]))


@pytest.mark.parametrize(
    "schedule",
    [pc.linear_schedule(1000), pc.linear_schedule(250, 1e-4, 0.06), _hand_built_schedule()],
    ids=["stock-1000", "synthetic-250", "hand-built"],
)
def test_coefficient_rows_equal_the_accessor_formulas_bitwise(schedule):
    """Each table entry is the scalar expression the accessors give, to the
    bit, and the clean estimate and posterior mean give the bits of those
    expressions."""
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, (3, 5))
    x_t = rng.standard_normal((3, 5))
    for t in range(1, schedule.T + 1):
        beta, alpha = schedule.beta(t), schedule.alpha(t)
        abar, abar_prev = schedule.alpha_bar(t), schedule.alpha_bar(t - 1)
        denom = 1.0 - abar
        expected = (
            abar,
            math.sqrt(abar),
            math.sqrt(1.0 - abar),
            denom,
            math.sqrt(abar_prev) * beta / denom,
            math.sqrt(alpha) * (1.0 - abar_prev) / denom,
            (1.0 - abar_prev) / denom * beta,
            math.sqrt(abar_prev) * beta,
        )
        row = schedule.coefficients(t)
        assert all(type(v) is float for v in row)
        assert struct.pack("<8d", *row) == struct.pack("<8d", *expected), f"t={t}"
        if t in (1, 2, schedule.T // 2, schedule.T):
            est = pc.x0_from_noise(row, x_t, x0)
            assert np.array_equal(est, (x_t - expected[2] * x0) / expected[1])
            mu = pc.posterior_mean(row, x0, x_t)
            assert np.array_equal(mu, expected[4] * x0 + expected[5] * x_t)


def test_coefficients_check_the_step_index():
    sch = pc.linear_schedule(10)
    for t in (0, 11, -3, 2.5):
        with pytest.raises(pc.StepRangeError):
            sch.coefficients(t)
