"""Schedule algebra, forward noising, and reverse-posterior statistics.

The expectations here are all independently derivable: hand-computed
products for tiny schedules, sequential products against the cumulative
ones, Monte Carlo moments for the forward jump, and brute-force quadrature
for the reverse posterior.  Oracles take the schedule's scalars from its
betas, through the ``alpha_bars`` helper of ``reference.py``, never from the
coefficient table under test.
"""

import math
import struct

import numpy as np
import pytest

import postcast as pc
from reference import alpha_bars


def test_linear_schedule_endpoints_and_validation():
    sch = pc.linear_schedule(5, 0.1, 0.3)
    assert sch.T == 5
    assert sch.betas[0] == 0.1
    assert sch.betas[-1] == 0.3
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
    assert alpha_bars(sch) == [1.0, 0.5, 0.25]
    row1, row2 = sch.coefficients(1), sch.coefficients(2)
    assert (row1.abar, row2.abar) == (0.5, 0.25)
    # abar_0 = 1: step 1's posterior is the clean estimate, with no spread.
    assert (row1.coeff_x0, row1.coeff_xt, row1.var) == (1.0, 0.0, 0.0)
    # alpha_2 = 0.5: sqrt(a_2) (1 - abar_1) / (1 - abar_2) = sqrt(0.5) * 0.5 / 0.75.
    assert row2.coeff_xt == pytest.approx(math.sqrt(0.5) / 1.5, rel=1e-15)
    assert row2.var == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_cumulative_products_match_sequential_products():
    sch = pc.linear_schedule(200, 1e-4, 0.05)
    running = 1.0
    for t in range(1, sch.T + 1):
        running *= 1.0 - float(sch.betas[t - 1])
        assert sch.coefficients(t).abar == pytest.approx(running, rel=1e-13)


def test_forward_sample_demands_model_units_and_matching_shapes():
    row = pc.linear_schedule(10).coefficients(1)
    with pytest.raises(pc.ShapeError):
        pc.forward_sample(row, np.zeros((4, 4)), np.zeros((4, 5)))


def test_estimate_x0_inverts_forward_sample():
    sch = pc.linear_schedule(100, 1e-4, 0.04)
    rng = np.random.default_rng(2)
    x0 = rng.uniform(-1, 1, (8, 8))
    for t in (1, 17, 50, 100):
        noise = rng.standard_normal((8, 8))
        row = sch.coefficients(t)
        rec = pc.x0_from_noise(row, pc.forward_sample(row, x0, noise), noise)
        assert np.allclose(rec, x0, atol=1e-12)


def test_forward_sample_moments_monte_carlo():
    """Mean sqrt(abar)*x0 and variance 1 - abar, to within 1%.

    1000 draws over a 20x20 grid is 4e5 samples; the variance estimator's
    relative standard error is sqrt(2/n) ~ 0.2%, so 1% is a 4-sigma band.
    """
    sch = pc.linear_schedule(100, 1e-4, 0.02)
    x0 = np.full((20, 20), 0.37)
    rng = np.random.default_rng(7)
    t = 60
    row = sch.coefficients(t)
    draws = np.stack([
        pc.forward_sample(row, x0, rng.standard_normal((20, 20))) for _ in range(1000)
    ]).ravel()
    abar = alpha_bars(sch)[t]
    assert draws.mean() == pytest.approx(math.sqrt(abar) * 0.37, rel=0.01)
    assert draws.var() == pytest.approx(1.0 - abar, rel=0.01)


def test_posterior_stats_match_quadrature():
    """Bayes by brute force: product of the two Gaussians, integrated on a grid."""
    sch = pc.linear_schedule(50, 1e-4, 0.05)
    x0v, xtv = 0.3, -0.7
    grid = np.linspace(-6, 6, 200001)
    bars = alpha_bars(sch)
    for t in (2, 10, 25, 50):
        beta = float(sch.betas[t - 1])
        ab_prev = bars[t - 1]
        logp = (
            -0.5 * (xtv - math.sqrt(1.0 - beta) * grid) ** 2 / beta
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
    assert sch.betas[0] == 1e-4
    assert sch.betas[-1] == 0.02
    bars = np.array([1.0] + [sch.coefficients(t).abar for t in range(1, 1001)])
    assert np.all(np.diff(bars) < 0)
    assert bars[0] == 1.0
    assert bars[-1] < 5e-5
    # every posterior variance is positive past t=1 and below its beta
    for t in (2, 100, 500, 1000):
        assert 0.0 < sch.coefficients(t).var < sch.betas[t - 1]


def _hand_built_schedule():
    """Uneven betas supplied directly; every coefficient derives from them."""
    return pc.NoiseSchedule(betas=np.array([0.3, 0.02, 0.25, 0.6, 0.05, 0.4]))


@pytest.mark.parametrize(
    "schedule",
    [pc.linear_schedule(1000), pc.linear_schedule(250, 1e-4, 0.06), _hand_built_schedule()],
    ids=["stock-1000", "synthetic-250", "hand-built"],
)
def test_coefficient_rows_equal_the_scalar_formulas_bitwise(schedule):
    """Each table entry is its scalar formula on the betas, to the bit, and
    the forward jump, the clean estimate and the posterior mean give the
    bits of those formulas."""
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, (3, 5))
    x_t = rng.standard_normal((3, 5))
    bars = alpha_bars(schedule)
    for t in range(1, schedule.T + 1):
        beta = float(schedule.betas[t - 1])
        alpha = 1.0 - beta
        abar, abar_prev = bars[t], bars[t - 1]
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
            noisy = pc.forward_sample(row, x0, x_t)
            assert np.array_equal(noisy, expected[1] * x0 + expected[2] * x_t)
            est = pc.x0_from_noise(row, x_t, x0)
            assert np.array_equal(est, (x_t - expected[2] * x0) / expected[1])
            mu = pc.posterior_mean(row, x0, x_t)
            assert np.array_equal(mu, expected[4] * x0 + expected[5] * x_t)


def test_coefficients_check_the_step_index():
    sch = pc.linear_schedule(10)
    for t in (0, 11, -3, 2.5):
        with pytest.raises(pc.StepRangeError):
            sch.coefficients(t)
