"""Blur convolution, its analytic gradients, and the adjoint.

The convolution is checked against a quadruple-loop reimplementation with
explicit index clamping.  The gradients against central finite differences
and the adjoint against the inner-product identity <Ku, v> = <u, K*v> are
acceptance criterion 2 (``test_acceptance.py``), which takes the adjoint from
the fused pass on a zero field.  The fused FFT reblur pass is checked against
the direct ``scipy.signal`` references in ``reference.py``, on such a zero
field too.  Bit for bit: the pass's batched transforms against one
transform per array, and its direct pocketfft helpers against the public
``scipy.fft`` functions.  Importing the package must not load
``scipy.signal`` or ``scipy.stats``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import fft

import postcast as pc
from postcast.kernel import (
    _edge_pad,
    _fold_margins,
    _irfft2,
    _rfft2,
    correlate2d_clamped,
    correlate2d_clamped_loss_and_grads,
)
from reference import (
    correlate2d_clamped_adjoint,
    correlate2d_clamped_weight_grad,
    moveaxis_fold,
)


def brute_force_correlate(values, weights):
    """Direct translation of the definition, replicate padding via clip."""
    h, w = values.shape
    n = weights.shape[0]
    c = n // 2
    out = np.zeros_like(values)
    for py in range(h):
        for px in range(w):
            acc = 0.0
            for qy in range(n):
                for qx in range(n):
                    sy = min(max(py + qy - c, 0), h - 1)
                    sx = min(max(px + qx - c, 0), w - 1)
                    acc += weights[qy, qx] * values[sy, sx]
            out[py, px] = acc
    return out


def test_kernel_shape_validation():
    with pytest.raises(pc.ShapeError):
        pc.BlurKernel(np.ones((3, 4)))
    with pytest.raises(pc.ShapeError):
        pc.BlurKernel(np.ones(3))
    with pytest.raises(pc.ParameterError):
        pc.BlurKernel(np.ones((4, 4)))
    with pytest.raises(pc.ParameterError):
        pc.init_kernel(6)
    with pytest.raises(pc.ParameterError):
        pc.init_kernel(5, std=-0.1)


def test_init_kernel_statistics_and_seeding():
    k1 = pc.init_kernel(9, 0.6, 0.1, seed=5)
    k2 = pc.init_kernel(9, 0.6, 0.1, seed=5)
    assert np.array_equal(k1.params, k2.params)
    assert k1.params.shape == (9, 9)
    assert k1.mean() == pytest.approx(0.6, abs=0.05)
    # a generator may be passed instead of a seed
    rng = np.random.default_rng(5)
    k3 = pc.init_kernel(9, 0.6, 0.1, rng)
    assert np.array_equal(k3.params, k1.params)


@pytest.mark.parametrize(
    "mean, std",
    [(0.6, math.nan), (math.inf, 0.1), (-math.inf, 0.1), (0.0, 1e308), (1.7e308, 1e307)],
)
def test_init_kernel_rejects_non_finite_settings(mean, std):
    """A NaN std or an infinite mean would give an all-NaN or all-inf kernel,
    and a finite but huge pair overflows some draws to inf."""
    with pytest.raises(pc.ParameterError):
        pc.init_kernel(9, mean, std)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda half: hnp.arrays(
            np.float64,
            (2 * half + 1, 2 * half + 1),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
)
@example(np.full((3, 3), 1.7e308))
@example(np.full((3, 3), -1.7e308))
@example(np.array([[-2.0, -2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]) * 4.5e307)
def test_kernel_mean_is_finite_for_any_finite_kernel(params):
    """Where numpy's own mean overflows (to inf, or to NaN when partial sums
    overflow with both signs), the kernel's mean is still finite;
    everywhere else it has numpy's bits."""
    mean = pc.BlurKernel(params).mean()
    assert math.isfinite(mean)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = float(params.mean())
    if math.isfinite(reference):
        assert mean.hex() == reference.hex()


def test_convolution_matches_brute_force_exactly():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 3 if seed % 2 == 0 else 5
        values = rng.standard_normal((7, 9))
        weights = rng.standard_normal((n, n))
        fast = correlate2d_clamped(values, weights)
        slow = brute_force_correlate(values, weights)
        assert np.allclose(fast, slow, atol=1e-12)


def test_convolve_preserves_units_and_shape():
    rng = np.random.default_rng(0)
    k = pc.BlurKernel(rng.random((3, 3)))
    f = pc.Field(rng.random((5, 6)), pc.MODEL_UNITS)
    out = pc.convolve(k, f)
    assert out.units == pc.MODEL_UNITS
    assert out.shape == f.shape


def test_convolution_is_linear_in_the_field():
    rng = np.random.default_rng(4)
    k = pc.BlurKernel(rng.standard_normal((5, 5)))
    u = rng.standard_normal((8, 8))
    v = rng.standard_normal((8, 8))
    lhs = correlate2d_clamped(2.5 * u - 1.25 * v, k.params)
    rhs = 2.5 * correlate2d_clamped(u, k.params) - 1.25 * correlate2d_clamped(v, k.params)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_identity_kernel_is_a_no_op():
    delta = np.zeros((5, 5))
    delta[2, 2] = 1.0
    rng = np.random.default_rng(9)
    values = rng.standard_normal((6, 11))
    assert np.array_equal(correlate2d_clamped(values, delta), values)


def test_distance_is_mean_squared_residual():
    rng = np.random.default_rng(2)
    k = pc.BlurKernel(rng.random((3, 3)))
    u = pc.Field(rng.random((6, 6)), pc.DATA_UNITS)
    y = pc.Field(rng.random((6, 6)), pc.DATA_UNITS)
    r = correlate2d_clamped(u.values, k.params) - y.values
    assert pc.reblur(k, u, y)[0] == pytest.approx(np.mean(r * r), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    half=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
    zero_field=st.booleans(),
)
@example(h=1, w=1, half=7, seed=0, zero_field=False)
@example(h=3, w=24, half=4, seed=1, zero_field=False)
@example(h=1, w=1, half=7, seed=0, zero_field=True)
def test_fused_reblur_matches_the_direct_primitives(h, w, half, seed, zero_field):
    """Loss and both gradients of the one-residual FFT pass, against the
    direct correlation, its adjoint and its weight gradient.

    Values are drawn in the model-unit range [-1, 1]; kernels up to 15x15
    include kernels wider than the field.  The fused adjoint also satisfies
    <K u2, g> = <u2, K* g> against the direct forward blur.  On a zero field
    the residual is -target to the bit, so the field gradient is the adjoint
    of g = (2 / P) * (0 - target): criterion 2 takes its adjoint from there.
    """
    n = 2 * half + 1
    rng = np.random.default_rng(seed)
    values, target, probe = rng.uniform(-1.0, 1.0, size=(3, h, w))
    if zero_field:
        values = np.zeros((h, w))
    weights = rng.uniform(-1.0, 1.0, size=(n, n))
    loss, grad_values, grad_weights = correlate2d_clamped_loss_and_grads(values, weights, target)
    r = correlate2d_clamped(values, weights) - target
    upstream = (2.0 / r.size) * r
    assert abs(loss - np.mean(r * r)) <= (0.0 if zero_field else 1e-12)
    assert np.abs(grad_values - correlate2d_clamped_adjoint(upstream, weights)).max() <= 1e-12
    assert np.abs(
        grad_weights - correlate2d_clamped_weight_grad(values, upstream, n)
    ).max() <= 1e-12
    lhs = float(np.sum(correlate2d_clamped(probe, weights) * upstream))
    rhs = float(np.sum(probe * grad_values))
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-8


def test_importing_the_package_loads_neither_scipy_signal_nor_scipy_stats():
    """A fresh interpreter, since this module's own imports load scipy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; import postcast; import postcast.cli; "
        "print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    c=st.integers(0, 7),
    channels=st.sampled_from([None, 1, 3, 8]),
    magnitude=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=64, w=64, c=4, channels=None, magnitude=0.0, seed=0)
@example(h=16, w=16, c=1, channels=8, magnitude=0.0, seed=0)
def test_slice_fold_equals_the_moveaxis_fold_bitwise(h, w, c, channels, magnitude, seed):
    """The adjoints fold their spread with slices over the last two axes; the
    margins must sum in the same order as the axis-generic fold, to the bit,
    for a 2-D canvas and a (channels, H, W) stack alike."""
    rng = np.random.default_rng(seed)
    lead = () if channels is None else (channels,)
    spread = 10.0**magnitude * rng.standard_normal(lead + (h + 2 * c, w + 2 * c))
    rows, cols = spread.ndim - 2, spread.ndim - 1
    expected = moveaxis_fold(moveaxis_fold(spread, c, h, axis=rows), c, w, axis=cols)
    assert np.array_equal(_fold_margins(spread, c, h, w), expected)


def one_transform_per_array(values, weights, target):
    """The fused reblur pass with each spectrum and each gradient product
    transformed on its own, as six separate 2-D transforms."""
    h, w = values.shape
    n = weights.shape[0]
    padded = np.pad(values, n // 2, mode="edge")
    canvas = padded.shape
    f_padded = fft.rfft2(padded)
    f_weights = fft.rfft2(weights, canvas)
    r = fft.irfft2(f_padded * np.conj(f_weights), canvas)[:h, :w] - target
    loss = float(np.mean(r * r))
    f_upstream = fft.rfft2((2.0 / r.size) * r, canvas)
    grad_weights = fft.irfft2(f_padded * np.conj(f_upstream), canvas)[:n, :n]
    spread = fft.irfft2(f_upstream * f_weights, canvas)
    c = n // 2
    folded = moveaxis_fold(moveaxis_fold(spread, c, h, axis=0), c, w, axis=1)
    return loss, folded, grad_weights


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    n=st.sampled_from([1, 3, 5, 9, 11]),
    magnitude=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=64, w=64, n=9, magnitude=0.0, seed=0)
def test_batched_transforms_equal_one_transform_per_array_bitwise(h, w, n, magnitude, seed):
    """The fused pass transforms the padded field with the kernel, and the
    two gradient products together, in batches of two; every output must
    keep the bits of one 2-D transform per array."""
    rng = np.random.default_rng(seed)
    values = 10.0**magnitude * rng.standard_normal((h, w))
    weights = rng.standard_normal((n, n))
    target = rng.standard_normal((h, w))
    loss, grad_values, grad_weights = correlate2d_clamped_loss_and_grads(values, weights, target)
    ref_loss, ref_values, ref_weights = one_transform_per_array(values, weights, target)
    assert loss == ref_loss
    assert np.array_equal(grad_values, ref_values)
    assert np.array_equal(grad_weights, ref_weights)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    n=st.sampled_from([1, 3, 5, 7, 9, 11]),
    batch=st.sampled_from([None, 1, 2, 3]),
    magnitude=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=64, w=64, n=9, batch=2, magnitude=0.0, seed=0)
@example(h=64, w=63, n=9, batch=None, magnitude=0.0, seed=0)
@example(h=1, w=1, n=1, batch=None, magnitude=0.0, seed=0)
@example(h=1, w=2, n=11, batch=3, magnitude=0.0, seed=0)
def test_pocketfft_helpers_equal_scipy_fft_bitwise(h, w, n, batch, magnitude, seed):
    """``_rfft2``/``_irfft2`` against ``scipy.fft.rfft2``/``irfft2`` on the
    fused pass's canvas (H + n - 1, W + n - 1), odd and even widths, 2-D
    and batched over a leading axis.  An array zero-extended onto the canvas
    must transform like ``rfft2(..., s=canvas)``, as the pass's scaled
    residual and kernel do."""
    rng = np.random.default_rng(seed)
    canvas = (h + n - 1, w + n - 1)
    lead = () if batch is None else (batch,)
    field = 10.0**magnitude * rng.standard_normal(lead + canvas)
    spectrum = fft.rfft2(field)
    assert same_bits(_rfft2(field), spectrum)
    small = rng.standard_normal(lead + (h, w))
    extended = np.zeros(lead + canvas)
    extended[..., :h, :w] = small
    assert same_bits(_rfft2(extended), fft.rfft2(small, canvas))
    product = spectrum * np.conj(fft.rfft2(extended))
    assert same_bits(_irfft2(product, canvas[1]), fft.irfft2(product, canvas))
    noise = rng.standard_normal(spectrum.shape) + 1j * rng.standard_normal(spectrum.shape)
    assert same_bits(_irfft2(noise, canvas[1]), fft.irfft2(noise, canvas))


@pytest.mark.parametrize("n", [1, 3, 5, 9])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (64, 64)])
@pytest.mark.parametrize("channels", [None, 1, 8])
def test_edge_pad_equals_numpy_edge_mode_bitwise(n, shape, channels):
    """The slice-assigned canvas, 2-D and (channels, H, W), including pads
    wider than the field."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(shape if channels is None else (channels,) + shape)
    c = n // 2
    widths = [(0, 0)] * (values.ndim - 2) + [(c, c), (c, c)]
    assert np.array_equal(_edge_pad(values, n), np.pad(values, widths, mode="edge"))


def test_reblur_wrappers_share_one_pass_and_check_units():
    """``reblur`` is the fused pass on fields, to the bit, and checks that
    the estimate and the target share a shape and a unit regime."""
    rng = np.random.default_rng(6)
    k = pc.BlurKernel(rng.random((5, 5)))
    u = pc.Field(rng.random((7, 9)), pc.MODEL_UNITS)
    y = pc.Field(rng.random((7, 9)), pc.MODEL_UNITS)
    loss, grad_x, grad_k = pc.reblur(k, u, y)
    expected = correlate2d_clamped_loss_and_grads(u.values, k.params, y.values)
    assert loss == expected[0]
    assert np.array_equal(grad_x.values, expected[1])
    assert grad_x.units == pc.MODEL_UNITS
    assert np.array_equal(grad_k, expected[2])
    with pytest.raises(pc.ParameterError, match="unit regime"):
        pc.reblur(k, u, pc.Field(y.values, pc.DATA_UNITS))
    with pytest.raises(pc.ShapeError):
        pc.reblur(k, u, pc.Field(rng.random((7, 8)), pc.MODEL_UNITS))


def test_gradient_descent_recovers_a_planted_kernel():
    """From a near-zero start, 2000 steps drive the reblur error below 2%.

    Model units, where the guided sampler also optimizes; the recovered
    kernel's sum should settle near the planted kernel's unit sum.
    """
    clean = pc.generate_fields(pc.FieldSpec(height=32, width=32, seed=11), 1)[0]
    pair = pc.plant_blur(clean, "gaussian", 2)
    x0 = pc.to_model(clean)
    y = pc.to_model(pair.blurry)
    k = pc.init_kernel(9, 0.01, 0.005, seed=4)
    before = pc.reblur(k, x0, y)[0]
    for _ in range(2000):
        k.params -= 0.005 * pc.reblur(k, x0, y)[2]
    after = pc.reblur(k, x0, y)[0]
    assert after < 0.02 * before
    assert after < 1e-4
    assert k.params.sum() == pytest.approx(1.0, abs=0.05)
