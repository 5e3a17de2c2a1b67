"""Synthetic field generation, planted blurs, and the mixture prior fit."""

import numpy as np
import pytest

import postcast as pc


def test_generation_is_deterministic_and_bounded():
    spec = pc.FieldSpec(height=24, width=32, seed=3)
    a = pc.generate_fields(spec, 5)
    b = pc.generate_fields(spec, 5)
    assert len(a) == 5
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
        assert fa.units == pc.DATA_UNITS
        assert fa.shape == (24, 32)
        assert fa.values.min() >= 0.0 and fa.values.max() <= 1.0


def test_generation_edge_counts():
    spec = pc.FieldSpec(height=8, width=8, seed=0)
    assert pc.generate_fields(spec, 0) == []
    with pytest.raises(pc.ParameterError):
        pc.generate_fields(spec, -1)


def test_field_spec_validation():
    with pytest.raises(pc.ParameterError):
        pc.FieldSpec(height=0)
    with pytest.raises(pc.ParameterError):
        pc.FieldSpec(cells_mean=-1.0)
    with pytest.raises(pc.ParameterError):
        pc.FieldSpec(background_noise=-0.1)


def test_different_seeds_give_different_fields():
    a = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=1), 1)[0]
    b = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=2), 1)[0]
    assert not np.array_equal(a.values, b.values)


def test_blur_kernels_are_normalized():
    from postcast.synthetic import gaussian_blur_kernel, motion_blur_kernel

    g = gaussian_blur_kernel(9, 2.0)
    m = motion_blur_kernel(9, 5.0, 0.7)
    for k in (g, m):
        assert k.shape == (9, 9)
        assert k.sum() == pytest.approx(1.0, rel=1e-12)
        assert k.min() >= 0.0
    # gaussian mass concentrates at the center, motion spreads along a line
    assert g[4, 4] == g.max()


def test_severity_zero_plants_the_identity():
    clean = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=3), 1)[0]
    pair = pc.plant_blur(clean, "gaussian", 0)
    assert np.array_equal(pair.blurry.values, clean.values)
    assert pair.kernel_true.params.sum() == 1.0
    assert pair.lead_index == 0


def test_planted_blur_grows_with_severity():
    """Higher severity smears more: high-frequency energy keeps falling."""
    clean = pc.generate_fields(pc.FieldSpec(height=32, width=32, seed=7), 1)[0]

    def roughness(f):
        return float(np.mean(np.abs(np.diff(f.values, axis=0))))

    rough = [roughness(pc.plant_blur(clean, "gaussian", s).blurry) for s in range(4)]
    assert all(a > b for a, b in zip(rough, rough[1:]))


def test_planted_pairs_stay_in_data_range():
    clean = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=9), 1)[0]
    for family in ("gaussian", "motion", "mixed"):
        pair = pc.plant_blur(clean, family, 3)
        assert pair.blurry.units == pc.DATA_UNITS
        assert pair.blurry.values.min() >= -1e-12
        assert pair.blurry.values.max() <= 1.0 + 1e-12
        assert pair.kernel_true.params.sum() == pytest.approx(1.0, rel=1e-12)


def test_plant_blur_validation():
    clean = pc.generate_fields(pc.FieldSpec(height=8, width=8, seed=0), 1)[0]
    with pytest.raises(pc.ParameterError):
        pc.plant_blur(clean, "boxcar", 1)
    with pytest.raises(pc.ParameterError):
        pc.plant_blur(clean, "gaussian", -1)
    with pytest.raises(pc.ParameterError):
        pc.plant_blur(clean, "gaussian", 1, size=4)


def test_known_kernel_deconvolution_recovers_sharpness():
    """Descending the reblur distance with the true kernel sharpens the field.

    500 steps cut the residual by orders of magnitude and roughly an order
    of magnitude of the clean-field error.
    """
    clean = pc.generate_fields(pc.FieldSpec(height=32, width=32, seed=11), 1)[0]
    pair = pc.plant_blur(clean, "gaussian", 2)
    x = pc.Field(pair.blurry.values.copy(), pc.DATA_UNITS)
    start_residual = pc.distance(pair.kernel_true, x, pair.blurry)
    start_err = float(np.mean((x.values - clean.values) ** 2))
    for _ in range(500):
        g = pc.grad_wrt_field(pair.kernel_true, x, pair.blurry)
        x = pc.Field(x.values - 200.0 * g.values, pc.DATA_UNITS)
    end_residual = pc.distance(pair.kernel_true, x, pair.blurry)
    end_err = float(np.mean((x.values - clean.values) ** 2))
    assert end_residual < 1e-3 * start_residual
    assert end_err < 0.2 * start_err


def test_gmm_fit_k1_matches_the_closed_form():
    """One component: EM reduces to the sample mean and pooled variance."""
    fields = pc.generate_fields(pc.FieldSpec(height=8, width=8, seed=5), 6)
    gmm = pc.fit_gmm_prior(fields, 1, iters=5, seed=0)
    stacked = np.stack([pc.to_model(f).values.ravel() for f in fields])
    assert gmm.weights[0] == 1.0
    assert np.allclose(gmm.means.reshape(-1), stacked.mean(axis=0), atol=1e-12)
    pooled_var = ((stacked - stacked.mean(axis=0)) ** 2).mean()
    assert gmm.sigmas[0] ** 2 == pytest.approx(pooled_var, abs=1e-12)


def test_gmm_fit_log_likelihood_is_non_decreasing():
    fields = pc.generate_fields(pc.FieldSpec(height=8, width=8, seed=6), 30)
    gmm, trace = pc.fit_gmm_prior(fields, 4, iters=30, seed=3, return_trace=True)
    assert len(trace) == 30
    diffs = np.diff(trace)
    assert np.all(diffs > -1e-7)
    assert gmm.weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(gmm.sigmas > 0)


def test_gmm_fit_accepts_model_unit_fields_too():
    fields = pc.generate_fields(pc.FieldSpec(height=8, width=8, seed=5), 6)
    from_data = pc.fit_gmm_prior(fields, 2, iters=5, seed=1)
    from_model = pc.fit_gmm_prior([pc.to_model(f) for f in fields], 2, iters=5, seed=1)
    assert np.array_equal(from_data.means, from_model.means)
    assert np.array_equal(from_data.sigmas, from_model.sigmas)


def test_gmm_fit_validation():
    fields = pc.generate_fields(pc.FieldSpec(height=8, width=8, seed=5), 3)
    with pytest.raises(pc.ParameterError):
        pc.fit_gmm_prior(fields, 0)
    with pytest.raises(pc.DataError):
        pc.fit_gmm_prior(fields, 5)


def test_gmm_fit_rejects_mixed_shapes():
    fields = pc.generate_fields(pc.FieldSpec(height=8, width=8, seed=5), 3)
    odd = pc.generate_fields(pc.FieldSpec(height=8, width=9, seed=6), 1)
    with pytest.raises(pc.ShapeError, match=r"field 2 has shape \(8, 9\)"):
        pc.fit_gmm_prior(fields[:2] + odd + fields[2:], 2)
