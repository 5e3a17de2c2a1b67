"""Synthetic field generation, planted blurs, and the mixture prior fit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import postcast as pc
import postcast.synthetic as synthetic
from postcast.synthetic import _kmeans
from reference import (
    em_iteration,
    first_occurrences_by_bytes,
    fit_gmm_every_iteration,
    generate_fields_loop,
    initial_mixture,
    kmeans_every_pass,
    motion_blur_kernel_loop,
    sq_distances_per_component,
)


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


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    cells_mean=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(height=1, width=40, cells_mean=12.0, seed=0)
@example(height=40, width=1, cells_mean=12.0, seed=1)
@example(height=17, width=3, cells_mean=0.0, seed=2)
def test_generation_equals_the_full_grid_loop_bitwise(height, width, cells_mean, seed):
    spec = pc.FieldSpec(height=height, width=width, cells_mean=cells_mean, seed=seed)
    got = pc.generate_fields(spec, 3)
    want = generate_fields_loop(spec, 3)
    assert [f.values.tobytes() for f in got] == [f.values.tobytes() for f in want]


def test_field_spec_validation():
    with pytest.raises(pc.ParameterError):
        pc.FieldSpec(height=0)
    with pytest.raises(pc.ParameterError):
        pc.FieldSpec(cells_mean=-1.0)


@pytest.mark.parametrize(
    "setting",
    [
        {"cells_mean": float("inf")},
        {"cells_mean": float("nan")},
        {"cells_mean": float("-inf")},
        {"seed": -1},
    ],
)
def test_field_spec_rejects_non_finite_texture_and_negative_seed(setting):
    """Each would end in numpy's own error or in all-1.0 grids."""
    with pytest.raises(pc.ParameterError):
        pc.FieldSpec(**setting)


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


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 15),
    length=st.floats(0.0, 30.0),
    angle=st.floats(-2 * np.pi, 2 * np.pi),
)
@example(size=9, length=5.0, angle=0.7)
@example(size=9, length=11.0, angle=np.radians(195.0))  # plant_blur's motion, severity 5
@example(size=1, length=0.0, angle=0.0)
@example(size=2, length=29.0, angle=np.pi / 2)
def test_motion_blur_kernel_equals_the_loop_reference_bitwise(size, length, angle):
    from postcast.synthetic import motion_blur_kernel

    got = motion_blur_kernel(size, length, angle)
    want = motion_blur_kernel_loop(size, length, angle)
    assert got.tobytes() == want.tobytes()


def test_severity_zero_plants_the_identity():
    clean = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=3), 1)[0]
    pair = pc.plant_blur(clean, "gaussian", 0)
    assert np.array_equal(pair.blurry.values, clean.values)
    assert pair.kernel_true.params.sum() == 1.0


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


def test_plant_blur_returns_independent_kernels_for_one_plan():
    """Pairs with one plan share a cached build, never a mutable kernel."""
    clean = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=4), 1)[0]
    first = pc.plant_blur(clean, "mixed", 3)
    second = pc.plant_blur(clean, "mixed", 3)
    want = second.kernel_true.params.copy()
    assert first.kernel_true.params is not second.kernel_true.params
    assert first.kernel_true.params.tobytes() == want.tobytes()
    first.kernel_true.params *= 2.0
    first.kernel_true.params[0, 0] = 7.0
    third = pc.plant_blur(clean, "mixed", 3)
    assert second.kernel_true.params.tobytes() == want.tobytes()
    assert third.kernel_true.params.tobytes() == want.tobytes()
    assert third.blurry.values.tobytes() == second.blurry.values.tobytes()


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
    start_residual = pc.reblur(pair.kernel_true, x, pair.blurry)[0]
    start_err = float(np.mean((x.values - clean.values) ** 2))
    for _ in range(500):
        g = pc.reblur(pair.kernel_true, x, pair.blurry)[1]
        x = pc.Field(x.values - 200.0 * g.values, pc.DATA_UNITS)
    end_residual = pc.reblur(pair.kernel_true, x, pair.blurry)[0]
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


def _broadcast_kmeans(x, k, seed):
    """k-means with every distance taken from an (n, k, d) broadcast of the
    differences: the direct form of the GEMM-form k-means.

    Returns the labels and whether some assignment was a near tie: a field
    whose nearest center beats another, different center by less than
    1e-9 d, where rounding (of either form) decides the label.  That happens
    only when repeated fields put two centers within a few ulps of each
    other.
    """
    n, d = x.shape
    rng = np.random.default_rng(seed)
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    tied = False
    for _ in range(10):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        same = (centers[labels][:, None, :] == centers[None, :, :]).all(axis=2)
        gaps = np.where(same, np.inf, d2 - d2[np.arange(n), labels][:, None])
        tied = tied or bool(gaps.min() <= 1e-9 * d)
        for i in range(k):
            members = x[labels == i]
            if len(members):
                centers[i] = members.mean(axis=0)
    return labels, tied


def _broadcast_em_step(x, weights, means, variances):
    """One EM iteration with every distance taken from an (n, k, d)
    broadcast; returns the entering log-likelihood and the new weights,
    means and variances."""
    n, d = x.shape
    sq = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    log_p = (
        np.log(weights)[None, :]
        - 0.5 * d * np.log(2.0 * np.pi * variances)[None, :]
        - sq / (2.0 * variances)[None, :]
    )
    norm = np.logaddexp.reduce(log_p, axis=1)
    resp = np.exp(log_p - norm[:, None])
    total = resp.sum(axis=0)
    means = (resp.T @ x) / total[:, None]
    sq = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    variances = np.maximum((resp * sq).sum(axis=0) / (d * total), 1e-8)
    return float(norm.sum()), total / n, means, variances


def _assert_close(actual, expected, rel=1e-10):
    """Within ``rel`` of the largest magnitude in ``expected``."""
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(np.asarray(actual) - expected).max()) <= rel * scale


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 6),
    extra=st.integers(0, 34),
    repeats=st.integers(0, 40),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    iters=st.integers(1, 8),
    model_units=st.booleans(),
    data_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
@example(k=1, extra=0, repeats=0, h=1, w=9, iters=1, model_units=False, data_seed=1, seed=0)
@example(k=3, extra=2, repeats=5, h=8, w=8, iters=8, model_units=False, data_seed=1, seed=0)
@example(k=5, extra=25, repeats=14, h=4, w=9, iters=8, model_units=False, data_seed=0, seed=0)
@example(k=4, extra=1, repeats=0, h=7, w=5, iters=8, model_units=False, data_seed=5017, seed=0)
@example(k=6, extra=20, repeats=21, h=6, w=10, iters=1, model_units=False, data_seed=10, seed=5207)
@example(k=6, extra=9, repeats=4, h=2, w=9, iters=5, model_units=False, data_seed=196, seed=528)
@example(k=6, extra=34, repeats=0, h=12, w=12, iters=8, model_units=True, data_seed=2, seed=3)
# A component collapses (minimum variance 2.1e-3 -> 3.0e-5), and EM
# amplifies rounding: two fits iterated apart differ by 2.3e-10 in the
# weights at iteration 5, while each step agrees to 1e-12 or better.
@example(k=4, extra=32, repeats=0, h=10, w=8, iters=5, model_units=False, data_seed=951, seed=8)
def test_gmm_fit_matches_the_broadcast_reference(
    k, extra, repeats, h, w, iters, model_units, data_seed, seed
):
    """n = k + extra fields, of which the last ``repeats`` (at most n - 1)
    copy earlier ones, so duplicated fields, repeated centers and one-member
    clusters occur.  The GEMM-form k-means gives the broadcast reference's
    labels, and each GEMM-form EM iteration gives, to 1e-10 relative, the
    log-likelihood, weights, means and sigmas of one broadcast iteration
    from the same mixture.  The check is per iteration because EM amplifies
    rounding: two fits iterated apart can part by more than 1e-10 while
    every step agrees.  The GEMM-form iterations are those of the
    every-iteration reference, which the package's fit equals bit for bit
    (checked here on the final means and the trace too).  Where the
    broadcast k-means met a near tie, the label is rounding's choice, so
    only the label check is skipped.  Where a component's responsibilities
    all underflow, the fit raises a DataError that names the component."""
    n = k + extra
    repeats = min(repeats, n - 1)
    unique = pc.generate_fields(pc.FieldSpec(height=h, width=w, seed=data_seed), n - repeats)
    fields = unique + [unique[i % len(unique)] for i in range(repeats)]
    if model_units:
        fields = [pc.to_model(f) for f in fields]
    x = np.stack([(f if model_units else pc.to_model(f)).values.ravel() for f in fields])
    x2 = np.einsum("ij,ij->i", x, x)
    rng = np.random.default_rng(seed)
    labels = kmeans_every_pass(x, x2, k, rng)
    state = initial_mixture(x, labels, k, rng)
    steps = []
    try:
        for it in range(iters):
            loglik, *next_state = em_iteration(x, x2, *state, it)
            steps.append((state, loglik, next_state))
            state = next_state
    except pc.DataError:
        with pytest.raises(pc.DataError, match=r"component \d+ lost every field at EM"
                           r" iteration \d+ .*try a smaller k"):
            pc.fit_gmm_prior(fields, k, iters=iters, seed=seed)
        return
    gmm, gemm_trace = pc.fit_gmm_prior(fields, k, iters=iters, seed=seed, return_trace=True)
    assert len(gemm_trace) == iters and np.all(np.isfinite(gemm_trace))
    assert gmm.weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(gmm.sigmas > 0)
    assert _bits(gmm.means.reshape(k, -1)) == _bits(state[1])
    assert _bits(gemm_trace) == _bits([loglik for _, loglik, _ in steps])
    for entering, loglik, (weights, means, variances) in steps:
        expected = _broadcast_em_step(x, *entering)
        _assert_close(loglik, expected[0])
        _assert_close(weights, expected[1])
        _assert_close(means, expected[2])
        _assert_close(np.sqrt(variances), np.sqrt(expected[3]))
    broadcast_labels, tied = _broadcast_kmeans(x, k, seed)
    event("near tie in k-means" if tied else "well-separated k-means")
    if not tied:
        assert np.array_equal(_kmeans(x, x2, k, np.random.default_rng(seed)), broadcast_labels)


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(1, 6),
    extra=st.integers(0, 34),
    repeats=st.integers(0, 40),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    iters=st.integers(1, 40),
    kmeans_iters=st.integers(0, 12),
    data_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
@example(k=1, extra=0, repeats=0, h=1, w=1, iters=40, kmeans_iters=0, data_seed=0, seed=0)
@example(k=6, extra=20, repeats=21, h=6, w=10, iters=40, kmeans_iters=3, data_seed=10, seed=5207)
@example(k=5, extra=25, repeats=14, h=4, w=9, iters=30, kmeans_iters=12, data_seed=0, seed=0)
@example(k=6, extra=34, repeats=40, h=12, w=12, iters=40, kmeans_iters=10, data_seed=2, seed=3)
@example(k=6, extra=9, repeats=4, h=2, w=9, iters=40, kmeans_iters=10, data_seed=196, seed=528)
def test_gmm_fit_equals_the_every_iteration_reference_bitwise(
    k, extra, repeats, h, w, iters, kmeans_iters, data_seed, seed
):
    """The fixed-point exits change no bit: the k-means labels (for any
    number of passes, none included), the mixture and the EM trace equal
    those of running every pass and every iteration.  n = k + extra fields,
    the last ``repeats`` (at most n - 1) copying earlier ones, so duplicated
    fields, repeated centers and one-member clusters occur, and ``iters``
    reaches far enough for the exits to land mid-run.  An emptied component
    raises the same DataError in both."""
    n = k + extra
    repeats = min(repeats, n - 1)
    unique = pc.generate_fields(pc.FieldSpec(height=h, width=w, seed=data_seed), n - repeats)
    fields = unique + [unique[i % len(unique)] for i in range(repeats)]
    x = np.stack([pc.to_model(f).values.ravel() for f in fields])
    x2 = np.einsum("ij,ij->i", x, x)
    labels = _kmeans(x, x2, k, np.random.default_rng(seed), iters=kmeans_iters)
    expected = kmeans_every_pass(x, x2, k, np.random.default_rng(seed), iters=kmeans_iters)
    assert labels.tobytes() == expected.tobytes()
    try:
        expected = fit_gmm_every_iteration(x, k, iters, seed)
    except pc.DataError as exc:
        with pytest.raises(pc.DataError) as raised:
            pc.fit_gmm_prior(fields, k, iters=iters, seed=seed)
        assert str(raised.value) == str(exc)
        event("emptied component")
        return
    gmm, trace = pc.fit_gmm_prior(fields, k, iters=iters, seed=seed, return_trace=True)
    labels_ref, weights, means, sigmas, trace_ref = expected
    assert _kmeans(x, x2, k, np.random.default_rng(seed)).tobytes() == labels_ref.tobytes()
    assert _bits(gmm.weights) == _bits(weights)
    assert _bits(gmm.means.reshape(k, -1)) == _bits(means)
    assert _bits(gmm.sigmas) == _bits(sigmas)
    assert _bits(trace) == _bits(trace_ref)
    event("EM repeats its last value" if iters > 1 and trace[-1] == trace[-2] else "EM moving")


def test_fixed_point_exits_keep_a_readme_scale_fit_to_few_distance_calls(monkeypatch):
    """32 fields of 64x64 with k=16: running every k-means pass and EM
    iteration takes 110 distance calls, stopping at both fixed points 6, and
    losing only the k-means exit 14.  Losing either exit fails here rather
    than silently costing time."""
    calls = []
    sq_distances = synthetic._sq_distances

    def counted(*args):
        calls.append(1)
        return sq_distances(*args)

    monkeypatch.setattr(synthetic, "_sq_distances", counted)
    pc.fit_gmm_prior(pc.generate_fields(pc.FieldSpec(seed=0), 32), 16, seed=0)
    assert 0 < len(calls) <= 12


def test_gmm_fit_never_builds_a_fields_by_components_by_pixels_array():
    """64 fields of 32x32 with k=8: a broadcast of the differences alone
    would take n * k * d * 8 bytes, more than the whole fit's peak.  That
    holds too when 48 of the fields are rainless, hence identical: several
    k-means centers are then dry, every dry field is near every dry center,
    and taking all near pairs again in one gather would build most of that
    broadcast (5.1 MB against 4.2 MB)."""
    n, k, d = 64, 8, 32 * 32
    for dry in (0, 48):
        fields = pc.generate_fields(pc.FieldSpec(height=32, width=32, seed=3), n - dry)
        fields += [pc.Field(np.zeros((32, 32)))] * dry
        tracemalloc.start()
        try:
            pc.fit_gmm_prior(fields, k, iters=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * d * 8, f"{dry} dry fields"


_MEAN_KINDS = ("field", "earlier mean", "same first word", "+0.0", "-0.0", "+0.0 then -0.0",
               "dry", "near a field")


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 24),
    dry=st.integers(0, 24),
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    kinds=st.lists(st.sampled_from(_MEAN_KINDS), min_size=1, max_size=16),
    seed=st.integers(0, 2**16),
)
@example(n=1, dry=6, h=4, w=4, kinds=["dry"] * 16, seed=0)
@example(n=8, dry=0, h=3, w=5, kinds=["+0.0", "-0.0", "+0.0", "-0.0"], seed=1)
@example(n=8, dry=2, h=1, w=1, kinds=["field", "same first word", "+0.0", "-0.0"], seed=2)
@example(n=3, dry=0, h=2, w=3, kinds=["+0.0", "+0.0 then -0.0", "-0.0"], seed=5)
@example(n=12, dry=4, h=8, w=8, kinds=["field", "same first word"] * 8, seed=3)
def test_sq_distances_equal_the_per_component_reference_bitwise(n, dry, h, w, kinds, seed):
    """The one-gather recompute of near pairs and the first-word index of
    repeated means give the bits and the memory layout of the
    per-component loop with its bytes-keyed index, for any mix of means:
    copies of fields and of earlier means, rows that share a first word
    with another but differ later, +0.0 and -0.0 rows and a +0.0 row with
    -0.0 after its first word (equal as floats, different as bits), dry
    rows, and rows a hair from a field; the fields
    include dry (all -1) rows too, and up to all of them are dry."""
    rng = np.random.default_rng(seed)
    fields = pc.generate_fields(pc.FieldSpec(height=h, width=w, seed=seed), n)
    x = np.stack([pc.to_model(f).values.ravel() for f in fields] + [np.full(h * w, -1.0)] * dry)
    means = []
    for kind in kinds:
        row = x[rng.integers(len(x))].copy()
        if kind == "earlier mean" and means:
            row = means[rng.integers(len(means))].copy()
        elif kind == "same first word" and row.size > 1:
            j = rng.integers(1, row.size)
            row[j] = np.nextafter(row[j], np.inf)
        elif kind in ("+0.0", "-0.0"):
            row = np.full(row.size, float(kind))
        elif kind == "+0.0 then -0.0":
            row = np.full(row.size, -0.0)
            row[0] = 0.0
        elif kind == "dry":
            row = np.full(row.size, -1.0)
        elif kind == "near a field":
            row += 1e-9 * rng.standard_normal(row.size)
        means.append(row)
    means = np.stack(means)
    x2 = np.einsum("ij,ij->i", x, x)
    sq = synthetic._sq_distances(x, x2, means)
    expected = sq_distances_per_component(x, x2, means)
    assert sq.tobytes() == expected.tobytes()
    assert sq.flags.f_contiguous == expected.flags.f_contiguous


def test_repeated_means_are_found_by_their_bits():
    """The index of repeated means is the bytes-keyed one: rows equal as
    floats but not as bits (+0.0 against -0.0, also past the first word)
    stay apart, though their distance columns are equal; rows that share a
    first word are told apart by the rest; a copy maps to the first row it
    copies."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    b[0] = a[0]
    zero_then_negative = np.full(6, -0.0)
    zero_then_negative[0] = 0.0
    means = np.stack([a, np.zeros(6), b, np.full(6, -0.0), zero_then_negative, a, b,
                      np.zeros(6), zero_then_negative])
    expected = [0, 1, 2, 3, 4, 0, 2, 1, 4]
    assert first_occurrences_by_bytes(means) == expected
    assert synthetic._first_occurrences(means).tolist() == expected


def test_near_pairs_are_taken_again_in_chunks_no_larger_than_the_fields():
    """64 identical dry fields of 32x32 against 16 distinct means a few ulps
    from them: all 1024 pairs are near, and one gather of them would build
    two (1024, 1024) arrays, 16 MB.  In chunks of at most n pairs, at most
    two temporaries the size of the fields live at once."""
    n, k, d = 64, 16, 32 * 32
    x = np.full((n, d), -1.0)
    means = np.full((k, d), -1.0)
    means[np.arange(k), np.arange(k)] = np.nextafter(-1.0, 0.0)
    x2 = np.einsum("ij,ij->i", x, x)
    tracemalloc.start()
    try:
        sq = synthetic._sq_distances(x, x2, means)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sq.tobytes() == sq_distances_per_component(x, x2, means).tobytes()
    assert peak < 3 * x.nbytes


def test_gmm_fit_converts_each_data_unit_field_as_to_model_does():
    """A list mixing data- and model-unit fields fits the bits of the same
    list with every data-unit field passed through to_model first, for
    values far outside [0, 1] as well as inside it."""
    rng = np.random.default_rng(4)
    values = [rng.uniform(0.0, 1.0, (5, 6)), rng.standard_normal((5, 6)) * 1e-12,
              rng.standard_normal((5, 6)) * 1e3, rng.uniform(-1.0, 1.0, (5, 6)),
              np.full((5, 6), -0.0), rng.uniform(0.0, 1.0, (5, 6))]
    units = [pc.DATA_UNITS, pc.DATA_UNITS, pc.MODEL_UNITS, pc.MODEL_UNITS, pc.DATA_UNITS,
             pc.DATA_UNITS]
    fields = [pc.Field(v, u) for v, u in zip(values, units)]
    converted = [pc.to_model(f) if f.units == pc.DATA_UNITS else f for f in fields]
    for k in (1, 3):
        gmm, trace = pc.fit_gmm_prior(fields, k, iters=4, seed=2, return_trace=True)
        expected, expected_trace = pc.fit_gmm_prior(converted, k, iters=4, seed=2,
                                                    return_trace=True)
        assert _bits(gmm.weights) == _bits(expected.weights)
        assert _bits(gmm.means) == _bits(expected.means)
        assert _bits(gmm.sigmas) == _bits(expected.sigmas)
        assert _bits(trace) == _bits(expected_trace)


def test_gmm_fit_rejects_a_data_value_that_overflows_in_model_units():
    """2 v - 1 overflows to inf for a data-unit value of 1e308: the fit
    raises NumericError, not numpy's overflow warning, also when warnings
    are errors."""
    fields = pc.generate_fields(pc.FieldSpec(height=4, width=4, seed=1), 3)
    values = np.full((4, 4), 0.5)
    values[1, 2] = 1e308
    with pytest.raises(pc.NumericError):
        pc.fit_gmm_prior(fields + [pc.Field(values)], 2)
