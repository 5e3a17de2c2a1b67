"""Analytic mixture denoiser, the small conv net, and their serialization.

The mixture denoiser has closed forms to pin down exactly; the conv net is
checked by finite differences, against a per-channel reference built from
the single-channel correlation and the direct references in
``reference.py``, and by its training loss actually falling.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

import postcast as pc
import postcast.denoisers as denoisers
from postcast.denoisers import (
    CONV_SHAPES,
    N_PARAMS,
    ConvDenoiser,
    GaussianMixtureModel,
    _logsumexp,
    _views,
    denoiser_loss_and_grads,
)
from reference import (
    alpha_bars,
    correlate_channels_adjoint_loop,
    correlate_channels_loop,
    correlate_channels_weight_grad_loop,
)


def standard_prior(shape=(4, 4)):
    """Single zero-mean unit-variance component."""
    return GaussianMixtureModel(
        weights=np.array([1.0]),
        means=np.zeros((1,) + shape),
        sigmas=np.array([1.0]),
    )


def test_standard_prior_posterior_mean_is_a_shrink():
    """With m = 0, sigma = 1: E[x0 | x_t] = sqrt(abar) x_t exactly."""
    sch = pc.linear_schedule(50, 1e-4, 0.05)
    rng = np.random.default_rng(0)
    gmm = standard_prior()
    for t in (1, 10, 50):
        x_t = rng.standard_normal((4, 4))
        post = gmm.expected_x0(x_t, sch.coefficients(t))
        expected = np.sqrt(alpha_bars(sch)[t]) * x_t
        assert np.allclose(post, expected, atol=1e-12)


def test_standard_prior_noise_prediction_closed_form():
    """The implied noise estimate is sqrt(1 - abar) x_t."""
    sch = pc.linear_schedule(50, 1e-4, 0.05)
    rng = np.random.default_rng(1)
    gmm = standard_prior()
    for t in (1, 25, 50):
        x_t = rng.standard_normal((4, 4))
        eps = gmm.predict_noise(x_t, t, sch)
        expected = np.sqrt(1.0 - alpha_bars(sch)[t]) * x_t
        assert np.allclose(eps, expected, atol=1e-12)
    with pytest.raises(pc.StepRangeError):
        gmm.predict_noise(x_t, 0, sch)


def test_near_delta_prior_pulls_to_its_mean():
    """A tiny-variance component dominates the posterior regardless of x_t."""
    sch = pc.linear_schedule(50, 1e-4, 0.05)
    mean = np.full((4, 4), 0.3)
    gmm = GaussianMixtureModel(
        weights=np.array([1.0]), means=mean[None], sigmas=np.array([1e-6])
    )
    post = gmm.expected_x0(np.full((4, 4), -5.0), sch.coefficients(40))
    assert np.allclose(post, mean, atol=1e-3)


def test_responsibilities_pick_the_nearest_component():
    sch = pc.linear_schedule(50, 1e-4, 0.02)
    means = np.stack([np.full((3, 3), -0.8), np.full((3, 3), 0.8)])
    gmm = GaussianMixtureModel(
        weights=np.array([0.5, 0.5]), means=means, sigmas=np.array([0.05, 0.05])
    )
    post = gmm.expected_x0(np.full((3, 3), 0.78), sch.coefficients(1))
    assert np.allclose(post, 0.8, atol=0.03)


def test_posterior_mean_matches_the_broadcast_form():
    """The GEMV expansion of the distances agrees with the direct form,
    which builds the k x H x W differences, at t = 1, T/2 and T."""
    fields = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=8), 40)
    gmm = pc.fit_gmm_prior(fields, 6, iters=10, seed=2)
    sch = pc.linear_schedule(250, 1e-4, 0.02)
    rng = np.random.default_rng(3)
    worst = 0.0
    bars = alpha_bars(sch)
    for t in (1, sch.T // 2, sch.T):
        abar = bars[t]
        root_abar = np.sqrt(abar)
        variances = abar * gmm.sigmas**2 + (1.0 - abar)
        shrink = root_abar * gmm.sigmas**2 / variances
        for clean in fields[:10]:
            noise = rng.standard_normal(clean.shape)
            x = root_abar * pc.to_model(clean).values + np.sqrt(1.0 - abar) * noise
            sq = np.sum((x[None] - root_abar * gmm.means) ** 2, axis=(1, 2))
            log_r = (
                np.log(gmm.weights)
                - 0.5 * x.size * np.log(2.0 * np.pi * variances)
                - sq / (2.0 * variances)
            )
            resp = np.exp(log_r - logsumexp(log_r))
            comp = gmm.means + shrink[:, None, None] * (x[None] - root_abar * gmm.means)
            direct = np.tensordot(resp, comp, axes=1)
            fast = gmm.expected_x0(x, sch.coefficients(t))
            worst = max(worst, np.abs(fast - direct).max())
    assert worst <= 1e-10


def test_gmm_posterior_mean_validates_inputs():
    sch = pc.linear_schedule(10)
    gmm = standard_prior((4, 4))
    with pytest.raises(pc.ShapeError):
        gmm.expected_x0(np.zeros((5, 5)), sch.coefficients(1))
    with pytest.raises(pc.ShapeError):
        gmm.predict_noise(np.zeros((5, 5)), 1, sch)


def layers_of(vector):
    """(weights, bias, time_bias) per layer of ``CONV_SHAPES``: views of a
    parameter or gradient vector."""
    views = _views(vector)
    return [tuple(views[3 * li : 3 * li + 3]) for li in range(len(CONV_SHAPES))]


def test_conv_denoiser_gradients_match_finite_differences():
    """Probe weight, bias, and time-bias entries in every layer; h = 1e-4."""
    net = pc.init_conv_denoiser(seed=0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 8))
    target = rng.standard_normal((8, 8))
    _, grad = denoiser_loss_and_grads(net, x, 0.4, target)
    assert grad.shape == (N_PARAMS,)
    grads = layers_of(grad)
    h = 1e-4
    for li, (w, bias, time_bias) in enumerate(layers_of(net.params)):
        probes = [(0, 0, 0, 0), (w.shape[0] - 1, w.shape[1] - 1, 1, 2)]
        for idx in probes:
            orig = w[idx]
            w[idx] = orig + h
            up, _ = denoiser_loss_and_grads(net, x, 0.4, target)
            w[idx] = orig - h
            down, _ = denoiser_loss_and_grads(net, x, 0.4, target)
            w[idx] = orig
            fd = (up - down) / (2 * h)
            assert grads[li][0][idx] == pytest.approx(fd, rel=1e-3, abs=1e-10)
        for which, arr in ((1, bias), (2, time_bias)):
            orig = arr[0]
            arr[0] = orig + h
            up, _ = denoiser_loss_and_grads(net, x, 0.4, target)
            arr[0] = orig - h
            down, _ = denoiser_loss_and_grads(net, x, 0.4, target)
            arr[0] = orig
            fd = (up - down) / (2 * h)
            assert grads[li][which][0] == pytest.approx(fd, rel=1e-3, abs=1e-10)


def per_channel_loss_and_grads(net, x, t_frac, target):
    """The conv net one (out, in) channel pair at a time, on the
    single-channel primitives; returns (output, loss, per-layer grads)."""
    layers = layers_of(net.params)
    h = x[None]
    cache = []
    for li, (weights, bias, time_bias) in enumerate(layers):
        shift = bias + t_frac * time_bias
        z = correlate_channels_loop(h, weights) + shift[:, None, None]
        last = li == len(layers) - 1
        out = z if last else np.tanh(z)
        cache.append((h, out, last))
        h = out
    r = h[0] - target
    dh = ((2.0 / r.size) * r)[None]
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        weights = layers[li][0]
        h_in, h_out, last = cache[li]
        dz = dh if last else dh * (1.0 - h_out**2)
        dw = correlate_channels_weight_grad_loop(h_in, dz, weights.shape[2])
        dh = correlate_channels_adjoint_loop(dz, weights)
        db = dz.sum(axis=(1, 2))
        grads[li] = (dw, db, t_frac * db)
    return h[0], float(np.mean(r * r)), grads


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 16), w=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
@example(h=1, w=2, seed=1)
@example(h=64, w=64, seed=2)
def test_conv_net_matches_the_per_channel_reference(h, w, seed):
    """Output, loss and every parameter gradient of the shipped net, whose
    1 -> 8 layer runs on the patch matrix and whose 8 -> 1 layer on the
    tap images, against the per-(out, in)-channel loop, to 1e-12."""
    net = pc.init_conv_denoiser(seed=seed)
    rng = np.random.default_rng(seed)
    x, target = rng.standard_normal((2, h, w))
    t_frac = rng.uniform()
    ref_out, ref_loss, ref_grads = per_channel_loss_and_grads(net, x, t_frac, target)
    out = net.forward(x, t_frac)[0]
    assert np.abs(out - ref_out).max() <= 1e-12
    loss, grad = denoiser_loss_and_grads(net, x, t_frac, target)
    assert abs(loss - ref_loss) <= 1e-12
    for g, ref in zip(layers_of(grad), ref_grads):
        for got, want in zip(g, ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12


def test_the_backward_reuses_what_the_forward_built(monkeypatch):
    """One loss-and-gradients call builds one patch matrix and one tap
    stack; one noise prediction builds one patch matrix and no tap stack."""
    counts = {"_patch_matrix": 0, "_tap_stack": 0}
    for name in counts:
        def counted(*args, _name=name, _build=getattr(denoisers, name)):
            counts[_name] += 1
            return _build(*args)
        monkeypatch.setattr(denoisers, name, counted)
    net = pc.init_conv_denoiser(seed=0)
    x, target = np.random.default_rng(0).standard_normal((2, 8, 8))
    denoiser_loss_and_grads(net, x, 0.5, target)
    assert counts == {"_patch_matrix": 1, "_tap_stack": 1}
    net.predict_noise(x, 3, pc.linear_schedule(10))
    assert counts == {"_patch_matrix": 2, "_tap_stack": 1}


def test_conv_denoiser_validates_its_parameter_vector():
    """Only one finite vector of ``N_PARAMS`` values, the net of
    ``CONV_SHAPES``, makes a net."""
    good = pc.init_conv_denoiser(seed=0).params
    with pytest.raises(pc.ShapeError, match=r"must have shape \(162,\)"):
        ConvDenoiser(good[:-1])  # one value short
    with pytest.raises(pc.ShapeError, match="CONV_SHAPES"):
        ConvDenoiser(good.reshape(2, -1))  # the right count, but 2-D
    with pytest.raises(pc.ParameterError, match="finite"):
        ConvDenoiser(np.where(np.arange(N_PARAMS) == 100, np.nan, good))
    ConvDenoiser(good)


def test_training_reduces_the_noise_matching_loss():
    fields = pc.generate_fields(pc.FieldSpec(height=16, width=16, seed=21), 16)
    model_fields = [pc.to_model(f) for f in fields]
    sch = pc.linear_schedule(40, 1e-4, 0.05)
    net, trace = pc.train_conv_denoiser(model_fields, sch, pc.TrainConfig(epochs=8, seed=0))
    assert len(trace) == 8
    assert trace[-1] < 0.75 * trace[0]
    assert net.params.shape == (N_PARAMS,)


def test_training_rejects_empty_and_misunit_datasets():
    sch = pc.linear_schedule(10)
    with pytest.raises(pc.DataError):
        pc.train_conv_denoiser([], sch)
    data_field = pc.Field(np.zeros((4, 4)), pc.DATA_UNITS)
    with pytest.raises(pc.UnitsError):
        pc.train_conv_denoiser([data_field], sch)


def test_denoiser_blob_round_trip_is_float32_faithful(tmp_path):
    """Parameters are stored as f32; a second trip is bitwise stable."""
    net = pc.init_conv_denoiser(seed=7)
    p1 = tmp_path / "net.pcdn"
    pc.save_denoiser(p1, net)
    loaded = pc.load_denoiser(p1)
    assert loaded.params.dtype == np.float64
    assert np.array_equal(loaded.params, net.params.astype(np.float32).astype(np.float64))
    p2 = tmp_path / "net2.pcdn"
    pc.save_denoiser(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    again = pc.load_denoiser(p2)
    sch = pc.linear_schedule(10)
    x = np.linspace(-1, 1, 16).reshape(4, 4)
    assert np.array_equal(again.predict_noise(x, 5, sch), loaded.predict_noise(x, 5, sch))


def test_denoiser_blob_rejects_parameters_float32_cannot_hold(tmp_path):
    """Checked before the file is opened: a weight of 1e39 would load as inf."""
    net = pc.init_conv_denoiser(seed=7)
    layers_of(net.params)[1][0][0, 2, 1, 1] = 1e39
    path = tmp_path / "net.pcdn"
    with pytest.raises(pc.NumericError, match="layer 1: weights"):
        pc.save_denoiser(path, net)
    assert not path.exists()


def test_denoiser_blob_layout_is_fixed():
    """The whole .pcdn, assembled by hand: magic, version 1, 2 layers, then
    per layer its (c_out, c_in, k) header and float32 weights, bias and time
    bias, as init_conv_denoiser draws them (weights, then time bias)."""
    rng = np.random.default_rng(0)
    first_w, first_tb = rng.normal(0.0, 1 / 3, 72), rng.normal(0.0, 0.1, 8)
    last_w, last_tb = rng.normal(0.0, 1 / np.sqrt(72), 72), rng.normal(0.0, 0.1, 1)
    want = (
        b"PCDN" + struct.pack("<II", 1, 2)
        + struct.pack("<III", 8, 1, 3) + struct.pack("<88f", *first_w, *[0.0] * 8, *first_tb)
        + struct.pack("<III", 1, 8, 3) + struct.pack("<74f", *last_w, 0.0, *last_tb)
    )
    assert len(want) == 684
    assert denoisers.denoiser_bytes(pc.init_conv_denoiser(seed=0)) == want


@pytest.mark.parametrize(
    "offset, word",
    [(8, 3), (12, 2), (16, 2), (20, 5), (12 + 12 + 4 * 88, 8), (12 + 12 + 4 * 88 + 4, 1)],
    ids=["three-layers", "first-c-out", "first-c-in", "first-k", "last-c-out", "last-c-in"],
)
def test_denoiser_blob_of_the_right_size_with_a_wrong_header_is_a_shape_error(
    tmp_path, offset, word
):
    """684 bytes, but a layer count or layer header that is not the net of
    CONV_SHAPES: the loader computes nothing from it and names the shapes."""
    blob = bytearray(denoisers.denoiser_bytes(pc.init_conv_denoiser(seed=0)))
    blob[offset : offset + 4] = struct.pack("<I", word)
    path = tmp_path / "bad.pcdn"
    path.write_bytes(bytes(blob))
    with pytest.raises(pc.ShapeError) as caught:
        pc.load_denoiser(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert str(CONV_SHAPES) in str(caught.value)


def test_gmm_blob_round_trip_is_bitwise(tmp_path):
    fields = pc.generate_fields(pc.FieldSpec(height=8, width=8, seed=5), 12)
    gmm = pc.fit_gmm_prior(fields, 3, iters=10, seed=2)
    path = tmp_path / "prior.pcgm"
    pc.save_gmm(path, gmm)
    back = pc.load_gmm(path)
    assert np.array_equal(back.weights, gmm.weights)
    assert np.array_equal(back.means, gmm.means)
    assert np.array_equal(back.sigmas, gmm.sigmas)


def test_blob_loaders_reject_corrupt_files(tmp_path):
    bad = tmp_path / "bad.pcdn"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(pc.MagicError):
        pc.load_denoiser(bad)
    with pytest.raises(pc.MagicError):
        pc.load_gmm(bad)

    net = pc.init_conv_denoiser(seed=0)
    whole = tmp_path / "net.pcdn"
    pc.save_denoiser(whole, net)
    cut = tmp_path / "cut.pcdn"
    cut.write_bytes(whole.read_bytes()[:40])
    with pytest.raises(pc.TruncationError):
        pc.load_denoiser(cut)
    size = len(whole.read_bytes())
    long = tmp_path / "long.pcdn"
    long.write_bytes(whole.read_bytes() + b"garbage!")
    with pytest.raises(pc.TruncationError, match=f"has {size + 8} bytes, expected {size}"):
        pc.load_denoiser(long)

    fields = pc.generate_fields(pc.FieldSpec(height=4, width=4, seed=1), 4)
    gmm = pc.fit_gmm_prior(fields, 2, iters=2, seed=0)
    gpath = tmp_path / "prior.pcgm"
    pc.save_gmm(gpath, gmm)
    gcut = tmp_path / "cut.pcgm"
    gcut.write_bytes(gpath.read_bytes()[:24])
    with pytest.raises(pc.TruncationError):
        pc.load_gmm(gcut)
    size = len(gpath.read_bytes())
    glong = tmp_path / "long.pcgm"
    glong.write_bytes(gpath.read_bytes() + b"garbage!")
    with pytest.raises(pc.TruncationError, match=f"has {size + 8} bytes, expected {size}"):
        pc.load_gmm(glong)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 64),
    magnitude=st.floats(-3.0, 5.0),
    tied=st.integers(1, 64),
    neg_inf=st.integers(0, 63),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=16, magnitude=0.0, tied=16, neg_inf=0, seed=0)
@example(n=16, magnitude=5.0, tied=2, neg_inf=14, seed=1)
def test_logsumexp_equals_scipy_bitwise(n, magnitude, tied, neg_inf, seed):
    """The mixture's in-house logsumexp against scipy's, to the bit: lengths
    1-64, magnitudes 1e-3 to 1e5, up to n tied maxima and -inf entries (the
    log of a zero mixture weight)."""
    rng = np.random.default_rng(seed)
    a = 10.0**magnitude * rng.standard_normal(n)
    order = rng.permutation(n)
    tied = min(tied, n)
    a[order[:tied]] = a.max()
    a[order[n - min(neg_inf, n - tied):]] = -np.inf
    assert np.float64(_logsumexp(a)).tobytes() == np.float64(logsumexp(a)).tobytes()


@pytest.mark.parametrize(
    "a", [[-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0], [-np.inf, np.inf]],
    ids=["all-minus-inf", "plus-inf", "nan", "both-infinities"],
)
def test_logsumexp_takes_scipys_fallback_on_a_non_finite_max(a):
    a = np.array(a)
    assert np.array_equal(_logsumexp(a), logsumexp(a), equal_nan=True)


def test_ancestral_sampling_reproduces_the_mixture():
    """Unguided reverse runs under the analytic prior land on the mixture.

    Two well-separated components; 2000 seeded runs recover the weights to
    3% and the component means to 2e-2.
    """
    shape = (6, 6)
    means = np.stack([np.full(shape, -0.55), np.full(shape, 0.45)])
    gmm = GaussianMixtureModel(
        weights=np.array([0.5, 0.5]), means=means, sigmas=np.array([0.08, 0.08])
    )
    sch = pc.linear_schedule(25, 1e-4, 0.25)
    assert alpha_bars(sch)[25] < 0.05  # enough noising to forget the start
    n = 2000
    sample_means = np.empty(n)
    for i in range(n):
        s = pc.unguided_sample(sch, gmm, *shape, seed=10_000 + i)
        sample_means[i] = s.values.mean()
    near_second = np.abs(sample_means - 0.45) < np.abs(sample_means + 0.55)
    assert near_second.mean() == pytest.approx(0.5, abs=0.03)
    assert sample_means[~near_second].mean() == pytest.approx(-0.55, abs=0.02)
    assert sample_means[near_second].mean() == pytest.approx(0.45, abs=0.02)
