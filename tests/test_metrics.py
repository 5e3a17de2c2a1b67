"""CSI with pooling, the Z-R conversion, the VIL map, and threshold lookup."""

import tracemalloc

import numpy as np
import pytest

import postcast as pc
from postcast.metrics import DATASET_THRESHOLDS, csi_counts, csi_from_counts


def field_of(values):
    return pc.Field(np.asarray(values, dtype=np.float64), pc.DATA_UNITS)


def test_pixel_miss_becomes_a_pooled_hit():
    """One positive each in opposite corners of a 4x4: CSI 0 at P1, 1 at P4."""
    pred = field_of(np.zeros((4, 4)))
    obs = field_of(np.zeros((4, 4)))
    pred.values[0, 0] = 1.0
    obs.values[3, 3] = 1.0
    assert pc.csi(pred, obs, 0.5, pool=1).csi == 0.0
    assert pc.csi(pred, obs, 0.5, pool=4).csi == 1.0


def test_counts_on_a_hand_built_grid():
    pred = field_of([[1, 0], [1, 1]])
    obs = field_of([[1, 1], [0, 1]])
    tp, fp, fn = csi_counts(pred, obs, 0.5)
    assert (tp, fp, fn) == (2, 1, 1)
    assert pc.csi(pred, obs, 0.5).csi == pytest.approx(0.5)


def test_all_negative_pair_is_vacuously_perfect():
    pred = field_of(np.zeros((3, 3)))
    obs = field_of(np.zeros((3, 3)))
    assert pc.csi(pred, obs, 0.5).csi == 1.0
    assert csi_from_counts(0, 0, 0) == 1.0


def test_threshold_and_pooling_commute():
    """Max-pool of the binary mask equals binarizing the max-pooled values."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.random((13, 9))  # deliberately not a multiple of the window
        for window in (2, 4):
            lhs = pc.max_pool((v >= 0.7).astype(np.uint8), window)
            rhs = (pc.max_pool(v, window) >= 0.7).astype(np.uint8)
            assert np.array_equal(lhs, rhs)


def test_max_pool_window_one_and_validation():
    v = np.arange(12.0).reshape(3, 4)
    out = pc.max_pool(v, 1)
    assert np.array_equal(out, v)
    out[0, 0] = -1
    assert v[0, 0] == 0.0  # window 1 still returns a copy
    with pytest.raises(pc.ParameterError):
        pc.max_pool(v, 0)


def test_max_pool_replicates_edges():
    """A lone max in the last row survives pooling of a non-multiple shape."""
    v = np.zeros((5, 5))
    v[4, 4] = 3.0
    out = pc.max_pool(v, 4)
    assert out.shape == (2, 2)
    assert out[1, 1] == 3.0
    assert out[0, 0] == 0.0


def test_max_pool_window_past_the_grid_pools_it_whole_in_bounded_memory():
    """A window longer than an axis pools that axis to its max, as edge
    padding would, without allocating window-sized blocks: a 4096 window on
    a 64x64 mask would pad it to 16 MB."""
    v = (np.random.default_rng(0).random((64, 64)) >= 0.7).astype(np.uint8)
    tracemalloc.start()
    try:
        out = pc.max_pool(v, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.array_equal(out, v.max(keepdims=True))
    assert np.array_equal(pc.max_pool(v, 10**30), out)  # past int64, as a config may say
    tall = np.arange(30.0).reshape(10, 3)
    assert np.array_equal(pc.max_pool(tall, 4), [[11.0], [23.0], [29.0]])


def test_pooling_monotonicity_is_statistical_not_pointwise():
    """Coarser pooling usually raises CSI by crediting near misses, but a
    counterexample exists: ten aligned hits plus one isolated false alarm
    scores 10/11 at P1 yet 1/2 at P16 (the hits collapse into one pooled
    cell while the false alarm keeps its own).
    """
    pred = field_of(np.zeros((64, 64)))
    obs = field_of(np.zeros((64, 64)))
    for i in range(10):
        pred.values[i // 4, i % 4] = 1.0
        obs.values[i // 4, i % 4] = 1.0
    pred.values[40, 40] = 1.0
    p1 = pc.csi(pred, obs, 0.5, pool=1).csi
    p16 = pc.csi(pred, obs, 0.5, pool=16).csi
    assert p1 == pytest.approx(10 / 11)
    assert p16 == pytest.approx(1 / 2)
    assert p16 < p1

    # the statistical direction: sparse displaced cells gain from pooling
    rng = np.random.default_rng(11)
    gains = []
    for _ in range(20):
        o = np.zeros((32, 32))
        p = np.zeros((32, 32))
        for _ in range(12):
            y, x = rng.integers(2, 30, size=2)
            o[y, x] = 1.0
            dy, dx = rng.integers(-2, 3, size=2)
            p[y + dy, x + dx] = 1.0
        s1 = pc.csi(field_of(p), field_of(o), 0.5, pool=1).csi
        s4 = pc.csi(field_of(p), field_of(o), 0.5, pool=4).csi
        gains.append(s4 - s1)
    assert np.mean(gains) > 0.2


def test_csi_requires_matching_shapes():
    with pytest.raises(pc.ShapeError):
        pc.csi(field_of(np.zeros((2, 2))), field_of(np.zeros((3, 3))), 0.5)


def test_zr_conversion_round_trips():
    """dBZ(1 mm/h) = 10 log10(58.53) and the inverse is exact to 1e-10."""
    assert pc.zr_rain_to_dbz(1.0) == pytest.approx(17.6737852411, abs=1e-9)
    rates = np.array([0.1, 1.0, 5.0, 30.0, 100.0])
    back = pc.dbz_to_rain(pc.zr_rain_to_dbz(rates))
    assert np.allclose(back, rates, rtol=1e-10)
    assert isinstance(pc.zr_rain_to_dbz(2.0), float)
    with pytest.raises(pc.ParameterError):
        pc.zr_rain_to_dbz(0.0)
    with pytest.raises(pc.ParameterError):
        pc.zr_rain_to_dbz(np.array([1.0, -2.0]))


def test_vil_pixel_map_piecewise_values():
    assert pc.vil_pixel_to_kgm2(0) == 0.0
    assert pc.vil_pixel_to_kgm2(5) == 0.0  # the linear branch opens above 5
    assert pc.vil_pixel_to_kgm2(6) == pytest.approx((6 - 2) / 90.66)
    assert pc.vil_pixel_to_kgm2(18) == pytest.approx(16 / 90.66)
    assert pc.vil_pixel_to_kgm2(19) == pytest.approx(np.exp((19 - 83.9) / 38.9))
    assert pc.vil_pixel_to_kgm2(254) == pytest.approx(np.exp((254 - 83.9) / 38.9))
    arr = pc.vil_pixel_to_kgm2(np.array([[0.0, 18.0], [19.0, 254.0]]))
    assert arr.shape == (2, 2)
    assert arr[1, 1] == pytest.approx(79.2614, abs=1e-3)
    with pytest.raises(pc.ParameterError):
        pc.vil_pixel_to_kgm2(-1)
    with pytest.raises(pc.ParameterError):
        pc.vil_pixel_to_kgm2(255)


def test_vil_map_is_monotone_and_continuous_at_the_knee():
    xs = np.linspace(0, 254, 2541)
    ys = pc.vil_pixel_to_kgm2(xs)
    assert np.all(np.diff(ys) >= 0)
    left = pc.vil_pixel_to_kgm2(18.0)
    right = pc.vil_pixel_to_kgm2(18.0 + 1e-9)
    assert right - left < 0.02  # small jump, not a cliff


def test_quantile_threshold_over_fields():
    a = field_of(np.zeros((2, 2)))
    b = field_of(np.full((2, 2), 1.0))
    assert pc.quantile_threshold([a, b], 0.5) == pytest.approx(0.5)
    assert pc.quantile_threshold(b, 1.0) == 1.0
    with pytest.raises(pc.ParameterError):
        pc.quantile_threshold([], 0.5)
    with pytest.raises(pc.ParameterError):
        pc.quantile_threshold([a], 1.5)


def test_threshold_table_published_values():
    expected = {
        "sevir": 32.24,
        "hko7": 30.0,
        "taasrad19": 30.0,
        "srad2018": 30.0,
        "scwds_cap30": 40.0,
        "scwds_cr": 40.0,
        "meteonet": 47.0,
    }
    assert DATASET_THRESHOLDS == expected
    for tag, tau in expected.items():
        assert pc.threshold_table(tag) == tau
        assert pc.threshold_table(tag.upper()) == tau


def test_threshold_table_synthetic_and_unknown():
    """Only published archives have a table entry; synthetic data takes
    quantile_threshold."""
    for tag in ("synthetic", "mystery_radar"):
        with pytest.raises(pc.ParameterError, match="known tags"):
            pc.threshold_table(tag)
