"""Field construction, unit-regime bookkeeping, and the affine conversions."""

import numpy as np
import pytest

import postcast as pc


def test_field_coerces_to_float64_and_keeps_shape():
    f = pc.Field(np.ones((3, 4), dtype=np.float32))
    assert f.values.dtype == np.float64
    assert f.shape == (3, 4)
    assert f.units == pc.DATA_UNITS


def test_field_rejects_bad_inputs():
    with pytest.raises(pc.ShapeError):
        pc.Field(np.ones(5))
    with pytest.raises(pc.ShapeError):
        pc.Field(np.ones((2, 2, 2)))
    with pytest.raises(pc.ShapeError):
        pc.Field(np.empty((0, 3)))
    with pytest.raises(pc.NumericError):
        pc.Field(np.array([[1.0, np.nan]]))
    with pytest.raises(pc.NumericError):
        pc.Field(np.array([[np.inf, 0.0]]))
    with pytest.raises(pc.UnitsError):
        pc.Field(np.ones((2, 2)), "furlongs")


def test_field_is_frozen():
    f = pc.Field(np.zeros((2, 2)))
    with pytest.raises(AttributeError):
        f.units = pc.MODEL_UNITS


def test_like_preserves_units():
    f = pc.Field(np.zeros((2, 3)), pc.MODEL_UNITS)
    g = f.like(np.ones((2, 3)))
    assert g.units == pc.MODEL_UNITS
    assert np.array_equal(g.values, np.ones((2, 3)))


def test_require_units_and_shape_guards():
    d = pc.Field(np.zeros((2, 2)), pc.DATA_UNITS)
    m = pc.Field(np.zeros((2, 2)), pc.MODEL_UNITS)
    with pytest.raises(pc.UnitsError, match="model"):
        pc.to_model(m)
    with pytest.raises(pc.UnitsError):
        pc.to_data(d)
    with pytest.raises(pc.ShapeError, match="share a shape"):
        pc.fields.require_same_shape(d, pc.Field(np.zeros((3, 2))))


def test_affine_pair_maps_endpoints_exactly():
    d = pc.Field(np.array([[0.0, 0.5, 1.0]] * 2), pc.DATA_UNITS)
    m = pc.to_model(d)
    assert m.units == pc.MODEL_UNITS
    assert np.array_equal(m.values, np.array([[-1.0, 0.0, 1.0]] * 2))
    back = pc.to_data(m)
    assert back.units == pc.DATA_UNITS
    assert np.array_equal(back.values, d.values)


def test_round_trip_is_bitwise_on_storage_provenance_values():
    """Exactness holds on the two populations the pipeline actually moves.

    Values that came through 32-bit storage (and are not tiny) and values on
    the 2^-53 grid of a uniform draw survive data -> model -> data without
    losing a bit.
    """
    rng = np.random.default_rng(0)
    from_f32 = rng.random(20000, dtype=np.float32).astype(np.float64)
    from_f32 = from_f32[from_f32 >= 2.0**-29]
    f = pc.Field(from_f32.reshape(1, -1), pc.DATA_UNITS)
    assert np.array_equal(pc.to_data(pc.to_model(f)).values, f.values)

    uniforms = pc.Field(rng.random((100, 200)), pc.DATA_UNITS)
    assert np.array_equal(pc.to_data(pc.to_model(uniforms)).values, uniforms.values)


def test_round_trip_cannot_be_bitwise_for_every_float64():
    """The affine pair is not invertible on all of float64.

    model -> data halves into a coarser grid near 1.5, so the low bit of
    0.5 + 2^-53 has nowhere to go; the round trip lands on 0.5 instead.
    This is why the guarantee above is stated over storage-provenance
    populations rather than all doubles.
    """
    m = 0.5 + 2.0**-53
    f = pc.Field(np.array([[m]]), pc.MODEL_UNITS)
    rt = pc.to_model(pc.to_data(f)).values[0, 0]
    assert rt == 0.5
    assert rt != m


def test_clamp01_clips_and_requires_data_units():
    f = pc.Field(np.array([[-0.2, 0.4], [1.7, 1.0]]), pc.DATA_UNITS)
    c = pc.clamp01(f)
    assert np.array_equal(c.values, np.array([[0.0, 0.4], [1.0, 1.0]]))
    with pytest.raises(pc.UnitsError):
        pc.clamp01(pc.Field(np.zeros((2, 2)), pc.MODEL_UNITS))


def test_operations_do_not_alias_input_storage():
    vals = np.full((2, 2), 0.25)
    f = pc.Field(vals, pc.DATA_UNITS)
    m = pc.to_model(f)
    m.values[0, 0] = 99.0
    assert f.values[0, 0] == 0.25
