"""Grid file, kernel CSV and trace CSV formats, and their failure modes.

Grid, kernel and trace files are also round-tripped as properties over
generated values, bit for bit (signed zeros and subnormals included).
"""

import csv
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import postcast as pc
from postcast.gridio import GRID_MAGIC, MAX_PIXELS
from postcast.sampler import StepRecord


def test_grid_round_trip_is_bitwise_for_f32_data(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.random((17, 23), dtype=np.float32).astype(np.float64)
    f = pc.Field(values, pc.DATA_UNITS)
    path = tmp_path / "grid.pcf"
    pc.write_grid(path, f)
    back = pc.read_grid(path)
    assert back.units == pc.DATA_UNITS
    assert np.array_equal(back.values, values)


def test_grid_write_quantizes_to_f32(tmp_path):
    f = pc.Field(np.array([[1 / 3]]), pc.DATA_UNITS)
    path = tmp_path / "grid.pcf"
    pc.write_grid(path, f)
    back = pc.read_grid(path)
    assert back.values[0, 0] == np.float64(np.float32(1 / 3))
    assert back.values[0, 0] != 1 / 3


def test_grid_rejects_model_units(tmp_path):
    with pytest.raises(pc.UnitsError):
        pc.write_grid(tmp_path / "x.pcf", pc.Field(np.zeros((2, 2)), pc.MODEL_UNITS))


def test_grid_header_is_stable(tmp_path):
    path = tmp_path / "grid.pcf"
    pc.write_grid(path, pc.Field(np.zeros((3, 5)), pc.DATA_UNITS))
    blob = path.read_bytes()
    assert blob[:4] == GRID_MAGIC
    _, h, w = struct.unpack_from("<4sII", blob)
    assert (h, w) == (3, 5)
    assert len(blob) == 12 + 4 * 15


def test_grid_read_failure_modes(tmp_path):
    bad_magic = tmp_path / "bad.pcf"
    bad_magic.write_bytes(b"JUNK" + b"\x00" * 12)
    with pytest.raises(pc.MagicError, match=re.escape(str(bad_magic))):
        pc.read_grid(bad_magic)

    short_header = tmp_path / "short.pcf"
    short_header.write_bytes(GRID_MAGIC + b"\x01")
    with pytest.raises(pc.TruncationError, match=re.escape(str(short_header))):
        pc.read_grid(short_header)

    zero_dim = tmp_path / "zero.pcf"
    zero_dim.write_bytes(struct.pack("<4sII", GRID_MAGIC, 0, 7))
    with pytest.raises(pc.DimensionError, match=re.escape(str(zero_dim))):
        pc.read_grid(zero_dim)

    huge = tmp_path / "huge.pcf"
    huge.write_bytes(struct.pack("<4sII", GRID_MAGIC, 1 << 13, (1 << 13) + 1))
    with pytest.raises(pc.DimensionError, match=str(MAX_PIXELS)):
        pc.read_grid(huge)

    truncated = tmp_path / "cut.pcf"
    good = tmp_path / "good.pcf"
    pc.write_grid(good, pc.Field(np.ones((4, 4)), pc.DATA_UNITS))
    truncated.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(pc.TruncationError, match=re.escape(str(truncated))):
        pc.read_grid(truncated)

    padded = tmp_path / "padded.pcf"
    padded.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(pc.TruncationError):
        pc.read_grid(padded)


def test_kernel_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    kernel = pc.BlurKernel(rng.standard_normal((5, 5)))
    path = tmp_path / "kernel.csv"
    pc.write_kernel_csv(path, kernel)
    back = pc.read_kernel_csv(path)
    assert np.array_equal(back.params, kernel.params)  # %.17g is lossless


def test_empty_kernel_csv_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(pc.ParameterError):
        pc.read_kernel_csv(path)


def test_ragged_kernel_csv_is_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n6,7,8\n")
    with pytest.raises(pc.ParameterError, match=rf"{re.escape(str(path))}, row 2: 2 values, expected 3"):
        pc.read_kernel_csv(path)


def test_non_numeric_kernel_csv_is_rejected(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("1,2,3\n4,five,6\n7,8,9\n")
    with pytest.raises(pc.ParameterError, match=rf"{re.escape(str(path))}, row 2: .*'five'"):
        pc.read_kernel_csv(path)


@pytest.mark.parametrize(
    "text, error, problem",
    [("1,2,3\n4,5,6\n", pc.ShapeError, "must be square"),
     ("1,2\n3,4\n", pc.ParameterError, "must be odd")],
    ids=["not-square", "even-size"],
)
def test_kernel_csv_of_no_odd_square_is_rejected(tmp_path, text, error, problem):
    path = tmp_path / "kernel.csv"
    path.write_text(text)
    with pytest.raises(error, match=rf"^kernel CSV {re.escape(str(path))}: .*{problem}"):
        pc.read_kernel_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_kernel_csv_is_rejected(tmp_path, bad):
    path = tmp_path / "non_finite.csv"
    path.write_text(f"0,0,0\n0,0,0\n0,{bad},0\n")
    with pytest.raises(pc.ParameterError, match=rf"{re.escape(str(path))}, row 3: non-finite"):
        pc.read_kernel_csv(path)


def test_trace_csv_round_trip(tmp_path):
    records = [
        StepRecord(t=3, loss=0.52, scale=3500.0, kernel_mean=0.0123456789012345678),
        StepRecord(t=2, loss=1e-9, scale=0.0, kernel_mean=-0.5),
        StepRecord(t=1, loss=0.0, scale=12.25, kernel_mean=0.25),
    ]
    path = tmp_path / "trace.csv"
    pc.write_trace_csv(path, records)
    back = pc.read_trace_csv(path)
    assert back == records
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["step", "loss", "scale", "kernel_mean"]


def test_csi_report_csv_round_trip(tmp_path):
    rows = [
        ("run_a", 0.73, 1, 10, 2, 3, 10 / 15),
        ("run_a", 0.73, 16, 4, 0, 0, 1.0),
    ]
    path = tmp_path / "report.csv"
    pc.write_csi_report_csv(path, rows)
    back = pc.read_csi_report_csv(path)
    assert back == rows


FINITE_F64 = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
)
def test_grid_round_trip_is_bitwise_for_any_finite_f32_data(stored):
    """Any finite float32-representable data-unit field, at any shape, reads
    back with the same bits, and rewriting it gives the same file."""
    values = stored.astype(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "grid.pcf", Path(tmp) / "again.pcf"
        pc.write_grid(path, pc.Field(values, pc.DATA_UNITS))
        back = pc.read_grid(path)
        pc.write_grid(again, back)
        assert back.values.shape == values.shape
        assert back.values.tobytes() == values.tobytes()
        assert again.read_bytes() == path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda half: hnp.arrays(np.float64, (2 * half + 1, 2 * half + 1), elements=FINITE_F64)
    )
)
def test_kernel_csv_round_trip_is_bitwise_for_any_finite_kernel(params):
    """%.17g is lossless for every finite float64, so any odd n x n kernel
    reads back with the same bits and rewrites to the same CSV, and the CSV
    is the only file written."""
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "kernel.csv", Path(tmp) / "again.csv"
        pc.write_kernel_csv(path, pc.BlurKernel(params))
        back = pc.read_kernel_csv(path)
        pc.write_kernel_csv(again, back)
        assert back.params.shape == params.shape
        assert back.params.tobytes() == params.tobytes()
        assert again.read_bytes() == path.read_bytes()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["again.csv", "kernel.csv"]


def bits(record):
    return (record.t, record.loss.hex(), record.scale.hex(), record.kernel_mean.hex())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(StepRecord, st.integers(), FINITE_F64, FINITE_F64, FINITE_F64),
        max_size=20,
    )
)
def test_trace_csv_round_trip_is_bitwise_for_any_finite_trace(records):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "trace.csv", Path(tmp) / "again.csv"
        pc.write_trace_csv(path, records)
        back = pc.read_trace_csv(path)
        pc.write_trace_csv(again, back)
        assert [bits(r) for r in back] == [bits(r) for r in records]
        assert again.read_bytes() == path.read_bytes()
