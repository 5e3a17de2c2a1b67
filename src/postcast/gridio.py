"""Bit-exact persistence for fields, kernels, traces, and reports.

Grid file layout (little-endian throughout):

    bytes 0..3   magic "PCF1"
    bytes 4..7   u32 height
    bytes 8..11  u32 width
    bytes 12..   height * width float32, row-major

so a valid file is exactly 12 + 4 * h * w bytes.  Values are stored in data
units.  CSV emitters print floats with repr-level precision ("%.17g") so a
write -> read -> write cycle is byte-identical.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

from .errors import (
    DimensionError,
    GridFileError,
    MagicError,
    NumericError,
    ParameterError,
    ShapeError,
    TruncationError,
)
from .fields import DATA_UNITS, Field, require_units
from .kernel import BlurKernel
from .sampler import StepRecord

GRID_MAGIC = b"PCF1"
_HEADER = struct.Struct("<4sII")
#: Refuse headers promising more pixels than this (garbage-header guard).
MAX_PIXELS = 1 << 26


def write_grid(path, field: Field) -> None:
    """Write a data-unit field; exact inverse of :func:`read_grid`."""
    require_units(field, DATA_UNITS, "stored field")
    h, w = field.shape
    if h >= 1 << 32 or w >= 1 << 32:
        raise DimensionError(f"dimensions {h}x{w} overflow the 32-bit header")
    payload = np.ascontiguousarray(field.values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(GRID_MAGIC, h, w))
        fh.write(payload)


def read_grid(path) -> Field:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != GRID_MAGIC:
        raise MagicError(f"{path}: bad grid magic {blob[:4]!r}, expected {GRID_MAGIC!r}")
    if len(blob) < _HEADER.size:
        raise TruncationError(
            f"{path}: grid header needs {_HEADER.size} bytes, file has {len(blob)}"
        )
    _, h, w = _HEADER.unpack_from(blob)
    if h == 0 or w == 0:
        raise DimensionError(f"{path}: grid dimensions must be positive, header says {h}x{w}")
    if h * w > MAX_PIXELS:
        raise DimensionError(f"{path}: header promises {h}x{w} pixels, over the {MAX_PIXELS} cap")
    expected = _HEADER.size + 4 * h * w
    if len(blob) != expected:
        raise TruncationError(
            f"{path}: grid file should be {expected} bytes for {h}x{w}, got {len(blob)}"
        )
    values = np.frombuffer(blob, dtype="<f4", count=h * w, offset=_HEADER.size)
    try:
        return Field(values.astype(np.float64).reshape(h, w), DATA_UNITS)
    except NumericError:
        # Bad stored data, not a numeric failure of this run.
        raise GridFileError(f"{path}: grid holds non-finite values") from None


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "%.17g" % float(x)


def write_kernel_csv(path, kernel: BlurKernel) -> None:
    """Kernel as an n-row CSV, one row per kernel row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in kernel.params:
            writer.writerow([_fmt(v) for v in row])


def read_kernel_csv(path) -> BlurKernel:
    """Inverse of :func:`write_kernel_csv`; a malformed file raises ``ParameterError``
    (``ShapeError`` if not square) naming the path and any row (line number) at fault."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            where = f"kernel CSV {path}, row {reader.line_num}"
            if rows and len(row) != len(rows[0]):
                raise ParameterError(f"{where}: {len(row)} values, expected {len(rows[0])}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ParameterError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ParameterError(f"{where}: non-finite value")
            rows.append(values)
    if not rows:
        raise ParameterError(f"kernel CSV {path} is empty")
    try:
        return BlurKernel(np.array(rows))
    except (ParameterError, ShapeError) as exc:
        raise type(exc)(f"kernel CSV {path}: {exc}") from None


def write_trace_csv(path, records) -> None:
    """Per-step sampler diagnostics: step, loss, scale, kernel_mean."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "scale", "kernel_mean"])
        for rec in records:
            writer.writerow([rec.t, _fmt(rec.loss), _fmt(rec.scale), _fmt(rec.kernel_mean)])


def read_trace_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        return [
            StepRecord(t=int(r[0]), loss=float(r[1]), scale=float(r[2]), kernel_mean=float(r[3]))
            for r in reader
            if r
        ]


def write_csi_report_csv(path, rows) -> None:
    """Rows of (dataset, threshold, pool, tp, fp, fn, csi)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "threshold", "pool", "tp", "fp", "fn", "csi"])
        for dataset, threshold, pool, tp, fp, fn, score in rows:
            writer.writerow([dataset, _fmt(threshold), pool, tp, fp, fn, _fmt(score)])


def read_csi_report_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [
            (r[0], float(r[1]), int(r[2]), int(r[3]), int(r[4]), int(r[5]), float(r[6]))
            for r in reader
            if r
        ]
