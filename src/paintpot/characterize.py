"""Calibration-sweep processing: trim, shift, fit, and window derivation.

A sweep log pairs an externally tracked joint angle with one raw ADC count
per wiper; the sensor's spec gives its wipers' tracks, which the dataset
and the bundle fitted from it carry.  Each gapped wiper's samples inside
its gap are dropped and those past its edge translated one full turn,
making angle a continuous function of voltage.  A cubic is then fitted per
wiper, and a gapped wiper's valid range is the voltage window whose image
stays on its usable chart.  A tilt's one wiper has no gap and keeps every
sample.

The fit is one scaled least-squares solve on counts mapped onto [-1, 1],
carried back to raw counts by Horner's rule: the operations of
``numpy.polynomial.Polynomial.fit(...).convert()`` without its objects, so
its coefficients equal numpy.polynomial's bit for bit, which a test holds
against that path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import IO, NamedTuple, Sequence

import numpy as np

from paintpot.cubic import CubicModel, invert_cubic  # noqa: F401  (re-export)
from paintpot.errors import FitError, SpecError, check_adc_max
from paintpot.geometry import TILT_LIMIT, WHEEL_TRACKS, WiperTrack, geometry_from_dict
from paintpot.sensor_sim import SensorSpec

MIN_FIT_SAMPLES = 8
MIN_WINDOW_SPAN_FRACTION = 0.5


@dataclass(frozen=True)
class CalibrationDataset:
    """Validated sweep log; ``counts[i, w]`` is wiper ``w``'s count at sample ``i``, on ``tracks[w]``."""

    tracks: tuple[WiperTrack | None, ...]
    t: np.ndarray
    theta: np.ndarray
    counts: np.ndarray
    adc_max: int = 1023

    def __post_init__(self) -> None:
        n = len(self.t)
        if n == 0:
            raise SpecError("calibration dataset is empty")
        if len(self.theta) != n:
            raise SpecError("calibration columns have mismatched lengths")
        shape = (n, len(self.tracks))
        if np.shape(self.counts) != shape:
            raise SpecError(f"counts need shape {shape}, got {np.shape(self.counts)}")
        if np.any(np.diff(self.t) < 0.0):
            raise SpecError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class ValidRange:
    """A wheel wiper's integer count window; the wiper admits the counts
    strictly inside it."""

    v_min: int
    v_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.v_min < self.v_max:
            raise SpecError(f"invalid count window ({self.v_min}, {self.v_max})")


class ShiftedPairs(NamedTuple):
    """Per-wiper training pairs: shifted angle against raw count."""

    theta: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class WiperFitStats:
    n: int
    rms: float
    max_abs: float


@dataclass(frozen=True)
class FitReport:
    """Residual summary of the fitted models on their own training pairs."""

    wipers: tuple[WiperFitStats, ...]


@dataclass(frozen=True)
class ModelBundle:
    """Everything a filter needs: tracks, models, windows, residuals, parameters.

    One model per track and one valid range per gapped track.  ``adc_max``
    must be ``2**bits - 1``, and every valid range and model window must lie
    inside the counts ``[0, adc_max]``: the filters table each model at
    every count of its window.
    """

    tracks: tuple[WiperTrack | None, ...]
    models: tuple[CubicModel, ...]
    valid_ranges: tuple[ValidRange, ...]
    report: FitReport
    adc_max: int = 1023
    filter_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if None in self.tracks and any(self.tracks):
            raise SpecError("a bundle's wipers must all ride gapped tracks, or none")
        shape = (len(self.models), len(self.valid_ranges))
        expected = (len(self.tracks), sum(track is not None for track in self.tracks))
        if shape != expected:
            raise SpecError(
                f"{self.sensor_kind} bundle has (models, valid ranges) = {shape}, expected {expected}"
            )
        check_adc_max(self.adc_max)
        for i, valid in enumerate(self.valid_ranges):
            if valid.v_max > self.adc_max:
                raise SpecError(
                    f"valid_ranges[{i}].v_max {valid.v_max} exceeds adc_max {self.adc_max}"
                )
        for i, model in enumerate(self.models):
            lo, hi = model.v_window
            if lo < 0.0 or hi > self.adc_max:
                raise SpecError(
                    f"models[{i}].v_window [{lo!r}, {hi!r}] outside [0, {self.adc_max}]"
                )

    @property
    def sensor_kind(self) -> str:
        """The bundle's name in files: ``wheel`` when its wipers ride tracks, else ``tilt``."""
        return "wheel" if any(self.tracks) else "tilt"

    def with_filter_params(self, params: dict) -> "ModelBundle":
        return replace(self, filter_params=dict(params))


def _open_text(source: str | Path | IO[str] | IO[bytes]):
    """Normalize a path / text stream / byte stream into text lines."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


# The checked parser converts raw fields every 256 rows, so the text of a
# long log is never held in memory at once, only its values.  The row
# lists of a chunk are alive together; 256 stays well under the 700 net
# container allocations that start a young garbage collection, so a log
# it reads seldom starts one, and few row lists survive into an older
# generation to bring on a full collection.
_CHUNK_ROWS = 256
# The fast stage hands np.loadtxt a log's lines in blocks of about this many
# characters, so it too never holds the whole text.
_BLOCK_CHARS = 1 << 16
# Columns of integer ADC counts; every other column holds floats.
COUNT_COLUMNS = ("v0", "v1")


def _malformed(fields: list[str], converters) -> ValueError | None:
    """The error of the first field, left to right, that fails to convert."""
    for convert, text in zip(converters, fields):
        try:
            convert(text.strip())
        except ValueError as exc:
            return exc
    return None


def _convert_rows(rows: list[list[str]], converters, columns: list[list]) -> ValueError | None:
    """Append the fields of ``rows``, converted, to ``columns``, one column each.

    Stops before the first row with a malformed field and returns its error.
    """
    # Stripped as in _malformed: int and float keep the separators \x1c-\x1f
    # that str.strip removes, so a field padded with one would fail here and
    # pass there.
    fields = [list(map(str.strip, c)) for c in zip(*rows)]
    try:
        converted = [list(map(f, c)) for f, c in zip(converters, fields)]
        error = None
    except ValueError:
        n, error = next(
            (n, exc) for n, exc in enumerate(_malformed(row, converters) for row in rows) if exc
        )
        converted = [list(map(f, c[:n])) for f, c in zip(converters, fields)]
    for column, values in zip(columns, converted):
        column.extend(values)
    return error


def _plain_blocks(handle):
    """The rest of ``handle``'s lines, a list at a time.

    Raises ValueError at a block with a line that only the checked parser
    may judge: one longer than ``csv.reader``'s field limit, which may hold
    a field it rejects, or one with non-ASCII text, since numpy 2.4's int64
    parser reads some non-ASCII letters as digits (U+01FE then ``5``
    loads as 4625).
    """
    limit = csv.field_size_limit()
    while block := handle.readlines(_BLOCK_CHARS):
        if max(map(len, block)) > limit or not all(map(str.isascii, block)):
            raise ValueError("a line for the checked parser")
        yield block


def _read_columns_fast(handle, header: list[str], adc_max: int, theta_limit) -> list[np.ndarray] | None:
    """The value arrays of a plainly valid log, its rows read by one
    ``np.loadtxt`` call and checked by numpy, or None.

    The header is found by the checked parser's rule.  A log that fails to
    load raises ValueError, ``csv.Error`` or a warning, and one whose header
    or values fail a check returns None: either way, no error is decided.
    """
    rows = csv.reader(iter(handle.readline, ""))
    found = next((row for row in rows if row and not row[0].lstrip().startswith("#")), None)
    if found is None or [f.strip() for f in found] != header:
        return None
    dtype = [(name, np.int64 if name in COUNT_COLUMNS else np.float64) for name in header]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a body with no rows only warns
        values = np.loadtxt(
            chain.from_iterable(_plain_blocks(handle)),
            dtype=dtype, delimiter=",", comments=None, ndmin=1, unpack=True,
        )
    floats = [v for name, v in zip(header, values) if name not in COUNT_COLUMNS]
    counts = [v for name, v in zip(header, values) if name in COUNT_COLUMNS]
    t = values[0]
    valid = (
        all(np.isfinite(v).all() for v in floats)
        and not (t[1:] < t[:-1]).any()
        and all(((v >= 0) & (v <= adc_max)).all() for v in counts)
        and (theta_limit is None or (np.abs(values[header.index("theta")]) <= theta_limit[0]).all())
    )
    return values if valid else None


def _not_utf8(source, what: str, exc: UnicodeDecodeError) -> SpecError:
    """The error for a log that is not UTF-8; for a file it names the
    physical line of the first byte that is not."""
    where = f"{what} stream"
    if isinstance(source, (str, Path)):
        where = str(source)
        try:
            Path(source).read_bytes().decode("utf-8")
        except UnicodeDecodeError as first:
            head = first.object[: first.start].decode("utf-8")
            line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
            where, exc = f"{where}: line {line}", first
    return SpecError(f"{where}: not UTF-8: {exc.reason}")


def read_columns(
    source: str | Path | IO[str] | IO[bytes],
    header: Sequence[str],
    adc_max: int,
    what: str,
    theta_limit: tuple[float, str] | None = None,
) -> list[list]:
    """Parse a UTF-8 CSV log with the given header into one list per column.

    The first column is ``t``; the columns named in ``COUNT_COLUMNS`` hold
    ints, every other one floats.  The source (a path, a text stream or a
    byte stream) is read in two stages.  A seekable source is first read
    in C: the header by the checked parser's rule, then every row by one
    ``np.loadtxt`` call, with numpy checking the values.  That stage can
    only accept.  Any load error, failed check, empty body or unseekable
    source rewinds the source, and the checked parser reads it line by line
    with ``csv.reader``, converting rows a chunk at a time; it alone decides
    every error.  Lines starting with ``#`` are skipped but counted, so
    errors name the physical line.

    Raises :class:`SpecError` naming the line of the first bad row.  A row
    is checked for, in this order: a line ``csv.reader`` cannot split, its
    field count, malformed fields (left to right), non-finite floats, a
    decreasing ``t``, counts outside [0, adc_max] (left to right) and,
    given ``theta_limit = (limit, text)``, a ``theta`` whose magnitude
    exceeds ``limit`` (the error is ``text`` formatted with it).  ``what``
    names the file when it holds no rows, or a stream that is not UTF-8.
    """
    return [column.tolist() for column in _read_arrays(source, header, adc_max, what, theta_limit)]


def _read_arrays(
    source: str | Path | IO[str] | IO[bytes],
    header: Sequence[str],
    adc_max: int,
    what: str,
    theta_limit: tuple[float, str] | None,
) -> list[np.ndarray]:
    """:func:`read_columns`' columns as arrays: int64 counts, float64 otherwise."""
    header = list(header)
    handle, owned = _open_text(source)
    try:
        if handle.seekable():
            start = handle.tell()
            try:
                columns = _read_columns_fast(handle, header, adc_max, theta_limit)
            except (ValueError, csv.Error, Warning):  # the checked parser judges it
                columns = None
            if columns is not None:
                return columns
            handle.seek(start)
        return _read_columns_checked(handle, header, adc_max, what, theta_limit)
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, what, exc) from None
    finally:
        if owned:
            handle.close()
        elif handle is not source:  # our wrapper of the caller's byte stream: leave that open
            handle.detach()


def _read_columns_checked(
    handle: IO[str], header: list[str], adc_max: int, what: str, theta_limit: tuple[float, str] | None
) -> list[np.ndarray]:
    """:func:`read_columns`' line-by-line parser, over an open text stream;
    it returns the arrays it checks, with the counts cast to int64."""
    width = len(header)
    converters = [int if name in COUNT_COLUMNS else float for name in header]
    columns: list[list] = [[] for _ in header]
    lines: list[int] = []  # physical line of each row
    rows: list[list[str]] = []
    # The first row with a wrong field count, a malformed field or a line
    # csv.reader cannot split ends the rows that are value-checked; its
    # error is raised if none of them fails.
    error = malformed = None
    reader = csv.reader(handle)
    found = None
    try:
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if found is None:
                found = [f.strip() for f in row]
                if found != header:
                    raise SpecError(
                        f"line {reader.line_num}: header must be {','.join(header)!r}, "
                        f"got {','.join(found)!r}"
                    )
            elif len(row) != width:
                error = SpecError(f"line {reader.line_num}: expected {width} fields, got {len(row)}")
                break
            else:
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == _CHUNK_ROWS:
                    malformed = _convert_rows(rows, converters, columns)
                    rows = []
                    if malformed is not None:
                        break
    except csv.Error as exc:  # a field over the size limit, or a newline inside one
        error = SpecError(f"line {reader.line_num}: {exc}")
        if found is None:
            raise error from None
    if found is None:
        raise SpecError(f"empty {what} file")
    if not lines and error is None:
        raise SpecError(f"{what} file has a header but no data rows")
    if malformed is None:
        malformed = _convert_rows(rows, converters, columns)
    if malformed is not None:
        error = SpecError(f"line {lines[len(columns[0])]}: {malformed}")

    # Counts stay Python ints (object arrays) until their range is checked,
    # so no count overflows.
    values = [np.array(c, dtype=object if f is int else float) for f, c in zip(converters, columns)]
    t = values[0]
    finite = [np.isfinite(v) for f, v in zip(converters, values) if f is float]
    checks = [
        (~np.logical_and.reduce(finite), lambda row: "non-finite value"),
        (t < np.concatenate(([-np.inf], t[:-1])), lambda row: f"timestamp {columns[0][row]} decreases"),
    ]
    for convert, v, column in zip(converters, values, columns):
        if convert is int:
            checks.append(
                ((v < 0) | (v > adc_max), lambda row, c=column: f"count {c[row]} outside [0, {adc_max}]")
            )
    if theta_limit is not None:
        limit, text = theta_limit
        theta = header.index("theta")
        checks.append((np.abs(values[theta]) > limit, lambda row: text.format(columns[theta][row])))
    failing = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if failing.size:
        row = int(failing[0])
        describe = next(describe for mask, describe in checks if mask[row])
        raise SpecError(f"line {lines[row]}: {describe(row)}")
    if error is not None:
        raise error
    return [v.astype(np.int64) if f is int else v for f, v in zip(converters, values)]


def ingest_log(source: str | Path | IO[str] | IO[bytes], spec: SensorSpec) -> CalibrationDataset:
    """Parse and validate a calibration CSV ``t,theta,v0[,v1]`` of the sensor ``spec``.

    Applies :func:`read_columns`'s checks with the spec's ADC width, and its
    angle range as the last one: [-pi, pi] for a wheel, where -pi is stored
    as pi, and +-``angle_limit`` for a tilt.
    """
    header = ["t", "theta", *(f"v{i}" for i in range(len(spec.wipers)))]
    limit = math.pi if spec.wrap else spec.angle_limit
    name = {math.pi: "pi", TILT_LIMIT: "pi/2"}.get(limit, repr(limit))
    check = (limit, f"{spec.kind} angle {{}} outside [-{name}, {name}]")
    t, theta, *counts = _read_arrays(source, header, spec.adc_max, "calibration", check)
    theta[theta == -math.pi] = math.pi
    return CalibrationDataset(
        tracks=spec.tracks, t=t, theta=theta, counts=np.array(counts).T, adc_max=spec.adc_max
    )


def trim_and_shift(dataset: CalibrationDataset) -> list[ShiftedPairs]:
    """Per-wiper training pairs: shifted angle against count.

    A wiper with a gap drops the samples inside it and moves those past its
    edge one turn; a wiper without one keeps every sample.
    """
    out: list[ShiftedPairs] = []
    for wiper, track in enumerate(dataset.tracks):
        theta, counts = dataset.theta.astype(float), dataset.counts[:, wiper]
        if track is not None:
            keep = ~((theta >= track.gap.lo) & (theta <= track.gap.hi))
            if not bool(np.any(keep)):
                raise FitError(f"wiper {wiper}: no samples outside the gap region")
            theta, counts = theta[keep], counts[keep]
            theta = np.where(track.past(theta), theta + track.turn, theta)
        out.append(ShiftedPairs(theta, counts.astype(float)))
    return out


def fit_cubic(shifted_theta, v, adc_max: int = 1023) -> CubicModel:
    """Least-squares cubic of angle against count; the window is the data hull.

    Solved as ``numpy.polynomial.Polynomial.fit(v, theta, 3).convert()``
    solves it, on plain arrays and floats.  The counts are mapped onto
    [-1, 1] (raw-count Vandermonde systems are hopelessly conditioned), the
    Vandermonde columns scaled to unit norm, the system solved by one
    ``np.linalg.lstsq`` call, and the coefficients carried back to raw
    counts by Horner's rule on that map.  Every step is numpy.polynomial's
    own operation in its order, so the coefficients equal its bit for bit
    (``tests/oracles.py::fit_cubic_reference`` holds the two together).
    Warns with numpy's ``RankWarning`` when the scaled system's rank is
    below 4, as numpy.polynomial does.

    Raises:
        SpecError: inputs that are not 1-D of one length, or a non-finite
            angle or count.
        FitError: fewer than 8 pairs, fewer than 4 distinct counts, data
            hull narrower than half the ADC window, or a non-monotone fit.
    """
    theta = np.asarray(shifted_theta, dtype=float)
    counts = np.asarray(v, dtype=float)
    if theta.shape != counts.shape or theta.ndim != 1:
        raise SpecError("shifted_theta and v must be 1-D arrays of equal length")
    if not (np.isfinite(theta).all() and np.isfinite(counts).all()):
        raise SpecError("shifted_theta and v must be finite")
    n = theta.size
    if n < MIN_FIT_SAMPLES:
        raise FitError(f"need at least {MIN_FIT_SAMPLES} pairs, got {n}")
    if np.unique(counts).size < 4:
        raise FitError("need at least 4 distinct voltage values to fit a cubic")
    v_lo, v_hi = float(counts.min()), float(counts.max())
    if (v_hi - v_lo) < MIN_WINDOW_SPAN_FRACTION * adc_max:
        raise FitError(
            f"voltage span {v_hi - v_lo:.1f} covers less than "
            f"{MIN_WINDOW_SPAN_FRACTION:.0%} of the ADC window"
        )
    # x = off + scl*V maps [v_lo, v_hi] onto [-1, 1].
    off = (-v_hi - v_lo) / (v_hi - v_lo)
    scl = 2.0 / (v_hi - v_lo)
    x = off + scl * counts
    lhs = np.empty((4, n))  # the Vandermonde matrix, transposed
    lhs[0] = 1.0  # numpy's x*0 + 1, for a finite x
    lhs[1] = x
    np.multiply(x, x, out=lhs[2])
    np.multiply(lhs[2], x, out=lhs[3])
    norms = np.sqrt(np.square(lhs).sum(1))
    norms[norms == 0.0] = 1.0
    scaled, _, rank, _ = np.linalg.lstsq(lhs.T / norms, theta, n * np.finfo(float).eps)
    if rank != 4:
        warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    d3, d2, d1, d0 = (scaled / norms).tolist()[::-1]  # the cubic in x
    # Horner's rule, d3 -> d3*x + d2 -> ..., with x = off + scl*V: each
    # coefficient is a sum of at most two products, in any order the same.
    a1, a0 = d3 * scl, d2 + d3 * off
    b2, b1, b0 = a1 * scl, a0 * scl + a1 * off, d1 + a0 * off
    c = [b2 * scl, b1 * scl + b2 * off, b0 * scl + b1 * off, d0 + b0 * off]
    # numpy.polynomial drops zero top coefficients, and they come back as +0.0.
    top = 0
    while top < 3 and c[top] == 0.0:
        c[top] = 0.0
        top += 1
    try:
        return CubicModel(*c, (v_lo, v_hi))
    except FitError as exc:
        raise FitError(f"fitted cubic rejected: {exc}") from exc


# A sampled sweep's data hull stops up to one sample step short of the
# trim-edge angles the range targets sit on, so the inversion bracket is
# padded by a bounded margin (monotonicity re-validated on the padding).
_RANGE_PAD_FRACTION = 0.05


def _padded_for_inversion(model: CubicModel, adc_max: int) -> CubicModel:
    lo, hi = model.v_window
    pad = _RANGE_PAD_FRACTION * (hi - lo)
    lo2, hi2 = max(lo - pad, 0.0), min(hi + pad, float(adc_max))
    if (lo2, hi2) == (lo, hi):
        return model
    try:
        return CubicModel(model.c3, model.c2, model.c1, model.c0, (lo2, hi2))
    except FitError:
        return model


def compute_valid_ranges(
    *models: CubicModel, adc_max: int = 1023, tracks: Sequence[WiperTrack | None] = WHEEL_TRACKS
) -> tuple[ValidRange, ...]:
    """Integer count windows inside which each gapped wiper's reading is usable.

    ``models`` align with ``tracks``.  Each window is the inverse image of
    the track's :attr:`~paintpot.geometry.WiperTrack.window`, sorted
    ascending and rounded outward (floor the minimum, ceil the maximum) so
    the strict interior test never rejects a count the continuous formulas
    admit.
    """
    ranges = []
    for model, track in zip(models, tracks, strict=True):
        if track is None:
            continue
        padded = _padded_for_inversion(model, adc_max)
        lo, hi = sorted(invert_cubic(padded, target) for target in track.window)
        v_min = max(int(math.floor(lo)), 0)
        v_max = min(int(math.ceil(hi)), adc_max)
        ranges.append(ValidRange(v_min, v_max))
    return tuple(ranges)


def fit_report(dataset: CalibrationDataset, models: tuple[CubicModel, ...]) -> FitReport:
    """Residual summary of ``models`` on the dataset's trimmed/shifted pairs."""
    return _report(trim_and_shift(dataset), models)


def _report(pairs: list[ShiftedPairs], models: tuple[CubicModel, ...]) -> FitReport:
    """:func:`fit_report` on pairs already trimmed and shifted."""
    if len(models) != len(pairs):
        raise SpecError(f"{len(pairs)} wiper partitions but {len(models)} models")
    stats = []
    for model, (theta, counts) in zip(models, pairs):
        residual = theta - model.evaluate(counts)
        stats.append(
            WiperFitStats(
                n=int(theta.size),
                rms=float(np.sqrt(np.mean(residual**2))),
                max_abs=float(np.max(np.abs(residual))),
            )
        )
    return FitReport(tuple(stats))


def calibrate(dataset: CalibrationDataset) -> ModelBundle:
    """Full pipeline: trim/shift, fit per wiper, windows, residual report."""
    pairs = trim_and_shift(dataset)
    models = tuple(fit_cubic(theta, v, dataset.adc_max) for theta, v in pairs)
    return ModelBundle(
        tracks=dataset.tracks,
        models=models,
        valid_ranges=compute_valid_ranges(*models, adc_max=dataset.adc_max, tracks=dataset.tracks),
        report=_report(pairs, models),
        adc_max=dataset.adc_max,
    )


def bundle_to_dict(bundle: ModelBundle, manifest: dict | None = None) -> dict:
    """JSON-ready dict form of a bundle, with a spec file's ``gap_w<i>``
    keys where its gaps are not those of the reference wheel."""
    data = {
        "sensor_kind": bundle.sensor_kind,
        "adc_max": bundle.adc_max,
        "models": [m.to_dict() for m in bundle.models],
        "valid_ranges": [{"v_min": r.v_min, "v_max": r.v_max} for r in bundle.valid_ranges],
        "fit_report": {
            "wipers": [
                {"n": s.n, "rms": s.rms, "max_abs": s.max_abs} for s in bundle.report.wipers
            ]
        },
        "filter": dict(bundle.filter_params),
    }
    if bundle.sensor_kind == "wheel" and bundle.tracks != WHEEL_TRACKS:
        data.update({f"gap_w{i}": [t.gap.lo, t.gap.hi] for i, t in enumerate(bundle.tracks)})
    if manifest is not None:
        data["manifest"] = manifest
    return data


def bundle_from_dict(data: dict) -> ModelBundle:
    try:
        tracks, _ = geometry_from_dict(data["sensor_kind"], data)
        models = tuple(CubicModel.from_dict(m) for m in data["models"])
        ranges = tuple(
            ValidRange(int(r["v_min"]), int(r["v_max"])) for r in data.get("valid_ranges", [])
        )
        wipers = tuple(
            WiperFitStats(int(s["n"]), float(s["rms"]), float(s["max_abs"]))
            for s in data.get("fit_report", {}).get("wipers", [])
        )
        return ModelBundle(
            tracks=tracks,
            models=models,
            valid_ranges=ranges,
            report=FitReport(wipers),
            adc_max=int(data.get("adc_max", 1023)),
            filter_params=dict(data.get("filter", {})),
        )
    except (KeyError, TypeError, ValueError, FitError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"malformed model bundle: {exc}") from exc


def save_bundle(bundle: ModelBundle, path: str | Path, manifest: dict | None = None) -> None:
    text = json.dumps(bundle_to_dict(bundle, manifest), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def load_bundle(path: str | Path) -> ModelBundle:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: not UTF-8: {exc.reason}") from exc
    return bundle_from_dict(data)
