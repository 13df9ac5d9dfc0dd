"""Calibration-sweep processing: trim, shift, fit, and window derivation.

A sweep log pairs an externally tracked joint angle with one raw ADC count
per wiper; the sensor's spec gives its wipers' tracks, which the dataset
and the bundle fitted from it carry.  Each gapped wiper's samples inside
its gap are dropped and those past its edge translated one full turn,
making angle a continuous function of voltage.  A cubic is then fitted per
wiper, and a gapped wiper's valid range is the voltage window whose image
stays on its usable chart.  A tilt's one wiper has no gap and keeps every
sample.  A :class:`ModelBundle` holds these as its file does, as plain
data: a ``(v_min, v_max)`` pair of ints per count window and an ``(n, rms,
max_abs)`` triple per model's residuals, and checks them in one place.

The fit is one scaled least-squares solve on counts mapped onto [-1, 1],
carried back to raw counts by Horner's rule: the operations of
``numpy.polynomial.Polynomial.fit(...).convert()`` without its objects, so
its coefficients equal numpy.polynomial's bit for bit, which a test holds
against that path.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from paintpot.cubic import CubicModel, invert_cubic  # noqa: F401  (re-export)
from paintpot.errors import (
    FitError, SpecError, as_float, as_int, check_adc_max, json_text, malformed, object_at, read_json, read_text,
    refuse_unknown_keys, write_text,
)
from paintpot.geometry import (
    GEOMETRY_KEYS, TILT_LIMIT, WHEEL_TRACKS, Geometry, WiperTrack, geometry_from_dict, joint_kind,
)

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
class ModelBundle:
    """Everything a filter needs: tracks, models, windows, residuals, parameters.

    One model per track; per gapped track a count window, a plain
    ``(v_min, v_max)`` pair of ints whose wiper admits the counts strictly
    inside it; and per model an ``(n, rms, max_abs)`` residual triple, or
    none.  ``adc_max`` must be ``2**bits - 1``, and every window must lie
    inside the counts ``[0, adc_max]``: the filters table each model at
    every count of its window.  ``sensor_kind`` is its tracks' joint kind.
    Here alone is a window checked; a fault names its key after ``path``.
    """

    tracks: tuple[WiperTrack | None, ...]
    models: tuple[CubicModel, ...]
    valid_ranges: tuple[tuple[int, int], ...]
    report: tuple[tuple[int, float, float], ...]
    adc_max: int = 1023
    filter_params: dict = field(default_factory=dict)
    sensor_kind: str = field(init=False, repr=False, compare=False)
    path: InitVar[str] = ""

    def __post_init__(self, path: str) -> None:
        object.__setattr__(self, "sensor_kind", joint_kind(self.tracks))
        shape = (len(self.models), len(self.valid_ranges))
        expected = (len(self.tracks), sum(track is not None for track in self.tracks))
        if shape != expected:
            raise SpecError(f"{self.sensor_kind} bundle has ({path}models, {path}valid_ranges) = {shape}, "
                            f"expected {expected}")
        check_adc_max(self.adc_max, f"{path}adc_max")
        for i, (v_min, v_max) in enumerate(self.valid_ranges):
            if not 0 <= v_min < v_max:
                raise SpecError(f"{path}valid_ranges[{i}] must have 0 <= v_min < v_max, got ({v_min}, {v_max})")
            if v_max > self.adc_max:
                raise SpecError(f"{path}valid_ranges[{i}].v_max {v_max} exceeds adc_max {self.adc_max}")
        for i, model in enumerate(self.models):
            lo, hi = model.v_window
            if lo < 0.0 or hi > self.adc_max:
                raise SpecError(f"{path}models[{i}].v_window [{lo!r}, {hi!r}] outside [0, {self.adc_max}]")


# Columns of integer ADC counts; every other column holds floats.
COUNT_COLUMNS = ("v0", "v1")


def _read_columns_fast(
    text: str, lines: list[str], header: list[str], adc_max: int, theta_limit
) -> list[np.ndarray] | None:
    """The value arrays of a plainly valid log ``text``, split into ``lines``,
    its rows read by one ``np.loadtxt`` call and checked by numpy, or None.

    The header is found by the judge's rule, and the body's comment lines
    (``#`` after leading whitespace), which the judge skips, are dropped.
    A log that fails to load, or whose text, header or values fail a check,
    returns None: no error is decided here.
    """
    n = next((i for i, line in enumerate(lines) if line and not line.lstrip().startswith("#")), 0)  # 0: no header
    # The judge's: non-ASCII text (numpy 2.4's int64 parser reads U+01FE then ``5`` as 4625), and a line
    # long enough to hold a count over int()'s digit limit, which np.loadtxt reads (a zero-padded 5 as 5).
    if (not text.isascii() or max(map(len, lines)) > sys.get_int_max_str_digits()
            or [f.strip() for f in lines[n].split(",")] != header):
        return None
    body = lines[n + 1:]
    if text.count("#") > sum(line.count("#") for line in lines[:n + 1]):  # a '#' below the header
        body = [line for line in body if not line.lstrip().startswith("#")]
    dtype = [(name, np.int64 if name in COUNT_COLUMNS else np.float64) for name in header]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a body with no rows only warns
            values = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1, unpack=True)
    except (ValueError, Warning):
        return None
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


def read_columns(
    path: str | Path,
    header: list[str],
    adc_max: int,
    what: str,
    theta_limit: tuple[float, str] | None = None,
) -> list[np.ndarray]:
    """Parse the UTF-8 log at ``path`` with the given header into one array per column.

    A log is lines of comma-separated fields, with no quoting: a quote is an
    ordinary character, so a quoted field is a bad field.  Lines end at
    ``\\r\\n``, ``\\r`` or ``\\n``; blank lines and lines starting with ``#``
    (after leading whitespace) are skipped but counted, so errors name the
    physical line.  The first column is ``t``; the columns named in
    ``COUNT_COLUMNS`` hold int64 counts, every other one floats.  The file (a
    pipe too, as ``/dev/stdin``) is read and decoded once by
    :func:`~paintpot.errors.read_text`, so a log that is not UTF-8 raises
    naming ``path`` and the line of its first byte that is not, before any
    row is checked.  The text is split into lines once, and two stages read
    those lines.  The first reads in C: the header by the judge's rule, then
    every row below it, its ``#`` lines (such as a ``# manifest`` line)
    dropped, by one ``np.loadtxt`` call, with numpy checking the values.
    That stage can only accept.  A log it fails to load, or whose values
    fail a check, or with no rows, or with non-ASCII text or a line longer
    than ``sys.get_int_max_str_digits()`` anywhere, goes to the checked
    parser, the judge, which reads it one row at a time; it alone decides
    every row's error.

    Raises :class:`SpecError` naming the line of the first bad row.  A row
    is checked for, in this order: its field count, malformed fields (left
    to right), non-finite floats, a decreasing ``t``, counts outside [0,
    adc_max] (left to right) and, given ``theta_limit = (limit, text)``, a
    ``theta`` whose magnitude exceeds ``limit`` (the error is ``text``
    formatted with it).  ``what`` names the file when it holds no rows.
    """
    text = read_text(path)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return (_read_columns_fast(text, lines, header, adc_max, theta_limit)
            or _read_columns_checked(lines, header, adc_max, what, theta_limit))


def _read_columns_checked(
    lines: list[str], header: list[str], adc_max: int, what: str, theta_limit: tuple[float, str] | None
) -> list[np.ndarray]:
    """:func:`read_columns`' judge over a log's lines: one row at a
    time, it splits the line, counts and converts the fields, then checks
    the values, and raises at the first bad row.  It returns the columns as
    arrays, the counts as int64."""
    converters = [int if name in COUNT_COLUMNS else float for name in header]
    floats = [i for i, convert in enumerate(converters) if convert is float]
    counts = [i for i, convert in enumerate(converters) if convert is int]
    theta = header.index("theta") if theta_limit is not None else None
    columns: list[list] = [[] for _ in header]
    last_t = -math.inf
    found = False
    for number, line in enumerate(lines, 1):
        if not line or line.lstrip().startswith("#"):
            continue
        # str.strip removes the separators \x1c-\x1f, which int and float keep.
        row = [field.strip() for field in line.split(",")]
        if not found:
            if row != header:
                raise SpecError(f"line {number}: header must be {','.join(header)!r}, got {','.join(row)!r}")
            found = True
            continue
        if len(row) != len(header):
            raise SpecError(f"line {number}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [convert(field) for convert, field in zip(converters, row)]
        except ValueError as exc:
            raise SpecError(f"line {number}: {exc}") from None
        if not all(math.isfinite(values[i]) for i in floats):
            raise SpecError(f"line {number}: non-finite value")
        if values[0] < last_t:
            raise SpecError(f"line {number}: timestamp {values[0]} decreases")
        for i in counts:
            if not 0 <= values[i] <= adc_max:
                raise SpecError(f"line {number}: count {values[i]} outside [0, {adc_max}]")
        if theta is not None and abs(values[theta]) > theta_limit[0]:
            raise SpecError(f"line {number}: {theta_limit[1].format(values[theta])}")
        last_t = values[0]
        for column, value in zip(columns, values):
            column.append(value)
    if not found:
        raise SpecError(f"empty {what} file")
    if not columns[0]:
        raise SpecError(f"{what} file has a header but no data rows")
    return [np.array(c, dtype=np.int64 if f is int else float) for f, c in zip(converters, columns)]


def ingest_log(path: str | Path, sensor: Geometry) -> CalibrationDataset:
    """Parse and validate the calibration CSV ``t,theta,v0[,v1]`` at ``path``
    of a sensor with the given geometry.

    ``sensor`` (a :class:`~paintpot.geometry.Geometry` or a ``SensorSpec``)
    gives the tracks.  Applies :func:`read_columns`'s checks with its ADC
    width, and its angle range as the last one: [-pi, pi] for a wheel, where
    -pi is stored as pi, and +-``angle_limit`` for a tilt.
    """
    header = ["t", "theta", *(f"v{i}" for i in range(len(sensor.tracks)))]
    kind, limit = ("wheel", math.pi) if sensor.angle_limit is None else ("tilt", sensor.angle_limit)
    name = {math.pi: "pi", TILT_LIMIT: "pi/2"}.get(limit, repr(limit))
    check = (limit, f"{kind} angle {{}} outside [-{name}, {name}]")
    t, theta, *counts = read_columns(path, header, sensor.adc_max, "calibration", check)
    theta[theta == -math.pi] = math.pi
    return CalibrationDataset(
        tracks=sensor.tracks, t=t, theta=theta, counts=np.array(counts).T, adc_max=sensor.adc_max
    )


def trim_and_shift(dataset: CalibrationDataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-wiper training pairs ``(theta, v)``: shifted angle against count.

    A wiper with a gap drops the samples inside it and moves those past its
    edge one turn; a wiper without one keeps every sample.
    """
    out = []
    for wiper, track in enumerate(dataset.tracks):
        theta, counts = dataset.theta.astype(float), dataset.counts[:, wiper]
        if track is not None:
            keep = ~((theta >= track.gap.lo) & (theta <= track.gap.hi))
            if not bool(np.any(keep)):
                raise FitError(f"wiper {wiper}: no samples outside the gap region")
            theta, counts = theta[keep], counts[keep]
            theta = np.where(track.past(theta), theta + track.turn, theta)
        out.append((theta, counts.astype(float)))
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
    *models: CubicModel, adc_max: int, tracks: Sequence[WiperTrack | None]
) -> tuple[tuple[int, int], ...]:
    """Integer count windows ``(v_min, v_max)`` inside which each gapped wiper's reading is usable.

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
        ranges.append((v_min, v_max))
    return tuple(ranges)


def fit_report(pairs: list[tuple[np.ndarray, np.ndarray]], models: tuple[CubicModel, ...]) -> tuple:
    """Residual summary ``(n, rms, max_abs)`` of each of ``models`` on its trimmed/shifted training pairs."""
    if len(models) != len(pairs):
        raise SpecError(f"{len(pairs)} wiper partitions but {len(models)} models")
    stats = []
    for model, (theta, counts) in zip(models, pairs):
        residual = theta - model.evaluate(counts)
        stats.append((int(theta.size), float(np.sqrt(np.mean(residual**2))), float(np.max(np.abs(residual)))))
    return tuple(stats)


def calibrate(dataset: CalibrationDataset) -> ModelBundle:
    """Full pipeline: trim/shift, fit per wiper, windows, residual report."""
    pairs = trim_and_shift(dataset)
    models = tuple(fit_cubic(theta, v, dataset.adc_max) for theta, v in pairs)
    return ModelBundle(
        tracks=dataset.tracks,
        models=models,
        valid_ranges=compute_valid_ranges(*models, adc_max=dataset.adc_max, tracks=dataset.tracks),
        report=fit_report(pairs, models),
        adc_max=dataset.adc_max,
    )


def variance_keys(n_wipers: int) -> tuple[str, ...]:
    """Filter-parameter names of the wipers' ``r``: ``r`` alone, else ``r0``, ``r1``, ..."""
    return ("r",) if n_wipers == 1 else tuple(f"r{i}" for i in range(n_wipers))


# The keys a bundle file holds besides its geometry's, and those of its filter besides each wiper's r.
_BUNDLE_KEYS = ("sensor_kind", "models", "valid_ranges", "fit_report", "filter", "manifest")
_FILTER_KEYS = ("k", "dt", "q", "sigma0")


def bundle_to_dict(bundle: ModelBundle, manifest: dict | None = None) -> dict:
    """JSON-ready dict form of a bundle, with a spec file's ``gap_w<i>``
    keys where its gaps are not those of the reference wheel."""
    data = {
        "sensor_kind": bundle.sensor_kind,
        "adc_max": bundle.adc_max,
        "models": [m.to_dict() for m in bundle.models],
        "valid_ranges": [{"v_min": v_min, "v_max": v_max} for v_min, v_max in bundle.valid_ranges],
        "fit_report": {"wipers": [{"n": n, "rms": rms, "max_abs": max_abs} for n, rms, max_abs in bundle.report]},
        "filter": dict(bundle.filter_params),
    }
    if bundle.sensor_kind == "wheel" and bundle.tracks != WHEEL_TRACKS:
        data.update({f"gap_w{i}": [t.gap.lo, t.gap.hi] for i, t in enumerate(bundle.tracks)})
    if manifest is not None:
        data["manifest"] = manifest
    return data


def bundle_from_dict(data: dict, path: str = "") -> ModelBundle:
    """Inverse of :func:`bundle_to_dict`, with schema validation; its count
    fields must be integers (:func:`~paintpot.errors.as_int`), its other
    numbers JSON numbers (:func:`~paintpot.errors.as_float`), and a key it
    does not read, at its top level, in its ``filter``, ``fit_report`` or
    a wiper's fit statistics, or in a cubic, is refused.  Each names its
    key by its path after ``path``, the path of the bundle in the file that
    holds it (``"models."`` in an experiment config)."""
    with malformed("model bundle"):
        tracks, _, adc_max = geometry_from_dict(data["sensor_kind"], data, path)
        known = {"": (*_BUNDLE_KEYS, *GEOMETRY_KEYS[data["sensor_kind"]]),
                 "filter": (*_FILTER_KEYS, *variance_keys(len(tracks))), "fit_report": ("wipers",)}
        refuse_unknown_keys(data, known, "model-bundle", path)
        models = tuple(CubicModel.from_dict(m, f"{path}models[{i}]") for i, m in enumerate(data["models"]))

        def entries(objects, at, fields):
            """Each object's checked fields, as a tuple; a key it does not read is refused."""
            for i, obj in enumerate(objects):
                yield tuple(check(obj[k], f"{path}{at}[{i}].{k}") for check, k in fields)
                refuse_unknown_keys(obj, {"": [k for _, k in fields]}, "model-bundle", f"{path}{at}[{i}].")

        ranges = entries(data.get("valid_ranges", []), "valid_ranges", ((as_int, "v_min"), (as_int, "v_max")))
        fields = ((as_int, "n"), (as_float, "rms"), (as_float, "max_abs"))
        wipers = entries(object_at(data, "fit_report", path).get("wipers", []), "fit_report.wipers", fields)
        return ModelBundle(
            tracks=tracks,
            models=models,
            valid_ranges=tuple(ranges),
            report=tuple(wipers),
            adc_max=adc_max,
            filter_params=dict(object_at(data, "filter", path)),
            path=path,
        )


def save_bundle(bundle: ModelBundle, path: str | Path, manifest: dict | None = None) -> None:
    write_text(path, json_text(bundle_to_dict(bundle, manifest), path))


def load_bundle(path: str | Path) -> ModelBundle:
    return bundle_from_dict(read_json(path))
