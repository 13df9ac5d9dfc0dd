"""Calibration-sweep processing: trim, shift, fit, and window derivation.

A sweep log pairs an externally tracked joint angle with one raw ADC count
per wiper.  A wheel's two wipers ride the gapped tracks of
:data:`~paintpot.geometry.WHEEL_TRACKS`: each wiper's samples inside its
gap are dropped and those past its edge translated one full turn, making
angle a continuous function of voltage.  A cubic is then fitted per wiper,
and a gapped wiper's valid range is the voltage window whose image stays
on its usable chart.  A tilt's one wiper has no gap and keeps every sample.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, NamedTuple, Sequence

import numpy as np

from paintpot.cubic import CubicModel, invert_cubic  # noqa: F401  (re-export)
from paintpot.errors import FitError, SpecError, check_adc_max
from paintpot.geometry import TILT_LIMIT, WHEEL_TRACKS, WiperTrack

# Each sensor kind's wiper tracks (None: no gap), and its logs' angle range.
SENSOR_TRACKS: dict[str, tuple[WiperTrack | None, ...]] = {"wheel": WHEEL_TRACKS, "tilt": (None,)}
ANGLE_LIMITS = {
    "wheel": (math.pi, "wheel angle {} outside [-pi, pi]"),
    "tilt": (TILT_LIMIT, "tilt angle {} outside [-pi/2, pi/2]"),
}
SENSOR_KINDS = tuple(SENSOR_TRACKS)

MIN_FIT_SAMPLES = 8
MIN_WINDOW_SPAN_FRACTION = 0.5


@dataclass(frozen=True)
class CalibrationDataset:
    """Validated sweep log; ``counts[i, w]`` is wiper ``w``'s count at sample ``i``."""

    sensor_kind: str
    t: np.ndarray
    theta: np.ndarray
    counts: np.ndarray
    adc_max: int = 1023

    def __post_init__(self) -> None:
        if self.sensor_kind not in SENSOR_KINDS:
            raise SpecError(f"sensor_kind must be one of {SENSOR_KINDS}, got {self.sensor_kind!r}")
        n = len(self.t)
        if n == 0:
            raise SpecError("calibration dataset is empty")
        if len(self.theta) != n:
            raise SpecError("calibration columns have mismatched lengths")
        shape = (n, len(self.tracks))
        if np.shape(self.counts) != shape:
            raise SpecError(f"{self.sensor_kind} counts need shape {shape}, got {np.shape(self.counts)}")
        if np.any(np.diff(self.t) < 0.0):
            raise SpecError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def tracks(self) -> tuple[WiperTrack | None, ...]:
        return SENSOR_TRACKS[self.sensor_kind]

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
    """Everything a filter needs: models, windows, residuals, parameters.

    A wheel bundle has two models and two valid ranges, a tilt bundle one
    model and none.  ``adc_max`` must be ``2**bits - 1``, and every valid
    range and model window must lie inside the counts ``[0, adc_max]``: the
    filters table each model at every count of its window.
    """

    sensor_kind: str
    models: tuple[CubicModel, ...]
    valid_ranges: tuple[ValidRange, ...]
    report: FitReport
    adc_max: int = 1023
    filter_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = (len(self.models), len(self.valid_ranges))
        expected = (2, 2) if self.sensor_kind == "wheel" else (1, 0)
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

    def with_filter_params(self, params: dict) -> "ModelBundle":
        return replace(self, filter_params=dict(params))


def _open_text(source: str | Path | IO[str] | IO[bytes]):
    """Normalize a path / text stream / byte stream into text lines."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


# Raw fields are converted every 256 rows, so the text of a long log is
# never held in memory at once, only its values.  The row lists of a chunk
# are alive together; 256 stays well under the 700 net container
# allocations that start a young garbage collection, so reading a log
# seldom starts one, and few row lists survive into an older generation
# to bring on a full collection.
_CHUNK_ROWS = 256
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
    fields = list(zip(*rows))
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


def read_columns(
    source: str | Path | IO[str] | IO[bytes],
    header: Sequence[str],
    adc_max: int,
    what: str,
    theta_limit: tuple[float, str] | None = None,
) -> list[list]:
    """Parse a CSV log with the given header into one list per column.

    The first column is ``t``; the columns named in ``COUNT_COLUMNS`` hold
    ints, every other one floats.  The source (a path, a text stream or a
    byte stream) is read once with ``csv.reader``; rows are converted
    column by column, a chunk at a time, and numpy masks check the values.
    Lines starting with ``#`` are skipped but counted, so errors name the
    physical line.

    Raises :class:`SpecError` naming the line of the first bad row.  A row
    is checked for, in this order: its field count, malformed fields (left
    to right), non-finite floats, a decreasing ``t``, counts outside
    [0, adc_max] (left to right) and, given ``theta_limit = (limit, text)``,
    a ``theta`` whose magnitude exceeds ``limit`` (the error is ``text``
    formatted with it).  ``what`` names the file when it holds no rows.
    """
    header = list(header)
    width = len(header)
    converters = [int if name in COUNT_COLUMNS else float for name in header]
    columns: list[list] = [[] for _ in header]
    lines: list[int] = []  # physical line of each row
    rows: list[list[str]] = []
    # The first row with a wrong field count or a malformed field ends the
    # rows that are value-checked; its error is raised if none of them fails.
    error = malformed = None
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        found = None
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
    finally:
        if owned:
            handle.close()
    if found is None:
        raise SpecError(f"empty {what} file")
    if not lines and error is None:
        raise SpecError(f"{what} file has a header but no data rows")
    if malformed is None:
        malformed = _convert_rows(rows, converters, columns)
    if malformed is not None:
        error = SpecError(f"line {lines[len(columns[0])]}: {malformed}")

    # Counts stay Python ints (object arrays), so no count overflows.
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
    return columns


def ingest_log(
    source: str | Path | IO[str] | IO[bytes],
    sensor_kind: str,
    adc_max: int = 1023,
) -> CalibrationDataset:
    """Parse and validate a calibration CSV ``t,theta,v0[,v1]``.

    Applies :func:`read_columns`'s checks with the sensor's angle range as
    the last one: [-pi, pi] for a wheel, where -pi is stored as pi, and
    [-pi/2, pi/2] for a tilt.
    """
    if sensor_kind not in SENSOR_KINDS:
        raise SpecError(f"sensor_kind must be one of {SENSOR_KINDS}, got {sensor_kind!r}")
    header = ["t", "theta", *(f"v{i}" for i in range(len(SENSOR_TRACKS[sensor_kind])))]
    limit = ANGLE_LIMITS[sensor_kind]
    t, theta, *counts = read_columns(source, header, adc_max, "calibration", limit)
    theta = np.array(theta, dtype=float)
    theta[theta == -math.pi] = math.pi
    return CalibrationDataset(
        sensor_kind=sensor_kind,
        t=np.array(t, dtype=float),
        theta=theta,
        counts=np.array(counts, dtype=np.int64).T,
        adc_max=adc_max,
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
    """Least-squares cubic of angle against count.

    Counts are rescaled to [-1, 1] for the solve (raw-count Vandermonde
    systems are hopelessly conditioned) and the coefficients mapped back to
    raw counts; the window is the data hull.

    Raises:
        FitError: fewer than 8 pairs, fewer than 4 distinct counts, data
            hull narrower than half the ADC window, or a non-monotone fit.
    """
    theta = np.asarray(shifted_theta, dtype=float)
    counts = np.asarray(v, dtype=float)
    if theta.shape != counts.shape or theta.ndim != 1:
        raise SpecError("shifted_theta and v must be 1-D arrays of equal length")
    if theta.size < MIN_FIT_SAMPLES:
        raise FitError(f"need at least {MIN_FIT_SAMPLES} pairs, got {theta.size}")
    if np.unique(counts).size < 4:
        raise FitError("need at least 4 distinct voltage values to fit a cubic")
    v_lo, v_hi = float(counts.min()), float(counts.max())
    if (v_hi - v_lo) < MIN_WINDOW_SPAN_FRACTION * adc_max:
        raise FitError(
            f"voltage span {v_hi - v_lo:.1f} covers less than "
            f"{MIN_WINDOW_SPAN_FRACTION:.0%} of the ADC window"
        )
    series = np.polynomial.Polynomial.fit(counts, theta, deg=3)
    coef = series.convert().coef
    c = np.zeros(4)
    c[: coef.size] = coef
    try:
        return CubicModel(float(c[3]), float(c[2]), float(c[1]), float(c[0]), (v_lo, v_hi))
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
    pairs = trim_and_shift(dataset)
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
        sensor_kind=dataset.sensor_kind,
        models=models,
        valid_ranges=compute_valid_ranges(*models, adc_max=dataset.adc_max, tracks=dataset.tracks),
        report=fit_report(dataset, models),
        adc_max=dataset.adc_max,
    )


def bundle_to_dict(bundle: ModelBundle, manifest: dict | None = None) -> dict:
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
    if manifest is not None:
        data["manifest"] = manifest
    return data


def bundle_from_dict(data: dict) -> ModelBundle:
    try:
        kind = data["sensor_kind"]
        if kind not in SENSOR_KINDS:
            raise SpecError(f"sensor_kind must be one of {SENSOR_KINDS}, got {kind!r}")
        models = tuple(CubicModel.from_dict(m) for m in data["models"])
        ranges = tuple(
            ValidRange(int(r["v_min"]), int(r["v_max"])) for r in data.get("valid_ranges", [])
        )
        wipers = tuple(
            WiperFitStats(int(s["n"]), float(s["rms"]), float(s["max_abs"]))
            for s in data.get("fit_report", {}).get("wipers", [])
        )
        return ModelBundle(
            sensor_kind=kind,
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
    return bundle_from_dict(data)
