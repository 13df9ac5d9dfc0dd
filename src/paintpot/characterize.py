"""Calibration-sweep processing: trim, shift, fit, and window derivation.

A sweep log pairs an externally tracked joint angle with raw ADC counts.
For wheel sensors each wiper's samples are trimmed of the gap region and
the segment beyond the gap is translated one full turn, making angle a
continuous function of voltage; a cubic is then fitted per wiper and the
voltage window whose image stays on the usable chart becomes that wiper's
valid range.  Tilt logs skip the trim/shift and fit a single cubic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from paintpot.cubic import CubicModel, invert_cubic  # noqa: F401  (re-export)
from paintpot.errors import FitError, SpecError
from paintpot.geometry import GAP_WIPER0, GAP_WIPER1, TWO_PI, Interval

SENSOR_KINDS = ("wheel", "tilt")

MIN_FIT_SAMPLES = 8
MIN_WINDOW_SPAN_FRACTION = 0.5

# Shifted-chart angle targets bounding each wiper's usable voltage window:
# wiper 0 spans (gap-top - 2*pi, gap-bottom), wiper 1 the mirror image.
WIPER0_WINDOW_ANGLES = (GAP_WIPER0.hi - TWO_PI, GAP_WIPER0.lo)
WIPER1_WINDOW_ANGLES = (GAP_WIPER1.hi, GAP_WIPER1.lo + TWO_PI)


@dataclass(frozen=True)
class CalibrationSample:
    """One sweep row: time, tracked angle, and raw count(s)."""

    t: float
    theta: float
    v0: int
    v1: int | None = None


@dataclass(frozen=True)
class CalibrationDataset:
    """Validated sweep log stored as parallel arrays."""

    sensor_kind: str
    t: np.ndarray
    theta: np.ndarray
    v0: np.ndarray
    v1: np.ndarray | None
    adc_max: int = 1023

    def __post_init__(self) -> None:
        if self.sensor_kind not in SENSOR_KINDS:
            raise SpecError(f"sensor_kind must be one of {SENSOR_KINDS}, got {self.sensor_kind!r}")
        n = len(self.t)
        if n == 0:
            raise SpecError("calibration dataset is empty")
        if len(self.theta) != n or len(self.v0) != n:
            raise SpecError("calibration columns have mismatched lengths")
        if self.sensor_kind == "wheel":
            if self.v1 is None or len(self.v1) != n:
                raise SpecError("wheel datasets require a v1 column")
        elif self.v1 is not None:
            raise SpecError("tilt datasets must not carry a v1 column")
        if np.any(np.diff(self.t) < 0.0):
            raise SpecError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def from_samples(
        cls, sensor_kind: str, samples: Iterable[CalibrationSample], adc_max: int = 1023
    ) -> "CalibrationDataset":
        rows = list(samples)
        v1 = None
        if sensor_kind == "wheel":
            v1 = np.array([s.v1 for s in rows], dtype=np.int64)
        return cls(
            sensor_kind=sensor_kind,
            t=np.array([s.t for s in rows], dtype=float),
            theta=np.array([s.theta for s in rows], dtype=float),
            v0=np.array([s.v0 for s in rows], dtype=np.int64),
            v1=v1,
            adc_max=adc_max,
        )


@dataclass(frozen=True)
class ValidRange:
    """Integer count window; a count is admitted strictly inside it."""

    v_min: int
    v_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.v_min < self.v_max:
            raise SpecError(f"invalid count window ({self.v_min}, {self.v_max})")

    def admits(self, count: int) -> bool:
        return self.v_min < count < self.v_max


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
    """Everything a filter needs: models, windows, residuals, parameters."""

    sensor_kind: str
    models: tuple[CubicModel, ...]
    valid_ranges: tuple[ValidRange, ...]
    report: FitReport
    adc_max: int = 1023
    filter_params: dict = field(default_factory=dict)

    def with_filter_params(self, params: dict) -> "ModelBundle":
        return replace(self, filter_params=dict(params))


def _open_text(source: str | Path | IO[str] | IO[bytes]):
    """Normalize a path / text stream / byte stream into text lines."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


def ingest_log(
    source: str | Path | IO[str] | IO[bytes],
    sensor_kind: str,
    adc_max: int = 1023,
) -> CalibrationDataset:
    """Parse and validate a calibration CSV ``t,theta,v0[,v1]``.

    Lines starting with ``#`` are ignored.  Raises :class:`SpecError`
    naming the offending line for schema mismatches, malformed fields,
    decreasing timestamps, counts outside [0, adc_max], or angles outside
    the sensor's range.
    """
    if sensor_kind not in SENSOR_KINDS:
        raise SpecError(f"sensor_kind must be one of {SENSOR_KINDS}, got {sensor_kind!r}")
    expected = ["t", "theta", "v0"] + (["v1"] if sensor_kind == "wheel" else [])
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        header = None
        # Plain per-column lists: no per-row object, so parsing a log leaves
        # nothing for the cyclic garbage collector to trace.
        columns: tuple[list, ...] = ([], [], [], [])  # t, theta, v0, v1
        last_t = -math.inf
        for row in reader:
            line = reader.line_num
            if not row or row[0].lstrip().startswith("#"):
                continue
            fields = [f.strip() for f in row]
            if header is None:
                if fields != expected:
                    raise SpecError(
                        f"line {line}: header must be {','.join(expected)!r}, "
                        f"got {','.join(fields)!r}"
                    )
                header = fields
                continue
            if len(fields) != len(expected):
                raise SpecError(f"line {line}: expected {len(expected)} fields, got {len(fields)}")
            try:
                t = float(fields[0])
                theta = float(fields[1])
                counts = [int(f) for f in fields[2:]]
            except ValueError as exc:
                raise SpecError(f"line {line}: {exc}") from exc
            if not math.isfinite(t) or not math.isfinite(theta):
                raise SpecError(f"line {line}: non-finite value")
            if t < last_t:
                raise SpecError(f"line {line}: timestamp {t} decreases")
            last_t = t
            for count in counts:
                if not 0 <= count <= adc_max:
                    raise SpecError(f"line {line}: count {count} outside [0, {adc_max}]")
            if sensor_kind == "wheel":
                if theta < -math.pi or theta > math.pi:
                    raise SpecError(f"line {line}: wheel angle {theta} outside [-pi, pi]")
                if theta == -math.pi:
                    theta = math.pi
            elif abs(theta) > math.pi / 2.0:
                raise SpecError(f"line {line}: tilt angle {theta} outside [-pi/2, pi/2]")
            for column, value in zip(columns, (t, theta, *counts)):
                column.append(value)
        if header is None:
            raise SpecError("empty calibration file")
        t_col, theta_col, v0_col, v1_col = columns
        if not t_col:
            raise SpecError("calibration file has a header but no data rows")
        return CalibrationDataset(
            sensor_kind=sensor_kind,
            t=np.array(t_col, dtype=float),
            theta=np.array(theta_col, dtype=float),
            v0=np.array(v0_col, dtype=np.int64),
            v1=np.array(v1_col, dtype=np.int64) if sensor_kind == "wheel" else None,
            adc_max=adc_max,
        )
    finally:
        if owned:
            handle.close()


def trim_and_shift(
    dataset: CalibrationDataset,
    gap_w0: Interval = GAP_WIPER0,
    gap_w1: Interval = GAP_WIPER1,
) -> list[ShiftedPairs]:
    """Per-wiper training pairs with gap samples dropped and the far
    segment translated by one turn.

    Wiper 0 drops samples inside ``gap_w0`` and shifts angles above it down
    by 2*pi; wiper 1 drops ``gap_w1`` and shifts angles below it up by 2*pi.
    Tilt datasets pass through unchanged as a single pair list.
    """
    if dataset.sensor_kind == "tilt":
        return [ShiftedPairs(dataset.theta.astype(float), dataset.v0.astype(float))]
    out: list[ShiftedPairs] = []
    for wiper, gap, counts in ((0, gap_w0, dataset.v0), (1, gap_w1, dataset.v1)):
        theta = dataset.theta
        keep = ~((theta >= gap.lo) & (theta <= gap.hi))
        if not bool(np.any(keep)):
            raise FitError(f"wiper {wiper}: no samples outside the gap region")
        shifted = theta[keep].astype(float)
        if wiper == 0:
            shifted = np.where(shifted > gap.hi, shifted - TWO_PI, shifted)
        else:
            shifted = np.where(shifted < gap.lo, shifted + TWO_PI, shifted)
        out.append(ShiftedPairs(shifted, counts[keep].astype(float)))
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
    m0: CubicModel, m1: CubicModel, adc_max: int = 1023
) -> tuple[ValidRange, ValidRange]:
    """Integer count windows inside which each wiper's reading is usable.

    Each window is the inverse image of the wiper's usable shifted-chart
    span, sorted ascending and rounded outward (floor the minimum, ceil the
    maximum) so the strict interior test never rejects a count the
    continuous formulas admit.
    """
    ranges = []
    for model, targets in ((m0, WIPER0_WINDOW_ANGLES), (m1, WIPER1_WINDOW_ANGLES)):
        padded = _padded_for_inversion(model, adc_max)
        v_a = invert_cubic(padded, targets[0])
        v_b = invert_cubic(padded, targets[1])
        lo, hi = sorted((v_a, v_b))
        v_min = max(int(math.floor(lo)), 0)
        v_max = min(int(math.ceil(hi)), adc_max)
        ranges.append(ValidRange(v_min, v_max))
    return ranges[0], ranges[1]


def fit_report(
    dataset: CalibrationDataset,
    models: tuple[CubicModel, ...],
    gap_w0: Interval = GAP_WIPER0,
    gap_w1: Interval = GAP_WIPER1,
) -> FitReport:
    """Residual summary of ``models`` on the dataset's trimmed/shifted pairs."""
    pairs = trim_and_shift(dataset, gap_w0, gap_w1)
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


def calibrate(
    dataset: CalibrationDataset,
    gap_w0: Interval = GAP_WIPER0,
    gap_w1: Interval = GAP_WIPER1,
) -> ModelBundle:
    """Full pipeline: trim/shift, fit per wiper, windows, residual report."""
    pairs = trim_and_shift(dataset, gap_w0, gap_w1)
    models = tuple(fit_cubic(theta, v, dataset.adc_max) for theta, v in pairs)
    if dataset.sensor_kind == "wheel":
        valid_ranges = compute_valid_ranges(models[0], models[1], dataset.adc_max)
    else:
        valid_ranges = ()
    report = fit_report(dataset, models, gap_w0, gap_w1)
    return ModelBundle(
        sensor_kind=dataset.sensor_kind,
        models=models,
        valid_ranges=valid_ranges,
        report=report,
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(bundle_to_dict(bundle, manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bundle(path: str | Path) -> ModelBundle:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    return bundle_from_dict(data)
