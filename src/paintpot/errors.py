"""Exception hierarchy shared across the package, the rules for integer
and float fields of input files, the ADC-width check, the one reader of
every input file (log, bundle, spec or config), which decodes it once and
rejects one that is not UTF-8 before anything parses it, the one reader and
writer of the package's JSON files, and the one writer of CSV rows, which
formats a block of :data:`ROWS_PER_WRITE` rows with one ``%`` and writes it
at once."""

import json
import math
import numbers
from pathlib import Path
from typing import IO, Sequence

ROWS_PER_WRITE = 1_024


class PaintPotError(Exception):
    """Base class for every error raised by this package."""


class SpecError(PaintPotError, ValueError):
    """Invalid sensor/filter/experiment configuration or file schema."""


class DomainError(PaintPotError, ValueError):
    """An angle or voltage lies outside its documented domain."""


class FitError(PaintPotError, RuntimeError):
    """Characterization failed: coverage, rank, or monotonicity."""


class InversionError(PaintPotError, RuntimeError):
    """A target angle is unreachable by a monotone model on its window."""


class InitializationError(PaintPotError, RuntimeError):
    """No valid feature was available to seed a filter."""


def as_int(value: object, key: str) -> int:
    """``value`` as an int: an integer, or a float that is a whole number,
    and never a bool.  Anything else raises :class:`SpecError` naming ``key``."""
    whole = isinstance(value, float) and value.is_integer()
    if whole or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise SpecError(f"{key} must be an integer, got {value!r}")


def as_float(value: object, key: str) -> float:
    """``value`` as a float: an integer or a float, never a bool or a
    string, and finite.  Anything else raises :class:`SpecError` naming ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the largest float
            number = math.inf
        if math.isfinite(number):
            return number
    raise SpecError(f"{key} must be a finite number, got {value!r}")


def check_adc_max(adc_max: int) -> None:
    """Raise :class:`SpecError` unless ``adc_max`` is ``2**bits - 1``, bits >= 1."""
    if adc_max < 1 or (adc_max + 1) & adc_max != 0:
        raise SpecError(f"adc_max must be 2**bits - 1 with bits >= 1, got {adc_max}")


def read_text(path) -> str:
    """The text of the file at ``path``, its bytes read once and decoded
    once as UTF-8.  A file that is not UTF-8 raises :class:`SpecError`
    naming ``path`` and the physical line (ended by LF, CR or CRLF) of the
    first byte that is not."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise SpecError(f"{path}: line {line}: not UTF-8: {exc.reason}") from None


def read_json(path) -> dict:
    """The JSON object in the file at ``path``; a file that is not UTF-8
    (:func:`read_text`), not JSON or not an object raises :class:`SpecError`
    naming ``path``."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as indented JSON with sorted keys; a
    non-finite float raises ValueError before the file is opened."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def write_rows(handle: IO[str], row_format: str, columns: Sequence[Sequence]) -> None:
    """Write one ``row_format`` line per row of ``columns``, equal-length
    sequences of the rows' values in field order.

    Each block of :data:`ROWS_PER_WRITE` rows is one ``%`` on
    ``row_format`` repeated for the block and one write; the columns are
    interleaved into the ``%`` arguments one block at a time, so no
    argument list of the whole table exists.
    """
    width, n = len(columns), len(columns[0])
    values: list = []
    for start in range(0, n, ROWS_PER_WRITE):
        rows = min(n - start, ROWS_PER_WRITE)
        if len(values) != width * rows:  # the first block, and a short last one
            block_format, values = row_format * rows, [None] * (width * rows)
        for field, column in enumerate(columns):
            values[field::width] = column[start:start + rows]
        handle.write(block_format % tuple(values))
