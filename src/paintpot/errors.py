"""The package's exceptions and its file layer.

Every input file is read and decoded once (:func:`read_text`).  A JSON file
is read by :func:`read_json` and its fields by the rules here; a log, lines
of comma-separated fields with no quoting, has its rows checked by
:func:`paintpot.characterize.read_columns`.  A JSON count goes through
:func:`as_int` and a JSON number through :func:`as_float`, each read at a
dotted key path by :func:`number_at` (a nested object by :func:`object_at`);
a JSON object that lacks a key or holds a wrong type raises
:class:`SpecError` (:func:`malformed`), and so does one that holds a key its
reader does not read (:func:`refuse_unknown_keys`); each fault names its key
path.
Every output embeds a :func:`run_manifest`: :func:`write_csv` writes it and
then the rows, a block at a time (:func:`write_rows`), and :func:`write_text`
writes the JSON text of :func:`json_text`, which refuses a non-finite float.
"""

import hashlib
import json
import math
import numbers
from contextlib import contextmanager
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


def object_at(data: dict, key: str, path: str = "") -> dict:
    """The JSON object at ``key`` of ``data``, ``{}`` when there is none;
    anything else raises :class:`SpecError` naming ``key`` after ``path``."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise SpecError(f"{path}{key} must be a JSON object, got {value!r}")
    return value


def number_at(data: dict, path: str, default: float | None = None, integer: bool = False, low: str = ""):
    """The finite number (:func:`as_float`), or with ``integer`` the int
    (:func:`as_int`), at the dotted key ``path`` of ``data``, else
    ``default``; ``low``, ``"> 0"`` or ``">= 0"``, bounds it from below.
    Faults name ``path``."""
    *sections, key = path.split(".")
    for section in sections:
        data = object_at(data, section)
    value = data.get(key, default)
    # An int as given: a float would round a seed above 2**53.
    number = as_int(value, path) if integer else as_float(value, path)
    if low and not (number > 0.0 or number == 0.0 and low == ">= 0"):
        raise SpecError(f"{path} must be {low}, got {value!r}")
    return number


def refuse_unknown_keys(data: dict, known: dict, what: str, path: str = "") -> None:
    """Raise :class:`SpecError` naming, by dotted path, each key of the JSON
    object ``data`` that ``known`` does not list: ``known[""]`` lists the keys
    of ``data`` itself, and ``known[section]`` those of the object at
    ``section``.  So a misspelt key cannot fall back to its default.  Each
    path begins with ``path``, the path ``data`` was reached by, if any."""
    unknown = [
        path + (f"{section}.{key}" if section else key)
        for section, keys in known.items()
        for key in (object_at(data, section, path) if section else data)
        if key not in keys
    ]
    if unknown:
        raise SpecError(f"unknown {what} key{'s' * (len(unknown) > 1)}: {', '.join(unknown)}")


@contextmanager
def malformed(what: str):
    """Raise the KeyError, TypeError, ValueError or :class:`FitError` of a
    JSON object that lacks a key or holds a wrong type or value as
    :class:`SpecError` ``malformed <what>: ...``; a SpecError passes."""
    try:
        yield
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError, FitError) as exc:
        raise SpecError(f"malformed {what}: {exc}") from exc


def check_adc_max(adc_max: int, key: str = "adc_max") -> None:
    """Raise :class:`SpecError` naming ``key`` unless ``adc_max`` is ``2**bits - 1``, bits >= 1."""
    if adc_max < 1 or (adc_max + 1) & adc_max != 0:
        raise SpecError(f"{key} must be 2**bits - 1 with bits >= 1, got {adc_max}")


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


def json_text(data, source) -> str:
    """``data`` as indented JSON with sorted keys and a final newline; a
    non-finite float, which JSON cannot hold, raises :class:`SpecError`
    naming ``source``."""
    try:
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SpecError(f"{source} holds a non-finite number: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def run_manifest(command: str, inputs: dict, outputs: Sequence[str], seed: int | None, config) -> dict:
    """The reproduction record every output of a run of ``command`` embeds:
    its input and output paths as given, its seed, and the sha256 of
    ``config`` as sorted-key JSON."""
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    return {"command": command, "inputs": inputs, "outputs": list(outputs), "seed": seed, "config_sha256": digest}


def write_csv(path, manifest: dict, header: str, row_format: str, columns: Sequence[Sequence]) -> None:
    """Write a CSV to ``path``: ``manifest`` as a ``# manifest`` comment
    line, the ``header`` line, then :func:`write_rows` of ``columns``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# manifest {json.dumps(manifest, sort_keys=True)}\n{header}\n")
        write_rows(handle, row_format, columns)


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
