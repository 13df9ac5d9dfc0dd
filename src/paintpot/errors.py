"""Exception hierarchy shared across the package, the ADC-width check, and
the one reader and writer of the package's JSON files."""

import json


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


def check_adc_max(adc_max: int) -> None:
    """Raise :class:`SpecError` unless ``adc_max`` is ``2**bits - 1``, bits >= 1."""
    if adc_max < 1 or (adc_max + 1) & adc_max != 0:
        raise SpecError(f"adc_max must be 2**bits - 1 with bits >= 1, got {adc_max}")


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not UTF-8 or
    not JSON raises :class:`SpecError` naming ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: not UTF-8: {exc.reason}") from exc


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as indented JSON with sorted keys; a
    non-finite float raises ValueError before the file is opened."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
