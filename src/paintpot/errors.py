"""Exception hierarchy shared across the package, and the ADC-width check."""


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
