"""Exception types and the integer rule shared across the package."""

import numpy as np


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one, though Python counts it as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class VortexUcaError(Exception):
    """Base class for all vortex-uca errors."""


class ValidationError(VortexUcaError):
    """A named field failed validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(VortexUcaError):
    """Config text could not be parsed; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


class DegenerateGeometry(VortexUcaError):
    """The receive-bearing triangle collapsed (offset angle undefined)."""


class OrderOutOfRange(VortexUcaError):
    """Bessel order or argument outside the supported range."""


class CaseMismatch(VortexUcaError):
    """A special-case formula was called outside its geometric case."""


class LengthMismatch(VortexUcaError):
    """Vector or matrix dimensions do not agree."""


class ModeUnobservable(VortexUcaError):
    """A mode cannot be inverted at some receive element (near-zero gain factor)."""

    def __init__(self, element: int, mode: int):
        super().__init__(
            f"mode {mode} unobservable at receive element {element}: "
            f"|c_factor| below inversion threshold"
        )
        self.element = element
        self.mode = mode
