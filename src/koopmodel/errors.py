"""Exception hierarchy shared across the package, and the one rule for a
JSON number that must be a finite double.

Two broad families matter to callers: ``InputError`` covers malformed data,
configuration, or model files (CLI exit code 2), ``NumericalError`` covers
failures of the numerical procedures themselves (CLI exit code 3).
"""

import math


def finite_double(value) -> float | None:
    """``value`` as a finite double, or None if it is not a JSON number or
    is infinite, NaN or beyond the double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        return None
    return number if math.isfinite(number) else None


class KoopmodelError(Exception):
    """Base class for all package errors."""


class InputError(KoopmodelError):
    """Malformed data, dictionary, configuration, or model file."""


class NumericalError(KoopmodelError):
    """A numerical procedure failed on otherwise well-formed input."""


class EvaluationError(InputError):
    """An observable produced a non-finite value; names the observable."""


class UnknownObservableError(InputError):
    """An observable id is not present in the dictionary."""


class LiftError(InputError):
    """A trajectory cannot produce a single lifted column pair."""


class ShapeMismatchError(InputError):
    """Array shapes disagree with the operation's contract."""


class ConfigError(InputError):
    """A run configuration or dictionary specification is invalid."""


class DefectiveMatrixError(NumericalError):
    """The operator is not diagonalizable within tolerance."""


class EigenfunctionRankError(NumericalError):
    """The eigenfunction time-series matrix is rank deficient."""


class SpectralOverflowError(NumericalError):
    """|lambda|^k overflows for the requested prediction step."""


class ModelFormatError(InputError):
    """Base class for model-file load failures."""


class ModelVersionError(ModelFormatError):
    """The file's magic bytes or format version are not supported."""


class ModelTruncatedError(ModelFormatError):
    """The file ends before the declared payload is complete."""


class ModelChecksumError(ModelFormatError):
    """The file's checksum does not match its contents."""
