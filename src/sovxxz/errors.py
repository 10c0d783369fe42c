"""Exception types shared across the package, ``refuse``, which decides the
entry a refusal names (the first offender, in row-major order), and the
decorator that names that entry's record or pair in the message."""

from functools import wraps

import numpy as np


class SovxxzError(Exception):
    """Base class for all package errors.

    ``at`` is the index of the first offending entry of the array a refusal
    checked, when it checked one (empty otherwise).
    """

    def __init__(self, message: str = "", at: tuple[int, ...] = ()):
        super().__init__(message)
        self.at = tuple(int(i) for i in at)


class DimensionError(SovxxzError):
    """Matrix or vector has an incompatible shape."""


class ParameterError(SovxxzError):
    """Model parameters violate the genericity/separation requirements."""


class SingularEvaluationError(SovxxzError):
    """A denominator factor is too close to zero to evaluate reliably."""


class ConvergenceError(SovxxzError):
    """An iterative routine failed to reach its target residual."""


class DegenerateSpectrumError(SovxxzError):
    """Transfer-matrix eigenvalues are too close; parameters must be re-seeded."""


class ParityError(SovxxzError):
    """A monodromy block breaks the S^z-parity grading of the transfer matrix."""


class AmbiguousNullspaceError(SovxxzError):
    """The sampled functional system does not have a one-dimensional nullspace."""


class CertificationError(SovxxzError):
    """An eigenvalue record failed one of its certification checks."""


class InversionError(SovxxzError):
    """A transfer-matrix factor required by the inverse problem is singular."""


def refuse(flags, error: type[SovxxzError], message) -> None:
    """Raise ``error`` at the first entry of ``flags`` that holds, in row-major
    order, with that entry's index as ``at``; do nothing when none holds.
    ``message`` is a string, or a function of the index that returns one."""
    flags = np.asarray(flags)
    if flags.any():
        at = tuple(int(i) for i in np.unravel_index(np.argmax(flags), flags.shape))
        raise error(message(at) if callable(message) else message, at=at)


def names_refusals(name):
    """Decorator: a refusal raised inside the decorated function whose ``at``
    index ``name`` names (``name(at)`` is a string, or None for none) is
    raised again as ``name(at): message``, with its index spent."""
    def decorate(fn):
        @wraps(fn)
        def named(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except SovxxzError as exc:
                label = name(exc.at)
                if label is None:
                    raise
                raise type(exc)(f"{label}: {exc}") from None
        return named
    return decorate


# a function over a stack of records prefixes a refusal raised inside it with
# its record (``record 5: ...``): the first axis of its index, which runs over
# the records
names_record = names_refusals(lambda at: f"record {at[0]}" if at else None)
