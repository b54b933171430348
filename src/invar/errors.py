"""Exception hierarchy shared by all modules.

Every error that can surface through the CLI maps to a documented exit
code (see EXIT_CODES); everything else is a programming error and is
allowed to escape as-is.
"""


class InvarError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(InvarError):
    pass


class DivisionByZero(InvarError):
    pass


class FieldMismatch(InvarError):
    pass


class InvalidFieldSpec(InvarError):
    pass


class ContextMismatch(InvarError):
    pass


class SingularMatrix(InvarError):
    pass


class ZeroPolynomial(InvarError):
    pass


class LengthMismatch(InvarError):
    pass


class TruncationInsufficient(InvarError):
    pass


class TruncatedBasis(InvarError):
    pass


class ModularCase(InvarError):
    pass


class CapExceeded(InvarError):
    """A size cap was reached: the group closure cap, or the degree
    bound 2^15 of the packed monomials in Groebner computations."""


class SingularGenerator(InvarError):
    pass


class PositiveCharacteristic(InvarError):
    pass


class NonHomogeneousInput(InvarError):
    pass


class RetryLimitExceeded(InvarError):
    pass


class FieldTooSmall(InvarError):
    pass


class MaxDegreeExceeded(InvarError):
    """Carries the invariants accumulated before the degree cap was hit."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = list(partial) if partial is not None else []


class NotDeclaredReductive(InvarError):
    pass


class VerificationFailed(InvarError):
    """A result failed a check that the mathematics guarantees; this
    signals a bug, not bad input, and holds under ``python -O``."""


# CLI exit codes.  0 is success.
EXIT_CODES = {
    ParseError: 2,
    InvalidFieldSpec: 2,
    ModularCase: 3,
    CapExceeded: 4,
    TruncationInsufficient: 5,
    MaxDegreeExceeded: 5,
}
OTHER_DOMAIN_ERROR_EXIT = 6


def exit_code_for(exc):
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    if isinstance(exc, InvarError):
        return OTHER_DOMAIN_ERROR_EXIT
    raise TypeError(f"not a domain error: {exc!r}")
