"""Exception types shared across the package.

Everything raised on purpose derives from ResweilError, so callers can
catch one base class.  Guard errors (budget exhaustion) get their own
intermediate base because the suite runner maps them to a dedicated
exit code.
"""


class ResweilError(Exception):
    pass


class GuardExceeded(ResweilError):
    """A resource budget ran out before the computation finished."""


class CertificateFailure(ResweilError):
    """A computed witness failed the check that certifies it."""


# field construction and arithmetic

class NonPrime(ResweilError):
    """The requested characteristic is not an odd prime inside the supported range."""


class DegreeGuardExceeded(GuardExceeded):
    pass


class ZeroPolynomial(ResweilError):
    pass


class IncompatibleDegrees(ResweilError):
    """Embedding requested between stages whose degrees do not divide."""


# multivariate polynomial layer

class MixedContexts(ResweilError):
    """Operands live over different fields or different variable tuples."""


class StepGuardExceeded(GuardExceeded):
    pass


class MissingAssignment(ResweilError):
    pass


# finite algebras

class NotFinite(ResweilError):
    """The presented algebra is not finite dimensional as a vector space."""


class ZeroRing(ResweilError):
    pass


class MixedFields(ResweilError):
    pass


class NotSquareSystem(ResweilError):
    """A smoothness certificate needs as many equations as unknowns."""


class EmptyBase(ResweilError):
    pass


# restriction and point search

class SearchGuardExceeded(GuardExceeded):
    pass


class NotLocalBase(ResweilError):
    pass


class NotABasis(ResweilError):
    """The elements given as a basis of an algebra do not form one."""


class NotCovering(ResweilError):
    """The proposed principal opens do not generate the unit ideal."""


# Frobenius sets

class PositiveDimensionalFiber(ResweilError):
    pass


class NotZeroDimensional(ResweilError):
    pass


class MissingFiber(ResweilError):
    pass


class AmbientMismatch(ResweilError):
    pass


# case files

class CaseSyntaxError(ResweilError):
    """Malformed case text.  Carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class UndeclaredVariable(ResweilError):
    pass
