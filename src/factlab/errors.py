"""Exception hierarchy shared across the package.

Every error that the CLI maps to an exit code lives here; see README for
the exit-code table.
"""


class FactlabError(Exception):
    """Base class for all package errors."""


# --- parsing / construction -------------------------------------------------

class PolySyntaxError(FactlabError):
    """Malformed polynomial text."""


class NotHomogeneous(FactlabError):
    """Input polynomial mixes terms of different total degree."""


class UnknownVariable(FactlabError):
    """Variable name not among the declared ones."""


class NotPrime(FactlabError):
    """Field modulus failed the primality check."""


class FieldMismatch(FactlabError):
    """Operands belong to different fields."""


class ZeroVector(FactlabError):
    """All-zero coordinates do not define a projective point."""


class DuplicatePoint(FactlabError):
    """Point-set file contains the same point twice."""


# --- arithmetic preconditions -----------------------------------------------

class NotSingular(FactlabError):
    """Gradient does not vanish at the given point."""


class CharTooSmall(FactlabError):
    """Field characteristic too small for the requested computation."""


class CharTwo(FactlabError):
    """Square roots are not supported in characteristic 2."""


class OddDegree(FactlabError):
    """Square root of an odd-degree form requested."""


class BadChart(FactlabError):
    """Chart variable has zero coefficient in the linear form."""


class CharDividesDegree(FactlabError):
    """p divides the degree; the Euler relation degenerates."""


# --- geometry / scans -------------------------------------------------------

class TooLarge(FactlabError):
    """Scan exceeds the configured cap."""


class TooFew(FactlabError):
    """Not enough points for the requested incidence computation."""


class WrongAmbient(FactlabError):
    """Operation requires a different ambient dimension."""


class LocusMismatch(FactlabError):
    """Common zero locus of the generators differs from the point set."""

    def __init__(self, message, missing=(), extra=()):
        super().__init__(message)
        self.missing = list(missing)
        self.extra = list(extra)


class VerificationFailure(FactlabError):
    """An independent re-check rejected a result the fast path produced."""


class XiTooSmall(FactlabError):
    """Degree below the checker's standing assumption."""


class NotInSet(FactlabError):
    """Point is not a member of the set."""


# --- certificate combination ------------------------------------------------

class Overlap(FactlabError):
    """The two point sets are not disjoint."""


class GVanishesOnDelta(FactlabError):
    """Auxiliary form vanishes at a point where it must not."""


class DegreeMismatch(FactlabError):
    """Certificate degrees are inconsistent."""


# --- generators / verdicts --------------------------------------------------

class DegenerateDraw(FactlabError):
    """Seeded draw failed verification after the allowed retries."""

    def __init__(self, message, observed_counts=()):
        super().__init__(message)
        self.observed_counts = list(observed_counts)


class BadParams(FactlabError):
    """Numeric parameters outside the allowed range."""
