"""Exception hierarchy shared by all stabctab modules.

``BadInput`` is the one class for rejected outside input: a flag value,
a polynomial, a branch file, a lattice file or a class beta that is not
admissible, or a named file that cannot be read.  It is a ValueError, so
callers that catch ValueError still catch it, and the command line exits
2 on it and 3 on any other exception.  These classes are BadInput:
NonIsolatedSingularity, InvalidBranch, TruncationTooSmall,
EmptyBranchSet, NotEffectiveCandidate, BasisDenominatorError,
InvalidSelfIntersection, HodgeIndexViolation and RadicandTooLarge.  The
others (the series errors, InternalIdentityFailure, InconsistentTower)
are not, and neither is a plain ValueError raised on a value the
library computed itself.
"""


class StabctabError(Exception):
    """Base class for every error raised by this package."""


class BadInput(StabctabError, ValueError):
    """Outside input that is not admissible, raised where it is read."""


# --- truncated series -------------------------------------------------------

class OrderMismatch(StabctabError):
    """Arithmetic between series of different truncation orders."""


class NotInvertible(StabctabError):
    """Inverse of a series with vanishing constant term."""


class OutOfOrder(StabctabError):
    """Coefficient query beyond the truncation order."""


# --- generating functions ---------------------------------------------------

class InternalIdentityFailure(StabctabError):
    """A coefficient that is provably a dimension came out negative or
    non-integral.  Always indicates a bug, never bad user input."""


# --- perverse recursion -----------------------------------------------------

class InconsistentTower(StabctabError):
    """The Betti-number tower does not come from a valid surface."""


# --- curve germs ------------------------------------------------------------

class NonIsolatedSingularity(BadInput):
    """Local quotient dimension failed to stabilize below the cap."""


class InvalidBranch(BadInput):
    """A branch parametrization does not lie on the curve germ."""


class TruncationTooSmall(BadInput):
    """Branch truncation is insufficient to certify the requested invariant."""


class EmptyBranchSet(BadInput):
    """Branch data is required but no branches were supplied."""


# --- lattice computations ---------------------------------------------------

class NotEffectiveCandidate(BadInput):
    """The class pairs non-positively against the ample witness."""


class BasisDenominatorError(BadInput):
    """The declared orthogonal basis does not span the lattice over Q."""


class InvalidSelfIntersection(BadInput):
    """Self-intersection number incompatible with an even lattice."""


class HodgeIndexViolation(BadInput):
    """Orthogonal basis signature is not (1, rank-1)."""


# --- exact square roots -----------------------------------------------------

class RadicandTooLarge(BadInput):
    """A square root's radicand exceeds the cap on its trial division."""
