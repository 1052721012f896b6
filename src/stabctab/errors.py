"""Exception hierarchy shared by all stabctab modules."""


class StabctabError(Exception):
    """Base class for every error raised by this package."""


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

class NonIsolatedSingularity(StabctabError):
    """Local quotient dimension failed to stabilize below the cap."""


class InvalidBranch(StabctabError):
    """A branch parametrization does not lie on the curve germ."""


class TruncationTooSmall(StabctabError):
    """Branch truncation is insufficient to certify the requested invariant."""


class EmptyBranchSet(StabctabError):
    """Branch data is required but no branches were supplied."""


# --- lattice computations ---------------------------------------------------

class NotEffectiveCandidate(StabctabError):
    """The class pairs non-positively against the ample witness."""


class BasisDenominatorError(StabctabError):
    """The declared orthogonal basis does not span the lattice over Q."""


class InvalidSelfIntersection(StabctabError):
    """Self-intersection number incompatible with an even lattice."""


class HodgeIndexViolation(StabctabError):
    """Orthogonal basis signature is not (1, rank-1)."""


# --- exact square roots -----------------------------------------------------

class RadicandTooLarge(StabctabError):
    """A square root's radicand exceeds the cap on its trial division."""
