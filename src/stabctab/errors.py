"""Exception hierarchy shared by all stabctab modules.

``BadInput`` is the one class for rejected outside input: a usage error
of the command line (the parser raises it), a flag value, a polynomial, a
branch file, a lattice file or a class beta that is not admissible, or a
named file that cannot be read.  It is a ValueError, so callers that
catch ValueError still catch it, and the command line exits 2 on it and
3 on any other exception.  Its message says what was
rejected; it has no subclasses.  The other classes (the series errors,
InternalIdentityFailure, InconsistentTower) mark a broken invariant or a
misuse, not bad input, and so does a plain ValueError raised on a value
the library computed itself or on a data file it ships.
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

