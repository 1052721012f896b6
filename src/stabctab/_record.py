"""Immutable value classes without ``dataclasses``, and the input readers.

``dataclasses`` imports ``inspect``, which costs a subcommand more
start-up than most of them spend computing.  These two plain bases give
the package's value classes, the exact ring ``poly.Poly`` and its
``series.TruncatedBiSeries`` among them, what callers use of a frozen
dataclass.  Every layer loads this module, so the readers of outside
input that the polynomial, branch-file, lattice-file and bounds parsers
share live here too: ``parse_rational``, ``parse_int``,
``read_text`` and ``content_lines``.  Each reports what it rejects as
BadInput, with the message of the exception it replaces.  An integer, in
every reader of outside input and in the command line's integer flags,
is an optional sign and ASCII digits, ``[+-]?[0-9]+``: not ``int``'s
wider grammar, which takes underscores and the digits of other scripts,
and one predicate, ``is_integer``, decides it without ``re``.  The
package's own data files, the preset lattices and the ADE corpus, are
not input: ``read_data`` reads them as plain files in DATA_DIR, next to
this module.
"""

import os

from .errors import BadInput

#: The directory of the data files shipped with the package.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class Record:
    """An immutable value with named fields, as a frozen dataclass is.

    The subclass constructor validates its arguments and passes them on as
    keywords; they are stored in that order, compared (with the class) by
    ==, printed as ``Name(field=value, ...)`` and never reassigned:
    assigning or deleting an attribute raises AttributeError.  A keyword
    that starts with an underscore holds data the subclass derived from
    its fields: it is stored alike, but == and repr ignore it.  Pickle and
    deepcopy carry both.  A Record is unhashable, as a frozen dataclass
    with an unhashable field is, unless its class defines ``__hash__``:
    HashableRecord does, and ``poly.Poly`` hashes its term map.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def _fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if k[0] != "_"}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__name__}({fields})"


class HashableRecord(Record):
    """A Record that hashes as the tuple of its fields."""

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))


def is_integer(text: str) -> bool:
    """Whether text is an optional sign and ASCII digits, ``[+-]?[0-9]+``."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def parse_rational(text: str):
    """The Fraction of an integer or ``p/q`` literal, with an optional sign;
    any other literal (a decimal, an exponent, spaces) or a zero
    denominator is BadInput."""
    from fractions import Fraction

    num, slash, den = text.partition("/")
    if not (is_integer(num) and (not slash or den.isascii() and den.isdigit())):
        raise BadInput(f"Invalid literal for Fraction: {text!r}")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise BadInput(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise BadInput(str(exc)) from None


def parse_int(text: str) -> int:
    """The int of an integer literal with optional surrounding whitespace;
    any other text, or more digits than Python reads, is BadInput."""
    if not is_integer(text.strip()):
        raise BadInput(f"invalid literal for int() with base 10: {text!r}")
    try:
        return int(text)
    except ValueError as exc:
        raise BadInput(str(exc)) from None


#: Most characters of a named file that read_text accepts: no input file
#: comes near it, and a longer one (a device such as /dev/zero that never
#: ends, say) is read no further than one character past it.
MAX_FILE_CHARS = 2**20

#: Largest integer argument of ``bounds``: each of its integer flags, and
#: the numerator and denominator of lambda and mu (``codim``), so that
#: every case bound, at most a product of seven arguments (d^2 a b gamma
#: and the numerators and denominators of lambda and mu), stays under
#: Python's 4,300 digits of int-to-str.
MAX_ARGUMENT = 10**600


def read_text(path: str) -> str:
    """The UTF-8 text of the file at path; a file that cannot be opened,
    read or decoded, or that is longer than MAX_FILE_CHARS characters, is
    BadInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_FILE_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInput(str(exc)) from None
    if len(text) > MAX_FILE_CHARS:
        raise BadInput(f"{path}: file longer than {MAX_FILE_CHARS} characters")
    return text


def content_lines(text: str) -> list[str]:
    """The lines of a lattice or branch file, each stripped of its '#'
    comment, which runs to the end of the line, and of surrounding
    whitespace (``str.strip``'s); a line left empty is dropped."""
    return [line for line in (raw.partition("#")[0].strip() for raw in text.splitlines())
            if line]


def read_data(name: str, parse):
    """parse applied to the UTF-8 text of the package's file ``data/<name>``.
    A shipped file is not input: a missing one raises its OSError, and one
    that parse rejects as BadInput raises ValueError, naming the file."""
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except BadInput as exc:
            raise ValueError(f"shipped file data/{name}: {exc}") from None
