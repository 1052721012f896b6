"""The integer and rational literals of outside input, read by
``_record.parse_int`` and ``_record.parse_rational``, against the regular
expressions that once decided them: the same texts accepted, the same
values returned, the same message for a text rejected."""

import random
import re
from fractions import Fraction

import pytest

from stabctab._record import is_integer, parse_int, parse_rational
from stabctab.errors import BadInput

from draws import text

#: The grammars as the readers once matched them.
OLD_INT = re.compile(r"\s*[+-]?[0-9]+\s*")
OLD_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

#: ASCII digits, signs, the slash, characters of other number syntaxes,
#: whitespace inside and outside ASCII, Arabic-Indic and fullwidth digits.
ALPHABET = ("0123456789+-/_.e \t\n\u2003\u00a0"
            "\u0660\u0661\u0663\u0669\uff10\uff11\uff13\uff19")


def literal(rng) -> str:
    """Half the time up to 12 characters of ``ALPHABET``; else a near miss
    of the grammar, a text of the form ``[+-]?[0-9]{1,4}(/[0-9]{1,3})?``
    with up to two characters of ``ALPHABET`` on each side."""
    if rng.random() < 0.5:
        return text(rng, ALPHABET, 12)

    def digits(most):
        return text(rng, "0123456789", most - 1) + rng.choice("0123456789")

    core = rng.choice(("", "+", "-")) + digits(4)
    if rng.random() < 0.5:
        core += "/" + digits(3)
    return text(rng, ALPHABET, 2) + core + text(rng, ALPHABET, 2)


def outcome(read, text):
    """read(text), or the message of the BadInput it raises."""
    try:
        return read(text)
    except BadInput as exc:
        return "BadInput", str(exc)


def old_parse_int(text):
    if not OLD_INT.fullmatch(text):
        return "BadInput", f"invalid literal for int() with base 10: {text!r}"
    return int(text)


def old_parse_rational(text):
    if not OLD_RATIONAL.fullmatch(text):
        return "BadInput", f"Invalid literal for Fraction: {text!r}"
    num, _, den = text.partition("/")
    if int(den or 1) == 0:
        return "BadInput", f"zero denominator in {text!r}"
    return Fraction(int(num), int(den or 1))


def test_parse_int_reads_the_old_grammar():
    rng = random.Random(46)
    for _ in range(300):
        drawn = literal(rng)
        assert outcome(parse_int, drawn) == old_parse_int(drawn)


def test_parse_rational_reads_the_old_grammar():
    rng = random.Random(47)
    for _ in range(300):
        drawn = literal(rng)
        assert outcome(parse_rational, drawn) == old_parse_rational(drawn)


@pytest.mark.parametrize("text", ["\u0663", "1_0", "1e3", " 1", "3/+2", "2/", "1/0", "x^",
                                  "+3", "-0", "\uff14", "1/2/3", "", "+", "1\n", "\t7\u2003",
                                  "\u00b2", "3/4", "-3/4", "0/5"])
def test_the_readers_agree_with_the_old_grammar_on_the_named_cases(text):
    assert outcome(parse_int, text) == old_parse_int(text)
    assert outcome(parse_rational, text) == old_parse_rational(text)
    assert is_integer(text) == bool(re.fullmatch(r"[+-]?[0-9]+", text))


def test_regex_whitespace_is_str_isspace():
    # parse_int strips with str.strip, where the old grammar matched \s
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]
