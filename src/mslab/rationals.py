"""Exact rational scalars and their canonical string form.

Distances are held as integers on a common 1/denom grid; at the API and
JSON edges they and all function values are `fractions.Fraction`
instances: lowest terms, positive denominator, exact arithmetic. The string
form used in every JSON interface is `str(Fraction)` ("3/4", "2", "0");
`parse_rational` accepts that form back, so parse o serialize is the
identity on canonical strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, 'p/q' string or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not a rational value: {value!r}")


def parse_rational(text: str) -> Fraction:
    """A rational from its JSON or command-line form: a 'p/q' string or an
    integer. A JSON `true` arrives as a bool, an int subclass, and is
    rejected like a float; "1/0" is a ValueError, not a ZeroDivisionError."""
    if isinstance(text, bool):
        raise TypeError(f"not a rational value: {text!r}")
    try:
        return as_fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class ParseMemo(dict):
    """`memo[text]` is `convert(parse_rational(text))`, computed once per
    distinct string of one payload.

    Only str keys are stored. A JSON number or bool never equals a str, so
    it never hits a stored entry (although 1, 1.0 and True hash alike) and
    always goes through parse_rational, which rejects floats and bools. An
    unhashable value raises TypeError at lookup.
    """

    def __init__(self, convert):
        super().__init__()
        self._convert = convert

    def __missing__(self, key):
        value = self._convert(parse_rational(key))
        if type(key) is str:
            self[key] = value
        return value


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))
