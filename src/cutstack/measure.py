"""Exact measure values.

Measures of level sets are non-negative rationals with arbitrary-precision
numerator and denominator; ``fractions.Fraction`` already keeps them in
canonical reduced form, so it is the measure type throughout. The canonical
textual form is ``"num/den"`` in base 10, reduced, with the denominator
always present (``"3/1"``, never ``"3"``).
"""

from __future__ import annotations

import re
from fractions import Fraction


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_DECIMAL = re.compile(r"-?[0-9]+")
_RATIO = re.compile(f"({_DECIMAL.pattern})(?:/({_DECIMAL.pattern}))?")


def parse_int(value) -> int:
    """A JSON integer or a decimal string (``"-12"``) as an int.

    Family files write integers that may exceed doubles as decimal strings.
    A bool, a float or any other string is refused, never rounded.
    """
    if type(value) is int:  # JSON true and false load as bool, a subclass
        return value
    if not isinstance(value, str):
        raise TypeError(f"expected an integer or a decimal string, got {value!r}")
    if not _DECIMAL.fullmatch(value):
        raise ValueError(f"invalid literal for a decimal integer: {value!r}")
    return int(value)


def ratio_parts(text: str) -> tuple[int, int | None]:
    """The integers of ``"p/q"``, or of a bare ``"p"`` with q None.

    Each part is a decimal string as :func:`parse_int` reads it; spaces,
    plus signs, underscores and every other form are refused.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a p/q string, got {text!r}")
    match = _RATIO.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid literal for p/q: {text!r}")
    num, den = match.groups()
    return int(num), None if den is None else int(den)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer) into an exact Fraction."""
    num, den = ratio_parts(text)
    if den == 0:
        raise ValueError(f"rational {text!r} has a zero denominator")
    return Fraction(num, 1 if den is None else den)


def parse_reduced_unit_fraction(text: str) -> Fraction:
    """Parse a ratio that must be given in lowest terms and lie in (0, 1).

    Raises ValueError otherwise; used for direction-set entries where a
    non-reduced or out-of-range input almost certainly means a typo.
    """
    num, den = ratio_parts(text)
    if den is None:
        raise ValueError(f"ratio {text!r} must be written as p/q")
    if den <= 0 or num <= 0:
        raise ValueError(f"ratio {text!r} must have positive numerator and denominator")
    f = Fraction(num, den)
    if (f.numerator, f.denominator) != (num, den):
        raise ValueError(f"ratio {text!r} is not in lowest terms")
    if not (0 < f < 1):
        raise ValueError(f"ratio {text!r} is not in (0, 1)")
    return f
