"""Exact ints and rationals read from outside input, each kind by one reader.

The package computes in one scalar layout, Gaussian-integer numerators
``(re, im)`` of ints over one positive denominator (see :mod:`cfx.poly`);
an exact scalar it hands out is an ``(re, im)`` pair of ``Fraction`` values.
A reader checks and never coerces: :func:`exact_int` takes an int a caller
hands in (a size, a degree, an index, an exponent), :func:`exact_fraction` a
rational (a group's S, a box's bounds, a covector) by ``poly._gaussian_parts``'
rule, an int or a ``Fraction``.  Text from outside becomes a ``Fraction`` only
through :func:`parse_fraction`, and a JSON coefficient only through
:func:`gaussian_from_json`.  Fractions go back to ints over their least common
denominator only through :func:`clear_denominators`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


# Fraction("1e10000000") builds 10**10**7, in time quadratic in the exponent,
# so outside input with a decimal exponent larger than this is refused.
MAX_DECIMAL_EXPONENT = 10_000


def exact_int(value, what: str) -> int:
    """``value``, an int; else a TypeError naming ``what`` and the value (a bool too)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, not {value!r}")
    return value


def exact_fraction(value) -> Fraction:
    """An int or a ``Fraction`` as a ``Fraction``; else a TypeError naming the value."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"an exact rational is an int or a Fraction, not {value!r}")
    return Fraction(value)


def parse_fraction(value) -> Fraction:
    """Fraction(value) for outside input: an int or an int, decimal or ratio string.

    A decimal exponent above MAX_DECIMAL_EXPONENT in size is a ValueError.
    """
    if isinstance(value, str):
        _, e, exponent = value.lower().rpartition("e")
        try:
            huge = bool(e) and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:  # no exponent after all: Fraction judges the text
            huge = False
        if huge:
            raise ValueError(f"decimal exponent of {value[:40]!r} is above "
                             f"{MAX_DECIMAL_EXPONENT} in size")
    return Fraction(value)


def gaussian_from_json(data) -> tuple:
    """The (re, im) Fractions of a JSON coefficient: a string or an int, or a
    [re, im] pair of them; a float or a bool is a ValueError."""
    parts = (data, 0) if type(data) in (str, int) else data
    if not (isinstance(parts, (list, tuple)) and len(parts) == 2
            and all(type(p) in (str, int) for p in parts)):
        raise ValueError(f"exact coefficients are strings or integers, not {data!r}")
    try:
        return parse_fraction(parts[0]), parse_fraction(parts[1])
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in exact coefficient {data!r}") from None


def clear_denominators(values) -> tuple:
    """(q, ints): q the lcm of the denominators of a sequence of Fractions
    (or ints) and ints the list of q times each, in order; q is 1 for none."""
    q = lcm(*[x.denominator for x in values])
    return q, [x.numerator * (q // x.denominator) for x in values]
