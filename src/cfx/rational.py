"""Exact complex numbers with rational real and imaginary parts.

All algebraic identities checked by this package are exact, so the scalar
type never rounds: it is a pair of ``fractions.Fraction`` values under the
usual complex arithmetic.  The polynomial core runs on ints, so this type
sits at the API edge (``Poly.terms``, ``str`` and JSON) and in the few
scalar computations of the program; it has only the operations those run.
"""

from __future__ import annotations

from fractions import Fraction


# Fraction("1e10000000") builds 10**10**7, in time quadratic in the exponent,
# so outside input with a decimal exponent larger than this is refused.
MAX_DECIMAL_EXPONENT = 10_000


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


class ComplexRational:
    """Immutable complex number with Fraction real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = cq(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-cq(other))

    def __mul__(self, other):
        other = cq(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = cq(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    # -- predicates / conversions -------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        # only exact numbers compare, so that equal values hash alike
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

    # -- JSON input: exact rationals as strings or integers ------------------

    @classmethod
    def from_json(cls, data) -> "ComplexRational":
        """A string or an int, or a [re, im] pair of them; a float or a bool is a ValueError."""
        parts = (data, 0) if type(data) in (str, int) else data
        if not (isinstance(parts, (list, tuple)) and len(parts) == 2
                and all(type(p) in (str, int) for p in parts)):
            raise ValueError(f"exact coefficients are strings or integers, not {data!r}")
        try:
            return cls(parse_fraction(parts[0]), parse_fraction(parts[1]))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in exact coefficient {data!r}") from None


def cq(value, im=None) -> ComplexRational:
    """Coerce ints, Fractions, strings or pairs into a ComplexRational."""
    if im is not None:
        return ComplexRational(value, im)
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction, str)):
        return ComplexRational(Fraction(value))
    if isinstance(value, tuple) and len(value) == 2:
        return ComplexRational(Fraction(value[0]), Fraction(value[1]))
    raise TypeError(f"cannot coerce {value!r} to ComplexRational")


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)
