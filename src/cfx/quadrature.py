"""Exact integration of polynomials over axis-aligned boxes.

Every integrand in this package is polynomial, so every box integral is a
sum of closed-form moments  int_a^b x^e dx  with rational endpoints.
:class:`SeparableSum` sums them exactly, for the factored cutoff functions
of the estimate experiments and, as a single product term, for a plain
polynomial (:func:`integrate_poly_box`, :func:`integrate_poly_face`).  Every
integral is returned as an exact :class:`ComplexRational`; nothing here
rounds.

Layout (the one-denominator form of :class:`cfx.poly.Poly`): ``num`` maps a
key to a Gaussian-integer numerator ``(re, im)`` of ints, and one positive
int ``den`` is the denominator of every term.  A key holds one factor per
axis, a tuple of int coefficients in increasing powers of that axis's
variable.  The form is canonical:

* every factor is primitive (the gcd of its coefficients is 1), has a
  positive leading coefficient and no trailing zero; ``(1,)`` is the
  constant factor, so an axis with no factor holds ``(1,)``;
* terms with equal keys are merged, and no numerator is ``(0, 0)``;
* the gcd of ``den`` and every numerator part is 1, and the zero sum has
  ``den == 1``.

``SeparableSum.product`` takes rational factors and validates them.  The
ring operations ``+``, ``-``, ``scale`` and ``apply_op`` do int arithmetic
on the layout primitives of :mod:`cfx.poly` (``+`` is ``common_sum``,
``scale`` is ``times_gaussian``, and ``apply_op`` merges each product
through ``add_term``, which keeps the no-``(0, 0)`` rule) and build their
result through the trusted ``SeparableSum._make``, which only divides out
the common factor of ``den`` and the numerators; the callers keep the key
rules.  ``terms`` shows the terms as ``(ComplexRational, {axis: factor})``
pairs, without the constant factors, at the API edge.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Sequence

from .poly import (Poly, _gaussian_parts, add_term, common_sum, reduce_gaussian,
                   times_gaussian)
from .rational import ComplexRational

_CONSTANT = (1,)


def integrate_poly_box(p: Poly, lows: Sequence, highs: Sequence) -> ComplexRational:
    """Exact integral of a polynomial over a box, from closed-form moments."""
    naxes = len(p.vars)
    if len(lows) != naxes or len(highs) != naxes:
        raise ValueError("box does not match the variable table")
    return SeparableSum.product(naxes, {}).integrate_box(lows, highs, p)


def substitute_axis(p: Poly, axis: int, value: Fraction) -> Poly:
    """Freeze one variable at a rational value (exact).

    With value = r/s and E the highest power of the axis, x^e becomes
    r^e s^(E-e) / s^E: every term stays over the one denominator den * s^E.
    """
    value = Fraction(value)
    r, s = value.numerator, value.denominator
    top = max((expo[axis] for expo in p.num), default=0)
    out: dict = {}
    for expo, (re, im) in p.num.items():
        e = expo[axis]
        w = r ** e * s ** (top - e)
        add_term(out, expo[:axis] + (0,) + expo[axis + 1:], re * w, im * w)
    return Poly._make(p.vars, out, p.den * s ** top)


def integrate_poly_face(p: Poly, lows: Sequence, highs: Sequence, axis: int,
                        value: Fraction) -> ComplexRational:
    """Exact integral over one box face (variable ``axis`` frozen at ``value``)."""
    frozen = substitute_axis(p, axis, value)
    sub_lows = list(lows)
    sub_highs = list(highs)
    sub_lows[axis] = 0
    sub_highs[axis] = 1  # frozen axis contributes factor 1 via exponent 0
    # zero-width trick would lose the e=0 moment; instead integrate with the
    # frozen axis spanning [0,1] where x^0 integrates to 1.
    return integrate_poly_box(frozen, sub_lows, sub_highs)


# -- integer factors and moments ----------------------------------------------------------


def _primitive(coeffs: Sequence[int]) -> tuple:
    """(g, f) with coeffs == g * f as polynomials and f canonical; (0, None) for zero."""
    top = len(coeffs)
    while top and not coeffs[top - 1]:
        top -= 1
    if not top:
        return 0, None
    g = gcd(*coeffs[:top])
    if coeffs[top - 1] < 0:
        g = -g
    return g, tuple(c // g for c in coeffs[:top])


def _shifts(expo: Sequence[int]) -> list:
    """(axis, zeros) pairs: prepending the zeros to a factor multiplies it by x^e."""
    return [(axis, (0,) * e) for axis, e in enumerate(expo) if e]


def _moment_table(a, b, size: int) -> tuple:
    """(M, D) with int_a^b x^e dx == M[e] / D for e < size, all ints.

    With a = A/Q and b = B/Q over Q = den(a) den(b) and L = lcm(1..size),
    M[e] = (B^(e+1) - A^(e+1)) (L / (e+1)) Q^(size-1-e) and D = L Q^size.
    """
    q, s = a.denominator, b.denominator
    big_a, big_b, big_q = a.numerator * s, b.numerator * q, q * s
    scale = lcm(*range(1, size + 1))
    table = []
    pa, pb = big_a, big_b
    for e in range(size):
        table.append((pb - pa) * (scale // (e + 1)) * big_q ** (size - 1 - e))
        pa *= big_a
        pb *= big_b
    return table, scale * big_q ** size


class SeparableSum:
    """Sum of terms  coeff * prod_axis f_axis(x_axis)  with exact coefficients.

    Closed under first-order operators whose coefficients are polynomials
    (each monomial folds into the per-axis factors), which is what the
    horizontal fields look like.  Keeps the factored cutoff functions from
    ever being expanded.
    """

    __slots__ = ("naxes", "num", "den")

    @classmethod
    def _make(cls, naxes: int, num: dict, den: int = 1) -> "SeparableSum":
        """Trusted constructor: the caller keeps the keys canonical, leaves no
        (0, 0) pair and gives ``den`` > 0; only the common factor of ``den``
        and the numerators is divided out here."""
        num, den = reduce_gaussian(num, den)
        s = object.__new__(cls)
        object.__setattr__(s, "naxes", naxes)
        object.__setattr__(s, "num", num)
        object.__setattr__(s, "den", den)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("SeparableSum is immutable")

    @property
    def terms(self) -> tuple:
        """The terms as (ComplexRational, {axis: factor}) pairs, constant factors left out."""
        den = self.den
        return tuple((ComplexRational(Fraction(re, den), Fraction(im, den)),
                      {axis: f for axis, f in enumerate(key) if f != _CONSTANT})
                     for key, (re, im) in self.num.items())

    @classmethod
    def product(cls, naxes: int, factors: Dict[int, tuple]) -> "SeparableSum":
        """prod_axis factors[axis](x_axis); a factor is a tuple of rational
        coefficients in increasing powers, and a missing axis is 1."""
        key = [_CONSTANT] * naxes
        num = den = 1
        for axis, f in factors.items():
            if not 0 <= axis < naxes:
                raise ValueError(f"axis {axis} outside 0..{naxes - 1}")
            f = [Fraction(c) for c in f]
            common = lcm(1, *(c.denominator for c in f))
            g, key[axis] = _primitive([c.numerator * (common // c.denominator) for c in f])
            num *= g
            den *= common
        return cls._make(naxes, {tuple(key): (num, 0)} if num else {}, den)

    def __add__(self, other: "SeparableSum") -> "SeparableSum":
        if self.naxes != other.naxes:
            raise ValueError("separable sums over different numbers of axes")
        if not other.num:
            return self
        if not self.num:
            return other
        return SeparableSum._make(self.naxes,
                                  *common_sum(self.num, self.den, other.num, other.den))

    def scale(self, value) -> "SeparableSum":
        c, d, den = _gaussian_parts(value)
        if not (c or d):
            return SeparableSum._make(self.naxes, {})
        return SeparableSum._make(self.naxes, times_gaussian(self.num, c, d), self.den * den)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def apply_op(self, op) -> "SeparableSum":
        """Apply a FirstOrderOp over the same variables, axis i for variable i.

        Each row of ``op.kernel()`` is folded in as it stands: its variable
        index is the axis it differentiates, and its terms are already
        Gaussian-integer numerators over the operator's ``den``.
        """
        den, rows = op.kernel()
        out: dict = {}
        for axis, terms in rows:
            self._fold(out, axis, [(_shifts(expo) if expo else [], re, im)
                                   for expo, re, im in terms])
        return SeparableSum._make(self.naxes, out, self.den * den)

    def _fold(self, out: dict, axis: int, monomials: list) -> None:
        """Merge into ``out`` the numerators of d/dx_axis times each monomial
        ``(shifts, re, im)``."""
        derivatives: dict = {}
        for key, (a, b) in self.num.items():
            f = key[axis]
            g_d = derivatives.get(f)
            if g_d is None:  # (0, None) for a constant factor
                g_d = derivatives[f] = _primitive([i * c for i, c in enumerate(f)][1:])
            g, d = g_d
            if d is None:
                continue
            a *= g
            b *= g
            key = key[:axis] + (d,) + key[axis + 1:]
            for shifts, cr, ci in monomials:
                new = key
                if shifts:
                    new = list(key)
                    for i, zeros in shifts:
                        new[i] = zeros + new[i]
                    new = tuple(new)
                add_term(out, new, a * cr - b * ci, a * ci + b * cr)

    def integrate_box(self, lows: Sequence[Fraction], highs: Sequence[Fraction],
                      weight: Poly | None = None) -> ComplexRational:
        """Exact integral over the box, against the polynomial ``weight`` if given.

        One integer moment table per axis, int_a^b x^e dx = M[e] / D, long
        enough for every factor times every weight power of that axis.  The
        moment of a factor against x^w is then an int, computed once per
        distinct factor; a term costs one int product across the axes per
        weight monomial, and the one division by den * weight.den * prod D
        happens on return.
        """
        naxes = self.naxes
        if weight is None:
            wnum, wden = {(0,) * naxes: (1, 0)}, 1
        elif len(weight.vars) != naxes:
            raise ValueError("weight does not match the number of axes")
        else:
            wnum, wden = weight.num, weight.den
        if not self.num or not wnum:
            return ComplexRational(0)
        wtop = [max(expo[axis] for expo in wnum) for axis in range(naxes)]
        tables = []
        den = self.den * wden
        for axis in range(naxes):
            size = max(len(key[axis]) for key in self.num) + wtop[axis]
            table, d = _moment_table(lows[axis], highs[axis], size)
            tables.append(table)
            den *= d
        # per axis: factor -> [int f(x) x^w dx * D for w in 0..wtop]
        rows: list = [{} for _ in range(naxes)]
        weights = list(wnum.items())
        re_total = im_total = 0
        for key, (a, b) in self.num.items():
            term_rows = []
            for axis, f in enumerate(key):
                row = rows[axis].get(f)
                if row is None:
                    table = tables[axis]
                    row = rows[axis][f] = [
                        sum(c * table[i + w] for i, c in enumerate(f) if c)
                        for w in range(wtop[axis] + 1)]
                term_rows.append(row)
            sr = si = 0
            for expo, (wr, wi) in weights:
                prod = 1
                for row, e in zip(term_rows, expo):
                    m = row[e]
                    if not m:
                        break
                    prod *= m
                else:
                    sr += wr * prod
                    si += wi * prod
            re_total += a * sr - b * si
            im_total += a * si + b * sr
        return ComplexRational(Fraction(re_total, den), Fraction(im_total, den))
