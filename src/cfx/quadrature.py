"""Exact integration of polynomials over axis-aligned boxes.

Every integrand in this package is polynomial, so every box integral is a
sum of closed-form moments  int_a^b x^e dx  with rational endpoints.
:class:`SeparableSum` sums them exactly, for the factored cutoff functions
of the estimate experiments and, as a single product term, for a plain
polynomial; :func:`integrate_poly_box` rounds that exact value to a float
once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence

from .poly import Poly
from .rational import ComplexRational, cq


def integrate_poly_box(p: Poly, lows: Sequence, highs: Sequence) -> complex:
    """Integral of a polynomial over a box: exact moments, rounded once."""
    naxes = len(p.vars)
    if len(lows) != naxes or len(highs) != naxes:
        raise ValueError("box does not match the variable table")
    return complex(SeparableSum.product(naxes, {}).integrate_box(lows, highs, p))


def substitute_axis(p: Poly, axis: int, value: Fraction) -> Poly:
    """Freeze one variable at a rational value (exact)."""
    value = Fraction(value)
    out: Dict[tuple, ComplexRational] = {}
    for expo, coeff in p.terms.items():
        e = expo[axis]
        scaled = coeff * cq(value ** e) if e else coeff
        new = list(expo)
        new[axis] = 0
        key = tuple(new)
        acc = out.get(key)
        acc = scaled if acc is None else acc + scaled
        out[key] = acc
    return Poly(p.vars, out)


def integrate_poly_face(p: Poly, lows: Sequence, highs: Sequence, axis: int,
                        value: Fraction) -> complex:
    """Integral over one box face (variable ``axis`` frozen at ``value``)."""
    frozen = substitute_axis(p, axis, value)
    sub_lows = list(lows)
    sub_highs = list(highs)
    sub_lows[axis] = 0
    sub_highs[axis] = 1  # frozen axis contributes factor 1 via exponent 0
    # zero-width trick would lose the e=0 moment; instead integrate with the
    # frozen axis spanning [0,1] where x^0 integrates to 1.
    return integrate_poly_box(frozen, sub_lows, sub_highs)


# -- exact univariate machinery for factored cutoffs ----------------------------------------


def uni_mul_x(coeffs: tuple, power: int) -> tuple:
    return (Fraction(0),) * power + tuple(coeffs)


def uni_diff(coeffs: tuple) -> tuple:
    return tuple(c * i for i, c in enumerate(coeffs))[1:] or (Fraction(0),)


@lru_cache(maxsize=1024)
def _moment(box: tuple, e: int) -> Fraction:
    """int_a^b x^e dx for box = (a.num, a.den, b.num, b.den).

    Cached across calls, since a run integrates over few boxes; the key is
    ints because hashing two Fractions costs about as much as the powers.
    """
    a, b = Fraction(box[0], box[1]), Fraction(box[2], box[3])
    return (b ** (e + 1) - a ** (e + 1)) / (e + 1)


def uni_integral(coeffs: tuple, a: Fraction, b: Fraction) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    box = (a.numerator, a.denominator, b.numerator, b.denominator)
    total = Fraction(0)
    for i, c in enumerate(coeffs):
        if c:
            total += c * _moment(box, i)
    return total


class SeparableSum:
    """Sum of terms  coeff * prod_axis f_axis(x_axis)  with exact coefficients.

    Closed under first-order operators whose coefficients are polynomials
    (each monomial folds into the per-axis factors), which is what the
    horizontal fields look like.  Keeps the factored cutoff functions from
    ever being expanded.
    """

    def __init__(self, naxes: int, terms=None):
        self.naxes = naxes
        # term: (ComplexRational, dict axis -> tuple of Fraction coefficients)
        self.terms: List[tuple] = list(terms or [])

    @classmethod
    def product(cls, naxes: int, factors: Dict[int, tuple]) -> "SeparableSum":
        return cls(naxes, [(cq(1), dict(factors))])

    @classmethod
    def zero(cls, naxes: int) -> "SeparableSum":
        return cls(naxes, [])

    def __add__(self, other: "SeparableSum") -> "SeparableSum":
        return SeparableSum(self.naxes, self.terms + other.terms)

    def scale(self, value) -> "SeparableSum":
        value = cq(value)
        return SeparableSum(self.naxes,
                            [(c * value, f) for c, f in self.terms])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def mul_monomial(self, expo: Sequence[int], coeff) -> "SeparableSum":
        coeff = cq(coeff)
        out = []
        for c, factors in self.terms:
            new = dict(factors)
            for axis, e in enumerate(expo):
                if e:
                    base = new.get(axis, (Fraction(1),))
                    new[axis] = uni_mul_x(base, e)
            out.append((c * coeff, new))
        return SeparableSum(self.naxes, out)

    def diff_axis(self, axis: int) -> "SeparableSum":
        out = []
        for c, factors in self.terms:
            base = factors.get(axis)
            if base is None:
                continue
            d = uni_diff(base)
            if all(x == 0 for x in d):
                continue
            new = dict(factors)
            new[axis] = d
            out.append((c, new))
        return SeparableSum(self.naxes, out)

    def apply_op(self, op, axis_of) -> "SeparableSum":
        """Apply a FirstOrderOp; ``axis_of`` maps variable names to axes."""
        out = SeparableSum.zero(self.naxes)
        for var, coeff_poly in op.coeffs.items():
            d = self.diff_axis(axis_of[var])
            if not d.terms:
                continue
            for expo, c in coeff_poly.terms.items():
                out = out + d.mul_monomial(expo, c)
        return out

    def integrate_box(self, lows: Sequence[Fraction], highs: Sequence[Fraction],
                      weight: Poly | None = None) -> ComplexRational:
        """Exact integral over the box, against the polynomial ``weight`` if given.

        One pass: terms with equal per-axis factors are merged first (their
        coefficients summed exactly); each distinct moment  int f(x) x^e dx
        of an axis is computed once, by ``uni_integral``, into a table that
        lives only for this call; a merged term then costs one product of
        real moments per weight monomial and one complex multiply.
        """
        naxes = self.naxes
        if weight is None:
            monomials = {(0,) * naxes: cq(1)}
        elif len(weight.vars) != naxes:
            raise ValueError("weight does not match the number of axes")
        else:
            monomials = weight.terms
        # per axis: distinct factor tuple -> index.  Terms share factor
        # objects, so each object is hashed once (by id).
        one = (Fraction(1),)
        ids: List[Dict[tuple, int]] = [{} for _ in range(naxes)]
        by_object: List[Dict[int, int]] = [{} for _ in range(naxes)]

        def index(axis: int, factor: tuple) -> int:
            fid = by_object[axis].get(id(factor))
            if fid is None:
                fid = ids[axis].setdefault(factor, len(ids[axis]))
                by_object[axis][id(factor)] = fid
            return fid

        # Merge terms with equal factors.  The key packs a term's factor
        # indices into one int: a tuple per term would stay parked in
        # CPython's tuple free list after the call and raise peak memory.
        radix = len(self.terms) + 1
        merged: Dict[int, list] = {}
        for c, factors in self.terms:
            fids = [index(axis, factors.get(axis, one)) for axis in range(naxes)]
            key = 0
            for fid in fids:
                key = key * radix + fid
            entry = merged.get(key)
            if entry is None:
                merged[key] = [c, fids]
            else:
                entry[0] += c
        factor_of = [list(table) for table in ids]
        moments: List[Dict[tuple, Fraction]] = [{} for _ in range(naxes)]
        re = im = Fraction(0)
        for c, fids in merged.values():
            if c.is_zero():
                continue
            w_re = w_im = Fraction(0)
            for expo, w in monomials.items():
                prod = Fraction(1)
                for axis in range(naxes):
                    slot = (fids[axis], expo[axis])
                    m = moments[axis].get(slot)
                    if m is None:
                        base = factor_of[axis][slot[0]]
                        if slot[1]:
                            base = uni_mul_x(base, slot[1])
                        m = uni_integral(base, lows[axis], highs[axis])
                        moments[axis][slot] = m
                    if not m:
                        break
                    prod *= m
                else:
                    w_re += w.re * prod
                    w_im += w.im * prod
            re += c.re * w_re - c.im * w_im
            im += c.re * w_im + c.im * w_re
        return ComplexRational(re, im)
