"""Exact integration of polynomials over axis-aligned boxes.

Every integrand in this package is polynomial, or a polynomial combination
of the derivatives of the box's bump cutoff, so every box integral is a sum
of closed-form moments  int_a^b x^e dx  with rational endpoints, taken from
one integer table per axis (:func:`_moment_table`).  Every integral is
returned as its exact (re, im) pair of Fractions; nothing here rounds.

The cutoff of a box is chi = prod_axis phi(x_axis) with
phi = ((x - l)(h - x))^2 / r^4 on [l, h], r = (h - l) / 2: it is 1 at the
centre and vanishes to second order on every face.  First-order operators
with polynomial coefficients move it only by the Leibniz rule, so what the
mass estimates build from it is a :class:`CutoffJet`,
sum_alpha P_alpha d^alpha chi, one numerator dict over one den whose keys
carry alpha past the variable table, as an operator's keys carry its d_v:
:meth:`CutoffJet.apply_op` is one ``apply_into`` and one ``mul_into``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .poly import BITS, FIELD, Packed, Poly, _split, mul_into, support, unpack


def integrate_poly_box(p: Poly, lows: Sequence, highs: Sequence) -> tuple:
    """Exact integral of a polynomial over a box, from closed-form moments."""
    return _integrate(p, lows, highs, None)


def integrate_poly_faces(p: Poly, lows: Sequence, highs: Sequence, axis: int) -> tuple:
    """Exact integral over the face x_axis = high minus the one over the face
    x_axis = low, in one moment sum.

    The axis takes the row high^e - low^e = e int_low^high x^(e-1) dx, from
    the moment table one entry shorter, in place of its moment table; the
    row is 0 at e = 0, so a term without the axis adds nothing.
    """
    return _integrate(p, lows, highs, axis)


def _integrate(p: Poly, lows: Sequence, highs: Sequence, frozen) -> tuple:
    """One moment sum of ``p``: the axis ``frozen`` (None for none) takes
    the face row of :func:`integrate_poly_faces`, every other axis its
    moment table over [lows, highs], as long as the axis's field of
    ``poly.support`` (at least its highest exponent) needs: a longer table
    gives the same exact values over a larger common denominator."""
    naxes = _check_box(p, lows, highs)
    if frozen is not None and not 0 <= frozen < naxes:
        raise ValueError(f"face axis {frozen} is outside the variable table")
    if not p.num:
        return Fraction(0), Fraction(0)
    den = p.den
    tables = []
    for axis, top in enumerate(unpack(support(p.num), naxes)):
        if axis == frozen:
            table, d = _face_row(lows[axis], highs[axis], 1 + top)
        else:
            table, d = _moment_table(lows[axis], highs[axis], 1 + top)
        tables.append(table)
        den *= d
    re, im = _moment_sum(p.num, tables)
    return Fraction(re, den), Fraction(im, den)


def _check_box(value: Packed, lows: Sequence, highs: Sequence) -> int:
    """The number of axes of ``value``'s table, which the box must match."""
    naxes = len(value.vars)
    if len(lows) != naxes or len(highs) != naxes:
        raise ValueError("box does not match the variable table")
    return naxes


def _face_row(a, b, size: int) -> tuple:
    """(R, D) with b^e - a^e == R[e] / D for e < size, all ints: since
    b^e - a^e = e int_a^b x^(e-1) dx, R[e] is e times entry e - 1 of the
    moment table of size ``size - 1``."""
    table, den = _moment_table(a, b, size - 1)
    return [0] + [e * m for e, m in enumerate(table, 1)], den


# -- integer moments ----------------------------------------------------------------------


def _moment_table(a, b, size: int) -> tuple:
    """(M, D) with int_a^b x^e dx == M[e] / D for e < size, all ints; M is a tuple.

    With a = A/Q and b = B/Q over Q = den(a) den(b) and L = lcm(1..size),
    M[e] = (B^(e+1) - A^(e+1)) (L / (e+1)) Q^(size-1-e) and D = L Q^size.
    """
    return _moments(a.numerator, a.denominator, b.numerator, b.denominator, size)


@lru_cache(maxsize=256)
def _moments(na: int, q: int, nb: int, s: int, size: int) -> tuple:
    """:func:`_moment_table` of na/q and nb/s, built once per process and keyed
    on ints: hashing a Fraction costs about as much as building the table."""
    big_a, big_b, big_q = na * s, nb * q, q * s
    scale = lcm(*range(1, size + 1))
    table = []
    pa, pb = big_a, big_b
    for e in range(size):
        table.append((pb - pa) * (scale // (e + 1)) * big_q ** (size - 1 - e))
        pa *= big_a
        pb *= big_b
    return tuple(table), scale * big_q ** size


def _moment_sum(num: dict, tables: Sequence, offset: int = 0) -> tuple:
    """(re, im) = sum_key num[key] * prod_axis tables[axis][e_axis], in ints,
    e the exponents of the monomial product key + ``offset``.

    Both are stored keys, so no field of the sum carries into the next.  A
    term reads its exponents field by field and stops at its first zero
    factor, which most terms meet within a few axes.
    """
    re = im = 0
    for key, (a, b) in num.items():
        key += offset
        m = 1
        for table in tables:
            m *= table[key & FIELD]
            if not m:
                break
            key >>= BITS
        else:
            re += a * m
            im += b * m
    return re, im


def _cutoff_rows(a, b, size: int) -> tuple:
    """(rows, D) with int_a^b x^e phi^(d)(x) dx == rows[d][e] / D for d <= 2
    and e < size, all ints, phi the bump of [a, b].

    Over Q, a = A/Q and b = B/Q: phi = 16 g / (B - A)^4 for the int
    polynomial g = ((Qx - A)(B - Qx))^2, and a row is g^(d) against the
    moment table.
    """
    q, s = a.denominator, b.denominator
    big_a, big_b, big_q = a.numerator * s, b.numerator * q, q * s
    c0, c1, c2 = -big_a * big_b, big_q * (big_a + big_b), -big_q * big_q
    g = [c0 * c0, 2 * c0 * c1, c1 * c1 + 2 * c0 * c2, 2 * c1 * c2, c2 * c2]
    table, den = _moment_table(a, b, size + 4)
    rows = []
    for _ in range(3):
        rows.append([16 * sum(c * table[e + i] for i, c in enumerate(g))
                     for e in range(size)])
        g = [i * c for i, c in enumerate(g)][1:]
    return rows, den * (big_b - big_a) ** 4


class CutoffJet(Packed):
    """sum_alpha P_alpha d^alpha chi, chi the bump of the box the jet is
    integrated over (:func:`integrate_jets`), as a ``poly.Packed`` value: a
    key is a term of P_alpha, its packed monomial plus alpha, one order per
    variable packed as an exponent vector is, in the fields past the
    variable table (``poly._past_table``).

    Closed under first-order operators with polynomial coefficients, which
    is what the horizontal fields are.
    """

    __slots__ = ()

    @classmethod
    def bump(cls, variables) -> "CutoffJet":
        """chi itself: the one part 1 at alpha = 0."""
        return cls._make(tuple(variables), {0: (1, 0)})

    def apply_op(self, op) -> "CutoffJet":
        """Z(sum P_alpha d^alpha chi) for Z = sum_v c_v d_v, by the Leibniz rule:
        Z(P_alpha) stays at alpha, and c_v P_alpha goes to alpha + e_v.

        One dict over den * Z.den: ``FirstOrderOp.apply_into`` adds every
        Z(P_alpha), each key keeping its alpha, and ``poly.mul_into`` every
        c_v P_alpha, whose keys add the two fields past the table.
        """
        self._check(op)
        out = op.apply_into({}, self.num, 1)
        return self._like(mul_into(out, op.num, self.num, 1), self.den * op.den)


def integrate_jets(lows: Sequence[Fraction], highs: Sequence[Fraction],
                   sums: Sequence) -> list:
    """Exact box integrals of cutoff jets against polynomial weights.

    Each entry of ``sums`` is a list of (CutoffJet, weight Poly) pairs; its
    value is sum int_box weight * jet, with chi the bump of this box and
    jets of order at most 2 on each axis (a higher order is a ValueError).
    The cutoff rows
    int x^e phi^(d) dx of every axis are built once, long enough for every
    P_alpha times its weight: each polynomial's bound is the largest field
    of ``poly.support``, at least its highest exponent.  A term c x^e of
    P_alpha then costs one int moment sum of the weight against the rows of
    alpha, each weight key shifted by e (one int sum); no product
    polynomial is built.  An entry sums its ints over the lcm of the
    jets' and weights' denominators and divides once.
    """
    parts, size = [], 1
    for pairs in sums:
        for jet, weight in pairs:
            jet._check(weight)
            width = _check_box(jet, lows, highs)
            alphas = [(unpack(alpha, width), terms)
                      for alpha, terms in _split(jet.num, jet.vars, True).items()]
            order = max((d for alpha, _ in alphas for d in alpha), default=0)
            if order > 2:
                raise ValueError(f"a cutoff jet of order {order} on an axis: the cutoff "
                                 "rows stop at order 2")
            parts.append(alphas)
            top = max((e for _, terms in alphas for e in unpack(support(terms), width)),
                      default=0)
            size = max(size, 1 + top + max(unpack(support(weight.num), len(weight.vars)),
                                           default=0))
    rows, den = [], 1
    for a, b in zip(lows, highs):
        axis_rows, d = _cutoff_rows(a, b, size)
        rows.append(axis_rows)
        den *= d
    out, pair_parts = [], iter(parts)
    for pairs in sums:
        re = im = 0
        q_all = 1
        for jet, weight in pairs:
            sr = si = 0
            for alpha, terms in next(pair_parts):
                alpha_rows = [axis_rows[d] for axis_rows, d in zip(rows, alpha)]
                for key, (a, b) in terms.items():
                    wr, wi = _moment_sum(weight.num, alpha_rows, key)
                    sr += a * wr - b * wi
                    si += a * wi + b * wr
            # (re, im) / q_all + (sr, si) / q over the lcm of q_all and q
            q = jet.den * weight.den
            g = lcm(q_all, q)
            re = re * (g // q_all) + sr * (g // q)
            im = im * (g // q_all) + si * (g // q)
            q_all = g
        out.append((Fraction(re, q_all * den), Fraction(im, q_all * den)))
    return out
