"""Exact elimination: every rank and determinant in the package comes from here.

``echelon`` works over any exact field whose entries support truthiness,
``-``, ``*`` and ``/`` (``Fraction``, ``ComplexRational``); ``bareiss_det``
is the fraction-free determinant over the polynomial ring.
"""

from __future__ import annotations

from .poly import Poly


def echelon(matrix) -> tuple:
    """(rank, det) by forward Gaussian elimination, exact.

    ``det`` is the determinant of a square matrix (1 for the empty matrix,
    0 when singular) and ``None`` when the matrix is not square.  Only the
    nonzero entries of each pivot row are propagated, which keeps sparse
    symbol matrices cheap.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank = 0
    det = 1
    for col in range(cols):
        if rank == rows:
            break
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        prow = m[rank]
        p = prow[col]
        det = det * p
        support = [c for c in range(col + 1, cols) if prow[c]]
        for r in range(rank + 1, rows):
            row = m[r]
            if row[col]:
                f = row[col] / p
                for c in support:
                    row[c] = row[c] - f * prow[c]
        rank += 1
    if rows != cols:
        return rank, None
    return rank, det if rank == rows else 0


def bareiss_det(m, variables) -> Poly:
    """Determinant over the polynomial ring by fraction-free Bareiss elimination.

    Consumes ``m`` (a square list of lists of Poly) in place.
    """
    size = len(m)
    if size == 0:
        return Poly.const(variables, 1)
    sign = 1
    prev = Poly.const(variables, 1)
    for col in range(size - 1):
        if m[col][col].is_zero():
            pivot = next((r for r in range(col + 1, size) if not m[r][col].is_zero()), None)
            if pivot is None:
                return Poly.zero(variables)
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                num = m[r][c] * m[col][col] - m[r][col] * m[col][c]
                m[r][c] = _exact_poly_div(num, prev)
            m[r][col] = Poly.zero(variables)
        prev = m[col][col]
    det = m[size - 1][size - 1]
    return det.scale(sign)


def _exact_poly_div(num: Poly, den: Poly) -> Poly:
    """Exact division num/den (den is known to divide num in Bareiss)."""
    if den.total_degree() == 0:
        c = den.constant_term()
        return Poly(num.vars, {e: co / c for e, co in num.terms.items()})
    # multivariate long division by a single divisor with exact quotient
    remainder = num
    quotient = Poly.zero(num.vars)
    den_terms = sorted(den.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    lead_e, lead_c = den_terms[0]
    while not remainder.is_zero():
        r_terms = sorted(remainder.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        r_e, r_c = r_terms[0]
        diff = tuple(a - b for a, b in zip(r_e, lead_e))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division in fraction-free elimination")
        mono = Poly.monomial(num.vars, diff, r_c / lead_c)
        quotient = quotient + mono
        remainder = remainder - mono * den
    return quotient
