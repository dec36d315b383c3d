"""Exact elimination: every rank and determinant in the package comes from here.

``echelon`` works over any exact field whose entries support truthiness,
``-``, ``*`` and ``/`` (``Fraction``, ``ComplexRational``); ``bareiss_det``
is the fraction-free determinant of a Python int matrix.
"""

from __future__ import annotations


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


def bareiss_det(m):
    """Determinant of a square int matrix by fraction-free Bareiss elimination.

    Every ``//`` is exact (Bareiss, Math. Comp. 22, 1968), so every
    intermediate entry stays an int.  Consumes ``m`` (a list of lists) in
    place; the empty matrix has determinant 1.
    """
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(size - 1):
        if not m[col][col]:
            pivot = next((r for r in range(col + 1, size) if m[r][col]), None)
            if pivot is None:
                return m[col][col]
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        prow = m[col]
        p = prow[col]
        for r in range(col + 1, size):
            row = m[r]
            f = row[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * p - f * prow[c]) // prev
        prev = p
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det
