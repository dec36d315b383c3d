"""Exact elimination: every rank and determinant in the package comes from here.

``bareiss`` eliminates fraction-free over the Gaussian integers (Bareiss,
Math. Comp. 22, 1968; Nakos, Turner and Williams, SIGSAM Bull. 31(3),
1997), on Python ints only; callers clear denominators first.
"""

from __future__ import annotations


def bareiss(rows) -> tuple:
    """(rank, det) of a matrix of Gaussian integers, given as ``(re, im)`` int pairs.

    Forward elimination with row swaps that skips columns without a pivot.
    With p the pivot, f a lower row's entry in the pivot column, y the pivot
    row's entry in column c and p' the previous pivot (1 at first), the
    lower row's entry x in column c becomes (p x - f y) / p'.  The quotient
    is exact, since the new entry is a minor of the input; it is taken as a
    product with the conjugate of p' and a floor division by the norm of p',
    so every entry stays a Gaussian integer.  On a square matrix of full
    rank the last pivot is the determinant up to the sign of the swaps.

    ``det`` is an ``(re, im)`` pair for a square matrix: ``(1, 0)`` for the
    empty matrix and ``(0, 0)`` when singular.  It is ``None`` when the
    matrix is not square.  The input is left unchanged.
    """
    re = [[x for x, _ in row] for row in rows]
    im = [[y for _, y in row] for row in rows]
    size = len(re)
    cols = len(re[0]) if re else 0
    rank = 0
    sign = 1
    pr, pi = 1, 0  # the previous pivot
    for col in range(cols):
        if rank == size:
            break
        pivot = next((r for r in range(rank, size) if re[r][col] or im[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            re[rank], re[pivot] = re[pivot], re[rank]
            im[rank], im[pivot] = im[pivot], im[rank]
            sign = -sign
        yre, yim = re[rank], im[rank]
        norm = pr * pr + pi * pi
        # p and f times the conjugate of p'
        ar = yre[col] * pr + yim[col] * pi
        ai = yim[col] * pr - yre[col] * pi
        for r in range(rank + 1, size):
            xre, xim = re[r], im[r]
            fr = xre[col] * pr + xim[col] * pi
            fi = xim[col] * pr - xre[col] * pi
            if fr or fi:
                for c in range(col + 1, cols):
                    xr, xi, yr, yi = xre[c], xim[c], yre[c], yim[c]
                    if xr or xi or yr or yi:
                        xre[c] = (ar * xr - ai * xi - fr * yr + fi * yi) // norm
                        xim[c] = (ar * xi + ai * xr - fr * yi - fi * yr) // norm
            else:  # f = 0: the row is only rescaled, and its zeros stay
                for c in range(col + 1, cols):
                    xr, xi = xre[c], xim[c]
                    if xr or xi:
                        xre[c] = (ar * xr - ai * xi) // norm
                        xim[c] = (ar * xi + ai * xr) // norm
        pr, pi = yre[col], yim[col]
        rank += 1
    if size != cols:
        return rank, None
    if rank < size:
        return rank, (0, 0)
    return rank, (sign * pr, sign * pi)
