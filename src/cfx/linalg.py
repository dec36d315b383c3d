"""Exact elimination: one routine per quantity, on Python ints only.

``bareiss`` gives ranks: fraction-free elimination over the Gaussian
integers (Bareiss, Math. Comp. 22, 1968; Nakos, Turner and Williams,
SIGSAM Bull. 31(3), 1997).  ``pfaffian`` gives the Pfaffian of a skew
integer matrix, the square root of its determinant that the central
pairing of a group needs, by the same fraction-free scheme taken two
rows and columns at a time.  Callers clear denominators first.
"""

from __future__ import annotations


def bareiss(rows) -> int:
    """Rank of a matrix of Gaussian integers, given as ``(re, im)`` int pairs.

    Forward elimination with row swaps that skips columns without a pivot.
    With p the pivot, f a lower row's entry in the pivot column, y the pivot
    row's entry in column c and p' the previous pivot (1 at first), the
    lower row's entry x in column c becomes (p x - f y) / p'.  The quotient
    is exact, since the new entry is a minor of the input; it is taken as a
    product with the conjugate of p' and a floor division by the norm of p',
    so every entry stays a Gaussian integer.  The rank is the number of
    pivots.  The input is left unchanged.
    """
    re = [[x for x, _ in row] for row in rows]
    im = [[y for _, y in row] for row in rows]
    size = len(re)
    cols = len(re[0]) if re else 0
    rank = 0
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
    return rank


def pfaffian(rows) -> int:
    """Pfaffian of a skew-symmetric int matrix, by fraction-free elimination.

    Each step pivots on a_01.  When it is 0, row and column 1 are swapped
    with the first j whose a_0j is not, which flips the sign; when row 0 is
    zero, so is the Pfaffian.  With p = a_01 and q the previous pivot (1 at
    first), the rows and columns 0 and 1 go and every other entry becomes
    a_ik <- (p a_ik + a_i0 a_1k - a_i1 a_0k) / q.  The quotient is exact:
    up to the swaps, the new entry is the Pfaffian of the input's leading
    block bordered by rows and columns i and k, so the matrix stays skew
    and integral, and each pivot is the Pfaffian of a leading block.  The
    last pivot, times the sign of the swaps, is the Pfaffian.  The empty
    matrix gives 1 and an odd size gives 0 (a 1 x 1 block is left, whose
    row is zero).  The input is left unchanged.
    """
    a = [list(row) for row in rows]
    sign, pivot = 1, 1
    while a:
        top = a[0]
        j = next((j for j in range(1, len(top)) if top[j]), None)
        if j is None:
            return 0
        if j != 1:
            a[1], a[j] = a[j], a[1]
            for row in a:
                row[1], row[j] = row[j], row[1]
            sign = -sign
        r0, r1, prev = a[0][2:], a[1][2:], pivot
        pivot = a[0][1]
        size = len(r0)
        # the update keeps the matrix skew: work above the diagonal, mirror below
        b = [[0] * size for _ in range(size)]
        for i in range(size):
            ri, bi = a[i + 2], b[i]
            x0, x1 = ri[0], ri[1]
            for k in range(i + 1, size):
                bi[k] = x = (pivot * ri[k + 2] + x0 * r1[k] - x1 * r0[k]) // prev
                b[k][i] = -x
        a = b
    return sign * pivot
