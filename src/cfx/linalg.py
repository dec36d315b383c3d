"""Exact elimination: one routine per quantity, on Python ints only.

The symbol ranks are proved, not only computed.  ``zero_products``
checks the products of consecutive sparse Gaussian-integer matrices
exactly, the premise σ_{j+1}σ_j = 0 under which a rank sum can prove
exactness.
``rank_mod_p`` gives a lower bound on a rank: the rank over
Z[i]/(p, i − ι) with p = ``PRIME`` and ι a square root of −1 mod p, a
field with p elements, where a minor that is nonzero is nonzero over Z[i]
too; it eliminates sparse ``{column: int}`` rows mod p, so a row costs
the entries of the pivot rows it meets, not the width of the matrix.
``bareiss`` gives exact ranks: fraction-free elimination over the
Gaussian integers (Bareiss, Math. Comp. 22, 1968; Nakos, Turner and
Williams, SIGSAM Bull. 31(3), 1997) on sparse rows, ``{column: (re, im)}``
dicts, so that a step costs the entries of the rows it touches, not the
whole matrix: the symbol matrices are mostly zeros.  It serves
``groups.is_stratified`` and every symbol rank that the bounds leave open.
``pfaffian`` gives the Pfaffian of a skew integer matrix, the square root
of its determinant that the central pairing of a group needs, by the same
fraction-free scheme taken two rows and columns at a time.  Callers clear
denominators first.
"""

from __future__ import annotations


def bareiss(rows) -> int:
    """Rank of a sparse matrix of Gaussian integers: rows given as
    ``{column: (re, im)}`` int-pair dicts that hold no ``(0, 0)`` entry.

    Fraction-free elimination.  With p the pivot, f a row's entry in the
    pivot column, y the pivot row's entry in column c and p' the previous
    pivot (1 at first), the row's entry x in column c becomes
    (p x - f y) / p'; the quotient is exact, since the new entry is a minor
    of the input, and it is taken as a product with the conjugate of p' and
    a floor division by the norm of p', so every entry stays a Gaussian
    integer.  A step touches only the rows with an entry in the pivot
    column.  Every other row would only be multiplied by p / p', so it
    keeps its entries and the step s it was last brought up to date at:
    its next update divides by the pivot of step s in place of p', and a
    pivot row is first multiplied once by the latest pivot over that one.
    Each step pivots in a column with the fewest live rows, on one of them
    with the fewest entries, which keeps the fill-in small; any row and
    column order gives the same rank, the number of pivots.  The input is
    left unchanged.
    """
    # each live row with the step it was last brought up to date at
    live = [(row, 0) for row in rows if row]
    counts = {}  # per column, the live rows with an entry there
    for row in rows:
        for c in row:
            counts[c] = counts.get(c, 0) + 1
    steps = [(1, 0)]  # the pivot of each step, 1 before the first
    while counts:
        col = min(counts, key=counts.get)
        hits = [r for r, (x, _) in enumerate(live) if col in x]
        top = min(hits, key=lambda r: len(live[r][0]))
        rank = len(steps) - 1
        y, s = live[top]
        for c in y:
            counts[c] -= 1
        if s != rank:  # the pivot row times the latest pivot over its own
            tr, ti = steps[rank]
            sr, si = steps[s]
            norm = sr * sr + si * si
            ar, ai = tr * sr + ti * si, ti * sr - tr * si
            y = {c: ((ar * xr - ai * xi) // norm, (ar * xi + ai * xr) // norm)
                 for c, (xr, xi) in y.items()}
        pr, pi = y[col]
        rest = []
        for r, (x, s) in enumerate(live):
            f = x.get(col)
            if f is None:
                rest.append((x, s))
                continue
            if r == top:
                continue
            sr, si = steps[s]
            norm = sr * sr + si * si
            # p and f times the conjugate of the pivot of step s
            ar, ai = pr * sr + pi * si, pi * sr - pr * si
            fr, fi = f[0] * sr + f[1] * si, f[1] * sr - f[0] * si
            new = {}
            for c, (yr, yi) in y.items():
                if c != col:
                    xr, xi = x.get(c, (0, 0))
                    re = (ar * xr - ai * xi - fr * yr + fi * yi) // norm
                    im = (ar * xi + ai * xr - fr * yi - fi * yr) // norm
                    if re or im:
                        new[c] = (re, im)
            for c, (xr, xi) in x.items():
                counts[c] -= 1
                if c not in y:  # f y has no entry there: x times p / p'
                    new[c] = ((ar * xr - ai * xi) // norm, (ar * xi + ai * xr) // norm)
            for c in new:
                counts[c] += 1
            if new:
                rest.append((new, rank + 1))
        live = rest
        steps.append((pr, pi))
        counts = {c: m for c, m in counts.items() if m}
    return len(steps) - 1


# p = 268435361 is a prime below 2^28 with p = 1 (mod 4), so -1 has a square
# root mod p, IOTA: i -> IOTA maps Z[i] onto the field Z/p
PRIME = 268435361
IOTA = 162018631


def rank_mod_p(rows, p: int = PRIME, iota: int = IOTA) -> int:
    """Rank over Z[i]/(p, i − iota) of a sparse Gaussian-integer matrix, rows
    as ``bareiss`` takes them; p is a prime and iota^2 = −1 (mod p).

    Reduction sends every minor to the same minor of the image, so this rank
    is a lower bound on the rank over Q(i), the one ``bareiss`` returns.
    Sparse elimination mod p (as in Dumas and Villard, CASC 2002): each row,
    taken in the order given, becomes a ``{column: int}`` dict of its
    nonzero entries mod p and is reduced at its highest column c against a
    table of pivot rows, one per column, each scaled to 1 in its column and
    kept without it.  With f the row's entry at c, dropped: where c has a
    pivot row y, f y is subtracted from the row, and an entry that cancels
    mod p is dropped; elsewhere the row divided by f becomes c's pivot row.
    A row costs the entries of the pivot rows it meets, not the width of
    the matrix.  The rank is the number of pivot rows.  The input is left
    unchanged.
    """
    pivots = {}  # per column, its pivot row's entries left of it
    for row in rows:
        x = {}
        for c, (re, im) in row.items():
            if e := (re + im * iota) % p:
                x[c] = e
        while x:
            c = max(x)
            f = x.pop(c)
            y = pivots.get(c)
            if y is None:
                inverse = pow(f, -1, p)
                pivots[c] = {d: e * inverse % p for d, e in x.items()}
                break
            for d, e in y.items():
                if t := (x.get(d, 0) - f * e) % p:
                    x[d] = t
                else:
                    del x[d]
    return len(pivots)


def _bound(rows) -> int:
    """A bound on the real and imaginary parts of ``rows``: no part is larger
    in absolute value (the largest |re| | |im|, at most twice the largest)."""
    return max((abs(re) | abs(im) for row in rows for re, im in row.values()), default=0)


def zero_products(chain) -> list:
    """Whether each product ``chain[j] chain[j - 1]`` (j >= 1) of sparse
    Gaussian-integer matrices, rows as ``bareiss`` takes them, is exactly
    zero; row r of ``chain[j - 1]`` is the row that column r of ``chain[j]``
    multiplies.  Each matrix is bounded (``_bound``) once, though a middle
    one enters two products.

    Each row of the right factor is packed as two ints, its real and its
    imaginary parts at 2^(width c) for column c (Kronecker substitution), so
    a row of the product packs into two sums of int multiples of them.  With
    every part of the left factor at most a and every part of the right one
    at most b in size, an entry of the product is at most 2 len(right) a b
    < 2^width, so a packed sum is 0 exactly when each of its entries is:
    were e at column c the lowest nonzero one, the sum would be
    e 2^(width c), nonzero, mod 2^(width (c + 1)).
    """
    bounds = list(map(_bound, chain))
    return [_is_zero(chain[j], chain[j - 1], bounds[j] * bounds[j - 1])
            for j in range(1, len(chain))]


def _is_zero(left, right, ab: int) -> bool:
    """One product of :func:`zero_products`, ``ab`` the product of the bounds."""
    width = (2 * len(right) * ab).bit_length()
    packed = []
    for row in right:
        re_sum = im_sum = 0
        for c, (re, im) in row.items():
            re_sum += re << width * c
            im_sum += im << width * c
        packed.append((re_sum, im_sum))
    for row in left:
        re = im = 0
        for r, (ar, ai) in row.items():
            br, bi = packed[r]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        if re or im:
            return False
    return True


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
