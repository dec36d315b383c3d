"""Differential tests of the exact eliminators against brute-force oracles.

The dense fraction-free eliminators, ``dense_bareiss`` for ranks and
``bareiss_det`` for int determinants, are the references for the sparse
``linalg.bareiss`` and for the determinants the condition-H tests take.
"""

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfx import groups
from cfx.groups import GroupSpec
from cfx.linalg import bareiss, pfaffian
from cfx.poly import Poly
from cfx.randgen import SectionGenerator
from test_poly import is_homogeneous, tuple_num
from test_rational import ComplexRational, cq

LAM = ("lam1", "lam2", "lam3")


def cofactor_det(m):
    """Cofactor expansion down the rows, memoized by the set of columns left.

    Only ``+``, ``-`` and ``*``, no division: a reference determinant over
    any commutative ring (ints, ``Fraction``, ``ComplexRational``, ``Poly``).
    The empty matrix has determinant 1.
    """
    size = len(m)

    @cache
    def minor(cols):
        if not cols:
            return 1
        row = m[size - len(cols)]
        total = 0
        for pos, c in enumerate(cols):
            if row[c]:
                term = row[c] * minor(cols[:pos] + cols[pos + 1:])
                total = total + (-term if pos % 2 else term)
        return total

    return minor(tuple(range(size)))


def bareiss_det(m):
    """det of a square int matrix by fraction-free elimination (Bareiss 1968)."""
    m = [list(row) for row in m]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def dense_bareiss(rows) -> int:
    """Rank of a dense matrix of ``(re, im)`` int pairs, by fraction-free
    elimination over the Gaussian integers: the reference for the sparse
    ``linalg.bareiss``.

    Forward elimination with row swaps that skips columns without a pivot.
    With p the pivot, f a lower row's entry in the pivot column, y the pivot
    row's entry in column c and p' the previous pivot (1 at first), the
    lower row's entry x in column c becomes (p x - f y) / p', an exact
    quotient taken as a product with the conjugate of p' and a floor
    division by the norm of p'.
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
            for c in range(col + 1, cols):
                xr, xi, yr, yi = xre[c], xim[c], yre[c], yim[c]
                if xr or xi or yr or yi:
                    xre[c] = (ar * xr - ai * xi - fr * yr + fi * yi) // norm
                    xim[c] = (ar * xi + ai * xr - fr * yi - fi * yr) // norm
        pr, pi = yre[col], yim[col]
        rank += 1
    return rank


def sparse(rows):
    """Dense rows of ``(re, im)`` pairs as the ``{column: (re, im)}`` dicts
    that ``bareiss`` takes."""
    return [{c: x for c, x in enumerate(row) if x != (0, 0)} for row in rows]


def expansion_pfaffian(m):
    """Pfaffian by expansion along the first row, memoized by the indices left.

    Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows and columns 0 and j),
    with only ``+``, ``-`` and ``*``: a reference over any commutative ring.
    The empty matrix has Pfaffian 1 and an odd size gives 0.
    """

    @cache
    def minor(rest):
        if not rest:
            return 1
        row = m[rest[0]]
        total = 0
        for pos in range(1, len(rest)):
            if row[rest[pos]]:
                term = row[rest[pos]] * minor(rest[1:pos] + rest[pos + 1:])
                total = total + (term if pos % 2 else -term)
        return total

    return minor(tuple(range(len(m)))) if len(m) % 2 == 0 else 0


def central_pairing_det(g, lam):
    """det( sum_beta lam_beta B^beta ) for a covector lam of ints or Fractions.

    The determinant reference for condition H: the integer matrix
    sum_beta mu_beta (den B^beta), with mu = q lam and q the least common
    denominator of lam, is q den times the pairing matrix, and
    ``bareiss_det`` eliminates it.
    """
    den, brackets = g.integer_brackets
    lam = [Fraction(x) for x in lam]
    q = math.lcm(*(x.denominator for x in lam))
    m1, m2, m3 = (x.numerator * (q // x.denominator) for x in lam)
    m = [[m1 * a + m2 * b + m3 * c for a, b, c in zip(r1, r2, r3)]
         for r1, r2, r3 in zip(*brackets)]
    return Fraction(bareiss_det(m), (q * den) ** (4 * g.n))


def symbolic_pairing_det(g):
    """det( sum lam_beta B^beta ) in lam1..lam3 by ``cofactor_det`` (0 when it vanishes).

    B^beta is (den B^beta) / den from ``integer_brackets``.
    """
    size = 4 * g.n
    den, brackets = g.integer_brackets
    pencil = [[sum((Poly.var(LAM, v, Fraction(b[i][j], den)) for v, b in zip(LAM, brackets)),
                   Poly.zero(LAM))
               for j in range(size)] for i in range(size)]
    return cofactor_det(pencil)


def minor_rank(m):
    """Size of the largest square submatrix with a nonzero determinant."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    for size in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), size):
            for cs in combinations(range(cols), size):
                if cofactor_det([[m[r][c] for c in cs] for r in rs]):
                    return size
    return 0


def fraction_entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def complex_entry(rng):
    return ComplexRational(fraction_entry(rng), fraction_entry(rng))


def random_matrix(rng, entry, rows, cols):
    return [[entry(rng) for _ in range(cols)] for _ in range(rows)]


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def cases(entry, seed):
    """Seeded matrices up to 5 x 6: dense ones and thin-factor products."""
    rng = random.Random(seed)
    out = []
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        out.append(random_matrix(rng, entry, rows, cols))
    for _ in range(30):
        rows, cols = rng.randint(2, 5), rng.randint(2, 6)
        inner = rng.randint(1, min(rows, cols) - 1)
        out.append(product(random_matrix(rng, entry, rows, inner),
                           random_matrix(rng, entry, inner, cols)))
    for _ in range(10):
        size = rng.randint(2, 5)
        out.append(product(random_matrix(rng, entry, size, size - 1),
                           random_matrix(rng, entry, size - 1, size)))
    return out


def gaussian_rows(m):
    """Each row over the lcm of its denominators as (re, im) int pairs: the
    row scalings keep the rank."""
    rows = []
    for row in m:
        row = [cq(x) for x in row]
        den = math.lcm(*(part.denominator for x in row for part in (x.re, x.im)))
        rows.append([(int(x.re * den), int(x.im * den)) for x in row])
    return rows


@pytest.mark.parametrize("entry,seed", [(fraction_entry, 1), (complex_entry, 2)])
def test_bareiss_matches_brute_force(entry, seed):
    deficient = 0
    for m in cases(entry, seed):
        rows = gaussian_rows(m)
        rank = bareiss(sparse(rows))
        assert type(rank) is int and rank == minor_rank(m) == dense_bareiss(rows)
        deficient += len(m) == len(m[0]) and rank < len(m)
    assert deficient >= 10


def test_bareiss_leaves_its_input_alone():
    m = sparse([[(2, 1), (1, 0), (0, 0)], [(4, 0), (3, -1), (1, 1)], [(0, 0), (0, 0), (2, 0)]])
    copy = [dict(row) for row in m]
    assert bareiss(m) == 3
    assert m == copy


def test_bareiss_edge_cases():
    zero = (0, 0)
    for m, rank in [([], 0), ([[], [], []], 0), ([[zero] * 3 for _ in range(3)], 0),
                    ([[(1, 0), (2, 0)], [zero, zero]], 1),  # a zero row
                    ([[zero, (1, 0)], [zero, (5, 0)], [zero, (-1, 0)]], 1),  # a zero column
                    ([[(0, 1)]], 1),
                    ([[zero, (1, 0)], [(1, 0), zero]], 2)]:  # a zero leading entry
        assert bareiss(sparse(m)) == dense_bareiss(m) == rank


def gaussian_product(a, b):
    """Product of two matrices of (re, im) int pairs."""
    return [[(sum(x[0] * y[0] - x[1] * y[1] for x, y in zip(row, col)),
              sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(row, col)))
             for col in zip(*b)] for row in a]


def gaussian_cases(seed):
    """Seeded Gaussian-integer matrices of 0 to 40 rows and columns.

    Dense and sparse ones and low-rank products of sparse factors, each
    given a zero row, a zero column, a duplicated row or a row scaled by a
    Gaussian integer in turns; the entries are not real, so that every
    pivot is checked with its conjugate.
    """
    rng = random.Random(seed)

    def draw(rows, cols, density):
        return [[(rng.randint(-3, 3), rng.randint(-3, 3)) if rng.random() < density else (0, 0)
                 for _ in range(cols)] for _ in range(rows)]

    out = [[], [[]], draw(40, 40, 0.9), draw(40, 40, 0.1)]
    for case in range(80):
        rows, cols = rng.randint(1, 40), rng.randint(1, 40)
        if case % 2:
            # sparse factors: rows that no step touches for a while, then pivot
            density = rng.choice([0.1, 0.2, 0.3])
            inner = rng.randint(1, min(rows, cols))
            m = gaussian_product(draw(rows, inner, density), draw(inner, cols, density))
        else:
            m = draw(rows, cols, rng.choice([0.05, 0.15, 0.4, 0.9]))
        r = rng.randrange(rows)
        if case % 4 == 0:
            m[r] = [(0, 0)] * cols
        elif case % 4 == 1:
            c = rng.randrange(cols)
            m = [row[:c] + [(0, 0)] + row[c + 1:] for row in m]
        elif case % 4 == 2:
            m.insert(rng.randint(0, rows), m[r][:])
        else:
            ar, ai = rng.choice([(2, 1), (0, -3), (-1, 1), (5, 0)])
            m.insert(rng.randint(0, rows), [(ar * x - ai * y, ar * y + ai * x) for x, y in m[r]])
        out.append(m)
    return out


def test_sparse_bareiss_matches_the_dense_reference():
    deficient = 0
    for m in gaussian_cases(11):
        rows = sparse(m)
        rank = bareiss(rows)
        assert rank == dense_bareiss(m), (len(m), len(m[0]) if m else 0)
        assert rows == sparse(m)
        deficient += rank < min(len(m), len(m[0]) if m else 0)
    assert deficient >= 30


def rank_of(m):
    return bareiss(sparse(m))


gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
matrices = st.integers(1, 7).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(st.just((0, 0)), gaussian), min_size=cols, max_size=cols),
    min_size=1, max_size=7))


@given(matrices, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_bareiss_rank_is_invariant(m, rng):
    # the rank is that of the matrix, not of the rows and columns' order or
    # of an invertible row operation
    rank = rank_of(m)
    assert rank <= min(len(m), len(m[0])) and rank == dense_bareiss(m)
    rows, cols = list(range(len(m))), list(range(len(m[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    assert rank_of([[m[r][c] for c in cols] for r in rows]) == rank
    assert rank_of([list(col) for col in zip(*m)]) == rank
    r, t = rng.randrange(len(m)), rng.randrange(len(m))
    ar, ai = rng.choice([(x, y) for x in range(-3, 4) for y in range(-3, 4) if x or y])
    scaled = [row[:] for row in m]
    scaled[r] = [(ar * x - ai * y, ar * y + ai * x) for x, y in m[r]]
    assert rank_of(scaled) == rank
    if r != t:
        added = [row[:] for row in m]
        added[t] = [(x + ar * u - ai * v, y + ar * v + ai * u)
                    for (x, y), (u, v) in zip(m[t], m[r])]
        assert rank_of(added) == rank


def int_cases(seed):
    """Seeded square int matrices of sizes 0 to 8: dense, zero leading
    pivots and low rank."""
    rng = random.Random(seed)
    out = [[]]
    for _ in range(40):
        size = rng.randint(1, 8)
        out.append([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
    for _ in range(20):
        size = rng.randint(2, 8)
        m = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        m[0][0] = 0
        m[1][1] = 0
        out.append(m)
    for _ in range(20):
        size = rng.randint(2, 8)
        inner = rng.randint(1, size - 1)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(size)]
        right = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(inner)]
        out.append(product(left, right))
    return out


def test_bareiss_over_ints_matches_cofactor_det():
    # full rank exactly when the determinant is nonzero; bareiss_det, the
    # determinant the condition-H references take, is the cofactor one
    swaps = singular = 0
    for m in int_cases(5):
        rank = bareiss(sparse([[(x, 0) for x in row] for row in m]))
        det = cofactor_det(m)
        assert type(bareiss_det(m)) is int and bareiss_det(m) == det
        assert (rank == len(m)) == (det != 0)
        swaps += len(m) > 1 and m[0][0] == 0 and det != 0
        singular += det == 0
    assert swaps >= 5 and singular >= 20
    assert bareiss([{2: (1, 0)}, {1: (1, 0)}, {0: (1, 0)}]) == 3


def skew_cases(seed):
    """Seeded skew int matrices of sizes 0 to 12, odd sizes included.

    Dense ones; sparse ones; ones with a zero first row; ones whose a_01
    is 0 while a_0j is not, so that the first step swaps; and congruence
    products C^T K C with a thin C, whose Pfaffian is 0 at even size.
    """
    rng = random.Random(seed)

    def skew(size, density):
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < density:
                    m[i][j] = rng.randint(-6, 6)
                    m[j][i] = -m[i][j]
        return m

    out = [skew(size, 0.9) for size in range(13) for _ in range(10)]
    out += [skew(rng.randint(2, 12), rng.uniform(0.1, 0.4)) for _ in range(80)]
    for _ in range(40):
        m = skew(rng.randint(2, 12), 0.8)
        for i in range(len(m)):
            m[0][i] = m[i][0] = 0
        out.append(m)
    for _ in range(40):
        m = skew(rng.randint(3, 12), 0.8)
        j = rng.randint(2, len(m) - 1)
        m[0][1] = m[1][0] = 0
        m[0][j] = rng.choice([-3, -2, -1, 1, 2, 3])
        m[j][0] = -m[0][j]
        out.append(m)
    for _ in range(30):
        size = 2 * rng.randint(2, 6)
        inner = rng.randint(1, size - 1)
        c = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(inner)]
        k = skew(inner, 0.9)
        out.append(product(list(zip(*c)), product(k, c)))
    return out


def test_pfaffian_matches_expansion_and_squares_to_the_determinant():
    cases = skew_cases(7)
    odd = sparse = zero_row = swap = vanishing = 0
    for m in cases:
        copy = [row[:] for row in m]
        pf = pfaffian(m)
        assert m == copy
        assert type(pf) is int
        assert pf == expansion_pfaffian([[Fraction(x) for x in row] for row in m])
        assert pf * pf == cofactor_det(m)
        size = len(m)
        odd += size % 2
        sparse += 3 * sum(map(bool, (x for row in m for x in row))) < size * size
        zero_row += size > 0 and not any(m[0])
        swap += size > 1 and m[0][1] == 0 and any(m[0])
        vanishing += size > 0 and size % 2 == 0 and any(m[0]) and pf == 0
    assert len(cases) >= 300
    assert odd >= 100 and sparse >= 80 and zero_row >= 60 and swap >= 60 and vanishing >= 30


def test_pfaffian_edge_cases():
    assert pfaffian([]) == 1
    assert pfaffian([[0]]) == 0
    assert pfaffian([[0, 3], [-3, 0]]) == 3
    assert pfaffian([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]) == 0
    # Pf = a01 a23 - a02 a13 + a03 a12; with a01 = 0 the first step swaps
    m = [[0, 0, 2, 0], [0, 0, 0, 5], [-2, 0, 0, 0], [0, -5, 0, 0]]
    assert pfaffian(m) == -10
    assert pfaffian([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) == 0


def _group(name, n):
    if name == "dense":
        return GroupSpec(n, SectionGenerator(40 + n).symmetric_matrix(4 * n))
    return GroupSpec.named(name, n)


@pytest.mark.parametrize("name", ["rightQH", "leftQH", "dense"])
@pytest.mark.parametrize("n", [1, 2])
def test_central_pairing_det_matches_symbolic_determinant(name, n):
    group = _group(name, n)
    det_poly = symbolic_pairing_det(group)
    assert is_homogeneous(det_poly, 4 * n)
    # homogeneous of degree 4n: its value at lam = mu / 4 is its numerators
    # summed in ints at the int point mu, over den * 4^(4n)
    scale = det_poly.den * 4 ** (4 * n)
    for mu, _ in groups._direction_grid(4):
        lam = [Fraction(x, 4) for x in mu]
        re = im = 0
        for expo, (c, d) in tuple_num(det_poly).items():
            monomial = math.prod(x ** e for x, e in zip(mu, expo))
            re += c * monomial
            im += d * monomial
        assert im == 0
        assert central_pairing_det(group, lam) == Fraction(re, scale)


def test_cofactor_det_over_polynomials():
    x, y = (Poly.var(("x", "y"), v) for v in ("x", "y"))
    assert cofactor_det([[x, y], [y, x]]) == x * x - y * y
    assert cofactor_det([[x, y, 0], [0, x, y], [y, 0, x]]) == x * x * x + y * y * y
    assert cofactor_det([[x, y], [x, y]]) == 0 * x
    assert cofactor_det([]) == 1
