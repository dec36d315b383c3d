"""Differential tests of the exact eliminators against brute-force oracles."""

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from cfx import groups
from cfx.groups import GroupSpec
from cfx.linalg import bareiss, pfaffian
from cfx.poly import Poly
from cfx.randgen import SectionGenerator
from cfx.rational import ComplexRational, cq
from test_poly import eval_exact, is_homogeneous

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
    ``cofactor_det`` expands it.
    """
    den, brackets = g.integer_brackets
    lam = [Fraction(x) for x in lam]
    q = math.lcm(*(x.denominator for x in lam))
    m1, m2, m3 = (x.numerator * (q // x.denominator) for x in lam)
    m = [[m1 * a + m2 * b + m3 * c for a, b, c in zip(r1, r2, r3)]
         for r1, r2, r3 in zip(*brackets)]
    return Fraction(cofactor_det(m), (q * den) ** (4 * g.n))


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
        rank = bareiss(gaussian_rows(m))
        assert type(rank) is int and rank == minor_rank(m)
        deficient += len(m) == len(m[0]) and rank < len(m)
    assert deficient >= 10


def test_bareiss_leaves_its_input_alone():
    m = [[(2, 1), (1, 0)], [(4, 0), (3, -1)]]
    copy = [row[:] for row in m]
    assert bareiss(m) == 2
    assert m == copy


def test_bareiss_edge_cases():
    zero = (0, 0)
    assert bareiss([]) == 0
    assert bareiss([[], [], []]) == 0
    assert bareiss([[zero] * 3 for _ in range(3)]) == 0
    with_zero_row = [[(1, 0), (2, 0)], [zero, zero]]
    assert bareiss(with_zero_row) == 1
    with_zero_col = [[zero, (1, 0)], [zero, (5, 0)], [zero, (-1, 0)]]
    assert bareiss(with_zero_col) == 1
    assert bareiss([[(0, 1)]]) == 1
    # a zero leading entry takes a row swap
    assert bareiss([[zero, (1, 0)], [(1, 0), zero]]) == 2


def int_cases(seed):
    """Seeded square int matrices: dense, zero leading pivots and low rank."""
    rng = random.Random(seed)
    out = []
    for _ in range(40):
        size = rng.randint(1, 7)
        out.append([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
    for _ in range(20):
        size = rng.randint(2, 7)
        m = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        m[0][0] = 0
        m[1][1] = 0
        out.append(m)
    for _ in range(20):
        size = rng.randint(2, 7)
        inner = rng.randint(1, size - 1)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(size)]
        right = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(inner)]
        out.append(product(left, right))
    return out


def test_bareiss_over_ints_matches_cofactor_det():
    # full rank exactly when the determinant is nonzero
    swaps = singular = 0
    for m in int_cases(5):
        rank = bareiss([[(x, 0) for x in row] for row in m])
        det = cofactor_det(m)
        assert (rank == len(m)) == (det != 0)
        swaps += m[0][0] == 0 and det != 0
        singular += det == 0
    assert swaps >= 5 and singular >= 20
    assert bareiss([[(0, 0), (0, 0), (1, 0)], [(0, 0), (1, 0), (0, 0)],
                    [(1, 0), (0, 0), (0, 0)]]) == 3


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
    for mu, _ in groups._direction_grid(4):
        lam = [Fraction(x, 4) for x in mu]
        assert central_pairing_det(group, lam) == eval_exact(det_poly, lam).re


def test_cofactor_det_over_polynomials():
    x, y = (Poly.var(("x", "y"), v) for v in ("x", "y"))
    assert cofactor_det([[x, y], [y, x]]) == x * x - y * y
    assert cofactor_det([[x, y, 0], [0, x, y], [y, 0, x]]) == x * x * x + y * y * y
    assert cofactor_det([[x, y], [x, y]]) == 0 * x
    assert cofactor_det([]) == 1
