"""Differential tests of the exact eliminator against brute-force oracles."""

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from cfx.groups import GroupSpec, central_pairing_det, sphere_grid
from cfx.linalg import bareiss
from cfx.poly import Poly
from cfx.randgen import SectionGenerator
from cfx.rational import ComplexRational, cq

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
                total = total - term if pos % 2 else total + term
        return total

    return minor(tuple(range(size)))


def symbolic_pairing_det(g):
    """det( sum lam_beta B^beta ) in lam1..lam3 by ``cofactor_det`` (0 when it vanishes)."""
    size = 4 * g.n
    pencil = [[sum((Poly.var(LAM, v, b[i][j]) for v, b in zip(LAM, g.B)), Poly.zero(LAM))
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
    """(rows, scale): each row over the lcm of its denominators as (re, im)
    int pairs, and the product of those lcms."""
    rows, scale = [], 1
    for row in m:
        row = [cq(x) for x in row]
        den = math.lcm(*(part.denominator for x in row for part in (x.re, x.im)))
        rows.append([(int(x.re * den), int(x.im * den)) for x in row])
        scale *= den
    return rows, scale


@pytest.mark.parametrize("entry,seed", [(fraction_entry, 1), (complex_entry, 2)])
def test_bareiss_matches_brute_force(entry, seed):
    deficient = 0
    for m in cases(entry, seed):
        rows, scale = gaussian_rows(m)
        rank, det = bareiss(rows)
        assert rank == minor_rank(m)
        if len(m) == len(m[0]):
            assert type(det[0]) is int and type(det[1]) is int
            assert cq(det) == cofactor_det(m) * scale
            deficient += rank < len(m)
        else:
            assert det is None
    assert deficient >= 10


def test_bareiss_leaves_its_input_alone():
    m = [[(2, 1), (1, 0)], [(4, 0), (3, -1)]]
    copy = [row[:] for row in m]
    assert bareiss(m) == (2, (3, 1))
    assert m == copy


def test_bareiss_edge_cases():
    zero = (0, 0)
    assert bareiss([]) == (0, (1, 0))
    assert bareiss([[], [], []]) == (0, None)
    assert bareiss([[zero] * 3 for _ in range(3)]) == (0, (0, 0))
    with_zero_row = [[(1, 0), (2, 0)], [zero, zero]]
    assert bareiss(with_zero_row) == (1, (0, 0))
    with_zero_col = [[zero, (1, 0)], [zero, (5, 0)], [zero, (-1, 0)]]
    assert bareiss(with_zero_col) == (1, None)
    assert bareiss([[(0, 1)]]) == (1, (0, 1))
    # a row swap flips the sign
    assert bareiss([[zero, (1, 0)], [(1, 0), zero]]) == (2, (-1, 0))


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
    swaps = singular = 0
    for m in int_cases(5):
        rank, (det, im) = bareiss([[(x, 0) for x in row] for row in m])
        assert type(det) is int and det == cofactor_det(m) and im == 0
        assert (rank == len(m)) == (det != 0)
        swaps += m[0][0] == 0 and det != 0
        singular += det == 0
    assert swaps >= 5 and singular >= 20
    assert bareiss([[(0, 0), (0, 0), (1, 0)], [(0, 0), (1, 0), (0, 0)],
                    [(1, 0), (0, 0), (0, 0)]]) == (3, (-1, 0))


def _group(name, n):
    if name == "dense":
        return GroupSpec(n, SectionGenerator(40 + n).symmetric_matrix(4 * n))
    return GroupSpec.named(name, n)


@pytest.mark.parametrize("name", ["rightQH", "leftQH", "dense"])
@pytest.mark.parametrize("n", [1, 2])
def test_central_pairing_det_matches_symbolic_determinant(name, n):
    group = _group(name, n)
    det_poly = symbolic_pairing_det(group)
    assert det_poly.is_homogeneous(4 * n)
    for lam in sphere_grid(4):
        assert central_pairing_det(group, lam) == det_poly.eval_exact(list(lam)).re


def test_cofactor_det_over_polynomials():
    x, y = (Poly.var(("x", "y"), v) for v in ("x", "y"))
    assert cofactor_det([[x, y], [y, x]]) == x * x - y * y
    assert cofactor_det([[x, y, 0], [0, x, y], [y, 0, x]]) == x * x * x + y * y * y
    assert cofactor_det([[x, y], [x, y]]) == 0 * x
    assert cofactor_det([]) == 1
