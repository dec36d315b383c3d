"""Differential tests of the exact eliminators against brute-force oracles.

Each quantity the tests read has one reference here, and the ground truth
it is checked against follows the arrow:

- brackets: ``reference_brackets``, dense products with block_diag(Ibeta);
- pencil det: ``bareiss_det`` on the pencil cleared of denominators (``int_pencil``,
  ``central_pairing_det``) -> ``cofactor_det``;
- Pfaffian: ``expansion_pfaffian`` -> its square is ``cofactor_det``;
- symbolic det: ``cofactor_det`` on the ``Poly`` pencil -> the pencil det on a grid;
- rank: ``dense_rank`` -> ``minor_rank``;
- product of two Gaussian-integer matrices: ``gaussian_product``, the dense
  sum of products.

The package's ``linalg.bareiss``, ``linalg.rank_mod_p`` (against the rank,
equal at the default prime, a lower bound at any), ``linalg.is_zero_product``
and ``linalg.pfaffian`` are tested against them.
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
from cfx.groups import I_MATS, GroupSpec, block_diag, mat_mul
from cfx.linalg import IOTA, PRIME, bareiss, is_zero_product, pfaffian, rank_mod_p
from cfx.poly import Poly
from cfx.randgen import SectionGenerator
from test_poly import is_homogeneous, tuple_num
from test_rational import ComplexRational, cq

LAM = ("lam1", "lam2", "lam3")


def mat(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def cofactor_det(m, one=1):
    """Cofactor expansion down the rows, memoized by the set of columns left.

    Only ``+``, ``-`` and ``*``, no division: a reference determinant over
    any commutative ring (ints, ``Fraction``, ``ComplexRational``, ``Poly``)
    whose 1 is ``one``: over ``Poly`` it is ``Poly.const(vars, 1)``, since a
    scalar is not a ``Poly`` operand.  The empty matrix has determinant ``one``.
    """
    size = len(m)
    zero = one - one

    @cache
    def minor(cols):
        if not cols:
            return one
        row = m[size - len(cols)]
        total = zero
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


P = 2 ** 61 - 1  # a prime with P % 4 == 3: -1 is no square mod P


def dense_rank(rows) -> int:
    """Rank of a dense matrix of ``(re, im)`` int pairs: the reference for
    the sparse ``linalg.bareiss``.

    Gaussian elimination over the field Z[i] / (P) of P^2 elements, with
    entries as (re, im) residue pairs: -1 is no square mod P, so P stays
    prime in Z[i] and every nonzero pair is invertible, (a + bi)^-1 =
    (a - bi) / (a^2 + b^2).  Reduction mod P maps each minor of the matrix
    to the same minor of its image, so this rank is never above the rank
    over Q(i), and falls below it only if P divides every nonzero minor of
    the largest size (``minor_rank`` checks it exactly on small matrices).
    Forward elimination with row swaps that skips columns without a pivot;
    a row with 0 in the pivot column is left as it is.  The residues stay
    below 2^61, where the fraction-free elimination's entries grew to
    minors of hundreds of bits.
    """
    re = [[x % P for x, _ in row] for row in rows]
    im = [[y % P for _, y in row] for row in rows]
    size = len(re)
    cols = len(re[0]) if re else 0
    rank = 0
    for col in range(cols):
        if rank == size:
            break
        pivot = next((r for r in range(rank, size) if re[r][col] or im[r][col]), None)
        if pivot is None:
            continue
        re[rank], re[pivot] = re[pivot], re[rank]
        im[rank], im[pivot] = im[pivot], im[rank]
        yre, yim = re[rank], im[rank]
        a, b = yre[col], yim[col]
        inv = pow(a * a + b * b, -1, P)
        ar, ai = a * inv % P, -b * inv % P
        # the pivot row's entries right of the pivot, where it is not 0
        ys = [c for c in range(col + 1, cols) if yre[c] or yim[c]]
        for r in range(rank + 1, size):
            xre, xim = re[r], im[r]
            xr, xi = xre[col], xim[col]
            if xr or xi:
                # x -= f y with f = x[col] / pivot
                fr, fi = (xr * ar - xi * ai) % P, (xr * ai + xi * ar) % P
                for c in ys:
                    yr, yi = yre[c], yim[c]
                    xre[c] = (xre[c] - fr * yr + fi * yi) % P
                    xim[c] = (xim[c] - fr * yi - fi * yr) % P
        rank += 1
    return rank


def sparse(rows):
    """Dense rows of ``(re, im)`` pairs as the ``{column: (re, im)}`` dicts
    that ``bareiss`` takes."""
    return [{c: x for c, x in enumerate(row) if x != (0, 0)} for row in rows]


def expansion_pfaffian(m, one=1):
    """Pfaffian by expansion along the first row, memoized by the indices left.

    Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows and columns 0 and j),
    with only ``+``, ``-`` and ``*``: a reference over any commutative ring
    whose 1 is ``one``, as in :func:`cofactor_det`.  The empty matrix has
    Pfaffian ``one`` and an odd size gives its 0.
    """
    zero = one - one

    @cache
    def minor(rest):
        if not rest:
            return one
        row = m[rest[0]]
        total = zero
        for pos in range(1, len(rest)):
            if row[rest[pos]]:
                term = row[rest[pos]] * minor(rest[1:pos] + rest[pos + 1:])
                total = total + (term if pos % 2 else -term)
        return total

    return minor(tuple(range(len(m)))) if len(m) % 2 == 0 else zero


def reference_brackets(S, n) -> tuple:
    """The Fraction bracket matrices B^beta = S Ibeta + Ibeta S, by dense products."""
    S = mat(S)
    out = []
    for beta in range(3):
        ib = block_diag(I_MATS[beta], n)
        out.append(tuple(tuple(x + y for x, y in zip(r1, r2))
                         for r1, r2 in zip(mat_mul(S, ib), mat_mul(ib, S))))
    return tuple(out)


def int_pencil(brackets) -> tuple:
    """(q, (q B^1, q B^2, q B^3)): the brackets over their least common denominator, in ints."""
    q = math.lcm(*(x.denominator for b in brackets for row in b for x in row))
    return q, tuple(tuple(tuple(int(x * q) for x in row) for row in b) for b in brackets)


def pencil_at(ints, mu) -> list:
    """sum_beta mu_beta M^beta for int matrices M^beta and an int covector mu."""
    m1, m2, m3 = mu
    return [[m1 * a + m2 * b + m3 * c for a, b, c in zip(r1, r2, r3)]
            for r1, r2, r3 in zip(*ints)]


def symbolic_pencil(brackets) -> list:
    """sum lam_beta B^beta as a matrix of ``Poly`` in lam1..lam3."""
    size = len(brackets[0])
    return [[sum((Poly.var(LAM, v, b[i][j]) for v, b in zip(LAM, brackets)), Poly.zero(LAM))
             for j in range(size)] for i in range(size)]


def central_pairing_det(pencil, lam):
    """det( sum_beta lam_beta B^beta ) at a covector lam of ints or Fractions, from
    (q, ints) = ``int_pencil`` of the brackets: ``bareiss_det`` on the int matrix
    sum (r lam_beta) (q B^beta), which is q r times the pencil."""
    q, ints = pencil
    r = math.lcm(*(x.denominator for x in lam))
    return Fraction(bareiss_det(pencil_at(ints, [int(x * r) for x in lam])),
                    (q * r) ** len(ints[0]))


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
        assert type(rank) is int and rank == minor_rank(m) == dense_rank(rows)
        assert rank_mod_p(sparse(rows)) == rank
        deficient += len(m) == len(m[0]) and rank < len(m)
    assert deficient >= 10


def test_dense_rank_works_in_a_field():
    # Lucas-Lehmer: 2^61 - 1 is prime; with P % 4 == 3, -1 is no square
    # mod P (Euler's criterion), so Z[i] / (P) is a field
    s = 4
    for _ in range(61 - 2):
        s = (s * s - 2) % P
    assert s == 0 and P % 4 == 3
    # a minor divisible by P is nonzero over Q(i) and 0 mod P: the rank falls
    assert dense_rank([[(P, 0)]]) == 0 and dense_rank([[(P, 1)]]) == 1


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
        assert bareiss(sparse(m)) == dense_rank(m) == rank


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
        assert rank == dense_rank(m), (len(m), len(m[0]) if m else 0)
        assert rows == sparse(m)
        deficient += rank < min(len(m), len(m[0]) if m else 0)
    assert deficient >= 30


def test_the_default_prime_has_a_square_root_of_minus_one():
    # trial division up to the square root: PRIME is prime, and with
    # PRIME % 4 == 1 its residues hold IOTA, a square root of -1
    assert 2 ** 27 < PRIME < 2 ** 28 and PRIME % 4 == 1
    assert all(PRIME % d for d in range(2, math.isqrt(PRIME) + 1))
    assert (IOTA * IOTA + 1) % PRIME == 0


def zero_mod(p, iota, rng):
    """A nonzero Gaussian integer in the kernel of Z[i] -> Z/p, i -> iota."""
    t, s = rng.choice([(1, 0), (-1, 0), (2, 1), (0, 1), (0, -2), (3, -1)])
    return (t * iota + s * p, -t)


def test_rank_mod_p_bounds_the_rank_and_meets_it_at_the_default_prime():
    # equal at the default prime on small entries; at 5 and 13 a lower
    # bound that falls below the rank on some matrices
    below = 0
    for m in gaussian_cases(13):
        rows = sparse(m)
        exact = dense_rank(m)
        assert rank_mod_p(rows) == exact
        for p, iota in ((5, 2), (13, 5)):
            low = rank_mod_p(rows, p, iota)
            assert low <= exact
            below += low < exact
        assert rows == sparse(m)
    assert below >= 10


def test_rank_mod_p_reads_entries_modulo_its_prime():
    # entries in the kernel of the reduction count as zeros: the bound is
    # the rank with them set to 0, and falls below the exact rank
    rng = random.Random(14)
    below = 0
    for m in gaussian_cases(14)[2:]:
        cut = [[x if rng.random() < 0.8 else (0, 0) for x in row] for row in m]
        planted = [[x if x != (0, 0) or y == (0, 0) else zero_mod(PRIME, IOTA, rng)
                    for x, y in zip(row, full)] for row, full in zip(cut, m)]
        low = rank_mod_p(sparse(planted))
        assert low == dense_rank(cut) and low <= dense_rank(planted)
        below += low < dense_rank(planted)
    assert below >= 10
    zero = (0, 0)
    for m, low, exact in [([[(PRIME, 0)]], 0, 1), ([[(IOTA, -1)]], 0, 1),
                          ([[(1, 0), zero], [zero, (0, PRIME)]], 1, 2),
                          ([[(1, 0), (1, 0)], [(1, 0), (1 + PRIME, 0)]], 1, 2)]:
        exact_rank = minor_rank([[cq(*x) for x in row] for row in m])
        assert (rank_mod_p(sparse(m)), exact_rank, dense_rank(m)) == (low, exact, exact)


def test_rank_mod_p_edge_cases():
    zero = (0, 0)
    for m, rank in [([], 0), ([[], [], []], 0), ([[zero] * 3 for _ in range(3)], 0),
                    ([[zero, (1, 0)], [zero, (5, 0)], [zero, (-1, 0)]], 1),
                    ([[(0, 1)]], 1), ([[zero, (1, 0)], [(1, 0), zero]], 2),
                    # far columns: a row spans 401 fields
                    ([[zero] * 400 + [(2, 3)], [(1, 0)] + [zero] * 399 + [(1, 1)]], 2)]:
        assert rank_mod_p(sparse(m)) == dense_rank(m) == rank
    # a last row that meets every pivot: 40 updates to its lowest field
    size = 40
    m = [[(1, 0) if c <= r else (0, 0) for c in range(size)] for r in range(size)]
    m.append([(PRIME - 1, IOTA)] * size)
    assert rank_mod_p(sparse(m)) == dense_rank(m) == size


def kernel_pair(rng, rows, inner, cols):
    """Gaussian-integer matrices a (rows x inner) and b (inner x cols) with
    a b = 0 and few zero entries: a = X [P | P T] and b = [-T S; S] Y."""
    def draw(r, c):
        return [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)]

    half = inner // 2
    p, t, s = draw(half, half), draw(half, inner - half), draw(inner - half, 3)
    left = [row + tail for row, tail in zip(p, gaussian_product(p, t))]
    right = [[(-x, -y) for x, y in row] for row in gaussian_product(t, s)] + s
    return (gaussian_product(draw(rows, half), left),
            gaussian_product(right, draw(3, cols)))


def test_is_zero_product_matches_the_dense_product():
    # zero products with cancelling entries, each then broken by one entry
    rng = random.Random(21)
    for case in range(60):
        a, b = kernel_pair(rng, rng.randint(1, 12), rng.randint(2, 12), rng.randint(1, 12))
        if case % 3 == 0:  # large entries: the packing widens with them
            a = [[(x << 70, y << 70) for x, y in row] for row in a]
        assert is_zero_matrix(gaussian_product(a, b))
        assert is_zero_product(sparse(a), sparse(b))
        # an entry of b that some row of a sees
        r, c = next((r, c) for r, row in enumerate(b) for c, x in enumerate(row)
                    if any(row_a[r] != (0, 0) for row_a in a))
        b[r][c] = (b[r][c][0] + 1, b[r][c][1])
        assert not is_zero_matrix(gaussian_product(a, b))
        assert not is_zero_product(sparse(a), sparse(b))
    for m in gaussian_cases(22)[2:]:
        other = m[:]
        rng.shuffle(other)
        right = [list(col) for col in zip(*other)]
        expected = is_zero_matrix(gaussian_product(m, right))
        assert is_zero_product(sparse(m), sparse(right)) == expected


def test_is_zero_product_keeps_entries_apart():
    # the product row [e, -2^s], e = m (1 + i)(1 - i) 2^t, packs to
    # e - 2^(s + width): a field narrower than the bound on e reads it as 0
    for m in (1, 2, 4, 8):
        for t in range(0, 90, 3):
            for s in range(6):
                left = [{**{r: (1, 1) for r in range(m)}, m: (1, 0)}]
                right = [{0: (1 << t, -(1 << t))}] * m + [{1: (-(1 << s), 0)}]
                assert not is_zero_product(left, right)
    assert is_zero_product([], [{0: (1, 0)}]) and is_zero_product([{}], [])
    # (2 + i)(1 + 2i) + (1 - 2i)(2 - i) = 0; (1 + 2i) i + (2 - i) 2 = 2 - i
    assert is_zero_product([{0: (2, 1), 1: (1, -2)}], [{3: (1, 2)}, {3: (2, -1)}])
    assert is_zero_product([{0: (1, 2), 1: (2, -1)}], [{3: (0, 1)}, {3: (2, 0)}]) is False
    assert is_zero_product([{0: (1, 0), 1: (0, 1)}], [{3: (0, 1)}, {3: (-1, 0)}])


def is_zero_matrix(m):
    return all(x == (0, 0) for row in m for x in row)


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
    assert rank <= min(len(m), len(m[0])) and rank == dense_rank(m)
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
    brackets = reference_brackets(_group(name, n).S, n)
    det_poly = cofactor_det(symbolic_pencil(brackets), Poly.const(LAM, 1))
    assert is_homogeneous(det_poly, 4 * n)
    # homogeneous of degree 4n: its value at lam = mu / 4 is its numerators
    # summed in ints at the int point mu, over den * 4^(4n)
    scale = det_poly.den * 4 ** (4 * n)
    pencil = int_pencil(brackets)
    for mu, _ in groups._direction_grid(4):
        lam = [Fraction(x, 4) for x in mu]
        re = im = 0
        for expo, (c, d) in tuple_num(det_poly).items():
            monomial = math.prod(x ** e for x, e in zip(mu, expo))
            re += c * monomial
            im += d * monomial
        assert im == 0
        assert central_pairing_det(pencil, lam) == Fraction(re, scale)


def test_cofactor_det_over_polynomials():
    x, y = (Poly.var(("x", "y"), v) for v in ("x", "y"))
    one = Poly.const(("x", "y"), 1)
    assert cofactor_det([[x, y], [y, x]], one) == x * x - y * y
    assert cofactor_det([[x, y, 0], [0, x, y], [y, 0, x]], one) == x * x * x + y * y * y
    assert cofactor_det([[x, y], [x, y]], one) == Poly.zero(("x", "y"))
    assert cofactor_det([], one) == one
    assert cofactor_det([]) == 1
