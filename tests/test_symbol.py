from fractions import Fraction

import pytest

from cfx.flat import ComplexSpec, check_exactness, rank_exact, symbol_at
from cfx.groups import mat_mul
from cfx.randgen import SectionGenerator
from cfx.rational import cq


def e1(n):
    v = [Fraction(0)] * (4 * (n + 1))
    v[0] = Fraction(1)
    return v


def test_reference_dims_and_ranks():
    spec = ComplexSpec(1, 1)
    result = check_exactness(spec, e1(1))
    assert result["dims"] == [2, 4, 4, 2]
    assert result["ranks"] == [2, 2, 2]
    assert result["exact"]


def test_unit_vector_low_k():
    spec = ComplexSpec(1, 0)
    v = [Fraction(1), Fraction(1)] + [Fraction(0)] * 6
    assert check_exactness(spec, v)["exact"]


def test_consecutive_symbols_compose_to_zero():
    gen = SectionGenerator(12)
    for n, k in [(1, 0), (1, 1), (2, 1)]:
        spec = ComplexSpec(n, k)
        v = gen.spawn(n * 10 + k).rational_vector(4 * (n + 1))
        for j in range(2 * n):
            a = symbol_at(spec, j + 1, v).matrix
            b = symbol_at(spec, j, v).matrix
            product = mat_mul(a, b)
            assert all(x.is_zero() for row in product for x in row)


def test_zero_vector_gives_zero_matrix_and_error():
    spec = ComplexSpec(1, 1)
    zero = [Fraction(0)] * 8
    m = symbol_at(spec, 0, zero).matrix
    assert all(x.is_zero() for row in m for x in row)
    with pytest.raises(ValueError, match="nonzero"):
        check_exactness(spec, zero)


def test_middle_symbol_is_quadratic_in_v():
    # at the second-order level, scaling v by t scales the symbol by t^2
    spec = ComplexSpec(1, 0)
    gen = SectionGenerator(8)
    v = gen.rational_vector(8)
    doubled = [2 * x for x in v]
    m1 = symbol_at(spec, 0, v).matrix
    m2 = symbol_at(spec, 0, doubled).matrix
    for r1, r2 in zip(m1, m2):
        for a, b in zip(r1, r2):
            assert b == a * cq(4)


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 1)])
def test_random_rational_exactness(n, k):
    spec = ComplexSpec(n, k)
    gen = SectionGenerator(100 + 10 * n + k)
    for t in range(3):
        v = gen.spawn(t).rational_vector(4 * (n + 1))
        assert check_exactness(spec, v)["exact"]


def test_rank_exact_small_cases():
    assert rank_exact([[cq(1), cq(2)], [cq(2), cq(4)]]) == 1
    assert rank_exact([[cq(0, 1), cq(0)], [cq(0), cq(1)]]) == 2
    assert rank_exact([]) == 0


def test_n3_symbol_ranks_are_pinned():
    # the largest symbol the tests run, and the sparsest: 168 x 140 at level 3
    spec = ComplexSpec(3, 1)
    v = SectionGenerator(1).spawn(0).rational_vector(16)
    result = check_exactness(spec, v)
    assert result["ranks"] == [2, 6, 50, 90, 78, 34, 6]
    assert result["exact"]


@pytest.mark.parametrize("n,k", [(1, k) for k in range(6)] + [(2, 5), (2, 6)])
def test_symbol_sequence_is_exact_up_to_k_2n_plus_1(n, k):
    # exact at every level for k <= 2n+1; from k = 2n+2 on the top level alone
    # fails (the top rank falls short of the top dimension), the rest stay exact
    spec = ComplexSpec(n, k)
    v = SectionGenerator(200 + 10 * n + k).rational_vector(4 * (n + 1))
    result = check_exactness(spec, v)
    top = spec.top_level
    expected = [True] * top + [k <= 2 * n + 1]
    assert [lv["exact"] for lv in result["levels"]] == expected
    assert (result["ranks"][-1] < result["dims"][top]) == (k > 2 * n + 1)
    if (n, k) == (1, 4):
        assert (result["ranks"][-1], result["dims"][top]) == (7, 8)
