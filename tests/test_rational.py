from fractions import Fraction

import pytest

from cfx.rational import MAX_DECIMAL_EXPONENT, ComplexRational, I, cq, parse_fraction


def test_real_values_hash_like_int_and_fraction():
    assert ComplexRational(2) == 2 and hash(ComplexRational(2)) == hash(2)
    assert ComplexRational(Fraction(1, 3)) == Fraction(1, 3)
    assert hash(ComplexRational(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert len({ComplexRational(2), 2, Fraction(2)}) == 1


def test_dict_and_set_lookups_across_exact_types():
    table = {2: "int", Fraction(1, 2): "half", ComplexRational(0, 1): "i"}
    assert table[ComplexRational(2)] == "int"
    assert table[ComplexRational(Fraction(1, 2))] == "half"
    assert table[I] == "i"
    assert ComplexRational(Fraction(4, 2)) in {2}
    assert Fraction(1, 2) in {ComplexRational(Fraction(1, 2))}
    assert 3 not in {ComplexRational(3, 1)}


def test_only_exact_numbers_compare():
    assert ComplexRational(1) != "1"
    assert ComplexRational(1, 2) != (1, 2)
    assert ComplexRational(1) != 1.0
    assert cq("1/2") == Fraction(1, 2)
    assert ComplexRational(1, 1) != 1


@pytest.mark.parametrize("text", ["3", "-2/6", "2.5", "1e5000", "1E-30", " 7 ", "1_000",
                                  f"1e{MAX_DECIMAL_EXPONENT}", f"1e-{MAX_DECIMAL_EXPONENT}"])
def test_parse_fraction_reads_what_fraction_reads(text):
    assert parse_fraction(text) == Fraction(text)
    assert parse_fraction(7) == 7


@pytest.mark.parametrize("text", [f"1e{MAX_DECIMAL_EXPONENT + 1}", "1e10000000",
                                  "-2.5E-10000000", "1e+0010001"])
def test_parse_fraction_refuses_a_huge_exponent(text):
    with pytest.raises(ValueError, match="exponent"):
        parse_fraction(text)


@pytest.mark.parametrize("text", ["e5", "1e", "abc", "1.5e2.5", "1/3e5", ""])
def test_parse_fraction_leaves_malformed_text_to_fraction(text):
    with pytest.raises(ValueError):
        Fraction(text)
    with pytest.raises(ValueError) as exc:
        parse_fraction(text)
    assert "exponent" not in str(exc.value)
