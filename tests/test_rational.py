from fractions import Fraction

from cfx.rational import ComplexRational, I, cq


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
