"""The package's scalar readers, and the reference scalar type of the tests.

The package computes on (re, im) ints over one positive den and hands out
exact scalars as (re, im) pairs of Fractions.  The tests' references do
plain complex arithmetic on :class:`ComplexRational` instead, the scalar
type the package had before it kept one layout; ``terms(p)`` shows a
polynomial's coefficients as such values.
"""

import random
from fractions import Fraction

import pytest

from cfx.exterior import ExtForm
from cfx.operators import FirstOrderOp
from cfx.poly import Poly, unpack
from cfx.rational import MAX_DECIMAL_EXPONENT, parse_fraction


class ComplexRational:
    """Immutable complex number with Fraction real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = cq(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-cq(other))

    def __mul__(self, other):
        other = cq(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = cq(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    # -- predicates / conversions -------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        # only exact numbers compare, so that equal values hash alike
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

    # -- JSON input: exact rationals as strings or integers ------------------

    @classmethod
    def from_json(cls, data) -> "ComplexRational":
        # the reader the package had before ``rational.gaussian_from_json``
        """A string or an int, or a [re, im] pair of them; a float or a bool is a ValueError."""
        parts = (data, 0) if type(data) in (str, int) else data
        if not (isinstance(parts, (list, tuple)) and len(parts) == 2
                and all(type(p) in (str, int) for p in parts)):
            raise ValueError(f"exact coefficients are strings or integers, not {data!r}")
        try:
            return cls(parse_fraction(parts[0]), parse_fraction(parts[1]))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in exact coefficient {data!r}") from None


def cq(value, im=None) -> ComplexRational:
    """Coerce ints, Fractions, strings or pairs into a ComplexRational."""
    if im is not None:
        return ComplexRational(value, im)
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction, str)):
        return ComplexRational(Fraction(value))
    if isinstance(value, tuple) and len(value) == 2:
        return ComplexRational(Fraction(value[0]), Fraction(value[1]))
    raise TypeError(f"cannot coerce {value!r} to ComplexRational")


def pair(value) -> tuple:
    """A reference value as the (re, im) pair of Fractions that the package reads."""
    value = cq(value)
    return value.re, value.im


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)


def terms(p) -> dict:
    """The coefficients of a ``Poly`` as ComplexRationals by exponent tuple,
    in its term order."""
    return {unpack(key, len(p.vars)): ComplexRational(Fraction(re, p.den), Fraction(im, p.den))
            for key, (re, im) in p.num.items()}


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


# -- the package's text and JSON edges against the reference type -------------------------


def _reference_poly_str(p) -> str:
    """``str(Poly)`` as it was written through ComplexRational.__str__."""
    if not p.num:
        return "0"
    coeffs = terms(p)
    parts = []
    for expo in sorted(coeffs, key=lambda e: (sum(e), e), reverse=True):
        body = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(p.vars, expo) if e > 0)
        parts.append(f"{coeffs[expo]}*{body}" if body else str(coeffs[expo]))
    return " + ".join(parts)


def _reference_form_str(f) -> str:
    if not f.comps:
        return "0"
    return " + ".join(f"({_reference_poly_str(f.comps[idx])}) "
                      + ("w^(" + ",".join(map(str, idx)) + ")" if idx else "1")
                      for idx in sorted(f.comps))


def _gaussian_rational(rng) -> ComplexRational:
    """Zero or negative parts, non-integers and 40-digit values, in turn."""
    def part():
        kind = rng.randrange(5)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-9, 9))
        if kind == 2:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 12))
        return Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 40))
    return ComplexRational(part(), part())


def _seeded_polys(seed: int, count: int):
    rng = random.Random(seed)
    names = ("x1", "x2", "t1")
    for _ in range(count):
        ref = {tuple(rng.randint(0, 2) for _ in names): _gaussian_rational(rng)
               for _ in range(rng.randint(0, 5))}
        yield Poly(names, {e: pair(c) for e, c in ref.items()}), ref


def test_str_of_poly_and_form_keeps_its_bytes():
    seen = set()
    polys = list(_seeded_polys(36, 300))
    for p, ref in polys:
        assert str(p) == repr(p) == _reference_poly_str(p)
        seen.update((c.re == 0, c.im == 0, c.im < 0, c.re.denominator > 1) for c in ref.values())
    # every kind of coefficient was drawn: real, imaginary, complex, negative i, non-integer
    assert {(False, True), (True, False), (False, False)} <= {s[:2] for s in seen}
    assert any(s[2] for s in seen) and any(s[3] for s in seen)
    for i in range(0, len(polys) - 2, 3):
        form = ExtForm(3, 1, polys[i][0].vars, {(a,): polys[i + a][0] for a in range(3)})
        assert str(form) == _reference_form_str(form)


@pytest.mark.parametrize("coefficient", [
    "1/3", "-2", 7, "0", ["1", "-1/2"], [0, "5/3"], ["2.5", "-1e-3"], [-3, 0], "  4 ",
    "1e20000", 0.5, True, [0.1, 0], [True, 0], [0, False], ["1", 2.5], ["1"], ["1", "2", "3"],
    [], None, "1/0", ["0", "2/0"], "abc", [["1"], "0"], {"re": 1}])
def test_poly_from_json_reads_what_the_reference_reader_read(coefficient):
    data = {"vars": ["x1", "x2"], "terms": [{"c": coefficient, "e": [1, 0]},
                                            {"c": "1/7", "e": [0, 2]}]}
    try:
        want = ComplexRational.from_json(coefficient)
    except ValueError:
        with pytest.raises(ValueError):
            Poly.from_json(data)
        return
    expected = {(1, 0): want, (0, 2): cq(Fraction(1, 7))}
    assert terms(Poly.from_json(data)) == {e: c for e, c in expected.items() if c}


@pytest.mark.parametrize("value", [0.5, 2.0, 1j, complex(1, -2), float("nan"), "1/2",
                                   (0.5, 0), (1, 1j), (1, 2, 3), ComplexRational(1, 2)])
def test_a_scalar_input_is_an_int_a_fraction_or_a_pair(value):
    V = ("x1", "x2")
    p = Poly.var(V, "x1")
    calls = [lambda: Poly.const(V, value), lambda: Poly.var(V, "x1", value),
             lambda: Poly.monomial(V, (1, 1), value), lambda: Poly(V, {(0, 1): value}),
             lambda: p.scale(value), lambda: p * value,
             lambda: ExtForm.from_scalar(2, p).scale(value),
             lambda: ExtForm(2, 1, V, {(0,): value}),
             lambda: FirstOrderOp.partial(V, "x2", value),
             lambda: FirstOrderOp.partial(V, "x2").scale(value)]
    for call in calls:
        with pytest.raises(TypeError):
            call()
