"""The generator builds its draws straight in the integer layout; the
reference below builds them with validated Poly arithmetic, one
``Poly.monomial`` per term, summed.  Both must give equal objects with the
same key order, after the same random draws."""

from fractions import Fraction
from itertools import combinations

import pytest

from cfx.exterior import ExtForm
from cfx.poly import MAX_EXPONENT, Poly, group_vars, pack, unpack, x_vars
from cfx.randgen import COEFF_BOUND, SectionGenerator
from test_poly import poly_to_json


class ReferenceGenerator(SectionGenerator):
    """``poly``, ``form`` and ``psh_quadratic`` as summed validated Polys,
    each term's exponents drawn as a tuple."""

    def exponents(self, nvars: int, degree=None) -> tuple:
        degree = self.degree if degree is None else degree
        total = self.rng.randint(0, degree)
        expo = [0] * nvars
        for _ in range(total):
            expo[self.rng.randrange(nvars)] += 1
        return tuple(expo)

    def coefficient(self) -> tuple:
        b = COEFF_BOUND
        re = self.rng.randint(-b, b)
        while re == 0:
            re = self.rng.randint(-b, b)
        return re, self.rng.randint(-b, b)

    def poly(self, variables, degree=None) -> Poly:
        variables = tuple(variables)
        p = Poly.zero(variables)
        for _ in range(self.rng.randint(1, self.terms)):
            p = p + Poly.monomial(variables, self.exponents(len(variables), degree),
                                  self.coefficient())
        return p

    def form(self, dim, degree_form, variables, poly_degree=None) -> ExtForm:
        idxs = list(combinations(range(dim), degree_form))
        chosen = self.rng.sample(idxs, k=min(len(idxs), self.rng.randint(1, 3)))
        comps = {idx: self.poly(variables, poly_degree) for idx in chosen}
        return ExtForm(dim, degree_form, variables, comps)

    def psh_quadratic(self, variables, nx) -> Poly:
        variables = tuple(variables)
        p = Poly.zero(variables)
        for a in range(nx):
            c = Fraction(self.rng.randint(1, 4))
            p = p + Poly.monomial(variables,
                                  tuple(2 if i == a else 0 for i in range(len(variables))),
                                  c)
        for _ in range(self.rng.randint(0, 2)):
            a = self.rng.randrange(nx)
            c = Fraction(self.rng.randint(-3, 3))
            if c:
                p = p + Poly.monomial(variables,
                                      tuple(1 if i == a else 0 for i in range(len(variables))),
                                      c)
        return p


def _same_poly(p, q):
    assert p == q and poly_to_json(p) == poly_to_json(q)
    assert list(p.num.items()) == list(q.num.items())


def _same_form(f, g):
    assert f == g
    assert list(f.comps) == list(g.comps)
    for idx, p in f.comps.items():
        _same_poly(p, g.comps[idx])


def _same_field(f, g):
    # a slot field, or a tuple field {primed multi-index: ExtForm}
    assert f == g
    if isinstance(f, dict):
        assert list(f) == list(g)
        forms = zip(f.values(), g.values(), strict=True)
    else:
        forms = zip(f.slots, g.slots, strict=True)
    for a, b in forms:
        _same_form(a, b)


def _draws(gen, seed):
    """One of each draw, with shapes that vary with the seed."""
    V = x_vars(4 + seed % 5)
    dim = 2 + seed % 3
    out = [("poly", gen.poly(V)),
           ("poly", gen.poly(group_vars(1), degree=seed % 7)),
           ("form", gen.form(dim, seed % (dim + 2), V)),
           ("form", gen.form(4, 1, V, poly_degree=2)),
           ("field", gen.slot_field(seed % 3, "S", dim, 1, V)),
           ("field", gen.tuple_field(seed % 3, dim, seed % 2, V, poly_degree=1)),
           ("poly", gen.psh_quadratic(V, 1 + seed % len(V)))]
    return out


def test_generator_matches_the_poly_sum_reference():
    covered = set()
    for seed in range(336):
        degree, terms = seed % 7, 1 + (seed // 7) % 4
        covered.add((degree, terms))
        fast = SectionGenerator(seed, degree=degree, terms=terms)
        ref = ReferenceGenerator(seed, degree=degree, terms=terms)
        for (kind, got), (_, want) in zip(_draws(fast, seed), _draws(ref, seed), strict=True):
            {"poly": _same_poly, "form": _same_form, "field": _same_field}[kind](got, want)
        # the same random draws, so every later draw agrees as well
        assert fast.rng.getstate() == ref.rng.getstate()
    assert covered == {(d, t) for d in range(7) for t in range(1, 5)}


# Seeds whose draws share an exponent and cancel, found by search: the
# degree-0 poly, and the one component of the degree-0 form, draw two
# opposite constants; the quadratic draws two opposite linear terms in its
# one variable.
CANCELLING_POLY_SEED = 244
CANCELLING_FORM_SEED = 59
CANCELLING_PSH_SEED = 30


def test_cancelling_terms_are_dropped():
    V = x_vars(4)
    # every drawn term is nonzero, so a zero sum means two of them cancelled
    p = SectionGenerator(CANCELLING_POLY_SEED, degree=0, terms=2).poly(V)
    assert p.is_zero() and p.den == 1
    _same_poly(p, ReferenceGenerator(CANCELLING_POLY_SEED, degree=0, terms=2).poly(V))
    # a form drops a component whose polynomial cancelled
    form = SectionGenerator(CANCELLING_FORM_SEED, degree=0, terms=2).form(1, 1, V)
    assert form.is_zero() and not form.comps
    _same_form(form, ReferenceGenerator(CANCELLING_FORM_SEED, degree=0, terms=2).form(1, 1, V))

    rng = SectionGenerator(CANCELLING_PSH_SEED).rng
    rng.randint(1, 4)
    assert rng.randint(0, 2) == 2
    draws = [(rng.randrange(1), rng.randint(-3, 3)) for _ in range(2)]
    assert draws[0][1] == -draws[1][1] != 0
    q = SectionGenerator(CANCELLING_PSH_SEED).psh_quadratic(V, 1)
    assert list(q.num) == [pack((2, 0, 0, 0))]
    _same_poly(q, ReferenceGenerator(CANCELLING_PSH_SEED).psh_quadratic(V, 1))


def test_a_drawn_exponent_above_the_field_raises():
    # one variable and terms=1: seed 0 draws a total degree of 49673, which
    # would carry out of the 16-bit field; seed 2 draws 6002, which fits
    gen = SectionGenerator(0, degree=2 * MAX_EXPONENT, terms=1)
    with pytest.raises(ValueError, match="above"):
        gen.poly(("x1",))
    [key] = SectionGenerator(2, degree=2 * MAX_EXPONENT, terms=1).poly(("x1",)).num
    assert unpack(key, 1) == (6002,)
