"""Seeded generators for random test data.

Every verification run records its master seed; per-trial generators are
derived deterministically so that identical configurations reproduce
byte-identical reports.  Coefficients are small Gaussian integers, so all
downstream algebra stays exact.

Polynomials are drawn straight into the integer layout of ``Poly``: each
term's exponent is drawn as a packed key, one unit per degree, and it and
the ``(re, im)`` ints go into one numerator dict over the
denominator 1 through ``poly.add_term``, which merges equal exponents and
drops a key whose sum cancels (or a zero term), and the result is built by
the trusted ``Poly._make`` (forms by ``ExtForm._make``).  The draws, and
the key order of every result, are those of summing one validated
``Poly.monomial`` per term, which the tests keep as the reference
generator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from .exterior import ExtForm
from .poly import BITS, GUARD, MAX_EXPONENT, Poly, add_term
from .spinor import SpinorField

# Bound on the real and imaginary parts of a random coefficient.
COEFF_BOUND = 3
# Bound on the numerators of a random covector (denominators are 1 to 3).
VECTOR_BOUND = 4
# Bound on the entries of a random symmetric matrix.
MATRIX_BOUND = 3


class SectionGenerator:
    """Deterministic sparse random polynomials, forms, slot and tuple fields."""

    def __init__(self, seed: int, degree: int = 3, terms: int = 3):
        self.seed = seed
        self.degree = degree
        self.terms = terms
        self.rng = random.Random(seed)

    def spawn(self, tag: int) -> "SectionGenerator":
        """Child generator with a derived seed (stable across runs)."""
        return SectionGenerator(self.seed * 1_000_003 + tag, self.degree, self.terms)

    def poly(self, variables, degree=None) -> Poly:
        """Sum of 1..terms random terms; each coefficient has a nonzero real
        part and any imaginary part, both within COEFF_BOUND.  A term's total
        degree is drawn in 0..degree, then each unit of it in a variable."""
        variables = tuple(variables)
        degree = self.degree if degree is None else degree
        width, b = len(variables), COEFF_BOUND
        randint, randrange = self.rng.randint, self.rng.randrange
        num: dict = {}
        for _ in range(randint(1, self.terms)):
            key = 0
            for _ in range(randint(0, degree)):
                key += 1 << BITS * randrange(width)
            if key & GUARD:
                raise ValueError(f"a drawn exponent is above {MAX_EXPONENT}")
            re = randint(-b, b)
            while re == 0:
                re = randint(-b, b)
            add_term(num, key, re, randint(-b, b))
        return Poly._make(variables, num)

    def form(self, dim: int, degree_form: int, variables, poly_degree=None) -> ExtForm:
        variables = tuple(variables)
        idxs = list(combinations(range(dim), degree_form))
        chosen = self.rng.sample(idxs, k=min(len(idxs), self.rng.randint(1, 3)))
        comps = {}
        for idx in chosen:
            p = self.poly(variables, poly_degree)
            if p:
                comps[idx] = p
        return ExtForm._make(dim, degree_form, variables, comps)

    def slot_field(self, sigma: int, basis: str, dim: int, degree_form: int,
                   variables, poly_degree=None) -> SpinorField:
        slots = [self.form(dim, degree_form, variables, poly_degree)
                 for _ in range(sigma + 1)]
        return SpinorField(sigma, basis, slots)

    def tuple_field(self, sigma: int, dim: int, degree_form: int, variables,
                    poly_degree=None) -> dict:
        """Random symmetric tuple field {primed multi-index: ExtForm}: the
        components depend only on the 1-count."""
        reps = {a: self.form(dim, degree_form, variables, poly_degree)
                for a in range(sigma + 1)}
        return {idx: reps[sum(idx)] for idx in product((0, 1), repeat=sigma)}

    def rational_vector(self, size: int) -> list:
        b = VECTOR_BOUND
        while True:
            vec = [Fraction(self.rng.randint(-b, b), self.rng.randint(1, 3))
                   for _ in range(size)]
            if any(vec):
                return vec

    def symmetric_matrix(self, size: int) -> list:
        b = MATRIX_BOUND
        m = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                val = Fraction(self.rng.randint(-b, b))
                m[i][j] = val
                m[j][i] = val
        return m

    def psh_quadratic(self, variables, nx: int) -> Poly:
        """Random convex-type quadratic sum_a c_a x_a^2 (c_a > 0) plus linear terms.

        Each x-squared coefficient is positive, which makes the associated
        degree-2 form a nonnegative combination of the standard positive
        pair forms on any of our groups.
        """
        variables = tuple(variables)
        num: dict = {}
        for a in range(nx):
            add_term(num, 2 << BITS * a, self.rng.randint(1, 4), 0)
        for _ in range(self.rng.randint(0, 2)):
            a = self.rng.randrange(nx)
            add_term(num, 1 << BITS * a, self.rng.randint(-3, 3), 0)
        return Poly._make(variables, num)

    def right_type_matrix(self, n: int) -> list:
        """Random symmetric matrix projected onto the curvature-free locus.

        Each 4x4 block is adjusted to satisfy the four linear conditions
        (trace and the three skew combinations); the mirror block keeps the
        matrix symmetric.
        """
        S = self.symmetric_matrix(4 * n)
        for l in range(n):
            for m in range(l, n):
                i, j = 4 * l, 4 * m
                S[i + 3][j + 3] = -(S[i][j] + S[i + 1][j + 1] + S[i + 2][j + 2])
                if l != m:
                    S[i + 3][j + 2] = S[i][j + 1] - S[i + 1][j] + S[i + 2][j + 3]
                    S[i + 3][j + 1] = S[i + 2][j] - S[i][j + 2] + S[i + 1][j + 3]
                    S[i + 3][j] = S[i][j + 3] + S[i + 1][j + 2] - S[i + 2][j + 1]
                for a in range(4):
                    for b in range(4):
                        S[j + b][i + a] = S[i + a][j + b]
        return S
