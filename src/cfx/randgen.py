"""Seeded generators for random test data.

Every verification run records its master seed; per-trial generators are
derived deterministically so that identical configurations reproduce
byte-identical reports.  Coefficients are small Gaussian integers, so all
downstream algebra stays exact.  A draw's degree is its generator's (``spawn`` keeps it).

Polynomials are drawn straight into the integer layout of ``Poly``: each
term's exponent is drawn as a packed key, one unit per degree, and it and
the ``(re, im)`` ints go into one numerator dict over the
denominator 1 through ``poly.add_term``, which merges equal exponents and
drops a key whose sum cancels (or a zero term), and the result is built by
the trusted ``Poly._make``; a form draws every component into one dict,
each key plus its index mask (``exterior``).  The draws, and the key order
of every polynomial, are those of summing one validated ``Poly.monomial``
per term, which the tests keep as the reference generator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from .exterior import ExtForm, index_mask
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

    def poly(self, variables) -> Poly:
        """Sum of 1..terms random terms; each coefficient has a nonzero real
        part and any imaginary part, both within COEFF_BOUND.  A term's total
        degree is drawn in 0..``self.degree``, then each unit of it in a variable."""
        variables = tuple(variables)
        return Poly._make(variables, self._draw({}, len(variables), 0))

    def _draw(self, num: dict, width: int, lift: int) -> dict:
        """Add the terms of one :meth:`poly` draw into ``num``, each key plus ``lift``."""
        b = COEFF_BOUND
        # randint's and randrange's draws unchecked: an empty range would loop forever
        below = self.rng._randbelow
        if self.degree < 0 or self.terms < 1 or self.degree and not width:
            raise ValueError("a draw needs degree >= 0, terms >= 1 and a variable")
        for _ in range(1 + below(self.terms)):
            key = 0
            for _ in range(below(self.degree + 1)):
                key += 1 << BITS * below(width)
            if key & GUARD:
                raise ValueError(f"a drawn exponent is above {MAX_EXPONENT}")
            re = below(2 * b + 1) - b
            while re == 0:
                re = below(2 * b + 1) - b
            add_term(num, key + lift, re, below(2 * b + 1) - b)
        return num

    def form(self, dim: int, degree_form: int, variables) -> ExtForm:
        """1..3 components of form degree ``degree_form``, each a :meth:`poly` draw."""
        variables = tuple(variables)
        idxs = list(combinations(range(dim), degree_form))
        chosen = self.rng.sample(idxs, k=min(len(idxs), self.rng.randint(1, 3)))
        num: dict = {}
        for idx in chosen:
            self._draw(num, len(variables), index_mask(idx, variables))
        return ExtForm._make(dim, degree_form, variables, num)

    def slot_field(self, shape: tuple, dim: int, variables) -> SpinorField:
        """sigma + 1 :meth:`form` draws for a level's ``shape`` (sigma, form degree)."""
        sigma, degree_form = shape
        return SpinorField([self.form(dim, degree_form, variables) for _ in range(sigma + 1)])

    def tuple_field(self, shape: tuple, dim: int, variables) -> dict:
        """Random symmetric tuple field {primed multi-index: ExtForm} of a level's
        ``shape`` (sigma, form degree): one :meth:`form` draw per 1-count."""
        sigma, degree_form = shape
        reps = {a: self.form(dim, degree_form, variables) for a in range(sigma + 1)}
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
