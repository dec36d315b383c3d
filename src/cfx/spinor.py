"""Symmetric-power spinor bookkeeping: the two-element index calculus.

Primed indices live in {0, 1} (conventionally written 0', 1').  They are
raised and lowered by the symplectic pairing ``eps``.  A section of a
degree-s symmetric power tensor forms is a :class:`SpinorField`: its s+1
slot forms, and nothing else.

Slot conventions:

* descending basis: slot a of degree s, with the two derivations
  acting as  d_0: (a, s) -> (a, s-1)  and  d_1: (a, s) -> (a-1, s-1);
* ascending basis: slot a of degree s, with multiplications
  m_0: (a, s) -> (a, s+1)  and  m_1: (a, s) -> (a+1, s+1).

The symmetric-tuple realization, which the flat complex's slot operators
are checked against, is a plain dict {primed multi-index: ExtForm} over
every index in {0, 1}^s; s is the key length.  :func:`symmetrize`,
:func:`is_symmetric` and :func:`tuple_to_slots`, the one reader of the
choice of basis, act on that dict.

:class:`LevelTable`, under both complexes, is the one home of a level's
shape: level j carries sigma(j)-spinors of tau(j)-forms, in the descending
basis up to level k and the ascending basis above it, so (sigma, degree)
names the level and its basis; its slot rule says which slot of level j
reaches which slot of level j + 1.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .exterior import ExtForm, index_mask
from .poly import Immutable, _set
from .rational import exact_int


def raise_primed(pair):
    """(f_0, f_1) -> (f^0, f^1) with f^a = sum_b f_b eps^{ba}."""
    f0, f1 = pair
    # eps^{10} = 1, eps^{01} = -1
    return (f1, -f0)


class SpinorField(Immutable):
    """Section of a symmetric-power bundle tensor exterior forms, in slot form.

    A field is its ``slots``: sigma + 1 ExtForms of one dimension, degree
    and variable tuple, sigma = ``len(slots) - 1``.  Its level, and with it
    its basis, is the caller's (``LevelTable.check_field``).
    """

    __slots__ = ("sigma", "slots", "dim", "degree", "vars")

    def __init__(self, slots):
        slots = list(slots)
        if not slots:
            raise ValueError("a spinor field needs at least one slot")
        sample = slots[0]
        for f in slots[1:]:
            sample._check(f)
        _set(self, "sigma", len(slots) - 1)
        _set(self, "slots", slots)
        _set(self, "dim", sample.dim)
        _set(self, "degree", sample.degree)
        _set(self, "vars", sample.vars)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.slots)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        if self.sigma != other.sigma:
            raise ValueError("spinor shape mismatch")
        return SpinorField([a + b for a, b in zip(self.slots, other.slots)])

    def __neg__(self):
        return SpinorField([-f for f in self.slots])

    def __eq__(self, other):
        if not isinstance(other, SpinorField):
            return NotImplemented
        return self.slots == other.slots


def symmetrize(tuples: dict[tuple, ExtForm]) -> dict[tuple, ExtForm]:
    """Average a tuple field over all permutations of its primed indices.

    The permutations of a multi-index with a ones reach every multi-index
    with a ones equally often, so the average is the mean of the field over
    that ones-count class: O(2^s) additions in place of O(2^s s!).
    """
    s = len(next(iter(tuples)))
    if s <= 1:
        return tuples
    sample = next(iter(tuples.values()))
    sums = [ExtForm.zero(sample.dim, sample.degree, sample.vars) for _ in range(s + 1)]
    for idx, form in tuples.items():
        a = sum(idx)
        sums[a] = sums[a] + form
    means = [total.scale(Fraction(1, comb(s, a))) for a, total in enumerate(sums)]
    return {idx: means[sum(idx)] for idx in tuples}


def is_symmetric(tuples: dict[tuple, ExtForm]) -> bool:
    """True when the tuple field is invariant under permuting its primed indices.

    A permutation keeps the ones count of a multi-index and reaches every
    multi-index with the same count, so the field is symmetric exactly when
    it is constant on each ones-count class, that is when it equals its
    average :func:`symmetrize`.  Each component is compared with the one at
    its sorted multi-index: exact ``==`` on canonical forms, no arithmetic.
    """
    return all(form == tuples[tuple(sorted(idx))] for idx, form in tuples.items())


def tuple_to_slots(tuples: dict[tuple, ExtForm], ascending: bool) -> SpinorField:
    """Convert a symmetric tuple field to slot form.

    Descending basis: slot a is the component with a ones.  ``ascending``:
    slot a additionally carries the multiplicity binom(sigma, a) coming from
    expanding the symmetric monomials.
    """
    if not is_symmetric(tuples):
        raise ValueError("tuple field is not symmetric")
    s = len(next(iter(tuples)))
    slots = []
    for a in range(s + 1):
        form = tuples[(0,) * (s - a) + (1,) * a]
        if ascending:
            form = form.scale(comb(s, a))
        slots.append(form)
    return SpinorField(slots)


class LevelTable(Immutable):
    """Level shapes of a complex at (n, k) on ``form_dim`` form indices, split at level ``k``.

    Subclasses provide ``form_dim``; levels run 0..form_dim - 1.  A table is
    immutable and equal to a table of the same class at the same (n, k):
    ``slot_rule`` is cached on it.
    """

    def __init__(self, n: int, k: int):
        n, k = exact_int(n, "n"), exact_int(k, "k")
        if n < 1 or k < 0:
            raise ValueError("need n >= 1 and k >= 0")
        _set(self, "n", n)
        _set(self, "k", k)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k)

    def __hash__(self):
        return hash((type(self), self.n, self.k))

    @property
    def top_level(self) -> int:
        return self.form_dim - 1

    def sigma(self, j: int) -> int:
        # unchecked: the boundary operator reads sigma one level past the top
        return self.k - j if j <= self.k else j - self.k - 1

    def tau(self, j: int) -> int:
        self._check_level(j)
        return j if j <= self.k else j + 1

    def shape(self, j: int):
        """(sigma, form degree) of level j: tau increases, so the pair names j."""
        return self.sigma(j), self.tau(j)

    def basis(self, j: int) -> list:
        """Enumerated (slot, index-tuple) basis of level j."""
        s, d = self.shape(j)
        return [(a, idx) for a in range(s + 1) for idx in combinations(range(self.form_dim), d)]

    @lru_cache(maxsize=None)
    def slot_rule(self, j: int) -> tuple:
        """Entry b lists the (input slot a, primed path) pairs that slot b of
        level j + 1 sums: (p,) is d^p and (0, 1) is d^0 d^1, the one entry at
        j = k.  Slot b is d^0 f(b) + d^1 f(b + 1) below the middle and
        d^0 f(b) + d^1 f(b - 1) above it, without the slots out of range.
        Unchecked, like ``sigma``: the boundary companion reads level j + 1.
        """
        if j == self.k:
            return (((0, (0, 1)),),)
        step, top = (1 if j < self.k else -1), self.sigma(j)
        return tuple(tuple((b + p * step, (p,)) for p in (0, 1) if 0 <= b + p * step <= top)
                     for b in range(self.sigma(j + 1) + 1))

    @lru_cache(maxsize=None)
    def symbol_table(self, j: int) -> tuple:
        """(columns, rows) of the level-j symbol matrix, immutable: column c is
        the (slot, index mask) of ``basis(j)[c]``, and ``rows`` maps the (slot,
        index mask) of each element of ``basis(j + 1)`` to its position."""
        columns = tuple((a, index_mask(idx)) for a, idx in self.basis(j))
        return columns, MappingProxyType({(b, index_mask(idx)): row for row, (b, idx)
                                          in enumerate(self.basis(j + 1))})

    def level_dim(self, j: int) -> int:
        s, d = self.shape(j)
        return (s + 1) * comb(self.form_dim, d)

    def _check_level(self, j: int):
        if not 0 <= j <= self.top_level:
            raise ValueError(f"level {j} out of range 0..{self.top_level}")

    def _check_operator_level(self, j: int):
        if not 0 <= j <= self.top_level - 1:
            raise ValueError(f"operator level {j} out of range 0..{self.top_level - 1}")

    def check_field(self, field: SpinorField, shape, what: str, j: int):
        """Raise unless ``field`` has ``shape`` (sigma, degree) and dim ``form_dim``."""
        if (field.sigma, field.degree) != shape:
            raise ValueError(f"{what} shape {(field.sigma, field.degree)} does not match"
                             f" level {j}: {shape}")
        if field.dim != self.form_dim:
            raise ValueError(f"{what} dimension {field.dim} does not match {self.form_dim}")
