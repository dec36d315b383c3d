"""Symmetric-power spinor bookkeeping: the two-element index calculus.

Primed indices live in {0, 1} (conventionally written 0', 1').  They are
raised and lowered by the symplectic pairing ``eps``; degree-s symmetric
powers are handled either as slot arrays over two distinguished monomial
bases or as symmetric tuples.

Slot conventions:

* descending basis ("S"): slot a of degree s, with the two derivations
  acting as  d_0: (a, s) -> (a, s-1)  and  d_1: (a, s) -> (a-1, s-1);
* ascending basis ("tilde"): slot a of degree s, with multiplications
  m_0: (a, s) -> (a, s+1)  and  m_1: (a, s) -> (a+1, s+1).

Out-of-range slots are zero by convention.

:class:`LevelTable` is the level bookkeeping shared by the flat and the
boundary complex: level j carries sigma(j)-spinors of tau(j)-forms, in the
descending basis up to level k and the ascending basis above it.
"""

from __future__ import annotations

from itertools import product
from math import comb
from fractions import Fraction
from typing import Dict, List, Sequence

from .exterior import ExtForm

def raise_primed(pair):
    """(f_0, f_1) -> (f^0, f^1) with f^a = sum_b f_b eps^{ba}."""
    f0, f1 = pair
    # eps^{10} = 1, eps^{01} = -1
    return (f1, -f0)


def ones_count(idx: Sequence[int]) -> int:
    """Number of 1 entries in a primed multi-index."""
    return sum(idx)


class SpinorField:
    """Section of a symmetric-power bundle tensor exterior forms.

    ``basis`` is one of "S", "tilde", "tuple".  For the slot bases the data
    is a list of sigma+1 ExtForms (all of one degree/dimension); the tuple
    basis stores one ExtForm per primed multi-index with full permutation
    symmetry.
    """

    __slots__ = ("sigma", "basis", "slots", "tuples", "dim", "degree", "vars")

    def __init__(self, sigma: int, basis: str, components, dim=None,
                 degree=None, variables=None):
        if basis not in ("S", "tilde", "tuple"):
            raise ValueError(f"unknown basis tag {basis!r}")
        object.__setattr__(self, "sigma", int(sigma))
        object.__setattr__(self, "basis", basis)
        if basis == "tuple":
            tuples: Dict[tuple, ExtForm] = {}
            sample = None
            for idx, form in components.items():
                idx = tuple(int(i) for i in idx)
                if len(idx) != sigma or any(i not in (0, 1) for i in idx):
                    raise ValueError(f"bad primed multi-index {idx}")
                tuples[idx] = form
                sample = form
            if sample is None:
                if dim is None or degree is None or variables is None:
                    raise ValueError("empty tuple field needs dim/degree/vars")
                sample = ExtForm.zero(dim, degree, variables)
            full = {}
            for idx in product((0, 1), repeat=sigma):
                full[idx] = tuples.get(
                    idx, ExtForm.zero(sample.dim, sample.degree, sample.vars))
            object.__setattr__(self, "tuples", full)
            object.__setattr__(self, "slots", None)
            object.__setattr__(self, "dim", sample.dim)
            object.__setattr__(self, "degree", sample.degree)
            object.__setattr__(self, "vars", sample.vars)
        else:
            slots: List[ExtForm] = list(components)
            if len(slots) != sigma + 1:
                raise ValueError(f"need {sigma + 1} slots, got {len(slots)}")
            sample = slots[0]
            for f in slots:
                if (f.dim, f.degree, f.vars) != (sample.dim, sample.degree, sample.vars):
                    raise ValueError("slot forms must share dimension/degree/vars")
            object.__setattr__(self, "slots", slots)
            object.__setattr__(self, "tuples", None)
            object.__setattr__(self, "dim", sample.dim)
            object.__setattr__(self, "degree", sample.degree)
            object.__setattr__(self, "vars", sample.vars)

    def __setattr__(self, name, value):
        raise AttributeError("SpinorField is immutable")

    @classmethod
    def zero(cls, sigma, basis, dim, degree, variables) -> "SpinorField":
        if basis == "tuple":
            return cls(sigma, basis, {}, dim=dim, degree=degree, variables=variables)
        z = ExtForm.zero(dim, degree, variables)
        return cls(sigma, basis, [z] * (sigma + 1))

    def slot(self, a: int) -> ExtForm:
        """Slot a, with out-of-range slots equal to zero."""
        if self.basis == "tuple":
            raise ValueError("tuple basis has no slots")
        if 0 <= a <= self.sigma:
            return self.slots[a]
        return ExtForm.zero(self.dim, self.degree, self.vars)

    def is_zero(self) -> bool:
        forms = self.slots if self.slots is not None else self.tuples.values()
        return all(f.is_zero() for f in forms)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        if (self.sigma, self.basis) != (other.sigma, other.basis):
            raise ValueError("spinor shape mismatch")
        if self.basis == "tuple":
            return SpinorField(self.sigma, "tuple",
                               {i: f + other.tuples[i] for i, f in self.tuples.items()})
        return SpinorField(self.sigma, self.basis,
                           [a + b for a, b in zip(self.slots, other.slots)])

    def __neg__(self):
        if self.basis == "tuple":
            return SpinorField(self.sigma, "tuple",
                               {i: -f for i, f in self.tuples.items()})
        return SpinorField(self.sigma, self.basis, [-f for f in self.slots])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, SpinorField):
            return NotImplemented
        return (self - other).is_zero() if (self.sigma, self.basis) == (other.sigma, other.basis) else False


def symmetrize(field: SpinorField) -> SpinorField:
    """Average a tuple-basis field over all permutations of its primed indices.

    The permutations of a multi-index with a ones reach every multi-index
    with a ones equally often, so the average is the mean of the field over
    that ones-count class: O(2^s) additions in place of O(2^s s!).
    """
    if field.basis != "tuple":
        raise ValueError("symmetrize acts on the tuple basis")
    s = field.sigma
    if s <= 1:
        return field
    sums = [ExtForm.zero(field.dim, field.degree, field.vars) for _ in range(s + 1)]
    for idx, form in field.tuples.items():
        a = ones_count(idx)
        sums[a] = sums[a] + form
    means = [total.scale(Fraction(1, comb(s, a))) for a, total in enumerate(sums)]
    return SpinorField(s, "tuple", {idx: means[ones_count(idx)] for idx in field.tuples})


def is_symmetric(field: SpinorField) -> bool:
    """True when the tuple field is invariant under permuting its primed indices.

    A permutation keeps the ones count of a multi-index and reaches every
    multi-index with the same count, so the field is symmetric exactly when
    it is constant on each ones-count class, that is when it equals its
    average :func:`symmetrize`.  Each component is compared with the one at
    its sorted multi-index: exact ``==`` on canonical forms, no arithmetic.
    """
    if field.basis != "tuple":
        raise ValueError("is_symmetric acts on the tuple basis")
    tuples = field.tuples
    return all(form == tuples[tuple(sorted(idx))] for idx, form in tuples.items())


def tuple_to_slots(field: SpinorField, basis: str) -> SpinorField:
    """Convert a symmetric tuple field to slot form.

    Descending basis: slot a is the component with a ones.  Ascending basis:
    slot a additionally carries the multiplicity binom(sigma, a) coming from
    expanding the symmetric monomials.
    """
    if field.basis != "tuple":
        raise ValueError("expected tuple basis")
    if not is_symmetric(field):
        raise ValueError("tuple field is not symmetric")
    s = field.sigma
    slots = []
    for a in range(s + 1):
        idx = (0,) * (s - a) + (1,) * a
        form = field.tuples[idx]
        if basis == "tilde":
            form = form.scale(comb(s, a))
        slots.append(form)
    return SpinorField(s, basis, slots)


class LevelTable:
    """Level shapes of a complex on ``form_dim`` form indices, split at level ``k``.

    Subclasses provide ``form_dim`` and ``k``; levels run 0..form_dim - 1.
    """

    @property
    def top_level(self) -> int:
        return self.form_dim - 1

    def sigma(self, j: int) -> int:
        # unchecked: the boundary operator reads sigma one level past the top
        return self.k - j if j <= self.k else j - self.k - 1

    def tau(self, j: int) -> int:
        self._check_level(j)
        return j if j <= self.k else j + 1

    def basis_tag(self, j: int) -> str:
        return "S" if j <= self.k else "tilde"

    def shape(self, j: int):
        """(sigma, form degree, basis) of level j."""
        return self.sigma(j), self.tau(j), self.basis_tag(j)

    def level_dim(self, j: int) -> int:
        s, d, _ = self.shape(j)
        return (s + 1) * comb(self.form_dim, d)

    def _check_level(self, j: int):
        if not 0 <= j <= self.top_level:
            raise ValueError(f"level {j} out of range 0..{self.top_level}")

    def _check_operator_level(self, j: int):
        if not 0 <= j <= self.top_level - 1:
            raise ValueError(f"operator level {j} out of range 0..{self.top_level - 1}")

    def check_field(self, field: SpinorField, shape, what: str, j: int):
        """Raise unless ``field`` is a slot field of ``shape`` (sigma, degree, basis)."""
        sigma, degree, basis = shape
        if field.basis == "tuple":
            raise ValueError(f"{what} is a tuple field; slot operators need the slot basis")
        if (field.sigma, field.degree) != (sigma, degree):
            raise ValueError(f"{what} shape {(field.sigma, field.degree)} does not match"
                             f" level {j}: {(sigma, degree)}")
        if field.dim != self.form_dim:
            raise ValueError(f"{what} dimension {field.dim} does not match {self.form_dim}")
        if field.sigma > 0 and field.basis != basis:
            raise ValueError(f"{what} basis must be {basis} at level {j}")
