"""Exterior forms with polynomial coefficients over a basis w^0..w^{m-1}.

This module is the one home of the form layout; ``boundary.frak_d`` and the
flat symbol build on its primitives and restate none of it:

* a form is a ``poly.Packed`` value whose shape adds ``dim`` and
  ``degree`` to the variable table.  A key is a term's packed monomial
  plus its component's index mask in the first field past the variable
  table (bit a is w^a), placed there by ``poly._past_table`` as an operator's
  d_v is: the ``poly`` primitives and ``FirstOrderOp.apply_into`` act on
  every component in one pass, and no operator reads the mask.  The
  field's top bit is a guard bit of ``poly.GUARD``, so a form has at most
  ``MAX_DIM`` indices;
* :func:`wedge_sign` is the one wedge sign, the parity of the mask bits
  below the inserted index, and :func:`merge_sign` folds it over a left
  factor; :meth:`ExtForm.wedge` runs ``poly.mul_into`` once per pair of
  disjoint component masks, which add as ints with the monomials.

``comps`` is the read-only per-component view {index tuple: ``Poly``}, in
increasing index-tuple order, built on first use and kept by the form.  The
public constructor takes such a dict and checks it; the trusted
``ExtForm._make`` checks only the degree and the ``MAX_DIM`` bound.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import prod
from types import MappingProxyType

from .poly import (BITS, Packed, Poly, _coefficient, _merge, _past_table, _set, _split,
                   mul_into, reduce_gaussian)
from .rational import exact_int

# Mask bit BITS - 1 would be the guard bit of the index field.
MAX_DIM = BITS - 1


def index_mask(idx, variables=()) -> int:
    """Bit a for each index a in ``idx``, past the field of every variable:
    the key bits of component ``idx`` of a form over ``variables``."""
    return _past_table(sum(1 << i for i in idx), variables)


def wedge_sign(mask: int, a: int) -> int:
    """The sign of w^a ^ w^mask = sign w^(mask | 1 << a), for bit a not in
    ``mask``: (-1)^(number of mask bits below a)."""
    return -1 if (mask & ((1 << a) - 1)).bit_count() & 1 else 1


def merge_sign(left: int, right: int) -> int:
    """The sign of w^left ^ w^right = sign w^(left | right), for disjoint
    masks: :func:`wedge_sign` of each bit of ``left`` into ``right``."""
    return prod(wedge_sign(right, a) for a in range(left.bit_length()) if left >> a & 1)


class ExtForm(Packed):
    """Degree-``degree`` form of dimension ``dim``: ``num`` over ``den``
    (see above).  Not hashable: nothing keys a dict or a cache by a form."""

    __slots__ = ("dim", "degree", "_view")
    __hash__ = None

    def __init__(self, dim: int, degree: int, variables: Sequence[str],
                 comps: Mapping | None = None):
        dim, degree = exact_int(dim, "a form's dim"), exact_int(degree, "a form's degree")
        variables = tuple(variables)
        parts = {}
        for idx, coeff in (comps or {}).items():
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
            if any(not 0 <= exact_int(i, "a form index") < dim for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} not strictly increasing")
            parts[index_mask(idx, variables)] = _coefficient(coeff, variables)
        self._init(dim, degree, variables, *_merge(parts))

    def _init(self, dim, degree, variables, num, den):
        if degree < 0:
            raise ValueError("negative form degree")
        if dim > MAX_DIM:
            raise ValueError(f"a form has at most {MAX_DIM} indices, not {dim}")
        _set(self, "dim", dim)
        _set(self, "degree", degree)
        _set(self, "vars", variables)
        _set(self, "num", num)
        _set(self, "den", den)

    @classmethod
    def _make(cls, dim: int, degree: int, variables: tuple, num: dict,
              den: int = 1) -> "ExtForm":
        """``Packed._make`` with the form's shape."""
        if den != 1:
            num, den = reduce_gaussian(num, den)
        f = object.__new__(cls)
        f._init(dim, degree, variables, num, den)
        return f

    def _like(self, num: dict, den: int = 1) -> "ExtForm":
        return ExtForm._make(self.dim, self.degree, self.vars, num, den)

    def _shape(self):
        return self.dim, self.degree, self.vars

    def _check(self, other, degree: bool = True):
        """``Packed._check``, then same dimension, and with ``degree`` same
        degree: the one form-shape check.  Without ``degree`` it reads only
        ``other.vars`` and ``other.dim``, so a frame passes it too."""
        Packed._check(self, other)
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if degree and self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    # -- constructors -------------------------------------------------------------

    @classmethod
    def zero(cls, dim, degree, variables) -> "ExtForm":
        return cls._make(exact_int(dim, "a form's dim"), exact_int(degree, "a form's degree"),
                         tuple(variables), {})

    @classmethod
    def from_scalar(cls, dim, p: Poly) -> "ExtForm":
        """The 0-form p: its keys carry the empty mask, so they are p's own."""
        return cls._make(exact_int(dim, "a form's dim"), 0, p.vars, p.num, p.den)

    # -- the layout ---------------------------------------------------------------

    @property
    def comps(self) -> Mapping:
        """The read-only view {index tuple: Poly}, in increasing index-tuple
        order; built on first use and kept by the form."""
        try:
            return self._view
        except AttributeError:
            comps = {tuple(a for a in range(self.dim) if mask >> a & 1):
                     Poly._make(self.vars, num, self.den)
                     for mask, num in _split(self.num, self.vars, True).items()}
            _set(self, "_view", MappingProxyType(dict(sorted(comps.items()))))
            return self._view

    def component(self, idx) -> Poly:
        return self.comps.get(tuple(idx), Poly.zero(self.vars))

    # -- wedge ------------------------------------------------------------------------

    def wedge(self, other: "ExtForm") -> "ExtForm":
        """Graded-anticommutative product, in one integer pass over den1 * den2.

        For each pair of component masks (the groups of ``poly._split``) that
        share no index, ``mul_into`` adds the product of their terms, times
        :func:`merge_sign`, into one numerator dict: the masks add with the
        monomials.
        """
        self._check(other, False)
        right = _split(other.num, other.vars).items()
        out: dict = {}
        for m1, num1 in _split(self.num, self.vars).items():
            for m2, num2 in right:
                if not m1 & m2:
                    mul_into(out, num1, num2, merge_sign(m1, m2))
        return ExtForm._make(self.dim, self.degree + other.degree, self.vars, out,
                             self.den * other.den)

    def __str__(self):
        if not self.num:
            return "0"
        return " + ".join(f"({coeff}) " + ("w^(" + ",".join(map(str, idx)) + ")" if idx else "1")
                          for idx, coeff in self.comps.items())

    __repr__ = __str__


def kaehler_like_sum(dim: int, variables) -> ExtForm:
    """sum_l w^{2l} ^ w^{2l+1}; requires even dim."""
    if dim % 2:
        raise ValueError("dimension must be even")
    return ExtForm(dim, 2, variables, {(2 * l, 2 * l + 1): 1 for l in range(dim // 2)})


def hat_component(form: ExtForm, a: int) -> Poly:
    """Coefficient T_a in T = sum_a T_a (w^a -| top), for a (dim-1)-form."""
    if form.degree != form.dim - 1:
        raise ValueError("hat decomposition needs degree = dim - 1")
    idx = tuple(i for i in range(form.dim) if i != a)
    # w^a -| top = sign w^idx, for the sign of w^a ^ w^idx = sign top
    return form.component(idx).scale(wedge_sign(index_mask(idx), a))


def from_hat_components(dim: int, variables, coeffs) -> ExtForm:
    """Assemble sum_a coeffs[a] (w^a -| top) as a (dim-1)-form."""
    rests = [tuple(i for i in range(dim) if i != a) for a in range(len(coeffs))]
    return ExtForm(dim, dim - 1, variables, {rest: c.scale(wedge_sign(index_mask(rest), a))
                                             for a, (rest, c) in enumerate(zip(rests, coeffs))})
