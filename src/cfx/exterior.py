"""Exterior forms with polynomial coefficients over a basis w^0..w^{m-1}.

This module is the one home of the form layout; ``boundary.frak_d`` and the
flat symbol build on its primitives and restate none of it:

* components are stored on strictly increasing index tuples, and
  :func:`insert_index` is the one wedge sign: w^a ^ w^idx is
  (-1)^(number of indices below a) w^{merged}, and zero when a is in idx.
  :func:`merge_sign` folds it over the indices of a left factor, and
  :func:`insertions` caches its images over a = 0..dim-1 for ``frak_d``;
* no component is zero: :func:`put_component` stores a nonzero value and
  drops the index of one that cancels, which comes back at the end when a
  later sum makes it nonzero;
* a product of components is ``poly.mul_into``: :meth:`ExtForm.wedge`
  accumulates every pair into one numerator dict per merged index.

The public constructor checks every index tuple and drops zero
coefficients; the ring operations (``+``, ``-``, ``scale``, ``map_coeffs``,
``wedge``) build their result through the trusted ``ExtForm._make``, which
checks nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import lcm

from .poly import Poly, mul_into

_set = object.__setattr__


def insert_index(a: int, idx: tuple):
    """w^a ^ w^idx for a strictly increasing tuple idx: (sign, merged), or
    None when a is already in idx (the wedge vanishes).

    The sign is (-1)^(number of indices of idx below a).
    """
    pos = bisect_left(idx, a)
    if pos < len(idx) and idx[pos] == a:
        return None
    return -1 if pos % 2 else 1, idx[:pos] + (a,) + idx[pos:]


@lru_cache(maxsize=None)
def insertions(dim: int, idx: tuple) -> tuple:
    """:func:`insert_index` of a = 0..dim-1 into idx, cached: at most 2^dim
    index tuples per dim, for the row loop of ``boundary.frak_d``."""
    return tuple(insert_index(a, idx) for a in range(dim))


def merge_sign(left: tuple, right: tuple):
    """w^left ^ w^right for strictly increasing tuples: (sign, merged) or None.

    The indices of ``left`` go into ``right`` one at a time, last first,
    through :func:`insert_index`; None means a shared index.
    """
    sign, merged = 1, right
    for a in reversed(left):
        inserted = insert_index(a, merged)
        if inserted is None:
            return None
        sign *= inserted[0]
        merged = inserted[1]
    return sign, merged


def put_component(comps: dict, idx, value) -> None:
    """Store ``value`` (a ``Poly`` or a numerator dict) at ``idx`` if it is
    nonzero, else drop ``idx``; an index keeps its place while it lives."""
    if value:
        comps[idx] = value
    else:
        comps.pop(idx, None)


class ExtForm:
    """Degree-``degree`` exterior form of dimension ``dim`` with Poly coefficients."""

    __slots__ = ("dim", "degree", "vars", "comps")

    def __init__(self, dim: int, degree: int, variables: Sequence[str],
                 comps: Mapping | None = None):
        if degree < 0:
            raise ValueError("negative form degree")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        if comps:
            for idx, coeff in comps.items():
                idx = tuple(int(i) for i in idx)
                if len(idx) != degree:
                    raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
                if any(not 0 <= i < dim for i in idx):
                    raise ValueError(f"index out of range in {idx}")
                if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                    raise ValueError(f"index tuple {idx} not strictly increasing")
                if not isinstance(coeff, Poly):
                    coeff = Poly.const(self.vars, coeff)
                if coeff.vars != self.vars:
                    raise ValueError("coefficient variable table mismatch")
                if not coeff.is_zero():
                    clean[idx] = coeff
        object.__setattr__(self, "comps", clean)

    @classmethod
    def _make(cls, dim: int, degree: int, variables: tuple, comps: dict) -> "ExtForm":
        """Trusted constructor: valid index tuples and no zero coefficient in ``comps``."""
        f = object.__new__(cls)
        _set(f, "dim", dim)
        _set(f, "degree", degree)
        _set(f, "vars", variables)
        _set(f, "comps", comps)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("ExtForm is immutable")

    # -- constructors -------------------------------------------------------------

    @classmethod
    def zero(cls, dim, degree, variables) -> "ExtForm":
        if degree < 0:
            raise ValueError("negative form degree")
        return cls._make(int(dim), int(degree), tuple(variables), {})

    @classmethod
    def from_scalar(cls, dim, p: Poly) -> "ExtForm":
        return cls(dim, 0, p.vars, {(): p})

    # -- linear structure -----------------------------------------------------------

    def _check(self, other: "ExtForm"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.vars != other.vars:
            raise ValueError("variable table mismatch")

    def __add__(self, other: "ExtForm") -> "ExtForm":
        self._check(other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        comps = dict(self.comps)
        for idx, c in other.comps.items():
            acc = comps.get(idx)
            put_component(comps, idx, c if acc is None else acc + c)
        return ExtForm._make(self.dim, self.degree, self.vars, comps)

    def __neg__(self):
        return ExtForm._make(self.dim, self.degree, self.vars,
                             {i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "ExtForm":
        return self.map_coeffs(lambda c: c.scale(value))

    def map_coeffs(self, fn) -> "ExtForm":
        comps = {}
        for i, c in self.comps.items():
            put_component(comps, i, fn(c))
        return ExtForm._make(self.dim, self.degree, self.vars, comps)

    # -- wedge ------------------------------------------------------------------------

    def wedge(self, other: "ExtForm") -> "ExtForm":
        """Graded-anticommutative product, in one integer pass.

        Each merged index gets one numerator dict over d1 * d2, d1 and d2 the
        lcm of the component denominators of each factor; every pair of
        components goes in through ``mul_into`` with ``mult`` = wedge sign *
        (d1 / den 1) * (d2 / den 2), and each output component is one ``Poly``.
        """
        self._check(other)
        degree = self.degree + other.degree
        if degree > self.dim:
            return ExtForm.zero(self.dim, degree, self.vars)
        d1 = lcm(1, *(c.den for c in self.comps.values()))
        d2 = lcm(1, *(c.den for c in other.comps.values()))
        right = [(i2, c2.num, d2 // c2.den) for i2, c2 in other.comps.items()]
        out: dict = {}
        for i1, c1 in self.comps.items():
            m1 = d1 // c1.den
            for i2, num2, m2 in right:
                merged = merge_sign(i1, i2)
                if merged is not None:
                    sign, idx = merged
                    put_component(out, idx, mul_into(out.get(idx, {}), c1.num, num2,
                                                     sign * m1 * m2))
        den = d1 * d2
        return ExtForm._make(self.dim, degree, self.vars,
                             {idx: Poly._make(self.vars, num, den) for idx, num in out.items()})

    __mul__ = wedge

    # -- queries --------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        if not isinstance(other, ExtForm):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and self.vars == other.vars and self.comps == other.comps)

    def component(self, idx) -> Poly:
        return self.comps.get(tuple(idx), Poly.zero(self.vars))

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            label = "w^(" + ",".join(map(str, idx)) + ")" if idx else "1"
            parts.append(f"({self.comps[idx]}) {label}")
        return " + ".join(parts)

    __repr__ = __str__


def kaehler_like_sum(dim: int, variables) -> ExtForm:
    """sum_l w^{2l} ^ w^{2l+1}; requires even dim."""
    if dim % 2:
        raise ValueError("dimension must be even")
    comps = {(2 * l, 2 * l + 1): Poly.const(variables, 1) for l in range(dim // 2)}
    return ExtForm(dim, 2, variables, comps)


def hat_component(form: ExtForm, a: int) -> Poly:
    """Coefficient T_a in T = sum_a T_a (w^a -| top), for a (dim-1)-form."""
    if form.degree != form.dim - 1:
        raise ValueError("hat decomposition needs degree = dim - 1")
    idx = tuple(i for i in range(form.dim) if i != a)
    # w^a -| top = sign w^idx, for the sign of w^a ^ w^idx = sign top
    sign, _ = insert_index(a, idx)
    return form.component(idx).scale(sign)


def from_hat_components(dim: int, variables, coeffs) -> ExtForm:
    """Assemble sum_a coeffs[a] (w^a -| top) as a (dim-1)-form."""
    comps = {}
    for a, c in enumerate(coeffs):
        if c.is_zero():
            continue
        idx = tuple(i for i in range(dim) if i != a)
        comps[idx] = c.scale(insert_index(a, idx)[0])
    return ExtForm(dim, dim - 1, variables, comps)
