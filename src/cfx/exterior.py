"""Exterior forms with polynomial coefficients over a basis w^0..w^{m-1}.

Components are stored on strictly increasing index tuples; the wedge sign
is the parity of the merge permutation, and a repeated index kills the term.
No component is the zero polynomial.  The public constructor checks every
index tuple and drops zero coefficients; the ring operations (``+``, ``-``,
``scale``, ``scale_poly``, ``map_coeffs``, ``wedge``) build their result
through the trusted ``ExtForm._make``, which checks nothing: each of them
drops the zero components it produces, so the invariant holds without a
second pass.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .poly import Poly

_set = object.__setattr__


def merge_sign(left: tuple, right: tuple):
    """Merge two strictly increasing tuples; return (sign, merged) or None.

    None means a shared index (the wedge vanishes).  The sign is the parity
    of the permutation sorting left+right.
    """
    if set(left) & set(right):
        return None
    sign = 1
    merged = list(left)
    for r in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > r:
            pos -= 1
        sign *= -1 if (len(merged) - pos) % 2 else 1
        merged.insert(pos, r)
    return sign, tuple(merged)


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

    @classmethod
    def basis(cls, dim, idx, variables, coeff=1) -> "ExtForm":
        """The form coeff * w^{idx} for a strictly increasing tuple idx."""
        idx = tuple(idx)
        return cls(dim, len(idx), variables,
                   {idx: Poly.const(variables, coeff)})

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
            acc = c if acc is None else acc + c
            if acc.is_zero():
                comps.pop(idx, None)
            else:
                comps[idx] = acc
        return ExtForm._make(self.dim, self.degree, self.vars, comps)

    def __neg__(self):
        return ExtForm._make(self.dim, self.degree, self.vars,
                             {i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "ExtForm":
        return self.map_coeffs(lambda c: c.scale(value))

    def scale_poly(self, p: Poly) -> "ExtForm":
        return self.map_coeffs(lambda c: c * p)

    def map_coeffs(self, fn) -> "ExtForm":
        comps = {}
        for i, c in self.comps.items():
            c = fn(c)
            if c:
                comps[i] = c
        return ExtForm._make(self.dim, self.degree, self.vars, comps)

    # -- wedge ------------------------------------------------------------------------

    def wedge(self, other: "ExtForm") -> "ExtForm":
        self._check(other)
        degree = self.degree + other.degree
        if degree > self.dim:
            return ExtForm.zero(self.dim, degree, self.vars)
        out: dict = {}
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                merged = merge_sign(i1, i2)
                if merged is None:
                    continue
                sign, idx = merged
                term = (c1 * c2).scale(sign)
                acc = out.get(idx)
                acc = term if acc is None else acc + term
                if acc.is_zero():
                    out.pop(idx, None)
                else:
                    out[idx] = acc
        return ExtForm._make(self.dim, degree, self.vars, out)

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

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "comps": [
                {"idx": list(idx), "poly": c.to_json()}
                for idx, c in sorted(self.comps.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict, variables=None) -> "ExtForm":
        comps = {}
        for item in data["comps"]:
            p = Poly.from_json(item["poly"])
            comps[tuple(item["idx"])] = p
            variables = p.vars
        if variables is None:
            raise ValueError("cannot infer variable table from empty form")
        return cls(data["dim"], data["degree"], variables, comps)


def wedge(f: ExtForm, g: ExtForm) -> ExtForm:
    """Graded-anticommutative product of two forms."""
    return f.wedge(g)


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
    sign = (-1) ** a
    return form.component(idx).scale(sign)


def from_hat_components(dim: int, variables, coeffs) -> ExtForm:
    """Assemble sum_a coeffs[a] (w^a -| top) as a (dim-1)-form."""
    comps = {}
    for a, c in enumerate(coeffs):
        if c.is_zero():
            continue
        idx = tuple(i for i in range(dim) if i != a)
        comps[idx] = c.scale((-1) ** a)
    return ExtForm(dim, dim - 1, variables, comps)
