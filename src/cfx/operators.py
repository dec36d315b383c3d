"""First- and second-order differential operators with polynomial coefficients."""

from __future__ import annotations

from typing import Dict, Tuple

from .poly import Poly
from .rational import cq


class FirstOrderOp:
    """sum_v  coeff_v(x) * d/dv  with Poly coefficients."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, variables, coeffs: Dict[str, Poly]):
        variables = tuple(variables)
        clean = {}
        for v, p in coeffs.items():
            if v not in variables:
                raise KeyError(f"unknown variable {v!r}")
            if not isinstance(p, Poly):
                p = Poly.const(variables, p)
            if not p.is_zero():
                clean[v] = p
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FirstOrderOp is immutable")

    @classmethod
    def partial(cls, variables, name, coeff=1) -> "FirstOrderOp":
        variables = tuple(variables)
        return cls(variables, {name: Poly.const(variables, coeff)})

    def apply(self, p: Poly) -> Poly:
        out = Poly.zero(self.vars)
        for v, c in self.coeffs.items():
            # a constant coefficient scales; only a variable one needs a product
            d = p.diff(v)
            out = out + (d.scale(c.constant_term()) if c.total_degree() == 0 else c * d)
        return out

    def coefficient(self, name: str) -> Poly:
        return self.coeffs.get(name, Poly.zero(self.vars))

    def __add__(self, other: "FirstOrderOp") -> "FirstOrderOp":
        merged = dict(self.coeffs)
        for v, c in other.coeffs.items():
            merged[v] = merged.get(v, Poly.zero(self.vars)) + c
        return FirstOrderOp(self.vars, merged)

    def __neg__(self):
        return FirstOrderOp(self.vars, {v: -c for v, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "FirstOrderOp":
        value = cq(value)
        return FirstOrderOp(self.vars, {v: c.scale(value) for v, c in self.coeffs.items()})

    def conjugate(self) -> "FirstOrderOp":
        return FirstOrderOp(self.vars, {v: c.conjugate() for v, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def commutator(self, other: "FirstOrderOp") -> "FirstOrderOp":
        """[self, other]; first order because coefficient cross-terms cancel."""
        out = {}
        names = set(self.coeffs) | set(other.coeffs)
        for v in names:
            c = self.apply(other.coefficient(v)) - other.apply(self.coefficient(v))
            if not c.is_zero():
                out[v] = c
        return FirstOrderOp(self.vars, out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c}) d/d{v}" for v, c in sorted(self.coeffs.items()))

    __repr__ = __str__


class SecondOrderOp:
    """Composition of first-order operators kept in canonical split form.

    ``order2`` maps unordered variable pairs (v <= w) to Poly coefficients of
    d2/dv dw; ``order1`` maps variables to first-order coefficients.
    """

    __slots__ = ("vars", "order2", "order1")

    def __init__(self, variables, order2=None, order1=None):
        merged: Dict[Tuple[str, str], Poly] = {}
        for key, p in (order2 or {}).items():
            v, w = sorted(key)
            if not p.is_zero():
                acc = merged.get((v, w))
                merged[(v, w)] = p if acc is None else acc + p
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "order2",
                           {k: p for k, p in merged.items() if not p.is_zero()})
        object.__setattr__(self, "order1",
                           {v: p for v, p in (order1 or {}).items() if not p.is_zero()})

    def __setattr__(self, name, value):
        raise AttributeError("SecondOrderOp is immutable")

    @classmethod
    def compose(cls, outer: FirstOrderOp, inner: FirstOrderOp) -> "SecondOrderOp":
        order2: Dict[Tuple[str, str], Poly] = {}
        order1: Dict[str, Poly] = {}
        for v, cv in outer.coeffs.items():
            for w, cw in inner.coeffs.items():
                key = tuple(sorted((v, w)))
                term = cv * cw
                acc = order2.get(key)
                order2[key] = term if acc is None else acc + term
            # outer differentiates inner coefficients
        for w, cw in inner.coeffs.items():
            c = outer.apply(cw)
            if not c.is_zero():
                acc = order1.get(w)
                order1[w] = c if acc is None else acc + c
        return cls(outer.vars, order2, order1)

    def apply(self, p: Poly) -> Poly:
        out = Poly.zero(self.vars)
        for (v, w), c in self.order2.items():
            out = out + c * p.diff(v).diff(w)
        for v, c in self.order1.items():
            out = out + c * p.diff(v)
        return out

    def __add__(self, other: "SecondOrderOp") -> "SecondOrderOp":
        order2 = dict(self.order2)
        for k, p in other.order2.items():
            order2[k] = order2.get(k, Poly.zero(self.vars)) + p
        order1 = dict(self.order1)
        for v, p in other.order1.items():
            order1[v] = order1.get(v, Poly.zero(self.vars)) + p
        return SecondOrderOp(self.vars, order2, order1)

    def __neg__(self):
        return SecondOrderOp(self.vars,
                             {k: -p for k, p in self.order2.items()},
                             {v: -p for v, p in self.order1.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "SecondOrderOp":
        value = cq(value)
        return SecondOrderOp(self.vars,
                             {k: p.scale(value) for k, p in self.order2.items()},
                             {v: p.scale(value) for v, p in self.order1.items()})

    def is_zero(self) -> bool:
        return not self.order2 and not self.order1

    def __str__(self):
        parts = [f"({p}) d2/d{v}d{w}" for (v, w), p in sorted(self.order2.items())]
        parts += [f"({p}) d/d{v}" for v, p in sorted(self.order1.items())]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__
