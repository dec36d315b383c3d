"""First-order differential operators with polynomial coefficients, and their commutators."""

from __future__ import annotations

from typing import Dict

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
            d = p.diff(v)
            if d:
                out = out + c * d
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
