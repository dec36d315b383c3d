"""First-order differential operators with polynomial coefficients, and their commutators."""

from __future__ import annotations

from math import lcm
from operator import add
from typing import Dict

from .poly import Poly, add_term
from .rational import cq


class FirstOrderOp:
    """sum_v  coeff_v(x) * d/dv  with Poly coefficients.

    :meth:`kernel` is the operator's one integer coefficient table: every
    application (``apply_into``, and so ``apply``) and the flat symbol's
    covector rows read it.  It is built on first use, because most
    frame-building intermediates are never applied.
    """

    __slots__ = ("vars", "coeffs", "_kernel")

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
        object.__setattr__(self, "_kernel", None)

    def __setattr__(self, name, value):
        raise AttributeError("FirstOrderOp is immutable")

    @classmethod
    def partial(cls, variables, name, coeff=1) -> "FirstOrderOp":
        variables = tuple(variables)
        return cls(variables, {name: Poly.const(variables, coeff)})

    def kernel(self) -> tuple:
        """(den, [(variable index, [(expo or None, re, im), ...]), ...]).

        ``den`` is the lcm of the coefficient denominators; each c_v becomes
        the index of v and the ``(expo, re, im)`` terms of den * c_v, with
        ``expo`` None for the constant term.
        """
        if self._kernel is None:
            den = lcm(1, *(c.den for c in self.coeffs.values()))
            zero = (0,) * len(self.vars)
            rows = []
            for v, c in self.coeffs.items():
                m = den // c.den
                rows.append((self.vars.index(v),
                             [(None if e == zero else e, re * m, im * m)
                              for e, (re, im) in c.num.items()]))
            object.__setattr__(self, "_kernel", (den, rows))
        return self._kernel

    @property
    def den(self) -> int:
        """Common denominator of the coefficients: den * c_v has integer numerators."""
        return self.kernel()[0]

    def apply_into(self, out: dict, num: dict, mult: int) -> dict:
        """Add mult * den * sum_v c_v d_v p, for p's numerators ``num`` and an
        int ``mult`` != 0, into the numerator dict ``out``; return ``out``.

        Each product goes in through ``poly.add_term``, so an entry that
        cancels to (0, 0) is deleted at once and callers summing many
        applications (``boundary.frak_d``) build one ``Poly`` per result.
        """
        for idx, terms in self.kernel()[1]:
            for expo, (re, im) in num.items():
                e = expo[idx]
                if not e:
                    continue
                m = mult * e
                a, b = re * m, im * m
                lowered = expo[:idx] + (e - 1,) + expo[idx + 1:]
                for cexpo, c, d in terms:
                    key = lowered if cexpo is None else tuple(map(add, lowered, cexpo))
                    add_term(out, key, a * c - b * d, a * d + b * c)
        return out

    def apply(self, p: Poly) -> Poly:
        if p.vars != self.vars:
            raise ValueError(f"variable tables differ: {self.vars} vs {p.vars}")
        return Poly._make(self.vars, self.apply_into({}, p.num, 1), p.den * self.den)

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
