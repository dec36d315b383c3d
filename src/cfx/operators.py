"""First-order differential operators with polynomial coefficients, and their commutators.

An operator sum_v c_v(x) d/dv is one integer table in the layout of
``Poly``: ``num`` maps the index of each variable v with c_v != 0 to the
Gaussian-integer numerator dict of den * c_v, and one positive int ``den``
is shared by every coefficient.  The table is canonical, so ``==`` and
``hash`` are exact:

* no coefficient dict is empty, and none holds a ``(0, 0)`` numerator;
* the gcd of ``den`` and every numerator part is 1;
* the zero operator has ``den == 1``.

The public constructor ``FirstOrderOp(vars, {name: Poly or scalar})`` checks
its input.  Sum, difference, negation, ``scale``, ``conjugate`` and
``commutator`` work on the numerator dicts with the primitives of ``poly``
and build their result through the trusted ``FirstOrderOp._make``, which
drops empty coefficients and divides out the common factor.  A commutator
is two ``apply_into`` calls into one dict per variable.  The API edge is
``coefficient`` and ``str``: only they build a ``Poly`` of a coefficient.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm

from .poly import (BITS, FIELD, GUARD, MAX_EXPONENT, Poly, _gaussian_parts, add_term,
                   common_sum, times_gaussian)

_set = object.__setattr__


def _reduce(num: dict, den: int) -> tuple:
    """(num, den) with the common factor of ``den`` and every numerator part
    of every coefficient divided out; with no coefficient ``den`` becomes 1."""
    g = den
    for coeff in num.values():
        for re, im in coeff.values():
            g = gcd(g, re, im)
            if g == 1:
                return num, den
    return ({v: {k: (re // g, im // g) for k, (re, im) in coeff.items()}
             for v, coeff in num.items()}, den // g)


class FirstOrderOp:
    """sum_v  coeff_v(x) * d/dv, as one integer table (see the module docstring).

    :meth:`kernel` lists the table as the rows every application
    (``apply_into``, and so ``apply``) reads.  It is built on first use,
    because most frame-building intermediates are never applied.
    """

    __slots__ = ("vars", "num", "den", "_kernel")

    def __init__(self, variables, coeffs: Mapping):
        variables = tuple(variables)
        parts = {}
        for v, c in coeffs.items():
            if v not in variables:
                raise KeyError(f"unknown variable {v!r}")
            if isinstance(c, Poly):
                if c.vars != variables:
                    raise ValueError(f"variable tables differ: {variables} vs {c.vars}")
                num, den = c.num, c.den
            else:
                re, im, den = _gaussian_parts(c)
                num = {0: (re, im)} if re or im else {}
            if num:
                parts[variables.index(v)] = num, den
        # each coefficient is canonical, so the lcm is already coprime to
        # the scaled numerators taken together
        den = lcm(1, *(d for _, d in parts.values()))
        _set(self, "vars", variables)
        _set(self, "num", {v: times_gaussian(num, den // d, 0) for v, (num, d) in parts.items()})
        _set(self, "den", den)
        _set(self, "_kernel", None)

    @classmethod
    def _make(cls, variables: tuple, num: dict, den: int = 1) -> "FirstOrderOp":
        """Trusted constructor: ``num`` maps variable indices to numerator
        dicts that hold no (0, 0) pair, and ``den`` > 0.

        Drops the empty coefficients and divides out the common factor of
        ``den`` and the numerators, so the result is canonical; nothing else
        is checked.
        """
        if not all(num.values()):
            num = {v: coeff for v, coeff in num.items() if coeff}
        if den != 1:
            num, den = _reduce(num, den)
        op = object.__new__(cls)
        _set(op, "vars", variables)
        _set(op, "num", num)
        _set(op, "den", den)
        _set(op, "_kernel", None)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("FirstOrderOp is immutable")

    @classmethod
    def partial(cls, variables, name, coeff=1) -> "FirstOrderOp":
        return cls(variables, {name: coeff})

    def kernel(self) -> tuple:
        """(den, [(shift, unit, [(key or None, re, im), ...]), ...]).

        Each coefficient c_v becomes the bit offset ``BITS * v`` of v's
        field, the packed unit ``1 << shift`` of v and the ``(key, re, im)``
        terms of den * c_v, with ``key`` None for the constant term.
        """
        if self._kernel is None:
            _set(self, "_kernel", (self.den, [
                (BITS * v, 1 << BITS * v,
                 [(key or None, re, im) for key, (re, im) in coeff.items()])
                for v, coeff in self.num.items()]))
        return self._kernel

    def apply_into(self, out: dict, num: dict, mult: int) -> dict:
        """Add mult * den * sum_v c_v d_v p, for p's numerators ``num`` and an
        int ``mult`` != 0, into the numerator dict ``out``; return ``out``.

        Each product goes in through ``poly.add_term``, so an entry that
        cancels to (0, 0) is deleted at once and callers summing many
        applications (``boundary.frak_d``) build one ``Poly`` per result.
        A product with an exponent above ``poly.MAX_EXPONENT`` is a ValueError.
        """
        for shift, unit, terms in self.kernel()[1]:
            # most terms lack the variable: read a numerator only for a hit
            for key in num:
                e = key >> shift & FIELD
                if not e:
                    continue
                re, im = num[key]
                m = mult * e
                a, b = re * m, im * m
                lowered = key - unit
                for ckey, c, d in terms:
                    if ckey is None:
                        prod = lowered
                    else:
                        prod = lowered + ckey
                        if prod & GUARD:
                            raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
                    add_term(out, prod, a * c - b * d, a * d + b * c)
        return out

    def apply(self, p: Poly) -> Poly:
        if p.vars != self.vars:
            raise ValueError(f"variable tables differ: {self.vars} vs {p.vars}")
        return Poly._make(self.vars, self.apply_into({}, p.num, 1), p.den * self.den)

    def coefficient(self, name: str) -> Poly:
        """c_name as a Poly; the zero Poly if the operator does not differentiate in it."""
        return Poly._make(self.vars, dict(self.num.get(self.vars.index(name), {})), self.den)

    def _check_compatible(self, other: "FirstOrderOp"):
        if self.vars != other.vars:
            raise ValueError(f"variable tables differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "FirstOrderOp") -> "FirstOrderOp":
        """Each coefficient is ``poly.common_sum`` of the two over the lcm of
        the dens: the variables of self first, then the new ones of other."""
        self._check_compatible(other)
        den = lcm(self.den, other.den)
        return FirstOrderOp._make(self.vars, {
            v: common_sum(self.num.get(v, {}), self.den, other.num.get(v, {}), other.den)[0]
            for v in dict.fromkeys([*self.num, *other.num])}, den)

    def __sub__(self, other: "FirstOrderOp") -> "FirstOrderOp":
        return self + (-other)

    def __neg__(self):
        return FirstOrderOp._make(
            self.vars, {v: times_gaussian(coeff, -1, 0) for v, coeff in self.num.items()},
            self.den)

    def scale(self, value) -> "FirstOrderOp":
        re, im, den = _gaussian_parts(value)
        if not (re or im):
            return FirstOrderOp._make(self.vars, {})
        return FirstOrderOp._make(
            self.vars, {v: times_gaussian(coeff, re, im) for v, coeff in self.num.items()},
            self.den * den)

    def conjugate(self) -> "FirstOrderOp":
        """Complex conjugate of every coefficient (the variables are real)."""
        return FirstOrderOp._make(
            self.vars, {v: {e: (re, -im) for e, (re, im) in coeff.items()}
                        for v, coeff in self.num.items()},
            self.den)

    def is_zero(self) -> bool:
        return not self.num

    def commutator(self, other: "FirstOrderOp") -> "FirstOrderOp":
        """[self, other] = sum_v (self(c'_v) - other(c_v)) d_v, first order
        because the coefficient cross-terms cancel.

        Each coefficient is one dict over den * other.den: self applied to
        the numerators of c'_v and other, with mult -1, to those of c_v.  A
        constant coefficient is skipped, since no operator moves it.
        """
        self._check_compatible(other)
        out = {}
        for v in dict.fromkeys([*self.num, *other.num]):
            acc = out[v] = {}
            for op, num, mult in ((self, other.num.get(v), 1), (other, self.num.get(v), -1)):
                if num and not (len(num) == 1 and 0 in num):
                    op.apply_into(acc, num, mult)
        return FirstOrderOp._make(self.vars, out, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, FirstOrderOp):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(
            (v, frozenset(coeff.items())) for v, coeff in self.num.items())))

    def __str__(self):
        if not self.num:
            return "0"
        return " + ".join(f"({self.coefficient(name)}) d/d{name}"
                          for name in sorted(self.vars[v] for v in self.num))

    __repr__ = __str__
