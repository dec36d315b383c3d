"""First-order differential operators with polynomial coefficients, and their commutators.

An operator sum_v c_v(x) d/dv is a ``poly.Packed`` value: one numerator
dict over one ``den``, a key being a term's packed monomial plus the unit
of v, ``1 << BITS * v``, in the fields past the variable table
(``poly._past_table``), where a cutoff jet keeps its multi-index alpha.

The public constructor ``FirstOrderOp(vars, {name: Poly or scalar})`` checks
its input.  Sum, difference, negation and ``scale`` come from ``Packed``
and keep each key's d_v field, as ``conjugate`` does.  ``kernel`` lists the
dict as one row per differentiated variable, each term keyed by the int of
its monomial (0 for a constant), so one loop adds every term's key to a
lowered key.  ``apply`` runs ``apply_into`` over a ``Poly`` or over every
component of an ``ExtForm`` at once, and a commutator is two ``apply_into``
calls into one dict.  The API edge is ``coefficient`` and ``str``: only
they build a ``Poly`` of a coefficient, from the rows of ``kernel``.
"""

from __future__ import annotations

from collections.abc import Mapping

from .exterior import ExtForm
from .poly import (BITS, FIELD, GUARD, MAX_EXPONENT, Packed, Poly, _coefficient, _merge,
                   _past_table, _set, _split, add_term)


class FirstOrderOp(Packed):
    """sum_v  coeff_v(x) * d/dv, as one numerator dict (see the module docstring).

    :meth:`kernel` lists the dict as the per-variable rows every application
    (``apply_into``, and so ``apply``) reads.  It is built on first use,
    because most frame-building intermediates are never applied.
    """

    __slots__ = ("_view",)

    def __init__(self, variables, coeffs: Mapping):
        variables = tuple(variables)
        parts = {}
        for v, c in coeffs.items():
            if v not in variables:
                raise KeyError(f"unknown variable {v!r}")
            lift = _past_table(1 << BITS * variables.index(v), variables)
            parts[lift] = _coefficient(c, variables)
        num, den = _merge(parts)
        _set(self, "vars", variables)
        _set(self, "num", num)
        _set(self, "den", den)

    @classmethod
    def partial(cls, variables, name, coeff=1) -> "FirstOrderOp":
        return cls(variables, {name: coeff})

    def kernel(self) -> list:
        """[(shift, unit, [(key, re, im), ...]), ...], the rows of the dict.

        Each coefficient c_v becomes the bit offset ``BITS * v`` of v's
        field, the packed unit ``1 << shift`` of v and the ``(key, re, im)``
        terms of den * c_v, keyed by their monomials (0 for the constant
        term); the variables come in the order of the dict.
        """
        try:
            return self._view
        except AttributeError:
            _set(self, "_view", [
                (unit.bit_length() - 1, unit, [(key, re, im) for key, (re, im) in terms.items()])
                for unit, terms in _split(self.num, self.vars, True).items()])
            return self._view

    def apply_into(self, out: dict, num: dict, mult: int) -> dict:
        """Add mult * den * sum_v c_v d_v p, for p's numerators ``num`` and an
        int ``mult`` != 0, into the numerator dict ``out``; return ``out``.

        Each product goes in through ``poly.add_term``, so an entry that
        cancels to (0, 0) is deleted at once; the fields past the table of a
        key of ``num`` stay on its products.  A product with an exponent
        above ``poly.MAX_EXPONENT`` is a ValueError.
        """
        for shift, unit, terms in self.kernel():
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
                    prod = lowered + ckey
                    if prod & GUARD:
                        raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
                    add_term(out, prod, a * c - b * d, a * d + b * c)
        return out

    def apply(self, value: Packed) -> Packed:
        """This operator applied to a ``Poly``, or to every component of an
        ``ExtForm``, on its variable table: one ``apply_into`` pass over the
        value's terms."""
        if type(value) not in (Poly, ExtForm):
            raise TypeError(f"apply takes a Poly or an ExtForm, not {type(value).__name__}")
        self._check(value)
        return value._like(self.apply_into({}, value.num, 1), value.den * self.den)

    def coefficient(self, name: str) -> Poly:
        """c_name as a Poly; the zero Poly if the operator does not differentiate in it."""
        unit = 1 << BITS * self.vars.index(name)
        terms = next((terms for _, u, terms in self.kernel() if u == unit), ())
        return Poly._make(self.vars, {key: (re, im) for key, re, im in terms}, self.den)

    def conjugate(self) -> "FirstOrderOp":
        """Complex conjugate of every coefficient (the variables are real)."""
        return self._like({key: (re, -im) for key, (re, im) in self.num.items()}, self.den)

    def commutator(self, other: "FirstOrderOp") -> "FirstOrderOp":
        """[self, other] = sum_v (self(c'_v) - other(c_v)) d_v, first order
        because the coefficient cross-terms cancel.

        One dict over den * other.den: self applied to the numerators of
        other, and other, with mult -1, to those of self; each key keeps
        its d_v field.
        """
        self._check(other)
        out = self.apply_into({}, other.num, 1)
        return self._like(other.apply_into(out, self.num, -1), self.den * other.den)

    def __str__(self):
        if not self.num:
            return "0"
        return " + ".join(f"({self.coefficient(name)}) d/d{name}"
                          for name in sorted(self.vars[shift // BITS]
                                             for shift, _, _ in self.kernel()))

    __repr__ = __str__
