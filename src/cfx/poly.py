"""Sparse multivariate polynomials over exact complex rationals.

A polynomial is a map from dense exponent vectors (one slot per variable in
a fixed, ordered variable table) to nonzero ComplexRational coefficients.
Two polynomials can be combined only when their variable tables agree; all
arithmetic is exact.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .rational import ComplexRational, ONE, ZERO, cq


def x_vars(m: int) -> tuple:
    """Variable table x1..xm."""
    return tuple(f"x{i}" for i in range(1, m + 1))


def group_vars(n: int) -> tuple:
    """Variable table x1..x_{4n}, t1..t3 for a step-two group of H-dimension n."""
    return tuple(f"x{i}" for i in range(1, 4 * n + 1)) + ("t1", "t2", "t3")


class Poly:
    """Sparse polynomial in named real variables with ComplexRational coefficients.

    ``terms`` maps exponent tuples (length = number of variables) to nonzero
    coefficients; the zero polynomial has no terms.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        if terms:
            width = len(self.vars)
            for expo, coeff in terms.items():
                coeff = cq(coeff)
                if coeff.is_zero():
                    continue
                expo = tuple(int(e) for e in expo)
                if len(expo) != width:
                    raise ValueError(
                        f"exponent vector {expo} does not match variable table of size {width}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                clean[expo] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables, value) -> "Poly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): cq(value)})

    @classmethod
    def var(cls, variables, name, coeff=1) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise KeyError(f"unknown variable {name!r}")
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): cq(coeff)})

    @classmethod
    def monomial(cls, variables, exponents, coeff=1) -> "Poly":
        return cls(variables, {tuple(exponents): cq(coeff)})

    # -- ring operations -------------------------------------------------------

    def _check_compatible(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError(f"variable tables differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = terms.get(expo, ZERO) + coeff
            if acc.is_zero():
                terms.pop(expo, None)
            else:
                terms[expo] = acc
        return Poly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(self.vars, other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_compatible(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(expo, ZERO) + c1 * c2
                if acc.is_zero():
                    out.pop(expo, None)
                else:
                    out[expo] = acc
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def scale(self, value) -> "Poly":
        value = cq(value)
        if value.is_zero():
            return Poly.zero(self.vars)
        return Poly(self.vars, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power")
        result = Poly.const(self.vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conjugate(self) -> "Poly":
        """Complex conjugate (the variables are real)."""
        return Poly(self.vars, {e: c.conjugate() for e, c in self.terms.items()})

    # -- calculus ---------------------------------------------------------------

    def diff(self, name: str) -> "Poly":
        """Exact partial derivative with respect to a named variable."""
        if name not in self.vars:
            raise KeyError(f"unknown variable {name!r}")
        idx = self.vars.index(name)
        out = {}
        for expo, coeff in self.terms.items():
            e = expo[idx]
            if e == 0:
                continue
            new = list(expo)
            new[idx] = e - 1
            out[tuple(new)] = coeff * e
        return Poly(self.vars, out)

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents) -> ComplexRational:
        return self.terms.get(tuple(exponents), ZERO)

    def constant_term(self) -> ComplexRational:
        return self.terms.get((0,) * len(self.vars), ZERO)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def eval_exact(self, point) -> ComplexRational:
        """Evaluate at a point of Fractions/ComplexRationals, exactly."""
        total = ZERO
        for expo, coeff in self.terms.items():
            m = ONE
            for p, e in zip(point, expo):
                for _ in range(e):
                    m = m * cq(p)
            total = total + coeff * m
        return total

    # -- display / wire format -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[expo]
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, expo)
                if e > 0
            ]
            body = "*".join(factors)
            if body:
                parts.append(f"{coeff}*{body}")
            else:
                parts.append(str(coeff))
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> dict:
        terms = [
            {"c": coeff.to_json(), "e": list(expo)}
            for expo, coeff in sorted(self.terms.items())
        ]
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "Poly":
        """Inverse of :meth:`to_json`; ValueError on any other shape."""
        try:
            terms = [(tuple(item["e"]), ComplexRational.from_json(item["c"]))
                     for item in data["terms"]]
            bad = [e for expo, _ in terms for e in expo if type(e) is not int]
            if bad:
                raise ValueError(f"exponents must be JSON integers, not {bad[0]!r}")
            return cls(tuple(data["vars"]), dict(terms))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc!r}") from None


def poly_diff(p: Poly, var: str) -> Poly:
    """Module-level alias for :meth:`Poly.diff`."""
    return p.diff(var)


def flat_laplacian(p: Poly, names: Iterable[str] | None = None) -> Poly:
    """Sum of second partials over ``names`` (all variables by default)."""
    names = tuple(names) if names is not None else p.vars
    out = Poly.zero(p.vars)
    for name in names:
        out = out + p.diff(name).diff(name)
    return out
