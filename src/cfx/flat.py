"""The flat quaternionic complex on R^{4(n+1)}.

Levels are symmetric powers tensor exterior powers of C^{2(n+1)}; the three
operator branches act on slot fields in the descending basis below the
middle level and the ascending basis above it.  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Sequence

from .exterior import ExtForm
from .linalg import echelon
from .poly import Poly, x_vars
from .rational import ComplexRational, I, ONE, ZERO, cq
from .spinor import SpinorField, symmetrize


class ConstCoeffOp:
    """First-order differential operator with constant complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[str, ComplexRational]):
        self.coeffs = {v: cq(c) for v, c in coeffs.items() if not cq(c).is_zero()}

    def apply(self, p: Poly) -> Poly:
        out = Poly.zero(p.vars)
        for var, c in self.coeffs.items():
            out = out + p.diff(var).scale(c)
        return out

    def __neg__(self):
        return ConstCoeffOp({v: -c for v, c in self.coeffs.items()})

    def symbol(self, point: Dict[str, Fraction]) -> ComplexRational:
        """Replace each derivative by the matching covector entry."""
        total = ZERO
        for var, c in self.coeffs.items():
            total = total + c * cq(point.get(var, 0))
        return total


def nabla_lowered(n: int) -> List[List[ConstCoeffOp]]:
    """(2n+2) x 2 matrix of first-order operators on x1..x_{4(n+1)}.

    Row 2l:   ( d_{4l+1} + i d_{4l+2},  -d_{4l+3} - i d_{4l+4} )
    Row 2l+1: ( d_{4l+3} - i d_{4l+4},   d_{4l+1} - i d_{4l+2} )
    """
    rows = []
    for l in range(n + 1):
        b = 4 * l
        rows.append([
            ConstCoeffOp({f"x{b+1}": ONE, f"x{b+2}": I}),
            ConstCoeffOp({f"x{b+3}": -ONE, f"x{b+4}": -I}),
        ])
        rows.append([
            ConstCoeffOp({f"x{b+3}": ONE, f"x{b+4}": -I}),
            ConstCoeffOp({f"x{b+1}": ONE, f"x{b+2}": -I}),
        ])
    return rows


def nabla_raised(n: int) -> List[List[ConstCoeffOp]]:
    """Raised-index version: column 0 is the lowered column 1, column 1 its negative column 0."""
    lowered = nabla_lowered(n)
    return [[row[1], -row[0]] for row in lowered]


def d_upper(aprime: int, f: ExtForm, n: int) -> ExtForm:
    """Raised-index exterior-type operator on forms over C^{2(n+1)}."""
    return _apply_rows(nabla_raised(n), aprime, f, 2 * n + 2)


def d_lower(aprime: int, f: ExtForm, n: int) -> ExtForm:
    return _apply_rows(nabla_lowered(n), aprime, f, 2 * n + 2)


def _apply_rows(rows, aprime: int, f: ExtForm, dim: int) -> ExtForm:
    if aprime not in (0, 1):
        raise ValueError("primed index must be 0 or 1")
    if f.dim != dim:
        raise ValueError(f"form dimension {f.dim} does not match operator dimension {dim}")
    out = ExtForm.zero(f.dim, f.degree + 1, f.vars)
    if f.degree + 1 > f.dim:
        return out
    for row_idx, row in enumerate(rows):
        op = row[aprime]
        applied = f.map_coeffs(op.apply)
        if applied.is_zero():
            continue
        basis = ExtForm.basis(f.dim, (row_idx,), f.vars)
        out = out + basis.wedge(applied)
    return out


@dataclass(frozen=True)
class ComplexSpec:
    """Level bookkeeping (n, k): symmetric degree and form degree per level."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0:
            raise ValueError("need n >= 1 and k >= 0")

    @property
    def levels(self) -> int:
        return 2 * self.n + 2

    @property
    def form_dim(self) -> int:
        return 2 * self.n + 2

    @property
    def vars(self):
        return x_vars(4 * (self.n + 1))

    def sigma(self, j: int) -> int:
        self._check_level(j)
        return self.k - j if j <= self.k else j - self.k - 1

    def tau(self, j: int) -> int:
        self._check_level(j)
        return j if j <= self.k else j + 1

    def basis_tag(self, j: int) -> str:
        return "S" if j <= self.k else "tilde"

    def level_dim(self, j: int) -> int:
        return (self.sigma(j) + 1) * comb(self.form_dim, self.tau(j))

    def _check_level(self, j: int):
        if not 0 <= j <= 2 * self.n + 1:
            raise ValueError(f"level {j} out of range 0..{2 * self.n + 1}")

    def _check_operator_level(self, j: int):
        if not 0 <= j <= 2 * self.n:
            raise ValueError(f"operator level {j} out of range 0..{2 * self.n}")


def flat_D(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Apply the level-j operator to a slot field at level j."""
    spec._check_operator_level(j)
    _check_field(spec, j, field)
    n = spec.n
    if j < spec.k:
        # slot b of the output picks up d^0 of slot b and d^1 of slot b+1
        slots = [
            d_upper(0, field.slot(b), n) + d_upper(1, field.slot(b + 1), n)
            for b in range(spec.sigma(j + 1) + 1)
        ]
        return SpinorField(spec.sigma(j + 1), "S", slots)
    if j == spec.k:
        out = d_upper(0, d_upper(1, field.slot(0), n), n)
        return SpinorField(0, spec.basis_tag(j + 1), [out])
    slots = [
        d_upper(0, field.slot(b), n) + d_upper(1, field.slot(b - 1), n)
        for b in range(spec.sigma(j + 1) + 1)
    ]
    return SpinorField(spec.sigma(j + 1), "tilde", slots)


def make_Dj(spec: ComplexSpec, j: int):
    """Operator at level j as a callable on slot fields."""
    spec._check_operator_level(j)
    return lambda field: flat_D(spec, j, field)


def flat_D_tuple(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Tuple-basis realization of the level-j operator."""
    spec._check_operator_level(j)
    if field.basis != "tuple":
        raise ValueError("expected tuple-basis field")
    if field.sigma != spec.sigma(j):
        raise ValueError("tuple field has wrong symmetric degree")
    n = spec.n
    if j < spec.k:
        comps = {}
        from itertools import product as iproduct
        for idx in iproduct((0, 1), repeat=spec.sigma(j + 1)):
            comps[idx] = (d_upper(0, field.tuples[(0,) + idx], n)
                          + d_upper(1, field.tuples[(1,) + idx], n))
        return SpinorField(spec.sigma(j + 1), "tuple", comps,
                           dim=field.dim, degree=field.degree + 1, variables=field.vars)
    if j == spec.k:
        out = d_upper(0, d_upper(1, field.tuples[()], n), n)
        return SpinorField(0, "tuple", {(): out})
    # ascending side: apply each derivation, append its index, then symmetrize
    from itertools import product as iproduct
    s_out = spec.sigma(j + 1)
    comps = {idx: ExtForm.zero(field.dim, field.degree + 1, field.vars)
             for idx in iproduct((0, 1), repeat=s_out)}
    for idx in iproduct((0, 1), repeat=field.sigma):
        for aprime in (0, 1):
            target = (aprime,) + idx
            comps[target] = comps[target] + d_upper(aprime, field.tuples[idx], n)
    raw = SpinorField(s_out, "tuple", comps)
    return symmetrize(raw)


def dot_pi(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Tuple -> slot isomorphism at level j (binomial weights above the middle)."""
    from .spinor import tuple_to_slots
    return tuple_to_slots(field, spec.basis_tag(j))


def _check_field(spec: ComplexSpec, j: int, field: SpinorField):
    if field.basis == "tuple":
        raise ValueError("slot operator got a tuple field; use flat_D_tuple")
    if field.sigma != spec.sigma(j):
        raise ValueError(
            f"field sigma {field.sigma} does not match level {j} (expected {spec.sigma(j)})")
    if field.degree != spec.tau(j):
        raise ValueError(
            f"field degree {field.degree} does not match level {j} (expected {spec.tau(j)})")
    if field.dim != spec.form_dim:
        raise ValueError("field dimension mismatch")
    expected = spec.basis_tag(j)
    if field.sigma > 0 and field.basis != expected:
        raise ValueError(f"level {j} uses the {expected} basis")


# -- symbol sequence -----------------------------------------------------------------


def _symbol_vectors(n: int, v: Sequence) -> List[ExtForm]:
    """The two covector 1-forms obtained by freezing derivatives at v."""
    variables = x_vars(4 * (n + 1))
    point = {f"x{i+1}": Fraction(v[i]) for i in range(len(v))}
    rows = nabla_raised(n)
    forms = []
    for aprime in (0, 1):
        comps = {}
        for row_idx, row in enumerate(rows):
            c = row[aprime].symbol(point)
            if not c.is_zero():
                comps[(row_idx,)] = Poly.const(variables, c)
        forms.append(ExtForm(2 * n + 2, 1, variables, comps))
    return forms


def _level_basis(spec: ComplexSpec, j: int):
    """Enumerated (slot, index-tuple) basis of level j."""
    return [(a, idx) for a in range(spec.sigma(j) + 1)
            for idx in combinations(range(spec.form_dim), spec.tau(j))]


@dataclass
class SymbolMatrix:
    """Matrix of the frozen-coefficient operator at level j for covector v."""

    spec: ComplexSpec
    j: int
    v: tuple
    matrix: list  # rows: output basis, cols: input basis

    @property
    def shape(self):
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)


def symbol_at(spec: ComplexSpec, j: int, v: Sequence) -> SymbolMatrix:
    """Matrix of the level-j symbol at covector v in the enumerated bases."""
    spec._check_operator_level(j)
    n, k = spec.n, spec.k
    w0, w1 = _symbol_vectors(n, v)
    in_basis = _level_basis(spec, j)
    out_basis = _level_basis(spec, j + 1)
    out_pos = {key: i for i, key in enumerate(out_basis)}
    cols = []
    for a, idx in in_basis:
        base = ExtForm.basis(spec.form_dim, idx, spec.vars)
        images = {}
        if j < k:
            if a <= spec.sigma(j + 1):
                images[a] = w0.wedge(base)
            if a - 1 >= 0:
                images[a - 1] = _accumulate(images.get(a - 1), w1.wedge(base))
        elif j == k:
            images[0] = w0.wedge(w1.wedge(base))
        else:
            images[a] = w0.wedge(base)
            images[a + 1] = _accumulate(images.get(a + 1), w1.wedge(base))
        col = [ZERO] * len(out_basis)
        for slot, form in images.items():
            if form is None:
                continue
            for out_idx, coeff in form.comps.items():
                col[out_pos[(slot, out_idx)]] = coeff.constant_term()
        cols.append(col)
    matrix = [[cols[c][r] for c in range(len(cols))] for r in range(len(out_basis))]
    return SymbolMatrix(spec, j, tuple(Fraction(x) for x in v), matrix)


def _accumulate(existing, feed):
    return feed if existing is None else existing + feed


def rank_exact(matrix: list) -> int:
    """Rank over the exact complex rationals."""
    return echelon(matrix)[0]


def check_exactness(spec: ComplexSpec, v: Sequence) -> dict:
    """Pointwise exactness of the frozen-coefficient sequence at covector v.

    Checks injectivity at the bottom, the rank identities in the middle and
    surjectivity at the top; everything over exact rationals.
    """
    if all(Fraction(x) == 0 for x in v):
        raise ValueError("covector must be nonzero")
    n = spec.n
    symbols = [symbol_at(spec, j, v) for j in range(2 * n + 1)]
    ranks = [rank_exact(s.matrix) for s in symbols]
    dims = [spec.level_dim(j) for j in range(2 * n + 2)]
    levels = []
    levels.append({"level": 0, "dim": dims[0], "exact": ranks[0] == dims[0],
                   "detail": f"rank {ranks[0]} == dim {dims[0]}"})
    for j in range(1, 2 * n + 1):
        ok = ranks[j - 1] + ranks[j] == dims[j]
        levels.append({"level": j, "dim": dims[j], "exact": ok,
                       "detail": f"rank {ranks[j-1]} + rank {ranks[j]} == dim {dims[j]}"})
    top = 2 * n + 1
    levels.append({"level": top, "dim": dims[top], "exact": ranks[-1] == dims[top],
                   "detail": f"rank {ranks[-1]} == dim {dims[top]}"})
    return {
        "v": [str(Fraction(x)) for x in v],
        "dims": dims,
        "ranks": ranks,
        "levels": levels,
        "exact": all(lv["exact"] for lv in levels),
    }
