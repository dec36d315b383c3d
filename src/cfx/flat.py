"""The flat quaternionic complex on R^{4(n+1)}.

Levels are symmetric powers tensor exterior powers of C^{2(n+1)}; the three
operator branches act on slot fields in the descending basis below the
middle level and the ascending basis above it.  The operators run the
boundary machinery (``subcomplex_D``, ``frak_d``) on the ambient frame of
coordinate partials.  Everything here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import List, Sequence

from .boundary import Frame, ambient_frame, frak_d, subcomplex_D
from .exterior import ExtForm
from .linalg import bareiss
from .poly import Poly, x_vars
from .rational import ZERO, cq
from .spinor import LevelTable, SpinorField, symmetrize, tuple_to_slots


@dataclass(frozen=True)
class ComplexSpec(LevelTable):
    """The flat complex's level table at (n, k): 2n+2 form indices on R^{4(n+1)}.

    Any k >= 0 is accepted.  The symbol sequence is exact for 0 <= k <= 2n+1;
    for k >= 2n+2 only the top level fails (n = 1, k = 4: top rank 7 against
    dimension 8), which ``check_exactness`` reports.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0:
            raise ValueError("need n >= 1 and k >= 0")

    @property
    def form_dim(self) -> int:
        return 2 * self.n + 2

    @property
    def vars(self):
        return x_vars(4 * (self.n + 1))

    @cached_property
    def frame(self) -> Frame:
        """Rows of the ambient operator, built once per spec."""
        return ambient_frame(self.n)


def flat_D(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Apply the level-j operator to a slot field at level j."""
    spec._check_operator_level(j)
    spec.check_field(field, spec.shape(j), "field", j)
    return subcomplex_D(spec.frame, spec, j, field)


def flat_D_tuple(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Tuple-basis realization of the level-j operator."""
    spec._check_operator_level(j)
    if field.basis != "tuple":
        raise ValueError("expected tuple-basis field")
    if field.sigma != spec.sigma(j):
        raise ValueError("tuple field has wrong symmetric degree")
    frame = spec.frame
    if j < spec.k:
        comps = {}
        for idx in product((0, 1), repeat=spec.sigma(j + 1)):
            comps[idx] = (frak_d(0, field.tuples[(0,) + idx], frame)
                          + frak_d(1, field.tuples[(1,) + idx], frame))
        return SpinorField(spec.sigma(j + 1), "tuple", comps,
                           dim=field.dim, degree=field.degree + 1, variables=field.vars)
    if j == spec.k:
        out = frak_d(0, frak_d(1, field.tuples[()], frame), frame)
        return SpinorField(0, "tuple", {(): out})
    # ascending side: apply each derivation, append its index, then symmetrize
    s_out = spec.sigma(j + 1)
    comps = {idx: ExtForm.zero(field.dim, field.degree + 1, field.vars)
             for idx in product((0, 1), repeat=s_out)}
    for idx in product((0, 1), repeat=field.sigma):
        for aprime in (0, 1):
            target = (aprime,) + idx
            comps[target] = comps[target] + frak_d(aprime, field.tuples[idx], frame)
    raw = SpinorField(s_out, "tuple", comps)
    return symmetrize(raw)


def dot_pi(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Tuple -> slot isomorphism at level j (binomial weights above the middle)."""
    return tuple_to_slots(field, spec.basis_tag(j))


# -- symbol sequence -----------------------------------------------------------------


def _symbol_vectors(spec: ComplexSpec, v: Sequence) -> List[ExtForm]:
    """The two covector 1-forms obtained by freezing derivatives at v."""
    point = {f"x{i+1}": Fraction(v[i]) for i in range(len(v))}
    forms = []
    for aprime in (0, 1):
        comps = {}
        for row_idx, row in enumerate(spec.frame.Z_upper):
            # replace each derivative by the matching covector entry
            c = ZERO
            for var, p in row[aprime].coeffs.items():
                c = c + p.constant_term() * cq(point.get(var, 0))
            if not c.is_zero():
                comps[(row_idx,)] = Poly.const(spec.vars, c)
        forms.append(ExtForm(spec.form_dim, 1, spec.vars, comps))
    return forms


def _level_basis(spec: ComplexSpec, j: int):
    """Enumerated (slot, index-tuple) basis of level j."""
    s, d, _ = spec.shape(j)
    return [(a, idx) for a in range(s + 1) for idx in combinations(range(spec.form_dim), d)]


@dataclass
class SymbolMatrix:
    """Matrix of the frozen-coefficient operator at level j for covector v."""

    spec: ComplexSpec
    j: int
    v: tuple
    matrix: list  # rows: output basis, cols: input basis


def symbol_at(spec: ComplexSpec, j: int, v: Sequence) -> SymbolMatrix:
    """Matrix of the level-j symbol at covector v in the enumerated bases."""
    spec._check_operator_level(j)
    k = spec.k
    w0, w1 = _symbol_vectors(spec, v)
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
    """Exact rank of a ComplexRational matrix: ``bareiss`` on its rows, each
    cleared to Gaussian integers over its lcm denominator (a row scale keeps the rank)."""
    rows = []
    for row in matrix:
        den = math.lcm(*(part.denominator for x in row for part in (x.re, x.im)))
        rows.append([(x.re.numerator * (den // x.re.denominator),
                      x.im.numerator * (den // x.im.denominator)) for x in row])
    return bareiss(rows)[0]


def check_exactness(spec: ComplexSpec, v: Sequence) -> dict:
    """Pointwise exactness of the frozen-coefficient sequence at covector v.

    Checks injectivity at the bottom, the rank identities in the middle and
    surjectivity at the top; every rank is exact (``rank_exact``).
    """
    if all(Fraction(x) == 0 for x in v):
        raise ValueError("covector must be nonzero")
    top = spec.top_level
    ranks = [rank_exact(symbol_at(spec, j, v).matrix) for j in range(top)]
    dims = [spec.level_dim(j) for j in range(top + 1)]
    levels = [{"level": 0, "dim": dims[0], "exact": ranks[0] == dims[0],
               "detail": f"rank {ranks[0]} == dim {dims[0]}"}]
    for j in range(1, top):
        ok = ranks[j - 1] + ranks[j] == dims[j]
        levels.append({"level": j, "dim": dims[j], "exact": ok,
                       "detail": f"rank {ranks[j-1]} + rank {ranks[j]} == dim {dims[j]}"})
    levels.append({"level": top, "dim": dims[top], "exact": ranks[-1] == dims[top],
                   "detail": f"rank {ranks[-1]} == dim {dims[top]}"})
    return {
        "v": [str(Fraction(x)) for x in v],
        "dims": dims,
        "ranks": ranks,
        "levels": levels,
        "exact": all(lv["exact"] for lv in levels),
    }
