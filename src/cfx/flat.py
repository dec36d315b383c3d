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
from typing import Sequence

from .boundary import Frame, ambient_frame, frak_d, subcomplex_D
from .exterior import insert_index
from .linalg import bareiss
from .poly import add_term, x_vars
from .spinor import LevelTable, SpinorField, symmetrize, tuple_to_slots


@dataclass(frozen=True)
class ComplexSpec(LevelTable):
    """The flat complex's level table at (n, k): 2n+2 form indices on R^{4(n+1)}.

    Any k >= 0 is accepted.  The symbol sequence is exact for 0 <= k <= 2n+1;
    for k >= 2n+2 only the top level fails (n = 1, k = 4: top rank 7 against
    dimension 8), which ``check_exactness`` reports.
    """

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

    @cached_property
    def covector_table(self) -> tuple:
        """Per primed index a', per raised frame row: (position, re, im) ints.

        Freezing the row's partials at a covector v gives the row's entry
        sum (re + i im) v[position] of the symbol's 1-form w_{a'}.  The rows
        of the ambient frame have constant coefficients 1, -1, i or -i, so
        each kernel row of ``FirstOrderOp.kernel`` is one Gaussian-integer
        term over the denominator 1.
        """
        return tuple(
            tuple(tuple((position, re, im)
                        for position, ((_, re, im),) in row[aprime].kernel()[1])
                  for row in self.frame.Z_upper)
            for aprime in (0, 1))


def flat_D(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Apply the level-j operator to a slot field at level j."""
    spec._check_operator_level(j)
    spec.check_field(field, spec.shape(j), "field", j)
    return subcomplex_D(spec.frame, spec, j, field)


def flat_D_tuple(spec: ComplexSpec, j: int, tuples: dict) -> dict:
    """Tuple realization of the level-j operator on a dict {primed multi-index: ExtForm}."""
    spec._check_operator_level(j)
    if set(tuples) != set(product((0, 1), repeat=spec.sigma(j))):
        raise ValueError(f"level {j} tuple field needs every primed multi-index"
                         f" of length {spec.sigma(j)}")
    frame = spec.frame
    out_indices = product((0, 1), repeat=spec.sigma(j + 1))
    if j < spec.k:
        return {idx: frak_d(0, tuples[(0,) + idx], frame) + frak_d(1, tuples[(1,) + idx], frame)
                for idx in out_indices}
    if j == spec.k:
        return {(): frak_d(0, frak_d(1, tuples[()], frame), frame)}
    # ascending side: target (a',) + idx is derivation a' of component idx,
    # then symmetrize
    return symmetrize({idx: frak_d(idx[0], tuples[idx[1:]], frame) for idx in out_indices})


def dot_pi(spec: ComplexSpec, j: int, tuples: dict) -> SpinorField:
    """Tuple -> slot isomorphism at level j (binomial weights above the middle)."""
    return tuple_to_slots(tuples, spec.basis_tag(j))


# -- symbol sequence -----------------------------------------------------------------


def _level_basis(spec: ComplexSpec, j: int):
    """Enumerated (slot, index-tuple) basis of level j."""
    s, d, _ = spec.shape(j)
    return [(a, idx) for a in range(s + 1) for idx in combinations(range(spec.form_dim), d)]


def _wedge_covector(w: list, idx: tuple) -> list:
    """w ^ w^idx for a 1-form w given as one (re, im) int pair per index,
    as (merged index, re, im) terms; each w^r ^ w^idx is
    ``exterior.insert_index``."""
    out = []
    for r, (re, im) in enumerate(w):
        if re or im:
            inserted = insert_index(r, idx)
            if inserted is not None:
                sign, out_idx = inserted
                out.append((out_idx, sign * re, sign * im))
    return out


def symbol_at(spec: ComplexSpec, j: int, v: Sequence) -> list:
    """Rows of the level-j symbol matrix at q v in the enumerated bases.

    q is the least common denominator of v, so q v is an integer covector
    and every entry is a Gaussian integer.  Each row, one per basis element
    of level j + 1, is a sparse ``{column: (re, im)}`` dict of int pairs
    that holds no ``(0, 0)``, the rows ``linalg.bareiss`` takes.
    The symbol is homogeneous in v of order ord (2 at j = k, 1 elsewhere), so
    the matrix is q^ord times the symbol at v and has the same rank.  The
    two covector 1-forms w_{a'} come from ``ComplexSpec.covector_table``; each
    column is w_{a'} ^ e_idx placed in its slots (w_0 ^ w_1 ^ e_idx at j = k).
    """
    spec._check_operator_level(j)
    k = spec.k
    v = tuple(Fraction(x) for x in v)
    if len(v) != 4 * (spec.n + 1):
        raise ValueError(f"covector needs {4 * (spec.n + 1)} entries, not {len(v)}")
    q = math.lcm(*(x.denominator for x in v))
    qv = [x.numerator * (q // x.denominator) for x in v]
    w0, w1 = ([(sum(re * qv[pos] for pos, re, _ in row), sum(im * qv[pos] for pos, _, im in row))
               for row in rows] for rows in spec.covector_table)
    in_basis = _level_basis(spec, j)
    out_basis = _level_basis(spec, j + 1)
    out_pos = {key: i for i, key in enumerate(out_basis)}
    matrix = [{} for _ in out_basis]
    for col, (a, idx) in enumerate(in_basis):
        if j == k:
            image = {}
            for mid, re1, im1 in _wedge_covector(w1, idx):
                for out, re0, im0 in _wedge_covector(w0, mid):
                    add_term(image, out, re0 * re1 - im0 * im1, re0 * im1 + im0 * re1)
            for out, value in image.items():
                matrix[out_pos[(0, out)]][col] = value
            continue
        if j < k:
            slots = [(a, w0)] if a <= spec.sigma(j + 1) else []
            if a >= 1:
                slots.append((a - 1, w1))
        else:
            slots = [(a, w0), (a + 1, w1)]
        for slot, w in slots:
            for out, re, im in _wedge_covector(w, idx):
                matrix[out_pos[(slot, out)]][col] = (re, im)
    return matrix


def rank_exact(rows: list) -> int:
    """Exact rank of a matrix of Gaussian integers given as sparse
    ``{column: (re, im)}`` rows, such as ``symbol_at`` returns: the rank
    ``bareiss`` returns."""
    return bareiss(rows)


def check_exactness(spec: ComplexSpec, v: Sequence) -> dict:
    """Pointwise exactness of the frozen-coefficient sequence at covector v.

    Checks injectivity at the bottom, the rank identities in the middle and
    surjectivity at the top; every rank is exact (``rank_exact``).  v must be
    nonzero with 4(n+1) entries; ``symbol_at`` rejects any other length.
    """
    if all(Fraction(x) == 0 for x in v):
        raise ValueError("covector must be nonzero")
    top = spec.top_level
    ranks = [rank_exact(symbol_at(spec, j, v)) for j in range(top)]
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
