"""The flat quaternionic complex on R^{4(n+1)}.

Levels are symmetric powers tensor exterior powers of C^{2(n+1)}: slot fields
in the descending basis up to the middle level, the ascending basis above.
The operators run the boundary machinery (``subcomplex_D``, ``frak_d``) on
the ambient frame of coordinate partials; they and the symbol read one slot
rule, ``LevelTable.slot_rule``, and one row table.  Everything here is exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import product

from .boundary import Frame, ambient_frame, frak_d, subcomplex_D
from .exterior import insertions
from .linalg import bareiss
from .poly import add_term, x_vars
from .spinor import LevelTable, SpinorField, symmetrize, tuple_to_slots


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


def _wedge_path(w: list, path: tuple, idx: tuple, dim: int) -> dict:
    """w_{p_1} ^ ... ^ w_{p_m} ^ e_idx for the path (p_1, ..., p_m), last w
    first, as {index: (re, im)}; ``w[p]`` lists (row, re, im) of w_p."""
    terms = {idx: (1, 0)}
    for p in reversed(path):
        terms, prev = {}, terms
        for mid, (x, y) in prev.items():
            table = insertions(dim, mid)
            for r, re, im in w[p]:
                if table[r] is not None:
                    sign, out = table[r]
                    add_term(terms, out, sign * (x * re - y * im), sign * (x * im + y * re))
    return terms


def symbol_at(spec: ComplexSpec, j: int, v: Sequence) -> list:
    """Rows of the level-j symbol matrix at q v in the enumerated bases.

    q is the least common denominator of v, so q v is an integer covector
    and every entry is a Gaussian integer.  Each row, one per element of
    ``spec.basis(j + 1)``, is a sparse ``{column: (re, im)}`` dict of int
    pairs that holds no ``(0, 0)``, the rows ``linalg.bareiss`` takes.  The
    symbol is homogeneous in v of order ord (2 at j = k, 1 elsewhere), so
    the matrix is q^ord times the symbol at v and has the same rank.
    Row r of w_{a'} is row r of ``Frame.row_table(a', True)``, which
    ``frak_d`` reads, its constant partials frozen at q v (L = 1); column
    (a, idx) puts w_{p_1} ^ ... ^ e_idx in slot b for each (a, path) of
    ``spec.slot_rule(j)[b]``, with the signs of ``exterior.insertions``.
    """
    spec._check_operator_level(j)
    v = tuple(Fraction(x) for x in v)
    if len(v) != 4 * (spec.n + 1):
        raise ValueError(f"covector needs {4 * (spec.n + 1)} entries, not {len(v)}")
    q = math.lcm(*(x.denominator for x in v))
    qv = [x.numerator * (q // x.denominator) for x in v]
    w = [[], []]
    for aprime, form in enumerate(w):
        for r, (op, scale, _) in enumerate(spec.frame.row_table(aprime, True)[1]):
            parts = [(scale * qv[var], c) for var, coeff in op.num.items() for c in coeff.values()]
            re, im = sum(x * c for x, (c, _) in parts), sum(x * d for x, (_, d) in parts)
            if re or im:
                form.append((r, re, im))
    rule = spec.slot_rule(j)
    reach = [[(b, path) for b, terms in enumerate(rule) for a, path in terms if a == slot]
             for slot in range(spec.sigma(j) + 1)]
    out_pos = {key: i for i, key in enumerate(spec.basis(j + 1))}
    matrix = [{} for _ in out_pos]
    for col, (a, idx) in enumerate(spec.basis(j)):
        for b, path in reach[a]:
            for out, (re, im) in _wedge_path(w, path, idx, spec.form_dim).items():
                add_term(matrix[out_pos[b, out]], col, re, im)
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
