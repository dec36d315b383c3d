"""The flat quaternionic complex on R^{4(n+1)}.

Levels are symmetric powers tensor exterior powers of C^{2(n+1)}: slot fields
in the descending basis up to the middle level, the ascending basis above,
shaped by the level table alone.  ``flat_D`` is ``subcomplex_D`` on the
ambient frame of coordinate partials; the operators and the symbol read one
slot rule, ``LevelTable.slot_rule``, and one row table, ``Frame.field_table``.
Everything here is exact: ``check_exactness`` proves each rank it reports,
from the exact products σ_{j+1}σ_j = 0, lower bounds mod a prime and the
rank sum of each level.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

from .boundary import Frame, ambient_frame, frak_d, subcomplex_D
from .exterior import wedge_sign
from .linalg import bareiss, rank_mod_p, zero_products
from .poly import add_term
from .rational import clear_denominators, exact_fraction
from .spinor import LevelTable, SpinorField, symmetrize


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
        return self.frame.vars

    @property
    def frame(self) -> Frame:
        """Rows of the ambient operator: ``ambient_frame(n)``, built once per n."""
        return ambient_frame(self.n)


def flat_D(spec: ComplexSpec, j: int, field: SpinorField) -> SpinorField:
    """Apply the level-j operator to a slot field at level j."""
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


# -- symbol sequence -----------------------------------------------------------------


def symbol_at(spec: ComplexSpec, j: int, v: Sequence) -> list:
    """Rows of the level-j symbol matrix at q v in the enumerated bases.

    q is the least common denominator of v, so q v is an integer covector
    and every entry is a Gaussian integer.  Each row, one per element of
    ``spec.basis(j + 1)``, is a sparse ``{column: (re, im)}`` dict of int
    pairs that holds no ``(0, 0)``, the rows ``linalg.bareiss`` takes.  The
    symbol is homogeneous in v of order ord (2 at j = k, 1 elsewhere), so
    the matrix is q^ord times the symbol at v and has the same rank.
    Row r of w_{a'} is sum_v (q v)_v c_v over row r's entries in
    ``Frame.field_table(a')``, which ``frak_d`` reads (L = 1); column
    (a, mask) of ``spec.symbol_table(j)`` puts w_p ^ e_mask in slot b for
    each (a, (p,)) of ``spec.slot_rule(j)[b]``, and w_0 ^ w_1 ^ e_mask for
    the middle level's one entry (0, (0, 1)), with the signs of
    ``exterior.wedge_sign``.  Slot a reaches slot b by at most one p, so
    each one-step entry, wedge_sign(mask, r) times w_p[r] at index
    mask | 1 << r, is written once, straight into its row; only the middle
    level's products, w_1[r1] then w_0[r0], merge there by ``add_term``.
    """
    spec._check_operator_level(j)
    v = tuple(map(exact_fraction, v))
    if len(v) != 4 * (spec.n + 1):
        raise ValueError(f"covector needs {4 * (spec.n + 1)} entries, not {len(v)}")
    qv = clear_denominators(v)[1]
    w = []
    for aprime in (0, 1):
        form: dict = {}
        for x, entries in zip(qv, spec.frame.field_table(aprime)[1]):
            for r, _, terms in entries:
                for _, c, d in terms:
                    add_term(form, r, x * c, x * d)
        w.append(sorted((r, re, im) for r, (re, im) in form.items()))
    rule = spec.slot_rule(j)
    reach = [[(b, path) for b, terms in enumerate(rule) for a, path in terms if a == slot]
             for slot in range(spec.sigma(j) + 1)]
    columns, rows = spec.symbol_table(j)
    matrix = [{} for _ in rows]
    middle = j == spec.k
    for col, (a, mask) in enumerate(columns):
        for b, path in reach[a]:
            if middle:  # path (0, 1): w_0 ^ w_1 ^ e_mask, w_1 first
                for (r1, re1, im1), (r0, re0, im0) in product(w[path[1]], w[path[0]]):
                    mid = mask | 1 << r1
                    if not (mask >> r1 & 1 or mid >> r0 & 1):
                        sign = wedge_sign(mask, r1) * wedge_sign(mid, r0)
                        add_term(matrix[rows[b, mid | 1 << r0]], col,
                                 sign * (re1 * re0 - im1 * im0), sign * (re1 * im0 + im1 * re0))
                continue
            for r, re, im in w[path[0]]:
                if not mask >> r & 1:
                    sign = wedge_sign(mask, r)
                    matrix[rows[b, mask | 1 << r]][col] = (sign * re, sign * im)
    return matrix


def check_exactness(spec: ComplexSpec, v: Sequence) -> dict:
    """Pointwise exactness of the frozen-coefficient sequence at covector v.

    Level j is exact when σ_j σ_{j−1} = 0 and the ranks r_{j−1} of σ_{j−1}
    and r_j of σ_j sum to its dimension dim_j: injectivity at the bottom,
    the rank identities in the middle and surjectivity at the top, where
    one symbol is missing (r_{−1} = r_top = 0, and the missing products are
    0).  Every product is checked exactly (``linalg.zero_products``) and
    every reported rank is exact.  ``linalg.rank_mod_p`` gives a lower
    bound ℓ_j ≤ r_j; where σ_j σ_{j−1} = 0, r_{j−1} + r_j ≤ dim_j, so
    ℓ_{j−1} + ℓ_j = dim_j pins both ranks: the level closes.  Only a rank
    that no closed level pins is computed by ``linalg.bareiss``.  A level
    whose product is nonzero is not exact, and its detail says so.  v must
    be nonzero with 4(n+1) entries, each an int or a Fraction, read once
    (``rational.exact_fraction``); ``symbol_at`` rejects any other length.
    """
    v = tuple(map(exact_fraction, v))
    if not any(v):
        raise ValueError("covector must be nonzero")
    top = spec.top_level
    symbols = [symbol_at(spec, j, v) for j in range(top)]
    dims = [spec.level_dim(j) for j in range(top + 1)]
    # composes[j]: σ_j σ_{j−1} = 0, the premise of the rank sum at level j
    composes = [True, *zero_products(symbols), True]
    # lows[j + 1] <= r_j; the missing symbols have rank 0
    lows = [0, *map(rank_mod_p, symbols), 0]
    pinned = {i for j in range(top + 1)
              if composes[j] and lows[j] + lows[j + 1] == dims[j] for i in (j - 1, j)}
    ranks = [lows[j + 1] if j in pinned else bareiss(symbols[j]) for j in range(top)]
    levels = []
    for j in range(top + 1):
        used = ranks[max(j - 1, 0):j + 1]
        sums = " + ".join(f"rank {r}" for r in used)
        full = sum(used) == dims[j]
        detail = (f"{sums} {'==' if full else '!='} dim {dims[j]}" if composes[j] else
                  f"sigma_{j} sigma_{j - 1} != 0 ({sums}, dim {dims[j]})")
        levels.append({"level": j, "dim": dims[j], "exact": composes[j] and full,
                       "detail": detail})
    return {
        "v": [str(x) for x in v],
        "dims": dims,
        "ranks": ranks,
        "levels": levels,
        "exact": all(lv["exact"] for lv in levels),
    }
