"""Tests of the symbol sequence.

Each quantity has one reference:

- the symbol matrix (``symbol_at``): ``reference_symbol``, the construction
  ``symbol_at`` had before it built integer rows (the two covector 1-forms as
  ``ExtForm``s with ``ComplexRational`` coefficients, every column a wedge of
  ``ExtForm``s), in ``test_integer_rows_match_the_extform_reference``; the
  operator it is the symbol of, ``flat_D`` on powers of the covector, in
  ``test_symbol_columns_are_the_operator_on_covector_powers``;
- its rank (``bareiss``, and the ranks ``check_exactness`` proves):
  ``dense_rank`` from ``tests/test_linalg.py`` on ``dense_symbol``, in
  ``test_symbol_ranks_match_the_dense_reference`` and
  ``test_n3_symbol_ranks_match_the_dense_reference``;
- the product of two consecutive symbols (``is_zero_product``):
  ``gaussian_product`` from ``tests/test_linalg.py`` on ``dense_symbol``, in
  ``test_consecutive_symbols_compose_to_zero`` and
  ``test_one_flipped_entry_breaks_the_composition``.
"""

import json
import math
from fractions import Fraction
from itertools import combinations

import pytest

from cfx import boundary, flat, linalg
from cfx.boundary import BoundarySpec
from cfx.cli import main
from cfx.exterior import ExtForm
from cfx.flat import ComplexSpec, check_exactness, flat_D, symbol_at
from cfx.groups import GroupSpec
from cfx.linalg import bareiss, is_zero_product
from cfx.poly import Poly
from cfx.randgen import SectionGenerator
from cfx.spinor import LevelTable, SpinorField
from cfx.verify import boundary_composition_suite, flat_composition_suite
from test_exterior import basis_form
from test_linalg import dense_rank, gaussian_product, sparse
from test_operators import coeffs
from test_poly import constant_term
from test_rational import ZERO, cq, pair


def reference_symbol(spec, j, v):
    """ComplexRational matrix of the level-j symbol at v, by ExtForm wedges."""
    point = {f"x{i+1}": Fraction(v[i]) for i in range(len(v))}
    forms = []
    for aprime in (0, 1):
        comps = {}
        for row_idx, row in enumerate(spec.frame.Z_upper):
            # replace each derivative by the matching covector entry
            c = ZERO
            for var, p in coeffs(row[aprime]).items():
                c = c + constant_term(p) * cq(point.get(var, 0))
            if not c.is_zero():
                comps[(row_idx,)] = Poly.const(spec.vars, pair(c))
        forms.append(ExtForm(spec.form_dim, 1, spec.vars, comps))
    w0, w1 = forms

    def basis(level):
        s, d, _ = spec.shape(level)
        return [(a, idx) for a in range(s + 1)
                for idx in combinations(range(spec.form_dim), d)]

    in_basis, out_basis = basis(j), basis(j + 1)
    out_pos = {key: i for i, key in enumerate(out_basis)}
    matrix = [[ZERO] * len(in_basis) for _ in out_basis]
    for col, (a, idx) in enumerate(in_basis):
        base = basis_form(spec.form_dim, idx, spec.vars)
        images = {}
        if j < spec.k:
            if a <= spec.sigma(j + 1):
                images[a] = w0.wedge(base)
            if a - 1 >= 0:
                images[a - 1] = w1.wedge(base)
        elif j == spec.k:
            images[0] = w0.wedge(w1.wedge(base))
        else:
            images[a] = w0.wedge(base)
            images[a + 1] = w1.wedge(base)
        for slot, form in images.items():
            for out_idx, coeff in form.comps.items():
                matrix[out_pos[(slot, out_idx)]][col] = constant_term(coeff)
    return matrix


def dense_symbol(spec, j, v):
    """``symbol_at``'s sparse rows as a dense matrix of (re, im) int pairs."""
    cols = spec.level_dim(j)
    rows = symbol_at(spec, j, v)
    assert all((0, 0) not in row.values() and all(0 <= c < cols for c in row)
               for row in rows)
    return [[row.get(c, (0, 0)) for c in range(cols)] for row in rows]


def is_zero_matrix(m):
    return all(x == (0, 0) for row in m for x in row)


@pytest.mark.parametrize("n,k", [(1, k) for k in range(5)] + [(2, k) for k in range(7)])
def test_integer_rows_match_the_extform_reference(n, k):
    # symbol_at gives the symbol at q v, q the lcm of v's denominators:
    # q^ord times the symbol at v, with ord = 2 at j = k and 1 elsewhere
    spec = ComplexSpec(n, k)
    gen = SectionGenerator(300 + 10 * n + k)
    for t in range(2):
        v = gen.spawn(t).rational_vector(4 * (n + 1))
        q = math.lcm(*(x.denominator for x in v))
        for j in range(spec.top_level):
            rows = dense_symbol(spec, j, v)
            assert all(type(x) is int for row in rows for pair in row for x in pair)
            scale = q ** (2 if j == k else 1)
            expected = [[(x.re * scale, x.im * scale) for x in row]
                        for row in reference_symbol(spec, j, v)]
            assert rows == expected, (j, t)


def operator_mismatches(spec, v) -> list:
    """Levels j where ``flat_D`` on <qv, x>^ord / ord! e_c, read as constants,
    is not column c of ``symbol_at(spec, j, v)``, over every basis element e_c.

    The operator at level j has order ord (2 at j = k, 1 elsewhere) and
    constant coefficients, so on that power of the linear form it gives the
    symbol at qv, q the lcm of v's denominators, exactly.
    """
    q = math.lcm(*(Fraction(x).denominator for x in v))
    linear = Poly.zero(spec.vars)
    for name, x in zip(spec.vars, v):
        if x:
            linear = linear + Poly.var(spec.vars, name, Fraction(x) * q)
    powers = {1: linear, 2: (linear * linear).scale(Fraction(1, 2))}

    def basis(level):
        s, d, _ = spec.shape(level)
        return [(a, idx) for a in range(s + 1) for idx in combinations(range(spec.form_dim), d)]

    mismatches = []
    for j in range(spec.top_level):
        s, d, tag = spec.shape(j)
        power = powers[2 if j == spec.k else 1]
        rows = dense_symbol(spec, j, v)
        zero = ExtForm.zero(spec.form_dim, d, spec.vars)
        for col, (a, idx) in enumerate(basis(j)):
            slots = [zero] * (s + 1)
            slots[a] = ExtForm(spec.form_dim, d, spec.vars, {idx: power})
            image = flat_D(spec, j, SpinorField(s, tag, slots))
            got = []
            for b, out_idx in basis(j + 1):
                entry = image.slots[b].component(out_idx)
                assert all(e == 0 for e in entry.num)
                value = constant_term(entry)
                got.append((value.re, value.im))
            if got != [row[col] for row in rows]:
                mismatches.append(j)
                break
    return mismatches


@pytest.mark.parametrize("n,k", [(1, k) for k in range(5)] + [(2, k) for k in range(5)])
def test_symbol_columns_are_the_operator_on_covector_powers(n, k):
    # the symbol describes the operator the complex runs: ties symbol_at to
    # flat_D on every level
    spec = ComplexSpec(n, k)
    v = SectionGenerator(700 + 10 * n + k).rational_vector(4 * (n + 1))
    assert operator_mismatches(spec, v) == []


def test_symbol_operator_check_sees_a_lost_d1_term(monkeypatch):
    # mutation: the slot combination loses its d^1 term.  The symbol rows do
    # not move, so the ExtForm reference still matches them, but the
    # operator no longer has that symbol
    original = boundary._slot_combination

    def without_d1(frame, rule, slot, shape):
        return original(frame, [[(a, path) for a, path in terms if path != (1,)]
                                for terms in rule], slot, shape)

    monkeypatch.setattr(boundary, "_slot_combination", without_d1)
    spec = ComplexSpec(1, 1)
    v = SectionGenerator(711).rational_vector(8)
    assert operator_mismatches(spec, v) == [0, 2]
    q = math.lcm(*(x.denominator for x in v))
    for j in range(spec.top_level):
        scale = q ** (2 if j == spec.k else 1)
        assert dense_symbol(spec, j, v) == [[(x.re * scale, x.im * scale) for x in row]
                                            for row in reference_symbol(spec, j, v)]


def test_a_slot_rule_defect_reaches_operator_symbol_and_boundary(monkeypatch):
    # mutation: output slot 0 reads its d^1 term from two slots away, or
    # from none where that slot is out of range.  The rule is written once,
    # so the flat operator, the symbol and the boundary operator all carry
    # the defect
    original = LevelTable.slot_rule

    def far_d1(self, j):
        rule = original(self, j)
        first = [(a + 1 if path == (1,) else a, path) for a, path in rule[0]]
        return (tuple((a, path) for a, path in first if a <= self.sigma(j)),) + rule[1:]

    group = GroupSpec.right_qh(2)
    v = SectionGenerator(712).rational_vector(8)
    for passes in (True, False):
        assert flat_composition_suite(1, 2, trials=10, seed=1).passed == passes
        assert check_exactness(ComplexSpec(1, 2), v)["exact"] == passes
        assert boundary_composition_suite(group, 2, trials=10, seed=1).passed == passes
        monkeypatch.setattr(LevelTable, "slot_rule", far_d1)


def test_equal_level_tables_share_one_slot_rule_entry():
    # slot_rule is cached on the table: equal tables are one key, and the
    # flat and boundary tables at one (n, k) are two
    a, b = ComplexSpec(1, 2), ComplexSpec(1, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ComplexSpec(1, 1) and a != ComplexSpec(2, 2)
    assert a != BoundarySpec(1, 2) and BoundarySpec(1, 2) == BoundarySpec(1, 2)
    LevelTable.slot_rule.cache_clear()
    assert a.slot_rule(0) is b.slot_rule(0)
    info = LevelTable.slot_rule.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    BoundarySpec(1, 2).slot_rule(0)
    assert LevelTable.slot_rule.cache_info().currsize == 2


@pytest.mark.parametrize("table", [ComplexSpec, BoundarySpec])
@pytest.mark.parametrize("n, k", [(0, 1), (-1, 0), (1, -1)])
def test_level_tables_reject_n_below_1_and_negative_k(table, n, k):
    with pytest.raises(ValueError, match=r"^need n >= 1 and k >= 0$"):
        table(n, k)


def e1(n):
    v = [Fraction(0)] * (4 * (n + 1))
    v[0] = Fraction(1)
    return v


def test_reference_dims_and_ranks():
    spec = ComplexSpec(1, 1)
    result = check_exactness(spec, e1(1))
    assert result["dims"] == [2, 4, 4, 2]
    assert result["ranks"] == [2, 2, 2]
    assert result["exact"]


def test_unit_vector_low_k():
    spec = ComplexSpec(1, 0)
    v = [Fraction(1), Fraction(1)] + [Fraction(0)] * 6
    assert check_exactness(spec, v)["exact"]


def test_consecutive_symbols_compose_to_zero():
    gen = SectionGenerator(12)
    for n, k in [(1, 0), (1, 1), (2, 1)]:
        spec = ComplexSpec(n, k)
        v = gen.spawn(n * 10 + k).rational_vector(4 * (n + 1))
        for j in range(2 * n):
            a = dense_symbol(spec, j + 1, v)
            b = dense_symbol(spec, j, v)
            assert is_zero_matrix(gaussian_product(a, b))
            assert is_zero_product(symbol_at(spec, j + 1, v), symbol_at(spec, j, v))


@pytest.mark.parametrize("n,k,j", [(1, 0, 0), (1, 1, 1), (2, 1, 2)])
def test_one_flipped_entry_breaks_the_composition(n, k, j):
    spec = ComplexSpec(n, k)
    v = SectionGenerator(12).spawn(n * 10 + k).rational_vector(4 * (n + 1))
    a = dense_symbol(spec, j + 1, v)
    b = dense_symbol(spec, j, v)
    # an entry b[r][c] that column r of a sees
    r, c = next((r, c) for r, row in enumerate(b) for c, x in enumerate(row)
                if x != (0, 0) and any(out[r] != (0, 0) for out in a))
    b[r][c] = (-b[r][c][0], -b[r][c][1])
    assert not is_zero_matrix(gaussian_product(a, b))
    assert not is_zero_product(sparse(a), sparse(b))


def covector_gram(n: int):
    """(G, |xi|^4) for the raised covector 1-forms w_0(xi), w_1(xi) of
    ``ambient_frame(n)`` at a formal covector xi, one ``Poly`` variable per
    coordinate: component a of w_a' is sum_v (c / L) xi_v over the entries
    (a, offset, terms) that ``field_table(a', True)`` lists under v, and
    G = |w_0|^2 |w_1|^2 - |<w_0, w_1>|^2, with <w_0, w_1> = sum_a w_0a conj(w_1a)."""
    frame = boundary.ambient_frame(n)
    xi = tuple(f"xi{i}" for i in range(len(frame.vars)))
    zero = Poly.zero(xi)
    w, w_bar = [], []
    for aprime in (0, 1):
        L, fields = frame.field_table(aprime, True)
        row, row_bar = [zero] * frame.dim, [zero] * frame.dim
        for v, entries in enumerate(fields):
            for a, _, terms in entries:
                ((key, re, im),) = terms  # the ambient rows have constant coefficients
                assert key == 0
                x = Poly.var(xi, xi[v])
                row[a] = row[a] + x.scale((Fraction(re, L), Fraction(im, L)))
                row_bar[a] = row_bar[a] + x.scale((Fraction(re, L), Fraction(-im, L)))
        w.append(row)
        w_bar.append(row_bar)

    def dot(x, y):
        return sum((p * q for p, q in zip(x, y)), zero)

    gram = dot(w[0], w_bar[0]) * dot(w[1], w_bar[1]) - dot(w[0], w_bar[1]) * dot(w_bar[0], w[1])
    xs = [Poly.var(xi, name) for name in xi]
    norm = dot(xs, xs)
    return gram, norm * norm


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_covector_pair_has_gram_determinant_xi_to_the_fourth(n):
    # |w_0|^2 |w_1|^2 - |<w_0, w_1>|^2 = |xi|^4 exactly, so (w_0, w_1) is
    # independent at every real xi != 0: the lemma by which the ranks at one
    # unit covector hold at every nonzero real covector
    gram, xi4 = covector_gram(n)
    assert gram == xi4


@pytest.mark.parametrize("n", [1, 2])
def test_one_flipped_row_entry_breaks_the_gram_identity(n, monkeypatch):
    # the sign of one entry of row 0 of the raised rows, for a' = 0, flipped
    table = boundary.Frame.field_table

    def flipped(frame, aprime, raised):
        L, fields = table(frame, aprime, raised)
        if aprime:
            return L, fields
        v = next(v for v, entries in enumerate(fields) if any(a == 0 for a, _, _ in entries))
        fields = list(fields)
        fields[v] = tuple((a, offset, tuple((key, -re, -im) for key, re, im in terms))
                          if a == 0 else (a, offset, terms) for a, offset, terms in fields[v])
        return L, tuple(fields)

    monkeypatch.setattr(boundary.Frame, "field_table", flipped)
    gram, xi4 = covector_gram(n)
    assert gram != xi4


def test_zero_vector_gives_zero_matrix_and_error():
    spec = ComplexSpec(1, 1)
    zero = [Fraction(0)] * 8
    assert symbol_at(spec, 0, zero) == [{}] * spec.level_dim(1)
    with pytest.raises(ValueError, match="nonzero"):
        check_exactness(spec, zero)


@pytest.mark.parametrize("v", [[1], [0] * 8 + [1]], ids=["short", "long"])
def test_covector_of_the_wrong_length_is_rejected(v):
    # a missing entry is not a 0 and an extra one is not ignored: ComplexSpec(1, 1)
    # lives on R^8, so both covectors are input errors, not ranks
    spec = ComplexSpec(1, 1)
    with pytest.raises(ValueError, match="covector needs 8 entries"):
        symbol_at(spec, 0, v)
    with pytest.raises(ValueError, match="covector needs 8 entries"):
        check_exactness(spec, v)


@pytest.mark.parametrize("entry", [0.5, "1/2", "1", 1e-300], ids=repr)
@pytest.mark.parametrize("read", [lambda spec, v: symbol_at(spec, 0, v), check_exactness],
                         ids=["symbol_at", "check_exactness"])
def test_a_covector_entry_that_is_not_exact_is_refused(read, entry):
    # a float was read as its binary expansion (0.1 gave a den of 2^55) and
    # text was parsed without parse_fraction's exponent guard
    v = [1, 0, 0, 0, 0, 0, 0, entry]
    with pytest.raises(TypeError, match=f"an exact rational is an int or a Fraction, "
                                        f"not {entry!r}"):
        read(ComplexSpec(1, 1), v)


def test_middle_symbol_is_quadratic_in_v():
    # at the second-order level, scaling v by t scales the symbol by t^2; the
    # rows are the symbol at q v, so q'^2 rows(v) (2)^2 = q^2 rows(2v)
    spec = ComplexSpec(1, 0)
    gen = SectionGenerator(8)
    v = gen.rational_vector(8)
    doubled = [2 * x for x in v]
    q = math.lcm(*(x.denominator for x in v))
    q2 = math.lcm(*(x.denominator for x in doubled))
    m1 = dense_symbol(spec, 0, v)
    m2 = dense_symbol(spec, 0, doubled)
    assert not is_zero_matrix(m1)
    for r1, r2 in zip(m1, m2):
        for a, b in zip(r1, r2):
            assert (b[0] * q * q, b[1] * q * q) == (4 * a[0] * q2 * q2, 4 * a[1] * q2 * q2)


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 1)])
def test_random_rational_exactness(n, k):
    spec = ComplexSpec(n, k)
    gen = SectionGenerator(100 + 10 * n + k)
    for t in range(3):
        v = gen.spawn(t).rational_vector(4 * (n + 1))
        assert check_exactness(spec, v)["exact"]


def test_rank_exact_small_cases():
    assert bareiss([{0: (1, 0), 1: (2, 0)}, {0: (2, 0), 1: (4, 0)}]) == 1
    assert bareiss([{0: (0, 1)}, {1: (1, 0)}]) == 2
    assert bareiss([{0: (1, 1), 1: (2, 0)}, {0: (0, 2), 1: (2, 2)}]) == 1  # row 2 = (1 + i) row 1
    assert bareiss([]) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_ranks_match_the_dense_reference(n):
    # every level for k <= 2n+2, at three covectors each
    for k in range(2 * n + 3):
        spec = ComplexSpec(n, k)
        gen = SectionGenerator(500 + 10 * n + k)
        for t in range(3):
            v = gen.spawn(t).rational_vector(4 * (n + 1))
            ranks = [dense_rank(dense_symbol(spec, j, v)) for j in range(spec.top_level)]
            assert [bareiss(symbol_at(spec, j, v)) for j in range(spec.top_level)] == ranks
            assert check_exactness(spec, v)["ranks"] == ranks


@pytest.mark.parametrize("k", [1, 7])
def test_n3_symbol_ranks_match_the_dense_reference(k):
    spec = ComplexSpec(3, k)
    v = SectionGenerator(530 + k).rational_vector(16)
    ranks = [bareiss(symbol_at(spec, j, v)) for j in range(spec.top_level)]
    assert ranks == [dense_rank(dense_symbol(spec, j, v)) for j in range(spec.top_level)]
    assert check_exactness(spec, v)["ranks"] == ranks


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2) for k in range(2 * n + 3)])
def test_exactness_reports_exactly_its_levels(n, k):
    # levels 0..2n+1, one rank per operator between them, none of them empty
    spec = ComplexSpec(n, k)
    result = check_exactness(spec, SectionGenerator(40 + 10 * n + k).rational_vector(4 * (n + 1)))
    assert [lv["level"] for lv in result["levels"]] == list(range(2 * n + 2))
    assert len(result["ranks"]) == 2 * n + 1
    assert len(result["dims"]) == 2 * n + 2
    assert all(lv["dim"] >= 1 for lv in result["levels"])


def test_n3_symbol_ranks_are_pinned():
    # the largest symbol the tests run, and the sparsest: 168 x 140 at level 3
    spec = ComplexSpec(3, 1)
    v = SectionGenerator(1).spawn(0).rational_vector(16)
    result = check_exactness(spec, v)
    assert result["ranks"] == [2, 6, 50, 90, 78, 34, 6]
    assert result["exact"]


@pytest.mark.parametrize("n,k", [(1, k) for k in range(6)] + [(2, 5), (2, 6)])
def test_symbol_sequence_is_exact_up_to_k_2n_plus_1(n, k):
    # exact at every level for k <= 2n+1; from k = 2n+2 on the top level alone
    # fails (the top rank falls short of the top dimension), the rest stay exact
    spec = ComplexSpec(n, k)
    v = SectionGenerator(200 + 10 * n + k).rational_vector(4 * (n + 1))
    result = check_exactness(spec, v)
    top = spec.top_level
    expected = [True] * top + [k <= 2 * n + 1]
    assert [lv["exact"] for lv in result["levels"]] == expected
    assert (result["ranks"][-1] < result["dims"][top]) == (k > 2 * n + 1)
    if (n, k) == (1, 4):
        assert (result["ranks"][-1], result["dims"][top]) == (7, 8)
    # every product is 0, so each detail says whether the ranks sum to the dimension
    for lv in result["levels"]:
        used = result["ranks"][max(lv["level"] - 1, 0):lv["level"] + 1]
        sign = "==" if lv["exact"] else "!="
        assert lv["detail"] == " + ".join(f"rank {r}" for r in used) + f" {sign} dim {lv['dim']}"


def test_the_cli_reads_a_short_top_level_as_not_equal(capsys):
    assert main(["symbol", "--n", "1", "--k", "4", "--trials", "1"]) == 1
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert [(lv["detail"], lv["exact"]) for lv in levels] == [
        ("rank 5 == dim 5", True), ("rank 5 + rank 11 == dim 16", True),
        ("rank 11 + rank 7 == dim 18", True), ("rank 7 != dim 8", False)]


def rotated_odd_levels(monkeypatch):
    """Mutation: the odd-level symbols read the covector rotated by one
    place.  Every nonzero covector gives the same ranks, so only the
    products see it."""
    original = flat.symbol_at

    def rotated(spec, j, v):
        return original(spec, j, [*v[1:], *v[:1]] if j % 2 else v)

    monkeypatch.setattr(flat, "symbol_at", rotated)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1)])
def test_a_nonzero_product_fails_its_level(n, k, monkeypatch):
    # the ranks alone still sum to every dimension: exactness rests on the
    # products, which check_exactness checks
    spec = ComplexSpec(n, k)
    v = SectionGenerator(1).spawn(0).rational_vector(4 * (n + 1))
    sound = check_exactness(spec, v)
    rotated_odd_levels(monkeypatch)
    opened = []

    def counted(rows):
        opened.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(flat, "bareiss", counted)
    result = check_exactness(spec, v)
    top = spec.top_level
    assert result["ranks"] == sound["ranks"]
    # only the end levels close, so only their ranks skip bareiss
    assert len(opened) == top - 2
    assert all(sum(sound["ranks"][max(j - 1, 0):j + 1]) == sound["dims"][j]
               for j in range(top + 1))
    assert [lv["exact"] for lv in result["levels"]] == [True] + [False] * (top - 1) + [True]
    for j in range(1, top):
        assert result["levels"][j]["detail"].startswith(f"sigma_{j} sigma_{j - 1} != 0 (")
    assert not result["exact"]


def test_the_cli_exits_1_on_a_nonzero_product(monkeypatch, capsys):
    argv = ["symbol", "--n", "2", "--k", "1", "--trials", "1"]
    assert main(argv) == 0
    rotated_odd_levels(monkeypatch)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "sigma_2 sigma_1 != 0 (rank 4 + rank 16, dim 20)" in out


@pytest.mark.parametrize("k", range(5))
def test_a_prime_that_bounds_nothing_falls_back_to_bareiss(k, monkeypatch, capsys):
    # at p = 5 every entry of the symbol at 5 e_1 is 0 mod p: every bound is
    # 0, no level closes and every rank goes through bareiss, with the same
    # report as under the default prime, where no rank does
    argv = ["symbol", "--n", "1", "--k", str(k), "--v", "5,0,0,0,0,0,0,0", "--trials", "0"]
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(flat, "bareiss", counted)
    expected = main(argv)
    report = capsys.readouterr().out
    assert calls == []
    monkeypatch.setattr(flat, "rank_mod_p", lambda rows: linalg.rank_mod_p(rows, 5, 2))
    assert main(argv) == expected == (0 if k <= 3 else 1)
    assert capsys.readouterr().out == report
    assert len(calls) == ComplexSpec(1, k).top_level
