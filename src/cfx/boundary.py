"""Tangential complex on the boundary group of a rigid quadratic hypersurface.

The boundary levels are pairs: a leading slot field plus a companion slot
field one form-degree lower.  :func:`boundary_D` acts on a pair as the
blocks [[A, C], [T, B]]: A is the projected operator :func:`subcomplex_D`,
and C the twist through the constant curvature 2-form of the group, which
vanishes exactly on right-type groups.

Both complexes apply the rows of one :class:`Frame` through :func:`frak_d`,
which reads the frame's one row table: a group's tangential frame is built
from its horizontal fields (:func:`groups.horizontal_fields`), the flat
complex's :func:`ambient_frame` from the coordinate partials, once per n,
and every flat spec at that n shares it with the tables it has built.

Only rigid (group) frames are assembled here.  The curvature 2-form E0 is
built from the closed-form entries :func:`groups.curvature_entry`; the
ambient route -d^0 d^1 rho through the defining function is a reference in
the tests.

The identity checks run on these operators: :func:`bracket_identity` reads
the paired rows from its own commutator table, and :func:`hodge_diag` takes
D_0 from :func:`subcomplex_D`; each returns the record that ``cfx verify
boundary`` prints.  The seeded anticommutation loop is
``verify.anticommute_suite``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm

from .exterior import ExtForm, index_mask, wedge_sign
from .groups import GroupSpec, curvature_entry, horizontal_fields
from .operators import FirstOrderOp
from .poly import BITS, FIELD, GUARD, MAX_EXPONENT, Immutable, Poly, _set, add_term, x_vars
from .randgen import SectionGenerator
from .spinor import LevelTable, SpinorField, raise_primed


class PreconditionError(ValueError):
    """A well-formed input outside an operation's domain, e.g. a non-right-type group."""


# -- frame -----------------------------------------------------------------------------


class Frame:
    """The raised 2m x 2 row matrix ``Z_upper`` of 4m real fields X, from the lowered rows:

    Row 2l:   ( X_{4l+1} + i X_{4l+2},  -X_{4l+3} - i X_{4l+4} )
    Row 2l+1: ( X_{4l+3} - i X_{4l+4},   X_{4l+1} - i X_{4l+2} )

    Raised rows: column 0 is the lowered column 1, column 1 minus column 0,
    so a lowered row is a raised one relabelled: Z_0 = -Z^1, Z_1 = Z^0.
    ``X``, ``Z_upper`` and its rows are tuples: one frame can serve many
    callers (:func:`ambient_frame`).  :meth:`field_table`, built on first
    use and kept by the frame, is the one row table per primed index, which
    :func:`frak_d` and ``flat.symbol_at`` read.
    """

    def __init__(self, variables, fields: list[FirstOrderOp]):
        if len(fields) % 4:
            raise ValueError("a frame needs 4m real fields")
        self.vars = tuple(variables)
        self.X = tuple(fields)
        self.dim = len(self.X) // 2
        lower = []
        for l in range(len(self.X) // 4):
            x1, x2, x3, x4 = self.X[4 * l:4 * l + 4]
            lower.append((x1 + x2.scale((0, 1)), (x3 + x4.scale((0, 1))).scale(-1)))
            lower.append((x3 - x4.scale((0, 1)), x1 - x2.scale((0, 1))))
        self.Z_upper = tuple(map(raise_primed, lower))
        self._rows = {}

    def field_table(self, aprime: int) -> tuple:
        """(L, fields) for column ``aprime`` of the raised rows, L the lcm of
        their operators' ``den``: ``fields[v]`` lists (a, offset, terms) for
        each row a whose operator has a d_v term, ``offset`` the index bit of
        w^a minus v's unit and ``terms`` the (key, re, im) of L c_v.
        """
        table = self._rows.get(aprime)
        if table is None:
            ops = [row[aprime] for row in self.Z_upper]
            L = lcm(1, *(op.den for op in ops))
            lift = index_mask((0,), self.vars)  # the key bit of w^0
            fields = [[] for _ in self.vars]
            for a, op in enumerate(ops):
                scale = L // op.den
                for shift, unit, terms in op.kernel():
                    fields[shift // BITS].append((a, (lift << a) - unit, tuple(
                        (key, re * scale, im * scale) for key, re, im in terms)))
            table = self._rows[aprime] = (L, tuple(map(tuple, fields)))
        return table


@lru_cache(maxsize=None)
def ambient_frame(n: int) -> Frame:
    """The flat frame on R^{4(n+1)}: rows of constant-coefficient partials.

    A constant of n, built once per process: every caller at one n shares
    the frame and the integer kernels its operators build on first use.
    """
    variables = x_vars(4 * (n + 1))
    return Frame(variables, [FirstOrderOp.partial(variables, v) for v in variables])


class TangentFrame(Frame):
    """Tangential operator data for the group of a rigid quadratic hypersurface."""

    def __init__(self, group: GroupSpec):
        super().__init__(group.vars, horizontal_fields(group))
        self.group = group
        self.n = group.n
        v, d = self.vars, FirstOrderOp.partial
        # the raised translations T^{a'b'}, symmetric in a' and b'
        i_t1 = d(v, "t1", (0, 1))
        self.T_upper = {(0, 0): d(v, "t2") + d(v, "t3", (0, 1)), (0, 1): i_t1, (1, 0): i_t1,
                        (1, 1): d(v, "t2") + d(v, "t3", (0, -1))}
        self.E0 = curvature_form(group)
        self.right_type = self.E0.is_zero()

    def require_right_type(self):
        if not self.right_type:
            raise PreconditionError("operation requires a right-type group (vanishing curvature)")


def frak_d(aprime: int, f: ExtForm, frame: Frame) -> ExtForm:
    """sum_row w^row ^ Z_row^{aprime} f, the one row kernel, on the raised rows.

    One pass over the terms of f into one numerator dict over f.den * L, L
    that of :meth:`Frame.field_table`: a term visits the entries under its
    nonzero exponents' variables, but no row a whose w^a it holds; each
    product adds the entry's offset and a coefficient's monomial to its key
    (an exponent above ``poly.MAX_EXPONENT`` is a ValueError), its sign
    ``exterior.wedge_sign``.
    """
    if aprime not in (0, 1):
        raise ValueError("primed index must be 0 or 1")
    # a call per frak_d costs 0.2-0.4% of flat
    if type(f) is not ExtForm or f.vars != frame.vars or f.dim != frame.dim:
        if type(f) is not ExtForm:
            raise TypeError(f"frak_d takes an ExtForm, not {type(f).__name__}")
        f._check(frame, False)
    L, fields = frame.field_table(aprime)
    lift = index_mask((0,), f.vars)  # the key bit of w^0
    past = lift.bit_length() - 1
    out: dict = {}
    for key, (re, im) in f.num.items():
        mask, rest = key >> past, key & lift - 1
        while rest:  # the nonzero exponent fields, lowest first
            v = ((rest & -rest).bit_length() - 1) // BITS
            e = rest >> v * BITS & FIELD
            rest -= e << v * BITS
            for a, offset, terms in fields[v]:
                if mask >> a & 1:
                    continue
                m = wedge_sign(mask, a) * e
                x, y, lowered = re * m, im * m, key + offset
                for ckey, c, d in terms:
                    prod = lowered + ckey
                    if prod & GUARD:
                        raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
                    add_term(out, prod, x * c - y * d, x * d + y * c)
    return ExtForm._make(f.dim, f.degree + 1, f.vars, out, f.den * L)


# -- curvature --------------------------------------------------------------------------


def curvature_form(group: GroupSpec) -> ExtForm:
    """Constant tangential curvature 2-form of the group, sum_{a<b} 2 E_{ab} w^a w^b.

    The entries are :func:`groups.curvature_entry`, the closed form of
    -d^0 d^1 rho restricted to the tangential indices.
    """
    dim = 2 * group.n
    entries = {(a, b): curvature_entry(group, a, b) for a in range(dim) for b in range(a + 1, dim)}
    return ExtForm(dim, 2, group.vars, {ab: e for ab, e in entries.items() if any(e)}).scale(2)


# -- boundary levels and fields ----------------------------------------------------------


class BoundarySpec(LevelTable):
    """The boundary pair complex's level table at (n, k): 2n form indices.

    The leading component of level j has the shape of level j; the
    companion is one form degree lower off the middle level k.
    """

    @property
    def form_dim(self) -> int:
        return 2 * self.n

    def companion_shape(self, j: int):
        """Shape of the companion component, or None at level 0, where it is empty."""
        if j == 0:
            return None
        return self.sigma(j + 1), self.tau(j) - (j != self.k)


class BoundaryField(Immutable):
    """Level-j element of the boundary pair complex; immutable, compared field by field.

    The companion is None exactly at level 0; above it a missing companion
    is stored as the zero field of ``companion_shape(level)``.
    """

    def __init__(self, spec: BoundarySpec, level: int, lead: SpinorField,
                 companion: SpinorField | None):
        spec.check_field(lead, spec.shape(level), "lead", level)
        cshape = spec.companion_shape(level)
        if cshape is None:
            if companion is not None and not companion.is_zero():
                raise ValueError(f"level {level} has no companion slot")
            companion = None
        elif companion is None:
            sigma, degree = cshape
            companion = SpinorField([ExtForm.zero(spec.form_dim, degree, lead.vars)] * (sigma + 1))
        else:
            spec.check_field(companion, cshape, "companion", level)
        _set(self, "spec", spec)
        _set(self, "level", level)
        _set(self, "lead", lead)
        _set(self, "companion", companion)

    def __eq__(self, other):
        if type(other) is not BoundaryField:
            return NotImplemented
        return ((self.spec, self.level, self.lead, self.companion)
                == (other.spec, other.level, other.lead, other.companion))

    def is_zero(self) -> bool:
        return self.lead.is_zero() and (self.companion is None or self.companion.is_zero())


# -- the boundary operator ----------------------------------------------------------------


def boundary_D(frame: TangentFrame, fld: BoundaryField) -> BoundaryField:
    """Level-j boundary operator: the blocks [[A, C], [T, B]] on (lead f, companion G).

    A is :func:`subcomplex_D`.  T runs the composite paths of the slot rules of
    levels j and j + 1: two steps (x, y) give T^{xy} f(a), a step y beside the
    middle path (0, 1) gives d^0 T^{1y} f(a) - d^1 T^{0y} f(a).  B is rule j + 1
    on G.  The companion output is s (T f + B G), s = +1 at j = k - 1 and j = k,
    else -1.  C is zero on right-type groups: lead slot b gains E0 ^ G(b), but at
    j = k the lead loses E0 ^ (T^{10} f + G); at j = k - 1 the companion loses
    E0 ^ T^{10} G.  G is None only at level 0, where B G and the G terms of C
    are absent.
    """
    spec, j, k = fld.spec, fld.level, fld.spec.k
    lead = subcomplex_D(frame, spec, j, fld.lead)
    E0, f, G = frame.E0, fld.lead.slots, fld.companion

    def T(out_path, in_path, form):
        if len(out_path) == len(in_path):
            return frame.T_upper[out_path + in_path].apply(form)
        (y,) = min(out_path, in_path, key=len)
        return frak_d(0, T((1,), (y,), form), frame) - frak_d(1, T((0,), (y,), form), frame)

    inner, outer = spec.slot_rule(j), spec.slot_rule(j + 1)
    comp = SpinorField(_sums([
        [T(out_path, in_path, f[a]) for m, out_path in terms for a, in_path in inner[m]]
        for terms in outer]))
    if G is not None:
        comp = comp + _slot_combination(frame, outer, G.slots)
    if j not in (k - 1, k):
        comp = -comp
    if j == k:
        twist = T((1,), (0,), f[0])
        if G is not None:
            twist = twist + G.slots[0]
        lead = SpinorField([lead.slots[0] - E0.wedge(twist)])
    elif G is not None:
        lead = SpinorField([s + E0.wedge(G.slots[b]) for b, s in enumerate(lead.slots)])
        if j == k - 1:
            comp = comp + SpinorField([-E0.wedge(T((1,), (0,), G.slots[0]))])
    return BoundaryField(spec, j + 1, lead, comp)


def _slot_combination(frame: Frame, rule: tuple, slots: list) -> SpinorField:
    """The field whose slot b sums d^path slots[a] over the (a, path) of
    ``rule[b]``, a ``LevelTable.slot_rule``."""
    return SpinorField(_sums([
        [reduce(lambda f, p: frak_d(p, f, frame), reversed(path), slots[a]) for a, path in terms]
        for terms in rule]))


def _sums(lists: list) -> list:
    """The sum of each list of forms; no slot rule has an empty entry."""
    return [sum(forms[1:], forms[0]) for forms in lists]


def subcomplex_D(frame: Frame, spec, j: int, lead: SpinorField) -> SpinorField:
    """The level-j operator's slot step, ``spec.slot_rule(j)``, on the slots
    of ``lead``, which it checks against level j (no other operator does).

    With the ambient frame and a flat ``ComplexSpec`` this is the flat
    operator; with a right-type group and a :class:`BoundarySpec` it is the
    projected boundary operator.
    """
    spec._check_operator_level(j)
    spec.check_field(lead, spec.shape(j), "field", j)
    return _slot_combination(frame, spec.slot_rule(j), lead.slots)


# -- identity checks ------------------------------------------------------------------------


PRIMED_PAIRS = ((0, 0), (0, 1), (1, 1))  # unordered: T^{a'b'} is symmetric


def anticommutation_defect(frame: TangentFrame, f: ExtForm, ap: int, bp: int):
    """(defect, curvature term) for one symmetrized pair of indices.

    The defect is the symmetrized double operator; it must equal the
    curvature wedge with the raised translation operator T^{a'b'}.
    """
    dd = lambda x, y: frak_d(x, frak_d(y, f, frame), frame)
    defect = (dd(ap, bp) + dd(bp, ap)).scale(Fraction(1, 2))
    rhs = frame.E0.wedge(frame.T_upper[ap, bp].apply(f))
    return defect, rhs


def bracket_identity(frame: TangentFrame) -> dict:
    """Symbolic check of the antisymmetrized double-field identity.

    For every pair of form indices and symmetrized primed pair, the
    alternating second-order combination of tangential fields equals the
    curvature component times the translation operator T^{a'b'}.

    The combination ``Z_a^{a'} Z_b^{b'} + Z_a^{b'} Z_b^{a'} - Z_b^{a'} Z_a^{b'}
    - Z_b^{b'} Z_a^{a'}`` regroups as ``[Z_a^{a'}, Z_b^{b'}] + [Z_a^{b'}, Z_b^{a'}]``.
    The order-2 part of X∘Y is the symmetrized product of the coefficients of
    X and Y, which Y∘X shares, so the combination equals this first-order sum
    exactly: comparing its coefficients proves the identity symbolically, as
    the full compositions did.  The four commutators of a row pair serve the
    three unordered primed pairs.  Both sides are canonical integer operator tables,
    so they are compared as tables; the residual operator is built only for
    a pair that differs.

    On a right-type frame the result also carries ``paired_rows_cancel``:
    whether [Z_{2l}^0, Z_{2l+1}^1] + [Z_{2l}^1, Z_{2l+1}^0] vanishes for
    every l, read from the same commutators.
    """
    quarter = Fraction(1, 4)
    ok = True
    worst = "0"
    paired = True
    for a in range(frame.dim):
        za = frame.Z_upper[a]
        for b in range(a + 1, frame.dim):
            zb = frame.Z_upper[b]
            coeff = curvature_entry(frame.group, a, b)
            brackets = {(x, y): za[x].commutator(zb[y]) for x in (0, 1) for y in (0, 1)}
            if frame.right_type and a % 2 == 0 and b == a + 1:
                paired = paired and (brackets[0, 1] + brackets[1, 0]).is_zero()
            for ap, bp in PRIMED_PAIRS:
                lhs = (brackets[ap, bp] + brackets[bp, ap]).scale(quarter)
                rhs = frame.T_upper[ap, bp].scale(coeff)
                if lhs != rhs:
                    ok = False
                    worst = str(lhs - rhs)
    result = {"identity": "bracket-curvature", "params": {"n": frame.n},
              "seed": None, "pass": ok, "residual": worst}
    if frame.right_type:
        result["paired_rows_cancel"] = paired
    return result


# -- the diagonal second-order identity ------------------------------------------------------


def lead_first_adjoint_compose(frame: TangentFrame, slots: list[Poly]):
    """Formal adjoint applied to the bottom-level operator D_0, slot by slot.

    D_0 is :func:`subcomplex_D` at level 0 on the scalar slot field, k + 1 =
    ``len(slots)``: slot b of its image is Z_row^0 slots[b] + Z_row^1 slots[b + 1]
    at (row,); the adjoint walks level 0's slot rule back, from slot b to slot a.
    """
    k = len(slots) - 1
    spec = BoundarySpec(frame.n, k)
    lead = SpinorField([ExtForm.from_scalar(frame.dim, p) for p in slots])
    image = subcomplex_D(frame, spec, 0, lead)
    adjoint = [(row[0].conjugate(), row[1].conjugate()) for row in frame.Z_upper]
    out = [Poly.zero(frame.vars)] * (k + 1)
    for b, terms in enumerate(spec.slot_rule(0)):
        for a, (p,) in terms:
            for row, ops in enumerate(adjoint):
                out[a] = out[a] - ops[p].apply(image.slots[b].component((row,)))
    return out


def sub_laplacian(frame: TangentFrame, p: Poly) -> Poly:
    """Negative sum of squares of the horizontal fields."""
    out = Poly.zero(frame.vars)
    for x in frame.X:
        out = out - x.apply(x.apply(p))
    return out


def hodge_diag(spec: BoundarySpec, frame: TangentFrame, trials: int = 10,
               seed: int = 7) -> dict:
    """Second-order diagonal identity for the leading operator at the bottom level.

    The adjoint composition must equal diag(L, 2L, ..., 2L, L) applied
    slotwise, where L is the horizontal sub-Laplacian.  Exact; requires a
    right-type group, and ``spec`` at the frame's n.
    """
    if spec.n != frame.n:
        raise ValueError(f"spec n = {spec.n} does not match the frame's n = {frame.n}")
    frame.require_right_type()
    k = spec.k
    if k < 1:
        raise PreconditionError("the diagonal identity needs k >= 1")
    gen = SectionGenerator(seed, degree=3)
    ok = True
    residual = "0"
    for t in range(trials):
        g = gen.spawn(t)
        slots = [g.poly(frame.vars) for _ in range(k + 1)]
        lhs = lead_first_adjoint_compose(frame, slots)
        for a in range(k + 1):
            weight = 1 if a in (0, k) else 2
            rhs = sub_laplacian(frame, slots[a]).scale(weight)
            diff = lhs[a] - rhs
            if not diff.is_zero():
                ok = False
                residual = str(diff)
    return {"identity": "second-order-diagonal", "params": {"n": spec.n, "k": k,
            "trials": trials, "degree": gen.degree}, "seed": seed,
            "pass": ok, "residual": residual}
