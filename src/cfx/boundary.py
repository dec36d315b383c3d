"""Tangential complex on the boundary group of a rigid quadratic hypersurface.

The boundary levels are pairs: a leading slot field plus a companion slot
field one form-degree lower.  The operator is the projected operator
:func:`subcomplex_D` on the leading field plus a coupling of the pair
through the constant curvature 2-form of the group, which vanishes exactly
on right-type groups, and through the central translations.

Both complexes apply the rows of one :class:`Frame` through :func:`frak_d`:
a group's tangential frame is built from its horizontal fields (one
integer numerator dict per coefficient, :func:`groups.horizontal_fields`),
the flat complex's :func:`ambient_frame` from the coordinate partials.  The
ambient frame depends only on n, so it is built once per n and shared by
every flat spec at that n, with the operator kernels it has built.

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

from .exterior import ExtForm, insertions, put_component
from .groups import GroupSpec, curvature_entry, horizontal_fields
from .operators import FirstOrderOp
from .poly import BITS, FIELD, Poly, support, x_vars
from .randgen import SectionGenerator
from .spinor import LevelTable, SpinorField, raise_primed


class PreconditionError(ValueError):
    """A well-formed input outside an operation's domain, e.g. a non-right-type group."""


# -- frame -----------------------------------------------------------------------------


class Frame:
    """Lowered and raised 2m x 2 row matrices built from 4m real fields X.

    Row 2l:   ( X_{4l+1} + i X_{4l+2},  -X_{4l+3} - i X_{4l+4} )
    Row 2l+1: ( X_{4l+3} - i X_{4l+4},   X_{4l+1} - i X_{4l+2} )

    Raised rows: column 0 is the lowered column 1, column 1 minus column 0.
    ``X``, ``Z_lower`` and ``Z_upper`` and their rows are tuples, because
    one frame can serve many callers (:func:`ambient_frame`).

    :meth:`row_table` is what :func:`frak_d` reads: for each primed index
    and raised or lowered rows, the rows' operators with their lcm scale
    factors and variable masks, built on first use and kept by the frame.
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
        self.Z_lower = tuple(lower)
        self.Z_upper = tuple(raise_primed(row) for row in self.Z_lower)
        self._rows = {}

    def row_table(self, aprime: int, raised: bool) -> tuple:
        """(L, rows) for column ``aprime`` of the raised or the lowered rows.

        L is the lcm of the row operators' ``den``; row a is (operator,
        L / its den, mask), the mask a packed exponent vector whose field v
        is all ones iff the operator differentiates in variable v.
        """
        table = self._rows.get((aprime, raised))
        if table is None:
            ops = [row[aprime] for row in (self.Z_upper if raised else self.Z_lower)]
            L = lcm(1, *(op.den for op in ops))
            table = self._rows[aprime, raised] = (L, tuple(
                (op, L // op.den, sum(FIELD << BITS * v for v in op.num)) for op in ops))
        return table


def ambient_vars(n: int) -> tuple:
    return x_vars(4 * (n + 1))


@lru_cache(maxsize=None)
def ambient_frame(n: int) -> Frame:
    """The flat frame on R^{4(n+1)}: rows of constant-coefficient partials.

    A constant of n, built once per process: every caller at one n shares
    the frame and the integer kernels its operators build on first use.
    """
    variables = ambient_vars(n)
    return Frame(variables, [FirstOrderOp.partial(variables, v) for v in variables])


class TangentFrame(Frame):
    """Tangential operator data for the group of a rigid quadratic hypersurface."""

    def __init__(self, group: GroupSpec):
        super().__init__(group.vars, horizontal_fields(group))
        self.group = group
        self.n = group.n
        self.T_lower = self._t_matrix()
        self.T_upper = {(a, b): raise_primed((self.T_lower[0][a], self.T_lower[1][a]))[b]
                        for a in (0, 1) for b in (0, 1)}
        # the symmetrized and the skew raised translations, built once
        half = Fraction(1, 2)
        self.T_sym = {(a, b): (self.T_upper[(a, b)] + self.T_upper[(b, a)]).scale(half)
                      for a in (0, 1) for b in (0, 1)}
        self.T_skew = (self.T_upper[(0, 1)] - self.T_upper[(1, 0)]).scale(half)
        self.E0 = curvature_form(group)
        self.right_type = self.E0.is_zero()

    def _t_matrix(self) -> list[list[FirstOrderOp]]:
        v = self.vars
        d = FirstOrderOp.partial
        return [
            [d(v, "t1", (0, -1)), d(v, "t2", -1) + d(v, "t3", (0, 1))],
            [d(v, "t2", 1) + d(v, "t3", (0, 1)), d(v, "t1", (0, 1))],
        ]

    def require_right_type(self):
        if not self.right_type:
            raise PreconditionError("operation requires a right-type group (vanishing curvature)")

    def zero_form(self, degree: int) -> ExtForm:
        return ExtForm.zero(self.dim, degree, self.vars)


def frak_d(aprime: int, f: ExtForm, frame: Frame, raised: bool = True) -> ExtForm:
    """sum_row w^row ^ Z_row^{aprime} f, the one row kernel; raised index by default.

    One integer pass: each output index gets one numerator dict over D * L,
    D the lcm of the component denominators of f and L the row table's lcm
    of the operators' ``den`` (:meth:`Frame.row_table`).  A (row, component)
    pair goes in through ``FirstOrderOp.apply_into`` with ``mult`` = wedge
    sign * (D / component den) * (L / operator den), and each output
    component is one ``Poly``.  A pair whose row mask misses every variable
    the component's terms carry (the fields of ``poly.support``) adds
    nothing and is skipped before any lookup.  The sign and the merged index are ``exterior.insertions``, and
    ``exterior.put_component`` drops an output index whose sum cancels.
    """
    if aprime not in (0, 1):
        raise ValueError("primed index must be 0 or 1")
    if f.dim != frame.dim:
        raise ValueError(f"form dimension {f.dim} does not match frame dimension {frame.dim}")
    if f.vars != frame.vars:
        raise ValueError("variable table mismatch with frame")
    degree = f.degree + 1
    if degree > f.dim:
        return ExtForm.zero(f.dim, degree, f.vars)
    L, rows = frame.row_table(aprime, raised)
    D = lcm(1, *(p.den for p in f.comps.values()))
    comps = [(insertions(f.dim, idx), coeff.num, D // coeff.den, support(coeff.num))
             for idx, coeff in f.comps.items()]
    out: dict = {}
    for a, (op, scale, row_mask) in enumerate(rows):
        for table, num, mult, mask in comps:
            if mask & row_mask:
                inserted = table[a]
                if inserted is not None:
                    sign, key = inserted
                    put_component(out, key, op.apply_into(out.get(key, {}), num,
                                                          sign * scale * mult))
    den = D * L
    return ExtForm._make(f.dim, degree, f.vars,
                         {key: Poly._make(f.vars, num, den) for key, num in out.items()})


# -- curvature --------------------------------------------------------------------------


def curvature_form(group: GroupSpec) -> ExtForm:
    """Constant tangential curvature 2-form of the group, sum_{a<b} 2 E_{ab} w^a w^b.

    The entries are :func:`groups.curvature_entry`, the closed form of
    -d^0 d^1 rho restricted to the tangential indices.
    """
    dim, gvars = 2 * group.n, group.vars
    comps = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            entry = curvature_entry(group, a, b)
            if any(entry):
                comps[(a, b)] = Poly.const(gvars, entry).scale(2)
    return ExtForm._make(dim, 2, gvars, comps)


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
        return self.sigma(j + 1), self.tau(j) - (j != self.k), self.basis_tag(j)


class BoundaryField:
    """Level-j element of the boundary pair complex; immutable, compared field by field."""

    def __init__(self, spec: BoundarySpec, level: int, lead: SpinorField,
                 companion: SpinorField | None):
        spec.check_field(lead, spec.shape(level), "lead", level)
        cshape = spec.companion_shape(level)
        if cshape is None:
            if companion is not None and not companion.is_zero():
                raise ValueError(f"level {level} has no companion slot")
            companion = None
        elif companion is not None:
            spec.check_field(companion, cshape, "companion", level)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "companion", companion)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryField is immutable")

    def __eq__(self, other):
        if type(other) is not BoundaryField:
            return NotImplemented
        return ((self.spec, self.level, self.lead, self.companion)
                == (other.spec, other.level, other.lead, other.companion))

    @classmethod
    def build(cls, spec: BoundarySpec, j: int, make) -> "BoundaryField":
        """Level-j field whose lead and companion are ``make(sigma, degree, basis)``."""
        cshape = spec.companion_shape(j)
        return cls(spec, j, make(*spec.shape(j)), None if cshape is None else make(*cshape))

    def has_companion(self) -> bool:
        return self.spec.companion_shape(self.level) is not None

    def companion_slot(self, a: int, frame: TangentFrame) -> ExtForm:
        if self.companion is None:
            cshape = self.spec.companion_shape(self.level)
            return ExtForm.zero(self.spec.form_dim, cshape[1] if cshape else 0, frame.vars)
        return self.companion.slot(a)

    def is_zero(self) -> bool:
        lead_zero = self.lead.is_zero()
        comp_zero = self.companion is None or self.companion.is_zero()
        return lead_zero and comp_zero


# -- the boundary operator ----------------------------------------------------------------


def boundary_D(frame: TangentFrame, fld: BoundaryField) -> BoundaryField:
    """Level-j boundary operator: the projected operator plus the curvature coupling.

    The lead output is :func:`subcomplex_D` of the lead f plus E0 ^ G(b), G
    the companion, on levels with a companion slot; at j = k it is the
    double operator minus E0 ^ (T^{10} f + G).  The companion output couples
    G to the central translations T of f.
    """
    spec, j, k = fld.spec, fld.level, fld.spec.k
    lead = subcomplex_D(frame, spec, j, fld.lead)
    E0, f = frame.E0, fld.lead.slot
    G = lambda a: fld.companion_slot(a, frame)
    T = lambda key, b: f(b).map_coeffs(frame.T_upper[key].apply)
    if j == k:
        lead = SpinorField(0, "tilde", [lead.slot(0) - E0.wedge(T((1, 0), 0) + G(0))])

        def h(ap: int) -> ExtForm:
            term = frak_d(1, f(0).map_coeffs(frame.T_lower[ap][0].apply), frame)
            term = term - frak_d(0, f(0).map_coeffs(frame.T_lower[ap][1].apply), frame)
            # lowered-index operators: first slot is -d^1, second slot is d^0
            dn = -frak_d(1, G(0), frame) if ap == 0 else frak_d(0, G(0), frame)
            return term - dn

        # pair (h_0, h_1) with a lowered free index corresponds to ascending
        # slots (-h_1, +h_0)
        return BoundaryField(spec, j + 1, lead, SpinorField(1, "tilde", [-h(1), h(0)]))
    if fld.has_companion():
        lead = SpinorField(lead.sigma, lead.basis,
                           [s + E0.wedge(G(b)) for b, s in enumerate(lead.slots)])
    if j == k - 1:
        # both output components are plain middle-degree forms
        comp = frame.zero_form(k)
        if fld.has_companion():
            skew_dd = (_dd(frame, G(0), 0, 1) - _dd(frame, G(0), 1, 0)).scale(Fraction(1, 2))
            comp = comp + skew_dd + E0.wedge(G(0).map_coeffs(frame.T_skew.apply))
        for ap in (0, 1):
            for bp in (0, 1):
                comp = comp - frak_d(bp, f(ap).map_coeffs(frame.T_lower[bp][ap].apply), frame)
        return BoundaryField(spec, j + 1, lead, SpinorField(0, "S", [comp]))
    # below or above the middle: minus T^{xy} of the lead along the two-step
    # paths of the rules of levels j and j + 1, minus rule j + 1 on G
    inner, outer = spec.slot_rule(j), spec.slot_rule(j + 1)
    shape = spec.companion_shape(j + 1)
    comp = SpinorField(shape[0], shape[2], [-f for f in _sums(frame, shape[1], [
        [T((x, y), a) for m, (x,) in terms for a, (y,) in inner[m]] for terms in outer])])
    if fld.has_companion():
        comp = comp - _slot_combination(frame, outer, G, shape)
    return BoundaryField(spec, j + 1, lead, comp)


def _dd(frame, f, a, b):
    return frak_d(a, frak_d(b, f, frame), frame)


def _slot_combination(frame: Frame, rule: tuple, slot, shape) -> SpinorField:
    """The field of ``shape`` (sigma, degree, basis) whose slot b sums d^path
    slot(a) over the (a, path) of ``rule[b]``, a ``LevelTable.slot_rule``."""
    sigma, degree, basis = shape
    return SpinorField(sigma, basis, _sums(frame, degree, [
        [reduce(lambda f, p: frak_d(p, f, frame), reversed(path), slot(a)) for a, path in terms]
        for terms in rule]))


def _sums(frame: Frame, degree: int, lists: list) -> list:
    """The sum of each list of forms; the zero form of ``degree`` for an empty one."""
    return [sum(forms[1:], forms[0]) if forms else ExtForm.zero(frame.dim, degree, frame.vars)
            for forms in lists]


def subcomplex_D(frame: Frame, spec, j: int, lead: SpinorField) -> SpinorField:
    """Slot-combination step of the level-j operator on leading components:
    ``spec.slot_rule(j)`` applied to the slots of ``lead``.

    With the ambient frame and a flat ``ComplexSpec`` this is the flat
    operator; with a right-type group and a :class:`BoundarySpec` it is the
    projected boundary operator.
    """
    spec._check_operator_level(j)
    return _slot_combination(frame, spec.slot_rule(j), lead.slot, spec.shape(j + 1))


# -- identity checks ------------------------------------------------------------------------


def anticommutation_defect(frame: TangentFrame, f: ExtForm, ap: int, bp: int):
    """(defect, curvature term) for one symmetrized pair of indices.

    The defect is the symmetrized double operator; it must equal the
    curvature wedge with the symmetrized raised translation operator.
    """
    half = Fraction(1, 2)
    defect = (_dd(frame, f, ap, bp) + _dd(frame, f, bp, ap)).scale(half)
    rhs = frame.E0.wedge(f.map_coeffs(frame.T_sym[(ap, bp)].apply))
    return defect, rhs


def bracket_identity(frame: TangentFrame) -> dict:
    """Symbolic check of the antisymmetrized double-field identity.

    For every pair of form indices and symmetrized primed pair, the
    alternating second-order combination of tangential fields equals the
    curvature component times the symmetrized translation operator.

    The combination ``Z_a^{a'} Z_b^{b'} + Z_a^{b'} Z_b^{a'} - Z_b^{a'} Z_a^{b'}
    - Z_b^{b'} Z_a^{a'}`` regroups as ``[Z_a^{a'}, Z_b^{b'}] + [Z_a^{b'}, Z_b^{a'}]``.
    The order-2 part of X∘Y is the symmetrized product of the coefficients of
    X and Y, which Y∘X shares, so the combination equals this first-order sum
    exactly: comparing its coefficients proves the identity symbolically, as
    the full compositions did.  The four commutators of a row pair serve all
    four primed pairs.  Both sides are canonical integer operator tables,
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
            for ap, bp in ((0, 0), (0, 1), (1, 0), (1, 1)):
                lhs = (brackets[ap, bp] + brackets[bp, ap]).scale(quarter)
                rhs = frame.T_sym[(ap, bp)].scale(coeff)
                if lhs != rhs:
                    ok = False
                    worst = str(lhs - rhs)
    result = {"identity": "bracket-curvature", "params": {"n": frame.n},
              "seed": None, "pass": ok, "residual": worst}
    if frame.right_type:
        result["paired_rows_cancel"] = paired
    return result


# -- the diagonal second-order identity ------------------------------------------------------


def lead_first_adjoint_compose(frame: TangentFrame, k: int, slots: list[Poly]):
    """Formal adjoint applied to the bottom-level operator D_0, slot by slot.

    D_0 is :func:`subcomplex_D` at level 0 on the scalar slot field: slot b of
    its image has component Z_row^0 slots[b] + Z_row^1 slots[b + 1] at (row,).
    The adjoint walks level 0's slot rule back, from output slot b to slot a.
    """
    if len(slots) != k + 1:
        raise ValueError(f"need {k + 1} slot functions")
    spec = BoundarySpec(frame.n, k)
    lead = SpinorField(k, "S", [ExtForm.from_scalar(frame.dim, p) for p in slots])
    image = subcomplex_D(frame, spec, 0, lead)
    adjoint = [(row[0].conjugate(), row[1].conjugate()) for row in frame.Z_upper]
    out = [Poly.zero(frame.vars)] * (k + 1)
    for b, terms in enumerate(spec.slot_rule(0)):
        for a, (p,) in terms:
            for row, ops in enumerate(adjoint):
                out[a] = out[a] - ops[p].apply(image.slot(b).component((row,)))
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
    right-type group.
    """
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
        lhs = lead_first_adjoint_compose(frame, k, slots)
        for a in range(k + 1):
            weight = 1 if a in (0, k) else 2
            rhs = sub_laplacian(frame, slots[a]).scale(weight)
            diff = lhs[a] - rhs
            if not diff.is_zero():
                ok = False
                residual = str(diff)
    return {"identity": "second-order-diagonal", "params": {"n": spec.n, "k": k,
            "trials": trials, "degree": 3}, "seed": seed,
            "pass": ok, "residual": residual}
