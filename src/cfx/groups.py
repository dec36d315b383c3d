"""Step-two nilpotent groups attached to quadratic hypersurfaces.

A group is determined by a symmetric 4n x 4n rational matrix S; its bracket
structure lives in the three skew matrices B^beta = S Ibeta + Ibeta S where
Ibeta is the block-diagonal quaternion action.  Each column of Ibeta holds a
single +-1, so S Ibeta is a signed column permutation of S, and
Ibeta S = -(S Ibeta)^T because S is symmetric and Ibeta is skew.  Brackets,
horizontal fields and curvature entries read one integer view of S.
Classification predicates (right-type, stratified, nondegenerate central
pairing) are exact except where a grid sampling is explicitly reported as
such: condition H samples the Pfaffian form of the pairing, interpolated
exactly from integer Pfaffians, on a direction grid (det = Pf^2), and its
``exact`` mode also decides whether the determinant vanishes identically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .linalg import bareiss, pfaffian
from .operators import FirstOrderOp
from .poly import BITS, Immutable, Poly, _past_table, _set, group_vars, unpack
from .rational import clear_denominators, exact_fraction, exact_int, parse_fraction

# Two commuting quaternion representations on R^4; each triple satisfies
# (E^1)^2 = (E^2)^2 = (E^3)^2 = -Id and E^1 E^2 = E^3.
I_MATS = (
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)),
)
J_MATS = (
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)),
    ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0)),
    ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
)
ID4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# the named groups of GroupSpec.named, in the order `cfx --group` lists them
GROUP_NAMES = ("rightQH", "leftQH", "abelian")

# (row, sign) of the one nonzero entry in each column of Ibeta.
_I_COLUMNS = tuple(
    tuple(next((k, m[k][j]) for k in range(4) if m[k][j]) for j in range(4))
    for m in I_MATS
)


def mat_mul(a, b) -> tuple:
    size_i, size_k, size_j = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size_k)) for j in range(size_j))
        for i in range(size_i)
    )


def block_diag(block, count: int) -> tuple:
    size = len(block)
    total = size * count
    out = [[0] * total for _ in range(total)]
    for c in range(count):
        for i in range(size):
            for j in range(size):
                out[c * size + i][c * size + j] = block[i][j]
    return tuple(tuple(row) for row in out)


def _s_times_i(S, beta: int, n: int) -> tuple:
    """S block_diag(Ibeta, n) as a signed column permutation of S."""
    cols = [(4 * c + k, sign) for c in range(n) for k, sign in _I_COLUMNS[beta]]
    return tuple(tuple(row[k] if sign > 0 else -row[k] for k, sign in cols) for row in S)


def quaternion_relations_ok(triple, orientation: int = 1) -> bool:
    """Squares are -Id and the cyclic products close with the given orientation.

    orientation +1: E1 E2 = E3 (and cyclic); orientation -1: the mirrored
    table E2 E1 = E3.  The two block factors of so(4) realize one of each.
    """
    e1, e2, e3 = (tuple(map(tuple, m)) for m in triple)
    neg_id = tuple(tuple(-x for x in row) for row in ID4)
    if orientation == 1:
        products = [(e1, e2, e3), (e2, e3, e1), (e3, e1, e2)]
    elif orientation == -1:
        products = [(e2, e1, e3), (e3, e2, e1), (e1, e3, e2)]
    else:
        raise ValueError("orientation must be +1 or -1")
    checks = [mat_mul(e, e) == neg_id for e in (e1, e2, e3)]
    checks += [mat_mul(a, b) == c for a, b, c in products]
    # anticommutation of distinct elements: a b = (b a)(-Id)
    checks += [mat_mul(a, b) == mat_mul(mat_mul(b, a), neg_id)
               for a, b in ((e1, e2), (e2, e3), (e3, e1))]
    return all(checks)


class GroupSpec(Immutable):
    """Validated symmetric matrix S of Fractions, read by ``rational.exact_fraction``,
    and its integer view ``integer_S`` = (den, den S), den the lcm of S's
    denominators, which its readers use.  Immutable."""

    def __init__(self, n: int, S):
        _set(self, "n", n)
        _set(self, "S", S)
        self.__post_init__()

    def __post_init__(self):
        if exact_int(self.n, "n") < 1:
            raise ValueError("need n >= 1")
        size = 4 * self.n
        S = tuple(tuple(map(exact_fraction, row)) for row in self.S)
        if len(S) != size or any(len(row) != size for row in S):
            raise ValueError(f"S must be {size}x{size}")
        if S != tuple(zip(*S)):
            raise ValueError("S must be symmetric")
        den, ints = clear_denominators([x for row in S for x in row])
        _set(self, "S", S)
        _set(self, "integer_S", (den, tuple(tuple(ints[i:i + size])
                                            for i in range(0, len(ints), size))))

    @cached_property
    def integer_brackets(self) -> tuple:
        """(den, (den B^1, den B^2, den B^3)) in ints: P - P^T, P = den S Ibeta."""
        den, S = self.integer_S
        brackets = []
        for beta in range(3):
            si = _s_times_i(S, beta, self.n)
            brackets.append(tuple(tuple(x - y for x, y in zip(row, col))
                                  for row, col in zip(si, zip(*si))))
        return den, tuple(brackets)

    # -- canonical examples ------------------------------------------------------

    @classmethod
    def _blockwise(cls, block, n) -> "GroupSpec":
        """S = block_diag(block, n), with n read as the constructor reads it
        before S is built."""
        return cls(n, block_diag(block, exact_int(n, "n")))

    @classmethod
    def abelian(cls, n: int) -> "GroupSpec":
        return cls._blockwise(((0,) * 4,) * 4, n)

    @classmethod
    def right_qh(cls, n: int) -> "GroupSpec":
        """Blockwise diag(-3,1,1,1): the right quaternionic Heisenberg structure."""
        return cls._blockwise(((-3, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), n)

    @classmethod
    def left_qh(cls, n: int) -> "GroupSpec":
        """S = Id (squared-norm potential): the left quaternionic Heisenberg structure."""
        return cls._blockwise(ID4, n)

    @classmethod
    def named(cls, name: str, n: int) -> "GroupSpec":
        table = dict(zip(GROUP_NAMES, (cls.right_qh, cls.left_qh, cls.abelian)))
        if name not in table:
            raise KeyError(f"unknown group name {name!r}")
        return table[name](n)

    # -- structure ----------------------------------------------------------------

    @property
    def vars(self):
        return group_vars(self.n)

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        """{"n": int, "S": [[str or int, ...]]}; ValueError otherwise."""
        try:
            n, rows = data["n"], data["S"]
            # a string row would be read as its characters, a dict row as its keys
            if type(rows) is not list or any(type(row) is not list for row in rows):
                raise ValueError("malformed group JSON: S must be a list of lists")
            # exact input only: a JSON float or boolean would be read inexactly
            if type(n) is not int or any(type(x) not in (str, int) for row in rows for x in row):
                raise ValueError("group JSON needs an integer n and string or integer S entries")
            S = tuple(tuple(parse_fraction(x) for x in row) for row in rows)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed group JSON: {exc!r}") from None
        return cls(n, S)


def group_from_phi(phi: Poly) -> GroupSpec:
    """Group from a homogeneous quadratic potential phi = x^T S x in x1..x_{4n}.

    S is read off the coefficients in one pass: a term c x_i x_j with
    i != j gives S_ij = S_ji = c/2, and a term c x_i^2 gives S_ii = c.
    """
    xnames = [v for v in phi.vars if v.startswith("x")]
    if len(xnames) % 4:
        raise ValueError("potential needs 4n x-variables")
    size = len(xnames)
    terms = [(unpack(key, len(phi.vars)), c) for key, c in phi.num.items()]
    if any(sum(expo) != 2 for expo, _ in terms):
        raise ValueError("potential must be homogeneous quadratic")
    for expo, (_, im) in terms:
        if im:
            raise ValueError("potential must have rational coefficients")
        for v, e in zip(phi.vars, expo):
            if e and not v.startswith("x"):
                raise ValueError("potential must not involve center variables")
    position = {f"x{i + 1}": i for i in range(size)}
    if set(xnames) != set(position):
        raise ValueError(f"potential needs the x-variables x1..x{size}")
    slot = [position.get(v) for v in phi.vars]
    S = [[0] * size for _ in range(size)]
    for expo, (re, _) in terms:
        # the term's two x-factors: i == j for a square
        i, j = (slot[a] for a, e in enumerate(expo) for _ in range(e))
        c = Fraction(re, phi.den if i == j else 2 * phi.den)
        S[i][j] = S[j][i] = c
    return GroupSpec(size // 4, tuple(tuple(row) for row in S))


# -- right-type classification ---------------------------------------------------------


# (column, sign) of the one nonzero entry in each row of J1, J2, J3 and Id
_SPAN_ROWS = tuple(
    tuple(next((j, e[i][j]) for j in range(4) if e[i][j]) for i in range(4))
    for e in (*J_MATS, ID4)
)


def is_right_type(g: GroupSpec):
    """True iff every bracket block lies in span{J1,J2,J3,Id}; with certificate.

    The certificate lists each offending (l, m, beta) with the residual after
    projecting onto the span.  The four basis matrices are signed permutations,
    trace-orthogonal with squared norm 4, so the projection runs on the blocks
    b = den B of ``integer_brackets``: with c_e = tr(e^T b), the residual of
    B is (4 b - sum_e c_e e) / (4 den), and only an offending block is turned
    into Fraction strings.
    """
    den, brackets = g.integer_brackets
    offending = []
    for beta in range(3):
        for l in range(g.n):
            for m in range(g.n):
                block = [row[4 * m:4 * m + 4] for row in brackets[beta][4 * l:4 * l + 4]]
                residual = [[4 * x for x in row] for row in block]
                for pattern in _SPAN_ROWS:
                    c = sum(sign * block[i][j] for i, (j, sign) in enumerate(pattern))
                    for i, (j, sign) in enumerate(pattern):
                        residual[i][j] -= sign * c
                if any(x for row in residual for x in row):
                    offending.append({
                        "l": l, "m": m, "beta": beta + 1,
                        "residual": [[str(Fraction(x, 4 * den)) for x in row]
                                     for row in residual],
                    })
    return (not offending), offending


def curvature_entry(g: GroupSpec, a: int, b: int) -> tuple:
    """Closed-form component E_{ab} of the tangential curvature 2-form, as
    its exact (re, im) pair of Fractions.

    Expanding -d^0 d^1 rho on the quadratic potential leaves linear
    combinations of the entries of the 4x4 block (a // 2, b // 2) of S,
    summed in ints on den S of ``integer_S`` and divided by den once.
    """
    den, S = g.integer_S
    l, m = 4 * (a // 2), 4 * (b // 2)
    s = [row[m:m + 4] for row in S[l:l + 4]]
    if a % 2 == 0 and b % 2 == 0:
        re = s[2][0] - s[0][2] - s[3][1] + s[1][3]
        im = -(s[0][3] - s[3][0] + s[1][2] - s[2][1])
        return Fraction(re, den), Fraction(im, den)
    if a % 2 == 1 and b % 2 == 1:
        re, im = curvature_entry(g, a - 1, b - 1)
        return re, -im
    if a % 2 == 0 and b % 2 == 1:
        re = s[0][0] + s[1][1] + s[2][2] + s[3][3]
        im = s[3][2] - s[2][3] - s[0][1] + s[1][0]
        return Fraction(re, den), Fraction(im, den)
    # odd-even: antisymmetry plus the even-odd case with blocks swapped
    re, im = curvature_entry(g, b, a)
    return -re, -im


def is_right_type_via_E(g: GroupSpec) -> bool:
    """Independent route: the curvature 2-form vanishes.

    The entries with odd a are conjugates or negatives of those with even a,
    so it is enough that E_{2l,2m} and E_{2l,2m+1} vanish: their real and
    imaginary parts are four linear conditions on each 4x4 block of S.
    """
    return not any(any(curvature_entry(g, a, b))
                   for a in range(0, 2 * g.n, 2) for b in range(2 * g.n))


# -- horizontal fields -------------------------------------------------------------------


def horizontal_fields(g: GroupSpec) -> list[FirstOrderOp]:
    """The 4n generating fields X_b = d_{x_b} + 2 sum (S Ibeta)_{ab} x_a d_{t_beta}.

    Each field is one operator dict over den of ``integer_S``: den at the
    constant monomial for d_{x_b}, and for each t_beta the numerators
    2 (den S Ibeta)_{ab} at x_a (monomial ``1 << BITS * a``), each key with
    the unit of its variable past the table.  The trusted
    ``FirstOrderOp._make`` divides out the common factor.
    """
    variables = g.vars
    size = 4 * g.n
    den, S = g.integer_S
    si = [_s_times_i(S, beta, g.n) for beta in range(3)]
    fields = []
    for b in range(size):
        # x_b is variable b and t_beta variable size + beta of the table
        num = {_past_table(1 << BITS * b, variables): (den, 0)}
        for beta in range(3):
            d_t = _past_table(1 << BITS * (size + beta), variables)
            num.update({1 << BITS * a | d_t: (2 * row[b], 0)
                        for a, row in enumerate(si[beta]) if row[b]})
        fields.append(FirstOrderOp._make(variables, num, den))
    return fields


# -- stratified / central nondegeneracy -----------------------------------------------------


def is_stratified(g: GroupSpec) -> bool:
    """Brackets span the full 3-dimensional center."""
    _, (b1, b2, b3) = g.integer_brackets
    size = 4 * g.n
    rows = [{beta: (b[a][c], 0) for beta, b in enumerate((b1, b2, b3)) if b[a][c]}
            for a in range(size) for c in range(a + 1, size)]
    return bareiss(rows) == 3


@lru_cache(maxsize=None)
def _direction_grid(resolution: int) -> tuple:
    """(mu, evaluate) for the int points of the cube faces max |mu_i| = resolution.

    mu / resolution is a covector direction; faces run axis by axis, + then
    -, and a point on an edge is kept where it first comes.  The grid is
    closed under negation, and ``evaluate`` is False exactly when -mu came
    earlier: the Pfaffian form has even degree 2n, so its value at -mu is
    its value at mu, and the earlier point already decided this one.
    """
    out = []
    seen = set()
    values = range(-resolution, resolution + 1)
    for axis in range(3):
        for face in (resolution, -resolution):
            for u in values:
                for w in values:
                    mu = [u, w]
                    mu.insert(axis, face)
                    mu = tuple(mu)
                    if mu not in seen:
                        out.append((mu, tuple(-x for x in mu) not in seen))
                        seen.add(mu)
    return tuple(out)


def _falling_factorials(d: int) -> tuple:
    """Row i, i = 0..d: the coefficients of u (u - 1) ... (u - i + 1) in u^0..u^i.

    These are the signed Stirling numbers of the first kind.
    """
    rows = [(1,)]
    for i in range(d):
        prev = rows[-1] + (0,)
        rows.append(tuple((prev[a - 1] if a else 0) - i * prev[a] for a in range(i + 2)))
    return tuple(rows)


def _forward_differences(values: list) -> list:
    """Delta^i v(0), i = 0..len - 1, from the values v(0), v(1), v(2), ..."""
    out = list(values)
    for k in range(1, len(out)):
        for i in range(len(out) - 1, k - 1, -1):
            out[i] -= out[i - 1]
    return out


def pairing_pfaffian_form(g: GroupSpec) -> tuple:
    """Integer coefficients of c Pf( sum lam_beta B^beta ) for one constant c > 0.

    Entry [b][a] is the coefficient of lam1^(d-a-b) lam2^a lam3^b, d = 2n, and
    the coefficients have gcd 1 unless the Pfaffian is the zero form.  The
    pencil is 4n x 4n, skew, with linear forms as entries, so f(lam) = Pf is
    zero or a form of degree d, its square is the determinant, and
    f(1, u, w) has total degree <= d.  The principal lattice u, w >= 0,
    u + w <= d is unisolvent for that degree (Chung and Yao, SIAM J. Numer.
    Anal. 14, 1977), so the C(d+2, 2) values there fix f.  Each is the
    ``pfaffian`` of the int pencil sum mu_beta (den B^beta) at mu = (1, u, w),
    which is den^d f(mu).  Forward differences in u, then in w, give the
    Newton coefficients D_ij of den^d f(1, u, w) = sum D_ij binom(u, i) binom(w, j),
    and f is the zero form iff every D_ij is 0.  The signed Stirling numbers
    expand the falling factorials i! binom(u, i) into powers of u, and
    homogenizing gives d! den^d f(lam) with the integer coefficients
    sum D_ij d!/(i! j!) s(i, a) s(j, b), which are divided by their gcd.
    """
    d = 2 * g.n
    _, brackets = g.integer_brackets
    rows = tuple(zip(*brackets))
    # by_u[w][i] = Delta_u^i den^d f(1, 0, w); newton[i][j] = D_ij
    by_u = [_forward_differences([pfaffian([[a + u * b + w * c for a, b, c in zip(*r)]
                                            for r in rows])
                                  for u in range(d + 1 - w)])
            for w in range(d + 1)]
    newton = [_forward_differences([by_u[w][i] for w in range(d + 1 - i)])
              for i in range(d + 1)]
    fact = [math.factorial(i) for i in range(d + 1)]
    weighted = [[x * (fact[d] // (fact[i] * fact[j])) for j, x in enumerate(row)]
                for i, row in enumerate(newton)]
    s = _falling_factorials(d)
    in_u = [[sum(s[i][a] * weighted[i][j] for i in range(a, d + 1 - j))
             for j in range(d + 1 - a)] for a in range(d + 1)]
    form = [[sum(s[j][b] * in_u[a][j] for j in range(b, d + 1 - a))
             for a in range(d + 1 - b)] for b in range(d + 1)]
    content = math.gcd(*(x for col in form for x in col)) or 1
    return tuple(tuple(x // content for x in col) for col in form)


def _form_evaluator(form: tuple):
    """mu -> a ``pairing_pfaffian_form`` at the integer direction mu, in ints.

    The form has degree d = 2n.  Horner in mu2 gives the coefficient of
    each power of mu3 at (mu1, mu2), and Horner in mu3 sums them.  Those
    coefficients are kept per (mu1, mu2): the grid walks lines of fixed
    (mu1, mu2), so most points cost d + 1 products instead of about d^2.
    """
    d = len(form) - 1
    in_mu3 = {}

    def value(mu) -> int:
        x, y, z = mu
        coeffs = in_mu3.get((x, y))
        if coeffs is None:
            xp = [1]
            for _ in range(d):
                xp.append(xp[-1] * x)
            coeffs = []
            for b in range(d, -1, -1):
                col = form[b]
                acc = 0
                for a in range(d - b, -1, -1):
                    acc = acc * y + col[a] * xp[d - b - a]
                coeffs.append(acc)
            in_mu3[x, y] = coeffs
        total = 0
        for c in coeffs:
            total = total * z + c
        return total

    return value


def check_condition_H(g: GroupSpec, mode: str, resolution: int = 4) -> dict:
    """Nondegeneracy of the central pairing for every nonzero covector.

    Both modes look for a zero of det( sum lam_beta B^beta ) on a rational
    direction grid.  A vanishing sample is an exact witness of failure; a
    clean grid yields the verdict "sampled-true" (a grid check, not a
    proof).  The pencil is real and skew, so det = f^2 with
    f(lam) = Pf( sum lam_beta B^beta ): det vanishes exactly where f does.
    f is known exactly, as the integer form c f of ``pairing_pfaffian_form``
    (c > 0), from C(2n+2, 2) Pfaffians on the principal lattice: 6, 15 and
    28 at n = 1, 2 and 3.  Each sample is the form, in ints, at the integer
    direction mu = resolution lam.  The form has even degree 2n, so
    f(-mu) = f(mu): a point whose antipode came earlier in grid order is
    not evaluated, since the loop would have stopped at the antipode had f
    vanished there.  Verdicts and witnesses are those of the full grid.

    ``exact`` also decides from the same values whether the determinant is
    the zero polynomial: it is iff f is, which by the unisolvence of the
    lattice holds iff every Newton coefficient is 0.  It reports the
    determinant's degree 4n.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    form = pairing_pfaffian_form(g)
    if mode == "exact" and not any(any(col) for col in form):
        return {"verdict": "false", "witness": ["1", "0", "0"],
                "reason": "determinant vanishes identically"}
    grid = _direction_grid(resolution)
    value = _form_evaluator(form)
    # only a zero decides: the first grid zero of f is the first of det = f^2,
    # and a sign change of f between grid points is not read
    for mu, evaluate in grid:
        if evaluate and not value(mu):
            return {"verdict": "false", "witness": [str(Fraction(x, resolution)) for x in mu],
                    "reason": "determinant vanishes at a rational covector"}
    result = {"verdict": "sampled-true", "grid_points": len(grid),
              "resolution": resolution,
              "note": "no zero on the sampled direction grid; not a positivity proof"}
    if mode == "exact":
        result["det_degree"] = 4 * g.n
    return result


def classify(g: GroupSpec, condition_h_mode: str = "sampled") -> dict:
    """Full classification record for one group."""
    right, certificate = is_right_type(g)
    via_e = is_right_type_via_E(g)
    result = {
        "n": g.n,
        "right_type": right,
        "right_type_via_E": via_e,
        "routes_agree": right == via_e,
        "stratified": is_stratified(g),
        "condition_H": check_condition_H(g, mode=condition_h_mode),
        "block_certificates": certificate,
    }
    return result
