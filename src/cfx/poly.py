"""Sparse multivariate polynomials over exact complex rationals.

A polynomial is a map from dense exponent vectors (one slot per variable in
a fixed, ordered variable table) to nonzero Gaussian-rational coefficients.
Two polynomials can be combined only when their variable tables agree; all
arithmetic is exact.

Layout (the integer-numerator form of FLINT's ``fmpq_poly``): ``num`` maps
each exponent vector to a Gaussian-integer numerator ``(re, im)`` of ints,
and one positive int ``den`` is the denominator of every coefficient.
:class:`Packed` holds the layout's rules, once, for every kind built on it
(``Poly``, ``ExtForm``, ``FirstOrderOp``, ``CutoffJet``).  The form is
canonical, so ``==`` and ``hash`` are exact:

* no numerator is ``(0, 0)``;
* the gcd of ``den`` and every numerator part is 1;
* the zero value has ``den == 1``.

Its trusted ``_make`` only divides out the common factor of ``den`` and the
numerators; sum, difference, negation and ``scale`` are one pass of the
primitives below; a value is immutable, as every record of the package
is, through :class:`Immutable`, and values of two kinds or shapes are never
equal.  A sum or a difference takes two values of one kind (another kind,
a scalar included, is ``NotImplemented``, so a TypeError), and
``Packed._check`` is the one test that two operands share a variable table;
a scalar multiple is ``scale`` and a constant ``Poly.const``.

An exponent vector is one packed int (Monagan and Pearce's packed exponent
vectors, as in FLINT's ``fmpz_mpoly``): variable v holds the ``BITS`` bits
from ``BITS * v`` up, so the constant monomial is 0, a monomial product is
``e1 + e2``, lowering variable v is ``key - (1 << BITS * v)`` and one
exponent is ``key >> BITS * v & FIELD``.  The top bit of every field is a
guard: a stored exponent is at most ``MAX_EXPONENT``, so a sum of two never
carries into the next field, and every product whose sum reaches a guard
bit (``key & GUARD``) raises ``ValueError`` instead of wrapping.  Tuples
come in and go out only through :func:`pack`, which refuses an exponent that
is not an int, and :func:`unpack`: the public constructor, ``monomial`` and
the JSON reader pack, and ``str``, the sizing of the moment tables and the
few readers of a whole exponent vector unpack.

The public constructor ``Poly(vars, terms)`` validates every term; the
product and ``diff`` build through ``_make`` too.  A scalar input (a
coefficient of ``Poly``, ``const``, ``var``, ``monomial`` or ``scale``) is an
int, a ``Fraction`` or an ``(re, im)`` pair of them; :func:`_gaussian_parts`
reads every one.  The public constructors of ``Poly``, ``ExtForm`` and
``FirstOrderOp`` merge their canonical coefficients, each lifted by its key
offset, in :func:`_merge`; a form's or an operator's coefficient, a ``Poly``
or a scalar, is read by :func:`_coefficient`.  The text edge is ``str`` and
the JSON reader ``from_json``.

In an ``ExtForm``, a ``FirstOrderOp`` and a ``CutoffJet`` the keys carry
a second value in the fields past the variable table: a form component's
index mask, the unit ``1 << BITS * v`` of the variable v an operator term
differentiates, or a jet term's derivative multi-index alpha, packed as an
exponent vector is.  :func:`_past_table` places that value and
:func:`_split` groups a dict by it, here alone.  ``randgen.SectionGenerator``
and ``groups.horizontal_fields`` build the same dicts, and every builder
goes through the primitives here.  :func:`add_term` is the one place a sum
is merged into a key, so it alone keeps the no-``(0, 0)`` rule;
:func:`common_sum` adds two dicts over one denominator, :func:`times_gaussian`
scales one by a Gaussian integer and :func:`mul_into` adds the product of two
into a third (``Poly.__mul__``, ``ExtForm.wedge``, ``CutoffJet.apply_op``,
where the fields past the table add as the monomials do).  Callers keep only
the rules on their keys.  A key with bits past its table never reaches
:func:`unpack`, ``str`` or the moment sums, which read whole keys: only the
stripped groups of :func:`_split` (``ExtForm.comps``,
``FirstOrderOp.kernel``, ``quadrature.integrate_jets``) hand its terms on.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .rational import clear_denominators, exact_int, gaussian_from_json

_set = object.__setattr__

# Bits per variable in a packed exponent vector: two bytes, the top bit the
# guard.  On the products of the boundary-ma benchmark mul_into ran as fast
# with 16 bits as with 8 (within 3%), and 16 leave exponents up to
# 2**15 - 1 where 8 would stop at 127.
BITS = 16
FIELD = 0xFFFF
MAX_EXPONENT = 0x7FFF
# A term's nonzero exponents sit in the first MAX_VARS variables of its
# table, whose fields GUARD covers.
MAX_VARS = 256
GUARD = int.from_bytes(b"\x00\x80" * MAX_VARS, "little")


def pack(expo) -> int:
    """The packed key of an exponent vector of ints; TypeError on any other
    exponent, ValueError on a negative one, one above ``MAX_EXPONENT`` or
    one past the first ``MAX_VARS`` variables."""
    key = 0
    for e in reversed(expo):
        if not 0 <= exact_int(e, "an exponent") <= MAX_EXPONENT:
            raise ValueError(f"exponent {e} is outside 0..{MAX_EXPONENT}")
        key = key << BITS | e
    if key >> BITS * MAX_VARS:
        raise ValueError(f"a term has a nonzero exponent past variable {MAX_VARS}")
    return key


def unpack(key: int, width: int) -> tuple:
    """The exponent vector, of ``width`` ints, of a packed key."""
    return tuple(key >> shift & FIELD for shift in range(0, BITS * width, BITS))


def _past_table(value: int, variables: tuple) -> int:
    """The key bits of ``value`` in the fields past the table ``variables``:
    an exterior form's index mask there, or an operator's or a cutoff jet's
    derivative multi-index alpha, one order per variable packed as an
    exponent vector is."""
    return value << BITS * len(variables)


def _split(num: dict, variables: tuple, strip: bool = False) -> dict:
    """{value of the fields past the table ``variables``: its terms}, in the
    order the values first appear; each term keeps its whole key, or with
    ``strip`` only its monomial."""
    shift = BITS * len(variables)
    low = (1 << shift) - 1 if strip else -1
    groups: dict = {}
    for key, value in num.items():
        groups.setdefault(key >> shift, {})[key & low] = value
    return groups


def support(num: dict) -> int:
    """The OR of a numerator dict's packed keys: field v is nonzero iff some
    term has a nonzero exponent in variable v, and is at least the highest
    such exponent (and below twice it)."""
    mask = 0
    for key in num:
        mask |= key
    return mask


def x_vars(m: int) -> tuple:
    """Variable table x1..xm."""
    return tuple(f"x{i}" for i in range(1, m + 1))


def group_vars(n: int) -> tuple:
    """Variable table x1..x_{4n}, t1..t3 for a step-two group of H-dimension n."""
    return tuple(f"x{i}" for i in range(1, 4 * n + 1)) + ("t1", "t2", "t3")


def _gaussian_parts(value) -> tuple:
    """(re, im, den) of ints with value == (re + im*i) / den and den > 0, for
    a scalar value: an int, a Fraction or an (re, im) pair of them.

    Each part is in lowest terms, so den is coprime to re and im together.
    The type test is ``rational.exact_fraction``'s rule, inline: a call to it
    costs 0.78% of flat and 0.95% of boundary-ma (BENCH_53.json, "replay").
    """
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    if (isinstance(value, tuple) and len(value) == 2
            and all(isinstance(x, (int, Fraction)) for x in value)):
        den, (re, im) = clear_denominators(value)
        return re, im, den
    raise TypeError(f"a scalar is an int, a Fraction or an (re, im) pair of them, not {value!r}")


def reduce_gaussian(num: dict, den: int) -> tuple:
    """(num, den) with the common factor of ``den`` and every numerator part
    divided out; with no terms ``den`` becomes 1."""
    g = den
    for re, im in num.values():
        g = gcd(g, re, im)
        if g == 1:
            return num, den
    return {k: (re // g, im // g) for k, (re, im) in num.items()}, den // g


def add_term(num: dict, key, re: int, im: int) -> None:
    """Add (re, im) at ``key`` into a numerator dict.

    A key whose sum is (0, 0) is deleted and a zero addend adds nothing, so
    the dict never holds (0, 0); a key keeps its place while it lives.
    """
    acc = num.get(key)
    if acc is not None:
        re += acc[0]
        im += acc[1]
        if not (re or im):
            del num[key]
            return
    elif not (re or im):
        return
    num[key] = (re, im)


def common_sum(num1: dict, den1: int, num2: dict, den2: int) -> tuple:
    """(num, den) of num1/den1 + num2/den2 over den = lcm(den1, den2).

    The keys of ``num1`` come first, then the new keys of ``num2`` in their
    order; neither input dict is changed.
    """
    if den1 == den2:
        num = dict(num1)
        m2 = 1
    else:
        g = gcd(den1, den2)
        m1, m2 = den2 // g, den1 // g
        den1 *= m1
        num = {k: (re * m1, im * m1) for k, (re, im) in num1.items()}
    for key, (re, im) in num2.items():
        add_term(num, key, re * m2, im * m2)
    return num, den1


def times_gaussian(num: dict, c: int, d: int) -> dict:
    """The numerators of ``num`` times the Gaussian integer c + d*i, which is
    not 0, so no product is (0, 0)."""
    return {k: (a * c - b * d, a * d + b * c) for k, (a, b) in num.items()}


def mul_into(out: dict, num1: dict, num2: dict, mult: int) -> dict:
    """Add mult * num1 * num2, the product of two numerator dicts times the
    int ``mult``, into ``out`` through :func:`add_term`; return ``out``.

    A product with an exponent above ``MAX_EXPONENT`` is a ValueError.
    """
    right = num2.items()
    for e1, (a, b) in num1.items():
        a *= mult
        b *= mult
        for e2, (c, d) in right:
            key = e1 + e2
            if key & GUARD:
                raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
            add_term(out, key, a * c - b * d, a * d + b * c)
    return out


def _merge(parts: dict) -> tuple:
    """(num, den) of the canonical parts {offset: (num, den)}, each part's
    keys lifted by its offset, over the lcm of their dens: the one merge of
    ``Poly``, ``ExtForm`` and ``FirstOrderOp``'s public constructors.

    Each part is canonical, so the lcm is already coprime to the scaled
    numerators taken together; the lifted keys of two parts never meet.
    """
    den = lcm(1, *(d for _, d in parts.values()))
    return {key + offset: (re * (den // d), im * (den // d))
            for offset, (num, d) in parts.items() for key, (re, im) in num.items()}, den


class Immutable:
    """A record whose attributes are set once, through ``_set``, while it is
    built: the one rule of every immutable kind in the package."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Packed(Immutable):
    """The value type of the layout (see the module docstring): ``num`` over
    ``den`` on the variable table ``vars``.

    ``_like`` builds a value of the same kind and shape through ``_make``; a
    kind with more shape than ``vars`` (``ExtForm``) overrides ``_like``,
    ``_shape`` and ``_check``.
    """

    __slots__ = ("vars", "num", "den")

    @classmethod
    def _make(cls, variables: tuple, num: dict, den: int = 1):
        """Trusted constructor: ``num`` holds valid keys and no (0, 0) pair,
        and ``den`` > 0.  Divides out the common factor of ``den`` and the
        numerators, so the result is canonical; nothing else is checked."""
        if den != 1:
            num, den = reduce_gaussian(num, den)
        p = object.__new__(cls)
        _set(p, "vars", variables)
        _set(p, "num", num)
        _set(p, "den", den)
        return p

    def _like(self, num: dict, den: int = 1):
        """``_make`` of ``num`` over ``den`` with this value's kind and shape."""
        return self._make(self.vars, num, den)

    def _shape(self):
        return self.vars

    def _check(self, other):
        """The one variable-table check of two operands; ``other`` may be of
        any kind with ``vars``."""
        if self.vars != other.vars:
            raise ValueError(f"variable tables differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._like(*common_sum(self.num, self.den, other.num, other.den))

    def __neg__(self):
        return self._like(times_gaussian(self.num, -1, 0), self.den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._like(*common_sum(self.num, self.den, times_gaussian(other.num, -1, 0),
                                      other.den))

    def scale(self, value):
        re, im, den = _gaussian_parts(value)
        if not (re or im):
            return self._like({})
        return self._like(times_gaussian(self.num, re, im), self.den * den)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._shape() == other._shape() and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.num.items())))


class Poly(Packed):
    """Sparse polynomial in named real variables with Gaussian-rational
    coefficients: ``num`` keyed by packed exponent vectors.  The public
    constructor takes exponent tuples and checks every term.
    """

    __slots__ = ()

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        variables = tuple(variables)
        width = len(variables)
        parts = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != width:
                raise ValueError(
                    f"exponent vector {expo} does not match variable table of size {width}"
                )
            key = pack(expo)
            re, im, den = _gaussian_parts(coeff)
            if re or im:
                parts[key] = {0: (re, im)}, den
        num, den = _merge(parts)
        _set(self, "vars", variables)
        _set(self, "num", num)
        _set(self, "den", den)

    @property
    def terms(self):
        """The packed exponent vectors of the nonzero terms (``bench/tracer.py``
        counts with it); ``num`` holds their coefficients."""
        return self.num.keys()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Poly":
        return cls._make(tuple(variables), {})

    @classmethod
    def const(cls, variables, value) -> "Poly":
        variables = tuple(variables)
        re, im, den = _gaussian_parts(value)
        num = {0: (re, im)} if re or im else {}
        return cls._make(variables, num, den)

    @classmethod
    def var(cls, variables, name, coeff=1) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise KeyError(f"unknown variable {name!r}")
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): coeff})

    @classmethod
    def monomial(cls, variables, exponents, coeff=1) -> "Poly":
        return cls(variables, {tuple(exponents): coeff})

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        # Packed's sum under Poly's own name, which bench/tracer.py wraps
        return Packed.__add__(self, other)

    def __mul__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        self._check(other)
        return Poly._make(self.vars, mul_into({}, self.num, other.num, 1),
                          self.den * other.den)

    # -- calculus ---------------------------------------------------------------

    def diff(self, name: str) -> "Poly":
        """Exact partial derivative with respect to a named variable."""
        if name not in self.vars:
            raise KeyError(f"unknown variable {name!r}")
        shift = BITS * self.vars.index(name)
        unit = 1 << shift
        out = {}
        for key, (re, im) in self.num.items():
            e = key >> shift & FIELD
            if e:
                out[key - unit] = (re * e, im * e)
        return Poly._make(self.vars, out, self.den)

    # -- display / wire format -----------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        width = len(self.vars)
        for expo, key in sorted(((unpack(key, width), key) for key in self.num),
                                key=lambda item: (sum(item[0]), item[0]), reverse=True):
            re, im = (Fraction(x, self.den) for x in self.num[key])
            if not im:
                coeff = str(re)
            elif not re:
                coeff = f"{im}*i"
            else:
                coeff = f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, expo)
                if e > 0
            ]
            body = "*".join(factors)
            if body:
                parts.append(f"{coeff}*{body}")
            else:
                parts.append(coeff)
        return " + ".join(parts)

    __repr__ = __str__

    @classmethod
    def from_json(cls, data: dict) -> "Poly":
        """{"vars": [name, ...], "terms": [{"c": coefficient, "e": [int, ...]}, ...]},
        the names distinct strings, each coefficient as
        :func:`rational.gaussian_from_json` reads it; ValueError on any other
        shape."""
        try:
            terms = [(tuple(item["e"]), gaussian_from_json(item["c"]))
                     for item in data["terms"]]
            names = data["vars"]
            if type(names) is not list or any(type(v) is not str for v in names):
                raise ValueError("vars must be a JSON list of strings")
            if len(set(names)) != len(names):
                raise ValueError(f"variable names must be distinct, not {names}")
            return cls(tuple(names), dict(terms))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc!r}") from None


def _coefficient(value, variables: tuple) -> tuple:
    """(num, den) of a coefficient of a form component or an operator: a
    ``Poly`` on the table ``variables``, or a scalar as the constant term."""
    if isinstance(value, Poly):
        Poly.zero(variables)._check(value)
        return value.num, value.den
    re, im, den = _gaussian_parts(value)
    return ({0: (re, im)} if re or im else {}), den
