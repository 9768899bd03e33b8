"""Bicomplex and hyperbolic arithmetic.

A bicomplex number is Z = z + i2*z' with z, z' complex over the first
imaginary unit i1.  The commuting units satisfy i1^2 = i2^2 = -1 and
k = i1*i2 with k^2 = +1.  Every Z splits over the idempotent basis
e1 = (1+k)/2, e2 = (1-k)/2 as Z = z1*e1 + z2*e2 with

    z1 = z - i1*z'      z2 = z + i1*z'

and in that basis every ring operation acts componentwise.  The
cartesian pair (z, z') is stored as truth; the idempotent pair is
recomputed on demand so it can never go stale.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import re

from .errors import BranchCutError, NullConeError

# Relative threshold below which an idempotent component counts as zero
# (exact-zero tests are useless in floating point).
NULL_TOL = 1e-14


class BiComplex:
    """Immutable bicomplex number, cartesian storage (re1 = z, re2 = z')."""

    __slots__ = ("re1", "re2")

    def __init__(self, re1=0.0, re2=0.0):
        object.__setattr__(self, "re1", complex(re1))
        object.__setattr__(self, "re2", complex(re2))

    def __setattr__(self, name, value):
        raise AttributeError("BiComplex is immutable")

    # -- idempotent view -------------------------------------------------

    @property
    def idem1(self) -> complex:
        return self.re1 - 1j * self.re2

    @property
    def idem2(self) -> complex:
        return self.re1 + 1j * self.re2

    @classmethod
    def from_idempotent(cls, z1, z2) -> "BiComplex":
        z1 = complex(z1)
        z2 = complex(z2)
        return cls((z1 + z2) / 2.0, 1j * (z1 - z2) / 2.0)

    @classmethod
    def coerce(cls, value) -> "BiComplex":
        """Accept BiComplex, Hyperbolic, or any scalar embeddable as z + i2*0."""
        if isinstance(value, BiComplex):
            return value
        if isinstance(value, Hyperbolic):
            return value.to_bicomplex()
        return cls(complex(value), 0.0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = BiComplex.coerce(other)
        return BiComplex(self.re1 + other.re1, self.re2 + other.re2)

    __radd__ = __add__

    def __neg__(self):
        return BiComplex(-self.re1, -self.re2)

    def __sub__(self, other):
        return self + (-BiComplex.coerce(other))

    def __rsub__(self, other):
        return BiComplex.coerce(other) + (-self)

    def __mul__(self, other):
        other = BiComplex.coerce(other)
        a, b = self.re1, self.re2
        c, d = other.re1, other.re2
        return BiComplex(a * c - b * d, b * c + a * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * inverse(BiComplex.coerce(other))

    def __rtruediv__(self, other):
        return BiComplex.coerce(other) * inverse(self)

    def __pow__(self, w):
        return bc_pow(self, w)

    def __eq__(self, other):
        if not isinstance(other, (BiComplex, Hyperbolic, int, float, complex)):
            return NotImplemented
        other = BiComplex.coerce(other)
        return self.re1 == other.re1 and self.re2 == other.re2

    def __hash__(self):
        # equal values hash equal: a BiComplex with re2 == 0 equals the
        # number re1, and a Hyperbolic equals its embedding
        return hash(self.re1) if self.re2 == 0 else hash((self.re1, self.re2))

    def __repr__(self):
        return f"BiComplex({self.re1!r}, {self.re2!r})"

    def __str__(self):
        return format_bicomplex(self)

    # -- conveniences ------------------------------------------------------

    def conj_bar(self) -> "BiComplex":
        return BiComplex(self.re1.conjugate(), self.re2.conjugate())

    def conj_tilde(self) -> "BiComplex":
        return BiComplex(self.re1, -self.re2)

    def conj_star(self) -> "BiComplex":
        return BiComplex(self.re1.conjugate(), -self.re2.conjugate())

    def norm2(self) -> float:
        return math.hypot(abs(self.re1), abs(self.re2))

    def hnorm(self) -> "Hyperbolic":
        return Hyperbolic.from_idempotent(abs(self.idem1), abs(self.idem2))

    def is_zero(self) -> bool:
        return self.norm2() == 0.0


class Hyperbolic:
    """Immutable hyperbolic number x + k*y with real x, y, stored as its
    idempotent pair (comp1, comp2) = (x + y, x - y).

    A pair given to ``from_idempotent`` is kept as given, so a residual
    computed per component reads back unchanged; x and y are derived.
    """

    __slots__ = ("comp1", "comp2")

    def __init__(self, x=0.0, y=0.0):
        x, y = float(x), float(y)
        object.__setattr__(self, "comp1", x + y)
        object.__setattr__(self, "comp2", x - y)

    def __setattr__(self, name, value):
        raise AttributeError("Hyperbolic is immutable")

    @property
    def x(self) -> float:
        return (self.comp1 + self.comp2) / 2.0

    @property
    def y(self) -> float:
        return (self.comp1 - self.comp2) / 2.0

    @classmethod
    def from_idempotent(cls, c1, c2) -> "Hyperbolic":
        h = object.__new__(cls)
        object.__setattr__(h, "comp1", float(c1))
        object.__setattr__(h, "comp2", float(c2))
        return h

    @classmethod
    def coerce(cls, value) -> "Hyperbolic":
        if isinstance(value, Hyperbolic):
            return value
        return cls(float(value), 0.0)

    def to_bicomplex(self) -> BiComplex:
        # x + k*y embeds as z = x, z' = i1*y  (k = i1*i2)
        return BiComplex(self.x, 1j * self.y)

    def in_dplus(self) -> bool:
        return self.comp1 >= 0.0 and self.comp2 >= 0.0

    def __add__(self, other):
        other = Hyperbolic.coerce(other)
        return Hyperbolic.from_idempotent(self.comp1 + other.comp1, self.comp2 + other.comp2)

    __radd__ = __add__

    def __neg__(self):
        return Hyperbolic.from_idempotent(-self.comp1, -self.comp2)

    def __sub__(self, other):
        return self + (-Hyperbolic.coerce(other))

    def __rsub__(self, other):
        return Hyperbolic.coerce(other) + (-self)

    def __mul__(self, other):
        other = Hyperbolic.coerce(other)
        return Hyperbolic.from_idempotent(
            self.comp1 * other.comp1, self.comp2 * other.comp2
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        # through the embedding, so equality with BiComplex and complex
        # numbers agrees with BiComplex's own
        return self.to_bicomplex().__eq__(other)

    def __hash__(self):
        return hash(self.to_bicomplex())

    def __repr__(self):
        return f"Hyperbolic.from_idempotent({self.comp1!r}, {self.comp2!r})"

    def max_comp(self) -> float:
        return max(self.comp1, self.comp2)


class HOrder(enum.Enum):
    """Tri-state result of the strict hyperbolic comparison a <_h b."""

    LESS = "less"
    NOT_LESS = "not-less"
    INCOMPARABLE = "incomparable"


# Ring constants.
ZERO = BiComplex(0.0, 0.0)
ONE = BiComplex(1.0, 0.0)
I1 = BiComplex(1j, 0.0)
I2 = BiComplex(0.0, 1.0)
K = BiComplex(0.0, 1j)
E1 = BiComplex(0.5, 0.5j)
E2 = BiComplex(0.5, -0.5j)


def components(*values):
    """The idempotent split of `values`: (1, v.idem1, ...) and (2, v.idem2, ...).

    Each bicomplex relation is one classical relation per tuple; the
    leading 1 or 2 labels the component (error messages,
    ``PfqParams.comp_alphas``).  A plain number is its own component
    on both sides and passes through unchanged.
    """
    one, two = [1], [2]
    for v in values:
        one.append(getattr(v, "idem1", v))
        two.append(getattr(v, "idem2", v))
    return tuple(one), tuple(two)


def from_idempotent(z1, z2) -> BiComplex:
    return BiComplex.from_idempotent(z1, z2)


def in_null_cone(a: BiComplex) -> bool:
    """True when some idempotent component vanishes relative to the scale of a."""
    a = BiComplex.coerce(a)
    scale = max(1.0, a.norm2())
    return abs(a.idem1) < NULL_TOL * scale or abs(a.idem2) < NULL_TOL * scale


def is_zero_divisor(a: BiComplex) -> bool:
    """Exactly one idempotent component is zero while a itself is not."""
    a = BiComplex.coerce(a)
    scale = max(1.0, a.norm2())
    z1_zero = abs(a.idem1) < NULL_TOL * scale
    z2_zero = abs(a.idem2) < NULL_TOL * scale
    return (z1_zero != z2_zero) and not a.is_zero()


def inverse(a: BiComplex) -> BiComplex:
    """Multiplicative inverse; fails exactly on the null cone."""
    a = BiComplex.coerce(a)
    if in_null_cone(a):
        raise NullConeError(f"{a} is a zero divisor (idempotent components {a.idem1}, {a.idem2})")
    return BiComplex.from_idempotent(1.0 / a.idem1, 1.0 / a.idem2)


def h_less(a, b) -> HOrder:
    """Strict partial order on hyperbolic numbers, componentwise in the idempotent view.

    LESS requires both components strictly smaller.  INCOMPARABLE means the
    components point in opposite directions; everything else (including
    equality and ties in one component) is NOT_LESS.
    """
    a = Hyperbolic.coerce(a)
    b = Hyperbolic.coerce(b)
    d1 = a.comp1 - b.comp1
    d2 = a.comp2 - b.comp2
    if d1 < 0.0 and d2 < 0.0:
        return HOrder.LESS
    if (d1 < 0.0 < d2) or (d2 < 0.0 < d1):
        return HOrder.INCOMPARABLE
    return HOrder.NOT_LESS


class HBall:
    """Open hyperbolic ball B_h(center, radius), radius strictly in D+."""

    __slots__ = ("center", "radius")

    def __init__(self, center: BiComplex, radius):
        radius = Hyperbolic.coerce(radius)
        if radius.comp1 <= 0.0 or radius.comp2 <= 0.0:
            raise ValueError("ball radius must have strictly positive components")
        object.__setattr__(self, "center", BiComplex.coerce(center))
        object.__setattr__(self, "radius", radius)

    def __setattr__(self, name, value):
        raise AttributeError("HBall is immutable")

    def contains(self, z: BiComplex) -> bool:
        diff = BiComplex.coerce(z) - self.center
        return h_less(diff.hnorm(), self.radius) is HOrder.LESS

    def __repr__(self):
        return f"HBall({self.center!r}, {self.radius!r})"


UNIT_BALL = HBall(ZERO, Hyperbolic(1.0, 0.0))


def bc_exp(a: BiComplex) -> BiComplex:
    """Componentwise complex exponential."""
    a = BiComplex.coerce(a)
    return BiComplex.from_idempotent(cmath.exp(a.idem1), cmath.exp(a.idem2))


def _int_pow(a: BiComplex, n: int) -> BiComplex:
    if n < 0:
        return _int_pow(inverse(a), -n)
    result = ONE
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _as_exact_int(w) -> int | None:
    """Return w as an int when it is one (componentwise), else None."""
    if isinstance(w, int):
        return w
    w = BiComplex.coerce(w)
    z1, z2 = w.idem1, w.idem2
    if z1 != z2 or z1.imag != 0.0:
        return None
    r = z1.real
    if r == int(r):
        return int(r)
    return None


def bc_pow(a: BiComplex, w) -> BiComplex:
    """Power a**w, principal branch per idempotent component.

    Integer exponents reduce to repeated multiplication so that
    bc_pow(Z, 2) == Z * Z holds exactly.  Non-integer exponents
    require an invertible base off the negative real cut in both
    components.
    """
    a = BiComplex.coerce(a)
    n = _as_exact_int(w)
    if n is not None:
        return _int_pow(a, n)
    w = BiComplex.coerce(w)
    if in_null_cone(a):
        raise NullConeError("non-integer power of a null-cone element")
    out = []
    for _, base, expo in components(a, w):
        if base.imag == 0.0 and base.real < 0.0:
            raise BranchCutError(f"component {base} lies on the negative real cut")
        out.append(cmath.exp(expo * cmath.log(base)))
    return BiComplex.from_idempotent(out[0], out[1])


# ---------------------------------------------------------------------------
# Text and JSON serialization.
#
# Canonical text form: "a+bi1+ci2+dk" with the four real cartesian
# coefficients (Z = (a+b*i1) + i2*(c+d*i1)).  The parser also accepts
# the idempotent form "x e1 + y e2" where x, y are real numbers or
# parenthesized complex literals like (0.3+0.1i1).  A trailing e1/e2
# always binds as a basis token, so "0.5e1" is 0.5*e1, not 5.0; write
# exponents of 1 or 2 with an explicit sign ("5e+1") to avoid the
# basis reading.
# ---------------------------------------------------------------------------

_UNITS = ("i1", "i2", "e1", "e2", "k")


def _fmt_signed(x: float, lead: bool) -> str:
    sign = "-" if (x < 0 or (x == 0 and math.copysign(1.0, x) < 0)) else "+"
    body = repr(abs(x))
    if lead and sign == "+":
        return body
    return sign + body


def format_bicomplex(z: BiComplex) -> str:
    z = BiComplex.coerce(z)
    a, b = z.re1.real, z.re1.imag
    c, d = z.re2.real, z.re2.imag
    return (
        _fmt_signed(a, lead=True)
        + _fmt_signed(b, lead=False) + "i1"
        + _fmt_signed(c, lead=False) + "i2"
        + _fmt_signed(d, lead=False) + "k"
    )


def _split_terms(s: str):
    """Split on top-level +/- (not inside parentheses, not exponent signs)."""
    terms = []
    depth = 0
    cur = ""
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "eE(":
            terms.append(cur)
            cur = ch
            continue
        cur += ch
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    if cur:
        terms.append(cur)
    return terms


_INNER_RE = re.compile(r"^([+-]?)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?(i1)?$")


def _parse_inner_complex(s: str) -> complex:
    """Parse a complex-in-i1 literal like 0.3+0.1i1 or -i1."""
    terms = _split_terms(s)
    if not terms:
        raise ValueError("empty parentheses in complex literal")
    total = 0j
    for term in terms:
        m = _INNER_RE.match(term.strip())
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"bad complex literal {s!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        mag = float(m.group(2)) if m.group(2) is not None else 1.0
        total += sign * mag * (1j if m.group(3) else 1.0)
    return total


def _require_finite(value, what: str, text: str):
    if not cmath.isfinite(value):
        raise ValueError(f"{what} of bicomplex literal {text!r} is not finite")


def parse_bicomplex(text: str) -> BiComplex:
    """Parse cartesian "a+bi1+ci2+dk" or idempotent "x e1+y e2" literals.

    A coefficient, or a cartesian part of the result, that is not
    finite (nan, inf, or beyond the float range) raises ValueError.
    """
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise ValueError("empty bicomplex literal")
    cart = ZERO
    idem = {1: 0j, 2: 0j}
    saw_idem = False
    for term in _split_terms(s):
        t = term
        sign = 1.0
        if t and t[0] in "+-":
            sign = -1.0 if t[0] == "-" else 1.0
            t = t[1:]
        unit = None
        for u in _UNITS:
            if t.endswith(u):
                unit = u
                t = t[: -len(u)]
                break
        if t == "":
            if unit is None:
                raise ValueError(f"term {term!r} has neither a number nor a unit")
            coeff = 1.0 + 0j
        elif t.startswith("(") and t.endswith(")"):
            coeff = _parse_inner_complex(t[1:-1])
        else:
            coeff = complex(float(t))
        _require_finite(coeff, f"coefficient {term!r}", text)
        coeff *= sign
        if unit == "e1":
            idem[1] += coeff
            saw_idem = True
        elif unit == "e2":
            idem[2] += coeff
            saw_idem = True
        elif unit == "i1":
            cart = cart + BiComplex(coeff * 1j, 0.0)
        elif unit == "i2":
            cart = cart + BiComplex(0.0, coeff)
        elif unit == "k":
            cart = cart + BiComplex(0.0, coeff * 1j)
        else:
            if coeff.imag != 0.0:
                raise ValueError(f"complex coefficient {term!r} needs a basis token")
            cart = cart + BiComplex(coeff, 0.0)
    if saw_idem:
        cart = cart + BiComplex.from_idempotent(idem[1], idem[2])
    _require_finite(cart.re1, "value", text)
    _require_finite(cart.re2, "value", text)
    return cart


def to_json_dict(z: BiComplex) -> dict:
    z = BiComplex.coerce(z)
    return {"re1": [z.re1.real, z.re1.imag], "re2": [z.re2.real, z.re2.imag]}


def from_json_dict(obj) -> BiComplex:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if "re1" in obj or "re2" in obj:
        a, b = obj.get("re1", [0.0, 0.0])
        c, d = obj.get("re2", [0.0, 0.0])
        return BiComplex(complex(a, b), complex(c, d))
    if "idem1" in obj or "idem2" in obj:
        x, y = obj.get("idem1", [0.0, 0.0])
        u, v = obj.get("idem2", [0.0, 0.0])
        return BiComplex.from_idempotent(complex(x, y), complex(u, v))
    raise ValueError(f"unrecognized bicomplex JSON object: {obj!r}")
