"""Exact coefficient arithmetic: Gaussian rationals and symbolic polynomials.

Scalars are polynomials in declared real parameters with Gaussian-rational
coefficients, times an integer power of the formal unit ``pi``.  Nothing is
ever evaluated in floating point; ``pi`` is never given a numeric value.
A Gaussian rational `Q` stores the reduced integer triple (a, b, d) of (a + b*i)/d,
the entry format of `linalg`'s sparse rows, and computes, compares and prints on
those ints without building a Fraction.

The public `Scalar(...)` drops zero coefficients from whatever it is given.
Results that are clean by construction (sums, differences, products,
negations, quotients, conjugates and `from_q`) skip that pass through
`_scalar_of`, as `Q`'s arithmetic skips `Q(...)` through `_q`: a sum drops a
cancelled term where it stands, so the terms keep the order the public
constructor would keep.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

RationalLike = Union[int, Fraction]


class Q:
    """A Gaussian rational (a + b*i)/d, stored as the reduced integer triple
    (a, b, d): d > 0 and gcd(a, b, d) = 1, so equal values have equal fields.
    `re` and `im` are Fraction views for readers outside this module."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            return _q(re, im, 1)
        re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        im = im if isinstance(im, (int, Fraction)) else Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _q(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    def __setattr__(self, name, value):
        raise AttributeError("Q is immutable")

    re = property(lambda self: Fraction(self.a, self.d))
    im = property(lambda self: Fraction(self.b, self.d))

    def __add__(self, other: "Q") -> "Q":
        d, e = self.d, other.d
        return _q(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "Q") -> "Q":
        d, e = self.d, other.d
        return _q(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "Q":
        return _q(-self.a, -self.b, self.d)

    def __mul__(self, other: "Q") -> "Q":
        a, b, c, e = self.a, self.b, other.a, other.b
        return _q(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: "Q") -> "Q":
        # (a + b*i)/d over (c + e*i)/f is (a + b*i)(c - e*i) f / (d (c^2 + e^2))
        c, e = other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, f = self.a, self.b, other.d
        return _q((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __pow__(self, k: int) -> "Q":
        if k < 0:
            return QONE / self.__pow__(-k)
        out = QONE
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "Q":
        return _q(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def __eq__(self, other) -> bool:
        if not isinstance(other, Q):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "Q(%s, %s)" % (_ratio_str(self.a, self.d), _ratio_str(self.b, self.d))

    def __str__(self):
        return format_q(self)


_new, _set = object.__new__, object.__setattr__


def _q(a: int, b: int, d: int) -> Q:
    """The Q of (a + b*i)/d for d > 0, reduced by gcd(a, b, d) as linalg's triples are."""
    g = gcd(a, b, d)
    q = _new(Q)
    _set(q, "a", a // g)
    _set(q, "b", b // g)
    _set(q, "d", d // g)
    return q


QZERO = Q(0)
QONE = Q(1)
QI = Q(0, 1)


def _ratio_str(n: int, d: int) -> str:
    """n/d for d > 0 as str(Fraction(n, d)) prints it."""
    g = gcd(n, d)
    return str(n // g) if g == d else "%d/%d" % (n // g, d // g)


def format_q(q: Q) -> str:
    """Canonical text for a Gaussian rational, e.g. ``-1/2``, ``i``, ``1+2*i``."""
    a, b, d = q.a, q.b, q.d
    if not b:
        return _ratio_str(a, d)
    if b == d:
        im = "i"
    elif b == -d:
        im = "-i"
    else:
        im = _ratio_str(b, d) + "*i"
    if not a:
        return im
    sign = "+" if b > 0 else "-"
    mag = im.lstrip("-")
    return "%s%s%s" % (_ratio_str(a, d), sign, mag)


# A monomial is a sorted tuple of (parameter name, positive exponent) pairs.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_str(m: Monomial) -> str:
    parts = []
    for name, e in m:
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


class Scalar:
    """Polynomial in parameters over Q, each term times a power of pi.

    ``terms`` maps (pi power, monomial) to a nonzero coefficient; monomials
    are sorted.  Sums apply no rule, so they are associative and commutative.
    A finished value has one pi power, which keeps pi a formal unit factored
    out of every value the package produces: `pi_power` checks it,
    `__str__` and `__truediv__` read it, and `as_q` rejects a mix through
    `__str__`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Q] = ()):
        clean = {k: c for k, c in dict(terms).items() if not c.is_zero()}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_q(q: Q, pi_power: int = 0) -> "Scalar":
        return _scalar_of({(pi_power, ()): q} if q.a or q.b else {})

    @staticmethod
    def rational(num: RationalLike, den: RationalLike = 1) -> "Scalar":
        return Scalar.from_q(Q(num) if den == 1 else Q(num) / Q(den))

    @staticmethod
    def imaginary(num: RationalLike = 1) -> "Scalar":
        return Scalar.from_q(Q(0, num))

    @staticmethod
    def parameter(name: str) -> "Scalar":
        return _scalar_of({(0, ((name, 1),)): QONE})

    @staticmethod
    def pi(power: int = 1) -> "Scalar":
        return Scalar.from_q(QONE, power)

    # -- structure ----------------------------------------------------------

    @property
    def pi_power(self) -> int:
        """The one pi power of the terms (0 for zero); a mix raises ValueError
        naming the first two distinct powers in term order."""
        power = None
        for p, _ in self.terms:
            if power is None:
                power = p
            elif p != power:
                raise ValueError("cannot add scalars with pi powers %d and %d" % (power, p))
        return power or 0

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def is_constant(self) -> bool:
        """No parameters (a pi power is still allowed)."""
        return all(m == () for _, m in self.terms)

    def as_q(self) -> Q:
        """The value as a plain Gaussian rational; parameters and pi rejected."""
        if self.is_zero():
            return QZERO
        q = self.terms.get((0, ()))
        if q is None or len(self.terms) > 1:  # printing a mix of pi powers raises that instead
            raise ValueError("scalar %s is not a plain Gaussian rational" % self)
        return q

    def parameters(self) -> set:
        return {name for _, m in self.terms for name, _ in m}

    def degree(self, name: str = None) -> int:
        """Total degree, or degree in one parameter; zero scalar has degree -1."""
        if self.is_zero():
            return -1
        if name is None:
            return max(_mono_degree(m) for _, m in self.terms)
        return max(sum(e for nm, e in m if nm == name) for _, m in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            x = terms.get(k)
            if x is None:
                terms[k] = c
            else:
                x = x + c
                if x.a or x.b:
                    terms[k] = x
                else:
                    del terms[k]
        return _scalar_of(terms)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return _scalar_of({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        terms: dict = {}
        for (p1, m1), c1 in self.terms.items():
            for (p2, m2), c2 in other.terms.items():
                k = (p1 + p2, _mono_mul(m1, m2) if m1 and m2 else m1 or m2)
                x = terms.get(k)
                terms[k] = c1 * c2 if x is None else x + c1 * c2
        return _scalar_of(_drop_zeros(terms))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        """Division by a parameter-free nonzero scalar (polynomial division is out of scope)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if not other.is_constant():
            raise ValueError("division by non-constant scalar %s" % other)
        power = other.pi_power
        q = other.terms[(power, ())]
        return _scalar_of({(p - power, m): c / q for (p, m), c in self.terms.items()})

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            raise ValueError("negative scalar power")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "Scalar":
        """Complex conjugation; parameters and pi are real and stay fixed."""
        return _scalar_of({k: c.conjugate() for k, c in self.terms.items()})

    def substitute(self, values: Mapping[str, Union[RationalLike, Q]]) -> "Scalar":
        """Evaluate some parameters at exact rational values; pi stays formal."""
        out: dict = {}
        for (p, m), c in self.terms.items():
            coeff = c
            rest = []
            for name, e in m:
                if name in values:
                    v = values[name]
                    base = v if isinstance(v, Q) else Q(v)
                    coeff = coeff * base ** e
                else:
                    rest.append((name, e))
            key = (p, tuple(rest))
            out[key] = out.get(key, QZERO) + coeff
        return Scalar(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        try:
            return "Scalar(%s)" % self
        except ValueError:  # a mix of pi powers has no printed form
            return "Scalar(%r)" % self.terms

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        power = self.pi_power
        content, rest = _content({m: c for (_, m), c in self.terms.items()})
        coeff_str = _coeff_piece(content) if content != QONE else None
        pi_str = None
        if power:
            pi_str = "pi" if power == 1 else "pi^%d" % power
        poly = _poly_str(rest)
        poly_str = None
        if poly != "1":
            wrap = len(rest) > 1 and (coeff_str is not None or pi_str is not None)
            poly_str = "(%s)" % poly if wrap else poly
        pieces = [p for p in (coeff_str, pi_str, poly_str) if p is not None]
        if not pieces:
            return "1"
        out = "*".join(pieces)
        if out.startswith("-1*"):
            out = "-" + out[3:]
        return out


def _scalar_of(terms: dict) -> Scalar:
    """The Scalar on `terms` as given: the caller guarantees no zero coefficient."""
    s = _new(Scalar)
    _set(s, "terms", terms)
    return s


def _drop_zeros(terms: dict) -> dict:
    """terms without its zero coefficients (Q or Scalar), in place; the others
    keep their order."""
    for k in [k for k, c in terms.items() if c.is_zero()]:
        del terms[k]
    return terms


def _mono_key(m: Monomial) -> tuple:
    """Printing order: higher degree first, then the sorted pairs."""
    return (-_mono_degree(m), m)


def _content(terms: Mapping[Monomial, Q]):
    """Factor out the rational content (with the leading term's sign): the gcd
    of the numerators over the lcm of the denominators, as triples are reduced."""
    top = gcd(*(x for c in terms.values() for x in (c.a, c.b)))
    bottom = lcm(*(c.d for c in terms.values()))
    lead = terms[min(terms, key=_mono_key)]
    s = -1 if lead.a < 0 or (lead.a == 0 and lead.b < 0) else 1
    return _q(s * top, 0, bottom), {
        m: _q(s * bottom * c.a, s * bottom * c.b, top * c.d) for m, c in terms.items()}


def _coeff_piece(q: Q) -> str:
    s = format_q(q)
    if ("+" in s[1:]) or ("-" in s[1:]):
        return "(%s)" % s
    return s


def _poly_str(terms: Mapping[Monomial, Q]) -> str:
    items = sorted(terms.items(), key=lambda kv: _mono_key(kv[0]))
    if not items:
        return "0"
    parts = []
    for m, c in items:
        mono = _mono_str(m)
        if not mono:
            piece = format_q(c)
        elif c == QONE:
            piece = mono
        elif c == Q(-1):
            piece = "-" + mono
        else:
            piece = "%s*%s" % (_coeff_piece(c), mono)
        if parts and not piece.startswith("-"):
            parts.append("+" + piece)
        else:
            parts.append(piece)
    return "".join(parts)


ZERO = Scalar()
ONE = Scalar.rational(1)
I = Scalar.imaginary(1)


def scalar(value: Union[int, Fraction, Q, Scalar]) -> Scalar:
    """Coerce ints, Fractions and Q values into Scalars."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, Q):
        return Scalar.from_q(value)
    return Scalar.rational(value)
