"""Sparse exact exterior algebra on N degree-1 generators.

A Form maps index subsets (stored as bitmasks, bit i-1 for generator e_i) to
Scalar coefficients.  All operations are pure; values are immutable after
construction and safe to share.

The public `Form(...)` checks every mask against the generator count and
drops zero coefficients.  Results that are clean by construction (sums,
negations, scalings, wedges, generators and Clifford sums) skip those checks
through `_form_of`, as `Scalar` arithmetic does through `scalars._scalar_of`:
an operation drops a cancelled entry where it stands, so the masks keep the
order the public constructor would keep.  `_triples` and `_triple_form` are
the one pair that carries coefficients to and from `linalg`'s triples.

The Clifford action of V + V* has one generator, `_unit_clifford`, which
`contract`, `contract_vector` and `clifford` sum over a form's terms; the
pairing (eta(X) + xi(Y))/2 swaps the halves of V + V*.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable, List, Sequence, Tuple

from .scalars import ONE, Q, Scalar, ZERO, _drop_zeros, _new, _q, _set, scalar


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation e_a . e_b of two disjoint masks."""
    sign = 1
    bits = b
    while bits:
        low = bits & -bits
        if (a >> low.bit_length()).bit_count() & 1:
            sign = -sign
        bits ^= low
    return sign


def _mask_indices(mask: int) -> tuple:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _indices_mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError("repeated generator index %d" % i)
        mask |= bit
    return mask


def _form_of(n: int, terms: dict) -> "Form":
    """The Form on `terms` as given: the caller guarantees masks below 2^n and
    no zero coefficient."""
    f = _new(Form)
    _set(f, "n", n)
    _set(f, "terms", terms)
    return f


def _triples(terms) -> list:
    """[(key, triple)] of [(key, Scalar)], in order, triples as in `linalg`'s
    rows; ValueError for the first coefficient that is not a Q."""
    return [(key, (q.a, q.b, q.d)) for key, q in ((key, c.as_q()) for key, c in terms)]


def _triple_form(n: int, terms: dict) -> "Form":
    """The Form of {mask: triple} in its key order; the triples are nonzero."""
    return _form_of(n, {m: Scalar.from_q(_q(*t)) for m, t in terms.items()})


class Form:
    """Sparse multivector over N generators with Scalar coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=()):
        if n < 0:
            raise ValueError("negative generator count")
        clean = {}
        for mask, coeff in dict(terms).items():
            if mask >> n:
                raise ValueError("term %s outside %d generators" % (bin(mask), n))
            if not coeff.is_zero():
                clean[mask] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Form":
        return Form(n)

    @staticmethod
    def unit(n: int, coeff: Scalar = ONE) -> "Form":
        return Form(n, {0: coeff})

    @staticmethod
    def generator(n: int, i: int) -> "Form":
        if not 1 <= i <= n:
            raise ValueError("generator index %d out of range 1..%d" % (i, n))
        return _form_of(n, {1 << (i - 1): ONE})

    @staticmethod
    def monomial(n: int, indices: Sequence[int], coeff: Scalar = ONE) -> "Form":
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError("generator index %d out of range 1..%d" % (i, n))
        idx = list(indices)
        sign = 1
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                if idx[a] > idx[b]:
                    idx[a], idx[b] = idx[b], idx[a]
                    sign = -sign
        c = coeff if sign == 1 else -coeff
        return Form(n, {_indices_mask(idx): c})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {mask.bit_count() for mask in self.terms}

    def is_homogeneous(self, degree: int = None) -> bool:
        degs = self.degrees()
        if degree is None:
            return len(degs) <= 1
        return degs <= {degree}

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        return self.terms.get(_indices_mask(indices), ZERO)

    def top_coefficient(self) -> Scalar:
        return self.terms.get((1 << self.n) - 1, ZERO)

    def parameters(self) -> set:
        out = set()
        for c in self.terms.values():
            out |= c.parameters()
        return out

    # -- linear operations ----------------------------------------------------

    def _check(self, other: "Form"):
        if self.n != other.n:
            raise ValueError(
                "generator count mismatch: %d vs %d" % (self.n, other.n)
            )

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            x = terms.get(m)
            if x is None:
                terms[m] = c
            else:
                x = x + c
                if x.terms:
                    terms[m] = x
                else:
                    del terms[m]
        return _form_of(self.n, terms)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return _form_of(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, coeff) -> "Form":
        """coeff times the form; a product of nonzero scalars is nonzero."""
        c = scalar(coeff)
        if not c.terms:
            return _form_of(self.n, {})
        return _form_of(self.n, {m: c * x for m, x in self.terms.items()})

    def conjugate(self) -> "Form":
        return Form(self.n, {m: c.conjugate() for m, c in self.terms.items()})

    def substitute(self, values) -> "Form":
        return Form(self.n, {m: c.substitute(values) for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        try:
            return "Form(%d, %s)" % (self.n, self.to_text())
        except ValueError:  # a coefficient mixes pi powers
            return "Form(%d, %r)" % (self.n, self.terms)

    def to_text(self, names: Sequence[str] = None) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), _mask_indices(m))):
            coeff = self.terms[mask]
            idx = _mask_indices(mask)
            gens = "^".join(
                names[i - 1] if names else "e%d" % i for i in idx
            )
            cs = str(coeff)
            if not gens:
                piece = cs if _atomic(cs) else "(%s)" % cs
            elif cs == "1":
                piece = gens
            elif cs == "-1":
                piece = "-" + gens
            else:
                piece = "%s*%s" % (cs if _atomic(cs) else "(%s)" % cs, gens)
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)


def _atomic(s: str) -> bool:
    """True when a scalar string needs no parentheses inside a product."""
    depth = 0
    for ch in s[1:]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return False
    return True


# -- basis ordering and coordinates ---------------------------------------------


def mask_key(mask: int) -> tuple:
    """Sort key of the basis ordering: degree first, then mask."""
    return (mask.bit_count(), mask)


@cache
def basis_masks(n: int) -> Tuple[int, ...]:
    """All 2^n basis masks in the basis ordering, sorted once per n."""
    return tuple(sorted(range(1 << n), key=mask_key))


def form_to_vec(f: Form, masks: Sequence[int]) -> List[Q]:
    """Coordinates of a parameter-free form on the given basis masks."""
    return [f.terms.get(m, ZERO).as_q() for m in masks]


# -- exterior operations -------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; signs from the transposition count of merged subsets."""
    a._check(b)
    terms: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            c = ca * cb
            if _merge_sign(ma, mb) < 0:
                c = -c
            x = terms.get(m)
            terms[m] = c if x is None else x + c
    return _form_of(a.n, _drop_zeros(terms))


def _unit_clifford(a: int, n: int, mask: int):
    """(sign, mask) of c_a e_mask, or None when it vanishes: c_a is the
    contraction by e_{a+1} for a < n and the wedge with e^{a-n+1} for a >= n;
    the sign is -1 to the number of set bits of mask below that generator."""
    bit = 1 << (a % n)
    if bool(mask & bit) != (a < n):
        return None
    return (-1) ** (mask & (bit - 1)).bit_count(), mask ^ bit


def _clifford_sum(v: Sequence, a: Form, first: int = 0) -> Form:
    """Sum of v[k] * c_(first+k) a over nonzero v[k]."""
    terms: dict = {}
    for k, x in enumerate(map(scalar, v), start=first):
        if x.is_zero():
            continue
        for m, c in a.terms.items():
            hit = _unit_clifford(k, a.n, m)
            if hit:
                y = x * c if hit[0] > 0 else -(x * c)
                old = terms.get(hit[1])
                terms[hit[1]] = y if old is None else old + y
    return _form_of(a.n, _drop_zeros(terms))


def contract(i: int, a: Form) -> Form:
    """Interior product with the i-th frame vector; graded derivation of degree -1."""
    if not 1 <= i <= a.n:
        raise ValueError("contraction index %d out of range 1..%d" % (i, a.n))
    return _clifford_sum([ONE], a, i - 1)


def contract_vector(coords: Sequence[Scalar], a: Form) -> Form:
    """Interior product with sum(coords[i] * frame vector i+1)."""
    if len(coords) != a.n:
        raise ValueError("vector length %d does not match %d generators" % (len(coords), a.n))
    return _clifford_sum(coords, a)


def reversal(a: Form) -> Form:
    """Order reversal on decomposables: degree q picks up (-1)^(q(q-1)/2)."""
    terms = {}
    for m, c in a.terms.items():
        q = m.bit_count()
        terms[m] = c if (q * (q - 1) // 2) % 2 == 0 else -c
    return Form(a.n, terms)


def mukai(a: Form, b: Form) -> Scalar:
    """Top-degree coefficient of reversal(a) wedged with b."""
    a._check(b)
    full = (1 << a.n) - 1
    out = ZERO
    for ma, ca in a.terms.items():
        mb = full ^ ma
        cb = b.terms.get(mb)
        if cb is None:
            continue
        q = ma.bit_count()
        c = ca * cb
        if (q * (q - 1) // 2) % 2 == 1:
            c = -c
        if _merge_sign(ma, mb) < 0:
            c = -c
        out = out + c
    return out


def exp_two_form(b: Form) -> Form:
    """Finite exponential sum for a homogeneous degree-2 form."""
    if not b.is_homogeneous(2) and not b.is_zero():
        raise ValueError("exponential argument must be homogeneous of degree 2, got %s" % b)
    out = Form.unit(b.n)
    power = Form.unit(b.n)
    for k in range(1, b.n // 2 + 1):
        power = wedge(power, b)
        if power.is_zero():
            break
        out = out + power.scale(Scalar.rational(1, factorial(k)))
    return out


def clifford(v: Sequence, a: Form) -> Form:
    """Clifford action of X + xi on a form: contraction by X plus wedge by xi."""
    if len(v) != 2 * a.n:
        raise ValueError(
            "vector length %d does not match V+V* dimension %d" % (len(v), 2 * a.n)
        )
    return _clifford_sum(v, a)


def canonical_pairing(v: Sequence, w: Sequence, n: int) -> Scalar:
    """Split-signature pairing on V+V*: <X+xi, Y+eta> = (eta(X) + xi(Y)) / 2."""
    if len(v) != 2 * n or len(w) != 2 * n:
        raise ValueError("vectors must have length %d" % (2 * n))
    acc = ZERO
    for i in range(n):
        acc = acc + scalar(v[i]) * scalar(w[n + i]) + scalar(w[i]) * scalar(v[n + i])
    return acc / Scalar.rational(2)


def integrate(a: Form, volume: Scalar = ONE, orientation: int = 1) -> Scalar:
    """Total integral on the model: orientation * volume * top coefficient."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    out = a.top_coefficient() * volume
    return out if orientation == 1 else -out
