"""Truncated equivariant complexes for torus actions on invariant models.

Equivariant forms are finite polynomial maps from the torus Lie algebra into
model forms, truncated at a chosen total polynomial degree.  The equivariant
differential follows the convention d_G = d - x^j i_j (the opposite sign is
equivalent under x -> -x and changes no ranks).  Formal-power-series
coefficients are realized by the truncation degree; stability of the
reported ranks across consecutive truncations is the completion criterion.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from ._record import Record, _set
from .forms import Form, _triple_form, _triples, basis_masks, clifford, contract_vector, wedge
from .gcmaps import GCMap, uk_grading
from .models import (
    BettiPair,
    Model,
    _unit_images,
    d,
    d_twisted,
    ddbar_lemma_check,
    split_operators,
)
from .scalars import ONE, ZERO, Scalar, scalar

Expo = Tuple[int, ...]


def _expo_add(a: Expo, j: int) -> Expo:
    out = list(a)
    out[j] += 1
    return tuple(out)


def _expo_sum(a: Expo, b: Expo) -> Expo:
    return tuple(x + y for x, y in zip(a, b))


def monomials_of_degree(k: int, degree: int) -> List[Expo]:
    """Exponent vectors of the given total degree in k variables, sorted."""
    if degree == 0:
        return [tuple([0] * k)]
    out = []
    for combo in combinations_with_replacement(range(k), degree):
        e = [0] * k
        for j in combo:
            e[j] += 1
        out.append(tuple(e))
    return sorted(set(out))


class EqForm:
    """Equivariant form: finite map from x-monomials to model forms."""

    __slots__ = ("k", "n", "trunc", "terms")

    def __init__(self, k: int, n: int, trunc: int, terms=()):
        if k < 0 or trunc < 0:
            raise ValueError("rank and truncation degree must be nonnegative")
        clean = {}
        for expo, form in dict(terms).items():
            expo = tuple(expo)
            if len(expo) != k:
                raise ValueError("exponent vector %r has wrong length" % (expo,))
            if form.n != n:
                raise ValueError("component form lives on the wrong frame")
            if form.is_zero():
                continue
            if sum(expo) > trunc:
                continue
            clean[expo] = form
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("EqForm is immutable")

    @staticmethod
    def of_form(form: Form, k: int, trunc: int) -> "EqForm":
        return EqForm(k, form.n, trunc, {tuple([0] * k): form})

    def is_zero(self) -> bool:
        return not self.terms

    def component(self, expo: Expo) -> Form:
        return self.terms.get(tuple(expo), Form.zero(self.n))

    def __add__(self, other: "EqForm") -> "EqForm":
        self._check(other)
        terms = dict(self.terms)
        for e, f in other.terms.items():
            terms[e] = terms.get(e, Form.zero(self.n)) + f
        return EqForm(self.k, self.n, min(self.trunc, other.trunc), terms)

    def __sub__(self, other: "EqForm") -> "EqForm":
        return self + (-other)

    def __neg__(self) -> "EqForm":
        return self.map_forms(lambda f: -f)

    def scale(self, c) -> "EqForm":
        c = scalar(c)
        return self.map_forms(lambda f: f.scale(c))

    def x_shift(self, j: int) -> "EqForm":
        """Multiply by the j-th polynomial variable (drops past truncation)."""
        return EqForm(self.k, self.n, self.trunc,
                      {_expo_add(e, j): f for e, f in self.terms.items()})

    def map_forms(self, fn) -> "EqForm":
        return EqForm(self.k, self.n, self.trunc,
                      {e: fn(f) for e, f in self.terms.items()})

    def _check(self, other: "EqForm"):
        if self.k != other.k or self.n != other.n:
            raise ValueError("equivariant forms are not compatible")

    def __eq__(self, other):
        if not isinstance(other, EqForm):
            return NotImplemented
        return (
            self.k == other.k and self.n == other.n and self.terms == other.terms
        )

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "EqForm(%s)" % self.to_text()

    def to_text(self, names: Sequence[str] = None) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda ex: (sum(ex), ex)):
            mono = "*".join(
                "x%d" % (j + 1) if p == 1 else "x%d^%d" % (j + 1, p)
                for j, p in enumerate(e)
                if p
            )
            body = self.terms[e].to_text(names)
            if mono:
                parts.append("%s*(%s)" % (mono, body))
            else:
                parts.append("(%s)" % body)
        return " + ".join(parts)


def wedge_eq(a: EqForm, b: EqForm) -> EqForm:
    a._check(b)
    trunc = min(a.trunc, b.trunc)
    terms: Dict[Expo, Form] = {}
    for ea, fa in a.terms.items():
        for eb, fb in b.terms.items():
            e = _expo_sum(ea, eb)
            if sum(e) <= trunc:
                terms[e] = terms.get(e, Form.zero(a.n)) + wedge(fa, fb)
    return EqForm(a.k, a.n, trunc, terms)


class TorusAction:
    """Constant torus action: fundamental fields plus optional moment data.

    mu_diff supplies the closed 1-forms standing in for the differentials of
    the formal moment map components; alpha is the moment one-form.  Every
    field it admits is central (each frame residual i_v d(e_i) is zero), so
    L_v = d i_v + i_v d kills every form: no function here checks invariance.
    """

    __slots__ = ("model", "xi", "mu_diff", "alpha")

    def __init__(
        self,
        model: Model,
        xi: Sequence[Sequence],
        mu_diff: Optional[Sequence[Form]] = None,
        alpha: Optional[Sequence[Form]] = None,
    ):
        vecs = [tuple(scalar(c) for c in v) for v in xi]
        for v in vecs:
            if len(v) != model.n:
                raise ValueError("fundamental field needs %d coordinates" % model.n)
        k = len(vecs)
        mu = list(mu_diff) if mu_diff is not None else None
        al = list(alpha) if alpha is not None else None
        for name, forms, deg in (("mu_diff", mu, 1), ("alpha", al, 1)):
            if forms is None:
                continue
            if len(forms) != k:
                raise ValueError("%s needs one form per torus factor" % name)
            for f in forms:
                if f.n != model.n:
                    raise ValueError("%s lives on the wrong frame" % name)
                if not (f.is_zero() or f.is_homogeneous(deg)):
                    raise ValueError("%s entries must be 1-forms" % name)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "xi", tuple(vecs))
        object.__setattr__(self, "mu_diff", tuple(mu) if mu is not None else None)
        object.__setattr__(self, "alpha", tuple(al) if al is not None else None)
        # Model has checked d(d(e_i)) = 0, so L_v d(e_i) = d(i_v d(e_i)); a nonzero
        # frame residual i_v d(e_i) also breaks d_G^2 = 0 on the full complex, and
        # with every one zero v is central, so L_v H = d(i_v H) = 0 as dH = 0
        for j, v in enumerate(self.xi, start=1):
            for i, entry in enumerate(model.d_table, start=1):
                frame_res = contract_vector(v, entry)
                if frame_res.is_zero():
                    continue
                res = d(model, frame_res)
                if not res.is_zero():
                    raise ValueError(
                        "field %d does not preserve d(%s): %s"
                        % (j, model.names[i - 1], res.to_text(model.names))
                    )
                raise ValueError(
                    "field %d does not preserve the frame: L(%s) = %s"
                    % (j, model.names[i - 1], frame_res.to_text(model.names))
                )
        if mu is not None:
            for j, f in enumerate(mu, start=1):
                df = d(model, f)
                if not df.is_zero():
                    raise ValueError("moment differential %d is not closed" % j)

    def __setattr__(self, name, value):
        raise AttributeError("TorusAction is immutable")

    @property
    def k(self) -> int:
        return len(self.xi)

    def contract_j(self, j: int, f: Form) -> Form:
        return contract_vector(self.xi[j], f)

    def eqform(self, form: Form, trunc: int) -> EqForm:
        return EqForm.of_form(form, self.k, trunc)

    def h_equivariant(self, trunc: int) -> EqForm:
        """The equivariant 3-form: model twist plus x^j alpha^j."""
        terms: Dict[Expo, Form] = {}
        if not self.model.H.is_zero():
            terms[tuple([0] * self.k)] = self.model.H
        if self.alpha is not None:
            for j, a in enumerate(self.alpha):
                if not a.is_zero():
                    e = tuple(1 if i == j else 0 for i in range(self.k))
                    terms[e] = terms.get(e, Form.zero(self.model.n)) + a
        return EqForm(self.k, self.model.n, trunc, terms)


def _x_weighted(eta: EqForm, op) -> EqForm:
    """Sum over torus factors j of x^j op(j, f), over the components f of eta,
    cut at eta's truncation."""
    terms: Dict[Expo, Form] = {}
    for e, f in eta.terms.items():
        for j in range(eta.k):
            piece = op(j, f)
            if piece.is_zero():
                continue
            key = _expo_add(e, j)
            if sum(key) <= eta.trunc:
                terms[key] = terms.get(key, Form.zero(eta.n)) + piece
    return EqForm(eta.k, eta.n, eta.trunc, terms)


def d_equivariant(act: TorusAction, eta: EqForm) -> EqForm:
    """Equivariant differential: vertical d minus x^j-weighted contractions."""
    _check_action_form(act, eta)
    return eta.map_forms(lambda f: d(act.model, f)) + _x_weighted(
        eta, lambda j, f: -act.contract_j(j, f)
    )


def d_equivariant_twisted(act: TorusAction, h_g: EqForm, eta: EqForm) -> EqForm:
    """Equivariant differential twisted by an equivariantly closed 3-form."""
    res = d_equivariant(act, h_g)
    if not res.is_zero():
        raise ValueError(
            "twisting form is not equivariantly closed: residual %s" % res
        )
    return _d_eq_twisted_unchecked(act, h_g, eta)


def _d_eq_twisted_unchecked(act: TorusAction, h_g: EqForm, eta: EqForm) -> EqForm:
    return d_equivariant(act, eta) - wedge_eq(h_g, eta)


def _moment_sections(act: TorusAction) -> List[List[Scalar]]:
    """Coefficient vectors of -xi_j + i(m^j + i a^j) in V + V* coordinates."""
    if act.mu_diff is None or act.alpha is None:
        raise ValueError("action carries no moment data")
    n = act.model.n
    out = []
    for j in range(act.k):
        vec = [-c for c in act.xi[j]] + [Scalar()] * n
        cov = act.mu_diff[j].scale(Scalar.imaginary(1)) - act.alpha[j]
        for mask, coeff in cov.terms.items():
            vec[n + mask.bit_length() - 1] = coeff
        out.append(vec)
    return out


def moment_operator(act: TorusAction, eta: EqForm) -> EqForm:
    """Moment contribution: per factor, -i_j + i(m^j + i a^j) wedge, x-weighted."""
    _check_action_form(act, eta)
    sections = _moment_sections(act)
    return _x_weighted(eta, lambda j, f: clifford(sections[j], f))


def generalized_d(act: TorusAction, eta: EqForm) -> EqForm:
    """Twisted differential plus the moment operator."""
    return eta.map_forms(lambda f: d_twisted(act.model, f)) + moment_operator(act, eta)


def _check_action_form(act: TorusAction, eta: EqForm):
    if eta.k != act.k or eta.n != act.model.n:
        raise ValueError("equivariant form does not match the action")


class HamiltonianReport(Record):
    def __init__(self, ok: bool, spinor_residuals: Tuple[Form, ...],
                 closure_residual: Optional[EqForm]):
        _set(self, "__dict__", {"ok": ok, "spinor_residuals": spinor_residuals,
                                "closure_residual": closure_residual})

    @property
    def closure_ok(self) -> bool:
        return self.closure_residual is None or self.closure_residual.is_zero()


def hamiltonian_check(act: TorusAction, rho: Form) -> HamiltonianReport:
    """Certify moment data against a candidate pure spinor.

    Per torus factor the section -xi_j + i(m^j + i a^j) must annihilate the
    spinor under the Clifford action, and the equivariant 3-form must be
    equivariantly closed.  For a twisted-closed spinor these certify that
    exp(i mu) rho is equivariantly closed for the twisted differential,
    with the moment map formal.
    """
    residuals = [clifford(s, rho) for s in _moment_sections(act)]
    h_g = act.h_equivariant(trunc=3)
    closure = d_equivariant(act, h_g)
    ok = all(r.is_zero() for r in residuals) and closure.is_zero()
    return HamiltonianReport(
        ok=ok,
        spinor_residuals=tuple(residuals),
        closure_residual=None if closure.is_zero() else closure,
    )


# -- ranks of the truncated complex ------------------------------------------------


class EquivariantRanks(Record):
    """Per-(parity, polynomial degree) ranks of the truncated complex.

    by_degree[d] = (even, odd) graded ranks of the cohomology filtration at
    polynomial degree d.  Degrees near the truncation are sensitive to it:
    compare two consecutive truncations and trust the agreeing prefix.
    `totals_stable` drops only the top degree, too few once the curvature
    class is not zero: for the Kodaira-Thurston circle along e3 it reads
    (5, 5), where Cartan's theorem gives H(T^3) = (4, 4).  The freeness
    verdict checks degrees below the truncation against (number of
    degree-d monomials) x (twisted Betti ranks).
    """

    def __init__(self, trunc: int, k: int, by_degree: Tuple[Tuple[int, int], ...],
                 betti: BettiPair, free_pattern: bool):
        _set(self, "__dict__", {"trunc": trunc, "k": k, "by_degree": by_degree,
                                "betti": betti, "free_pattern": free_pattern})

    def totals_stable(self) -> Tuple[int, int]:
        even = sum(e for e, _ in self.by_degree[: self.trunc])
        odd = sum(o for _, o in self.by_degree[: self.trunc])
        return even, odd


MAX_COLUMNS = 4096  # most (x-monomial, mask) pairs a truncated complex may span


def equivariant_cohomology(act: TorusAction, h_g: EqForm, trunc: int) -> EquivariantRanks:
    """Exact graded ranks of the truncated twisted equivariant complex."""
    model = act.model
    columns = comb(trunc + act.k, act.k) << model.n
    if columns > MAX_COLUMNS:
        raise ValueError("truncated complex has %d (x-monomial, mask) columns, beyond %d"
                         % (columns, MAX_COLUMNS))
    res = d_equivariant(act, h_g)
    if not res.is_zero():
        raise ValueError("twisting form is not equivariantly closed: %s" % res)
    cols_eo, cols_oe = _cartan_columns(act, h_g, trunc)
    mono_degs = [deg for deg in range(trunc + 1) for _ in monomials_of_degree(act.k, deg)]

    # Graded pieces of the x-degree filtration on kernel/image: the piece at
    # degree p is dim((ker & F_p) + im) - dim((ker & F_p+1) + im), F_p spanning
    # the trailing coordinates, of x-degree >= p.  As im lies in ker, that is
    # |F_p| - rank(out-map on F_p) + rank(im off F_p).  One elimination per
    # parity map M reads both: its rows are M's columns, last first, in blocks
    # of x-degree (pivot: earliest block, fewest nonzeros, lowest index), so
    # the pivot rows before a block boundary count rank(M on F_p), and the
    # pivot columns below h the rank of M's first h codomain rows.
    def profiles(cols, ncols):
        per = len(cols) // len(mono_degs)
        blocks = [-mono_degs[j // per] for j in reversed(range(len(cols)))]
        return linalg.rank_profiles(cols[::-1], ncols, blocks)

    out_e, im_o = profiles(cols_eo, len(cols_oe))
    out_o, im_e = profiles(cols_oe, len(cols_eo))

    def graded(out_rows, im_pivots, size):
        per = size // len(mono_degs)  # masks of one parity per x-monomial
        heads = [per * bisect_left(mono_degs, p) for p in range(trunc + 2)]  # coordinates off F_p
        out_rows = sorted(out_rows)  # the pivot columns come increasing already
        dims = [size - h - bisect_left(out_rows, size - h) + bisect_left(im_pivots, h)
                for h in heads]
        return [dims[p] - dims[p + 1] for p in range(trunc + 1)]

    by_degree = tuple(zip(graded(out_e, im_e, len(cols_eo)), graded(out_o, im_o, len(cols_oe))))

    # the twisted Betti ranks of h_g's x-degree-0 part h0, closed by the check
    # above: 2^(n-1) minus the rank of the x^0 block.  d_G never lowers x-degree,
    # so that is the rank of the leading 2^(n-1) codomain rows: pivot columns there
    h0 = h_g.component(tuple([0] * act.k))
    if not (h0.is_zero() or h0.is_homogeneous(3)):
        raise ValueError("twisting form must be homogeneous of degree 3")
    betti = BettiPair(1, 0)
    if model.n:
        half = 1 << (model.n - 1)
        free = half - bisect_left(im_e, half) - bisect_left(im_o, half)
        betti = BettiPair(free, free)
    counts = [len(monomials_of_degree(act.k, deg)) for deg in range(trunc)]
    pattern = all(ranks == (c * betti.even, c * betti.odd) for ranks, c in zip(by_degree, counts))
    return EquivariantRanks(trunc=trunc, k=act.k, by_degree=by_degree, betti=betti,
                            free_pattern=pattern)


def _cartan_columns(act: TorusAction, h_g: EqForm, trunc: int) -> Tuple[linalg.TRows, linalg.TRows]:
    """Sparse columns of d_G - h_g^ on the even, then the odd (x-monomial,
    mask) pairs; (i-th monomial, p-th mask of a parity) is row i 2^(n-1) + p.
    Column (e, mask) is mask's unit image shifted by e, cut at min(trunc,
    h_g.trunc): the `_unit_images` of each x-exponent, of d's table at x^0
    and of the 0-form table -xi_j (a contraction) at x^j, each with h_g's
    terms there.  The blocks the cut keeps become triples in the order
    d(e_1)..d(e_n), h_g at x^0, then per torus factor j its field xi_j
    (negated after the conversion) and h_g at x^j, then h_g's other terms, so
    a coefficient that is not Gaussian leaves no matrix and the ValueError
    names it as stated."""
    n, k = act.model.n, act.k
    bound = min(trunc, h_g.trunc)
    twists = {ee: list(f.terms.items()) for ee, f in h_g.terms.items() if sum(ee) <= bound}
    for ee, h in twists.items():
        if any(mh.bit_count() % 2 == 0 for mh, _ in h):  # h_g^ would keep the parity
            raise ValueError("twisting form has a term of even form degree: %s"
                             % EqForm(k, n, trunc, {ee: h_g.terms[ee]}))
    zero = tuple([0] * k)
    fields = {_expo_add(zero, j): v for j, v in enumerate(act.xi)} if bound else {}
    expos = [zero] + list(fields) + [ee for ee in twists if ee != zero and ee not in fields]
    images = []
    for ee in expos:  # each block's table, then its twist
        if ee == zero:
            table = [_triples(dg.terms.items()) for dg in act.model.d_table]
        elif ee in fields:
            table = [[(0, (-a, -b, d))] if a or b else []
                     for _, (a, b, d) in _triples(enumerate(fields[ee]))]
        else:
            table = [[]] * n
        images.append(_unit_images(n, table, _triples(twists.get(ee, []))))
    parts = [[mk for mk in basis_masks(n) if mk.bit_count() % 2 == p] for p in (0, 1)]
    pos = {mk: p for part in parts for p, mk in enumerate(part)}
    units = {mask: [[(pos[mk], t) for mk, t in image[mask].items()] for image in images]
             for mask in parts[0] + parts[1]}
    monos = [e for deg in range(trunc + 1) for e in monomials_of_degree(k, deg)]
    index = {e: i for i, e in enumerate(monos)}
    # per source monomial e, (block, row offset of e + ee) for the blocks the cut keeps
    shifts = [[(b, index[_expo_sum(e, ee)] << n >> 1) for b, ee in enumerate(expos)
               if sum(e) + sum(ee) <= bound] for e in monos]
    return tuple([{off + p: t for b, off in live for p, t in units[mask][b]}
                  for live in shifts for mask in part] for part in parts)


class StableRanks(Record):
    """Per-degree ranks agreeing between two consecutive truncations.

    The top degrees of a single truncated run carry completion artifacts;
    the degrees on which runs at trunc and trunc+1 agree are authoritative.
    """

    def __init__(self, trunc: int, by_degree: Tuple[Tuple[int, int], ...],
                 low: EquivariantRanks, high: EquivariantRanks):
        _set(self, "__dict__", {"trunc": trunc, "by_degree": by_degree, "low": low,
                                "high": high})

    def totals(self) -> Tuple[int, int]:
        even = sum(e for e, _ in self.by_degree)
        odd = sum(o for _, o in self.by_degree)
        return even, odd


def stable_equivariant_ranks(act: TorusAction, trunc: int) -> StableRanks:
    """Run two consecutive truncations and keep the agreeing degree prefix."""
    low = equivariant_cohomology(act, act.h_equivariant(trunc), trunc)
    high = equivariant_cohomology(act, act.h_equivariant(trunc + 1), trunc + 1)
    agreed = []
    for deg in range(trunc + 1):
        if low.by_degree[deg] != high.by_degree[deg]:
            break
        agreed.append(low.by_degree[deg])
    return StableRanks(trunc=trunc, by_degree=tuple(agreed), low=low, high=high)


# -- connections, the Cartan map, and descent --------------------------------------


class Connection:
    """Connection elements for a free model action, with curvature.

    theta^j are 1-forms dual to the fundamental fields; the curvature is
    d(theta^j), as torus structure constants vanish.
    """

    __slots__ = ("action", "theta", "curvature")

    def __init__(self, action: TorusAction, theta: Sequence[Form]):
        model = action.model
        th = list(theta)
        if len(th) != action.k:
            raise ValueError("need one connection element per torus factor")
        for f in th:
            if f.n != model.n or not (f.is_zero() or f.is_homogeneous(1)):
                raise ValueError("connection elements must be 1-forms on the model")
        for i in range(action.k):
            for j in range(action.k):
                val = contract_vector(action.xi[i], th[j]).terms.get(0, Scalar())
                want = ONE if i == j else Scalar()
                if val != want:
                    raise ValueError(
                        "duality fails: i_%d theta^%d = %s" % (i + 1, j + 1, val)
                    )
        # horizontal, as i_v d(theta) = sum_g theta_g i_v d(e_g) = 0 by TorusAction's frame check
        curv = [d(model, t) for t in th]
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "theta", tuple(th))
        object.__setattr__(self, "curvature", tuple(curv))

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    @staticmethod
    def solve(action: TorusAction) -> "Connection":
        """Find connection elements by solving the duality equations: column j
        of the solution x of xi x = 1 holds the coordinates of theta^j."""
        n, k = action.model.n, action.k
        rows = linalg.to_sparse([[c.as_q() for c in v] for v in action.xi])
        sol = linalg.solve(rows, [{j: (1, 0, 1)} for j in range(k)], n, k)
        if sol is None:
            raise ValueError("action is not free on the model frame")
        return Connection(action, [_triple_form(n, {1 << i: t for i, t in col.items()})
                                   for col in linalg.sparse_transpose(sol, k)])


def horizontal_projection(conn: Connection, f: Form) -> Form:
    """Strip connection components: apply prod_j (1 - theta^j i_j)."""
    out = f
    for j in range(conn.action.k):
        out = out - wedge(conn.theta[j], conn.action.contract_j(j, out))
    return out


def cartan_map(conn: Connection, eta: EqForm) -> Form:
    """Map x^I (x) gamma to curvature^I wedge horizontal part of gamma.

    The image is horizontal as built: each factor (1 - theta^j i_j) commutes
    with every i_k and is killed by i_j, the curvature is horizontal, and so
    is a wedge of horizontal forms.
    """
    act = conn.action
    _check_action_form(act, eta)
    out = Form.zero(act.model.n)
    for e, f in eta.terms.items():
        piece = horizontal_projection(conn, f)
        for j, power in enumerate(e):
            for _ in range(power):
                piece = wedge(conn.curvature[j], piece)
                if piece.is_zero():
                    break
        out = out + piece
    return out


def gamma_from_connection(conn: Connection) -> Form:
    """The 2-form Gamma = sum theta^j ^ alpha^j contracting back to the moment
    one-forms: i_i Gamma = alpha^i, as `Connection` has i_i theta^j = delta
    and each alpha^j is checked horizontal here."""
    act = conn.action
    if act.alpha is None:
        raise ValueError("action carries no moment one-form")
    for j, a in enumerate(act.alpha, start=1):
        for i in range(act.k):
            if not contract_vector(act.xi[i], a).is_zero():
                raise ValueError(
                    "moment one-form %d is not horizontal; project it first" % j
                )
    gamma = Form.zero(act.model.n)
    for j in range(act.k):
        gamma = gamma + wedge(conn.theta[j], act.alpha[j])
    return gamma


def basic_twist(conn: Connection) -> Form:
    """The basic 3-form H + x^j alpha^j + d_G(Gamma), which is H + d(Gamma), as
    d_G(Gamma) = d(Gamma) - x^j alpha^j.  Horizontality is checked:
    i_v(H + d Gamma) = i_v H - d alpha^v is nonzero when h_G is not
    equivariantly closed."""
    act = conn.action
    out = act.model.H + d(act.model, gamma_from_connection(conn))
    for i in range(act.k):
        if not contract_vector(act.xi[i], out).is_zero():
            raise AssertionError("twist failed to become horizontal")
    return out


def quotient_frame(conn: Connection) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Indices kept and dropped by descent; needs frame-aligned connections."""
    model = conn.action.model
    dropped = []
    for j, th in enumerate(conn.theta, start=1):
        if len(th.terms) != 1:
            raise ValueError("connection element %d is not a frame generator" % j)
        mask, coeff = next(iter(th.terms.items()))
        if mask.bit_count() != 1 or coeff != ONE:
            raise ValueError("connection element %d is not a frame generator" % j)
        dropped.append(mask.bit_length())
    if len(set(dropped)) != len(dropped):
        raise ValueError("connection elements repeat a frame generator")
    kept = tuple(i for i in range(1, model.n + 1) if i not in dropped)
    return kept, tuple(dropped)


def descend_form(conn: Connection, a: Form) -> Form:
    """The unique quotient form pulling back to a basic form; a horizontal
    form is basic, as every `TorusAction` field is central."""
    act = conn.action
    model = act.model
    for j in range(act.k):
        res = act.contract_j(j, a)
        if not res.is_zero():
            raise ValueError(
                "form is not basic: contraction %d gives %s"
                % (j + 1, res.to_text(model.names))
            )
    kept, dropped = quotient_frame(conn)
    drop_mask = 0
    for i in dropped:
        drop_mask |= 1 << (i - 1)
    relabel = {i: pos + 1 for pos, i in enumerate(kept)}
    terms = {}
    for mask, coeff in a.terms.items():
        if mask & drop_mask:
            raise ValueError("form touches the connection frame; cannot descend")
        new = 0
        for i in relabel:
            if mask & (1 << (i - 1)):
                new |= 1 << (relabel[i] - 1)
        terms[new] = coeff
    return Form(len(kept), terms)


def quotient_model(conn: Connection, twist: Optional[Form] = None) -> Model:
    """Quotient model on the complementary frame with the induced differential."""
    model = conn.action.model
    kept, _ = quotient_frame(conn)
    table = []
    for i in kept:
        table.append(descend_form(conn, model.d_table[i - 1]))
    names = [model.names[i - 1] for i in kept]
    h = twist
    if h is not None and h.n != len(kept):
        raise ValueError("quotient twist lives on the wrong frame")
    return Model(
        len(kept), table, h, model.volume, model.orientation,
        ["q_" + nm for nm in names],
    )


class ModelMorphism:
    """DGA morphism by pullback: codomain generators map to domain 1-forms."""

    __slots__ = ("domain", "codomain", "gen_images")

    def __init__(self, domain: Model, codomain: Model, gen_images: Sequence[Form]):
        images = list(gen_images)
        if len(images) != codomain.n:
            raise ValueError("need an image for each codomain generator")
        for f in images:
            if f.n != domain.n or not (f.is_zero() or f.is_homogeneous(1)):
                raise ValueError("generator images must be 1-forms on the domain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "gen_images", tuple(images))
        for i in range(1, codomain.n + 1):
            left = self.pullback(codomain.d_table[i - 1])
            right = d(domain, images[i - 1])
            if left != right:
                raise ValueError(
                    "pullback does not intertwine differentials at generator %d" % i
                )
        if self.pullback(codomain.H) != domain.H:
            raise ValueError("pullback does not match the twisting forms")

    def __setattr__(self, name, value):
        raise AttributeError("ModelMorphism is immutable")

    @staticmethod
    def identity(model: Model) -> "ModelMorphism":
        return ModelMorphism(
            model, model, [model.generator(i) for i in range(1, model.n + 1)]
        )

    def pullback(self, a: Form) -> Form:
        if a.n != self.codomain.n:
            raise ValueError("form does not live on the codomain")
        out = Form.zero(self.domain.n)
        for mask, coeff in a.terms.items():
            piece = Form.unit(self.domain.n, coeff)
            bits = mask
            while bits:
                low = bits & -bits
                piece = wedge(piece, self.gen_images[low.bit_length() - 1])
                if piece.is_zero():
                    break
                bits ^= low
            out = out + piece
        return out


def kirwan_map(
    act: TorusAction, conn: Connection, sub: ModelMorphism, eta: EqForm
) -> Form:
    """Restrict, apply the Cartan map, and descend to the quotient frame."""
    if sub.domain is not act.model:
        raise ValueError("action must live on the restriction's domain")
    restricted = EqForm(act.k, act.model.n, eta.trunc,
                        {e: sub.pullback(f) for e, f in eta.terms.items()})
    mapped = cartan_map(conn, restricted)
    return descend_form(conn, mapped)


# -- canonical equivariant extensions -----------------------------------------------


class ExtensionError(ValueError):
    """The extension recursion met an unsolvable step."""

    def __init__(self, message: str, witness: Form):
        super().__init__(message)
        self.witness = witness


def canonical_extension(
    act: TorusAction, j: GCMap, phi: Form, trunc: Optional[int] = None
) -> EqForm:
    """Equivariantly extend a form closed for both halves of the differential.

    Solves the recursion: at each polynomial degree the moment operator's
    contribution must be cancelled by the lower half of a two-sided
    potential, which the interchange law guarantees; termination is bounded
    by the level filtration.  The result is closed for the generalized
    differential, verified exactly.  phi is invariant, as every
    `TorusAction` field is central.
    """
    model = act.model
    if phi.n != model.n:
        raise ValueError("form lives on the wrong frame")
    if trunc is None:
        trunc = model.n // 2 + 1
    ops = split_operators(model, j)
    check = ddbar_lemma_check(model, j, ops=ops)
    if not check.ok:
        raise ExtensionError(
            "interchange law fails on this model: %s" % check.detail,
            check.witness if check.witness is not None else Form.zero(model.n),
        )

    def column(f: Form) -> linalg.TRows:
        """f's coordinates as a one-column matrix; `as_q` runs in mask order,
        so an error names the first coefficient that is not Gaussian."""
        return linalg.to_sparse([[f.terms.get(m, ZERO).as_q()] for m in ops.masks])

    phi_col = column(phi)
    lo, up, size = ops.lower, ops.upper, len(ops.masks)
    prod = linalg.sparse_mul(up, lo)  # P = -lower upper, so lower(upper x) = -r iff P x = r
    _moment_sections(act)  # missing moment data wins over a closedness error
    for v, a, mu in zip(act.xi, act.alpha, act.mu_diff):  # refused as stated, not in a residual
        for stated in (enumerate(v), a.terms.items(), mu.terms.items()):
            _triples(stated)

    def kills(half, col: linalg.TRows) -> bool:
        return not any(linalg.sparse_mul(half, col))

    # a half moves every level by one step, so it kills phi iff it kills each
    # level component; the components, top level first, name the failing half
    if not (kills(lo, phi_col) and kills(up, phi_col)):
        for comp in uk_grading(j).decompose(phi).values():
            if not kills(lo, column(comp)):
                raise ValueError("component is not closed for the lower half")
            if not kills(up, column(comp)):
                raise ValueError("component is not closed for the upper half")

    terms: Dict[Expo, Form] = {tuple([0] * act.k): phi}
    for degree in range(1, trunc + 1):
        top = {e: f for e, f in terms.items() if sum(e) == degree - 1}
        residuals = moment_operator(act, EqForm(act.k, model.n, trunc, top)).terms
        if not residuals:
            break
        for e, r in residuals.items():
            sol = linalg.solve(prod, column(r), size, 1)
            if sol is None:
                raise ExtensionError(
                    "moment contribution is not cancellable; interchange "
                    "law violation witness %s" % r.to_text(model.names),
                    r,
                )
            corr = _triple_form(model.n, {ops.masks[r]: row[0] for r, row
                                          in enumerate(linalg.sparse_mul(up, sol)) if row})
            if not corr.is_zero():
                terms[e] = terms.get(e, Form.zero(model.n)) + corr
    out = EqForm(act.k, model.n, trunc, terms)
    residual = generalized_d(act, out)
    if not residual.is_zero():
        raise AssertionError(
            "extension failed to close the generalized differential: %s" % residual
        )
    return out


# -- the formal conjugation identity -------------------------------------------------


def moment_conjugation_residual(act: TorusAction, gamma: Form, trunc: int):
    """Residual of the conjugation identity with a formal moment map.

    Checks (d_H + A)(exp(-i mu) gamma) = exp(-i mu) d_{G,H_G}(gamma) as a
    truncated series, where mu^j are formal symbols with d(mu^j) = m^j and
    exp(-i mu) carries matching x- and mu-exponents.  Returns the dict of
    nonzero residual components (empty when the identity holds).
    """
    _moment_sections(act)  # missing moment data wins over a frame error
    model = act.model
    k = act.k
    zero = Form.zero(model.n)

    # exp(-i mu): coefficient prod_j (-i)^p_j / p_j! of each monomial
    exp_coeff: Dict[Expo, Scalar] = {}
    for degree in range(trunc + 1):
        for e in monomials_of_degree(k, degree):
            coeff = ONE
            for p in e:
                for s in range(1, p + 1):
                    coeff = coeff * Scalar.imaginary(-1) / Scalar.rational(s)
            exp_coeff[e] = coeff

    # (d_H + A) on the mu^e slice of the series, and d(mu^j) = m^j lowering
    # its mu-exponent; keys are (x-exponent, mu-exponent)
    lhs: Dict[Tuple[Expo, Expo], Form] = {}
    for e, coeff in exp_coeff.items():
        f = gamma.scale(coeff)
        slice_d = generalized_d(act, EqForm(k, model.n, trunc, {e: f}))
        pieces = [((ex, e), g) for ex, g in slice_d.terms.items()]
        for jj in range(k):
            if e[jj]:
                lowered = tuple(p - 1 if idx == jj else p for idx, p in enumerate(e))
                dmu = wedge(act.mu_diff[jj], f).scale(Scalar.rational(e[jj]))
                pieces.append(((e, lowered), dmu))
        for key, g in pieces:
            lhs[key] = lhs.get(key, zero) + g

    h_g = act.h_equivariant(trunc + 1)
    w = _d_eq_twisted_unchecked(
        act, h_g, EqForm.of_form(gamma, k, trunc + 1)
    )
    rhs: Dict[Tuple[Expo, Expo], Form] = {}
    for e, coeff in exp_coeff.items():
        for ew, f in w.terms.items():
            key = (_expo_sum(e, ew), e)
            if sum(key[0]) > trunc:
                continue
            rhs[key] = rhs.get(key, zero) + f.scale(coeff)

    residual: Dict[Tuple[Expo, Expo], Form] = {}
    for key in set(lhs) | set(rhs):
        diff = lhs.get(key, zero) - rhs.get(key, zero)
        if not diff.is_zero():
            residual[key] = diff
    return residual
