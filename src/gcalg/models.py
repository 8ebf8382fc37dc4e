"""Finite invariant models of manifolds and their twisted cohomology.

A Model is a finite differential graded algebra presented by the
differentials of its degree-1 generators plus a closed twisting 3-form.
All cohomology is exact linear algebra over Gaussian rationals; the twisted
complexes are Z2-graded because the twisted differential mixes form degrees.
"""

from __future__ import annotations

from math import comb
from typing import List, Optional, Sequence, Tuple

from . import linalg
from ._record import Record, _set
from .forms import (
    Form,
    _form_of,
    _merge_sign,
    _triple_form,
    _triples,
    basis_masks,
    clifford,
    contract_vector,
    exp_two_form,
    reversal,
    wedge,
)
from .gcmaps import GCMap, UGrading, lifted_action_matrix, require_valid, uk_grading
from .scalars import ONE, Q, Scalar, _drop_zeros


class Model:
    """Invariant model: generator differentials, twisting 3-form, volume."""

    __slots__ = ("n", "d_table", "H", "volume", "orientation", "names")

    def __init__(
        self,
        n: int,
        d_table: Optional[Sequence[Form]] = None,
        H: Optional[Form] = None,
        volume: Scalar = ONE,
        orientation: int = 1,
        names: Optional[Sequence[str]] = None,
    ):
        if n < 0:
            raise ValueError("negative generator count")
        table = list(d_table) if d_table is not None else [Form.zero(n)] * n
        if len(table) != n:
            raise ValueError("differential table needs %d entries" % n)
        for i, f in enumerate(table, start=1):
            if f.n != n:
                raise ValueError("d(e%d) lives on the wrong frame" % i)
            if not (f.is_zero() or f.is_homogeneous(2)):
                raise ValueError("d(e%d) must be homogeneous of degree 2" % i)
        h = H if H is not None else Form.zero(n)
        if h.n != n:
            raise ValueError("twisting form lives on the wrong frame")
        if not (h.is_zero() or h.is_homogeneous(3)):
            raise ValueError("twisting form must be homogeneous of degree 3")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if names is None:
            names = ["e%d" % i for i in range(1, n + 1)]
        if len(names) != n:
            raise ValueError("need %d generator names" % n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d_table", tuple(table))
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "names", tuple(names))
        for name, di in zip(self.names, self.d_table):
            dd = d(self, di)
            if not dd.is_zero():
                raise ValueError(
                    "d is not a differential: d(d(%s)) = %s" % (name, dd.to_text(self.names))
                )
        dh = d(self, h)
        if not dh.is_zero():
            raise ValueError(
                "twisting form is not closed: dH = %s" % dh.to_text(self.names)
            )

    def __setattr__(self, name, value):
        raise AttributeError("Model is immutable")

    def generator(self, i: int) -> Form:
        return Form.generator(self.n, i)

    def form(self, terms) -> Form:
        return Form(self.n, terms)

    def with_twist(self, H: Form) -> "Model":
        return Model(self.n, self.d_table, H, self.volume, self.orientation, self.names)

    def __repr__(self):
        return "Model(n=%d, H=%s)" % (self.n, self.H.to_text(self.names))


def d(m: Model, a: Form) -> Form:
    """Graded Leibniz extension of the generator differentials: the sum over
    generators g of d(e_g) ^ contract(g, a), since each d(e_g) is a 2-form
    and moves past the generators before e_g with no sign.

    Built by mask arithmetic, with no contraction or wedge Form: per generator
    g, each term of d(e_g) lands on each term of a through e_g with the sign
    of `_d_column`.  The sum runs generator-major, each generator's image
    summed before it is added, so every Scalar keeps the term order of that
    sum of wedges (the order that names the pi powers of a mix)."""
    if a.n != m.n:
        raise ValueError("form lives on %d generators, model has %d" % (a.n, m.n))
    out = _form_of(m.n, {})
    for g, dg in enumerate(m.d_table):
        if not dg.terms:
            continue
        bit = 1 << g
        # the terms of contract(g, a): (mask without e_g, coefficient, odd sign)
        part = [(mask ^ bit, c, (mask & (bit - 1)).bit_count() & 1)
                for mask, c in a.terms.items() if mask & bit]
        image: dict = {}
        for mg, cg in dg.terms.items():
            for rest, c, odd in part:
                if not mg & rest:
                    y = cg * c
                    if odd != (_merge_sign(mg, rest) < 0):
                        y = -y
                    key = mg | rest
                    x = image.get(key)
                    image[key] = y if x is None else x + y
        out = out + _form_of(m.n, _drop_zeros(image))
    return out


def d_twisted(m: Model, a: Form) -> Form:
    """Twisted differential: d minus wedging by the twisting 3-form."""
    return d(m, a) - wedge(m.H, a)


def d_untwisted_plus(m: Model, a: Form) -> Form:
    """The opposite-twist differential, d plus wedging by the 3-form."""
    return d(m, a) + wedge(m.H, a)


def lie_derivative(m: Model, xi: Sequence, a: Form) -> Form:
    """Cartan formula along a constant vector field."""
    return d(m, contract_vector(list(xi), a)) + contract_vector(list(xi), d(m, a))


class BettiPair(Record):
    def __init__(self, even: int, odd: int, over: str = "Q(i)"):
        _set(self, "__dict__", {"even": even, "odd": odd, "over": over})

    def __iter__(self):
        return iter((self.even, self.odd))


def _d_matrix(m: Model) -> linalg.TRows:
    """Sparse rows of triples of d_H's matrix, rows and columns in
    `basis_masks` order, built by mask arithmetic (`_d_column`) with no Form.
    d's table and H become triples first, d(e_1)..d(e_n) then H, in term
    order, so a coefficient that is not a Gaussian rational leaves no matrix:
    the ValueError names the first one as the model states it."""
    table, h = [_triples(dg.terms.items()) for dg in m.d_table], _triples(m.H.terms.items())
    masks = basis_masks(m.n)
    row_of = {mk: i for i, mk in enumerate(masks)}
    rows = [{} for _ in masks]
    for col, mask in enumerate(masks):
        for key, t in _d_column(mask, table, h).items():
            rows[row_of[key]][col] = t
    return rows


def _d_column(mask: int, table: list, h: list) -> dict:
    """Column e_mask of d_H as {mask: triple}, from the (mask, triple) terms
    of each d(e_g) and of H: for each set bit g of mask the terms of d(e_g)
    wedged onto mask ^ g, with the sign of contracting e_g and `_merge_sign`,
    then minus the terms of H ^ e_mask.  A table of 0-forms (mask 0) makes the
    first passes a contraction.  Every pass adds into the column and removes a
    cancelled entry, so the keys keep `d_twisted`'s order."""
    passes = [(terms, mask ^ (1 << g), -1 if (mask & ((1 << g) - 1)).bit_count() & 1 else 1)
              for g, terms in enumerate(table) if terms and mask >> g & 1]  # (terms, onto, sign)
    passes.append((h, mask, -1))
    col = {}
    for terms, rest, sign in passes:
        for mg, c in terms:
            if not mg & rest:
                key = mg | rest
                v = linalg._add_mul(col.get(key), (sign * _merge_sign(mg, rest), 0, 1), c)
                if v[0] or v[1]:
                    col[key] = v
                else:
                    del col[key]
    return col


def twisted_cohomology(m: Model) -> BettiPair:
    """Exact Z2-graded Betti ranks of the twisted complex: d_H swaps parity,
    so its rank is the sum of its two parity blocks' ranks and each Betti
    rank is 2^(n-1) minus it."""
    if m.n == 0:
        return BettiPair(1, 0)
    rank = len(linalg.pivots(_d_matrix(m), 1 << m.n))
    free = (1 << (m.n - 1)) - rank
    return BettiPair(free, free)


def betti_numbers(m: Model) -> List[int]:
    """Integer-graded Betti numbers; only meaningful when the twist is zero.
    d raises degree by one, so its blocks share no rows or columns and the
    rank of d out of degree q is the number of pivot columns of degree q."""
    if not m.H.is_zero():
        raise ValueError("integer grading needs a zero twisting form")
    masks = basis_masks(m.n)
    ranks = [0] * (m.n + 1)  # ranks[q]: rank of d from degree q to degree q + 1
    for c in linalg.pivots(_d_matrix(m), len(masks)):
        ranks[masks[c].bit_count()] += 1
    return [comb(m.n, q) - ranks[q] - (ranks[q - 1] if q else 0) for q in range(m.n + 1)]


def exp_lambda_transport(m: Model, lam: Form, a: Form) -> Form:
    """Wedge with exp(lambda); carries the twist H to H + d(lambda)."""
    if not (lam.is_zero() or lam.is_homogeneous(2)):
        raise ValueError("transport form must be homogeneous of degree 2")
    return wedge(exp_two_form(lam), a)


def module_wedge(m: Model, a: Form, b: Form) -> Form:
    """Product of a d-closed form with a twisted-closed form, verified closed."""
    ra = d(m, a)
    if not ra.is_zero():
        raise ValueError("left factor is not closed: d(a) = %s" % ra.to_text(m.names))
    rb = d_twisted(m, b)
    if not rb.is_zero():
        raise ValueError(
            "right factor is not twisted-closed: residual %s" % rb.to_text(m.names)
        )
    out = wedge(a, b)
    res = d_twisted(m, out)
    if not res.is_zero():
        raise AssertionError("product failed to be twisted-closed: %s" % res)
    return out


def sigma_twist(m: Model, a: Form) -> Form:
    """Reversal of a twisted-closed form; the result is closed for the opposite twist."""
    res = d_twisted(m, a)
    if not res.is_zero():
        raise ValueError("form is not twisted-closed: residual %s" % res.to_text(m.names))
    out = reversal(a)
    back = d_untwisted_plus(m, out)
    if not back.is_zero():
        raise AssertionError("reversal failed opposite-twist closedness: %s" % back)
    return out


def reversal_clifford_pair(v: Sequence, a: Form) -> Tuple[Form, Form]:
    """Residuals of the paired annihilation: v = X + g kills a, X - g kills reversal(a)."""
    n = a.n
    coords = [Scalar.from_q(x) if isinstance(x, Q) else x for x in v]
    flipped = list(coords[:n]) + [-c for c in coords[n:]]
    return clifford(coords, a), clifford(flipped, reversal(a))


# -- generalized-complex splitting on a model -------------------------------------


class IntegrabilityError(ValueError):
    """The twisted differential does not split into adjacent levels."""

    def __init__(self, message: str, residual: Form):
        super().__init__(message)
        self.residual = residual


def _stray_component(m: Model, residual: Form) -> IntegrabilityError:
    return IntegrabilityError(
        "structure is not integrable on this model; stray component %s"
        % residual.to_text(m.names),
        residual,
    )


def del_delbar_split(
    m: Model, j: GCMap, a: Form, grading: Optional[UGrading] = None
) -> Tuple[Form, Form]:
    """Split the twisted differential of a form into level -1 and +1 parts.

    Any component of d_H(a) two or more levels away means the structure is
    not integrable on this model and raises IntegrabilityError.
    """
    if j.dim != m.n:
        raise ValueError("structure frame does not match the model")
    g = grading if grading is not None else uk_grading(j)
    parts = g.decompose(a)
    lower = Form.zero(m.n)
    upper = Form.zero(m.n)
    residual = Form.zero(m.n)
    for k, comp in parts.items():
        img = g.decompose(d_twisted(m, comp))
        for kk, piece in img.items():
            if kk == k - 1:
                lower = lower + piece
            elif kk == k + 1:
                upper = upper + piece
            else:
                residual = residual + piece
    if not residual.is_zero():
        raise _stray_component(m, residual)
    return lower, upper


class SplitOperators(Record):
    """The two halves of the twisted differential, level-split, as sparse rows
    of triples: `lower` moves the level by -1, `upper` by +1."""

    def __init__(self, model: Model, masks: Tuple[int, ...], lower: linalg.TRows,
                 upper: linalg.TRows):
        _set(self, "__dict__", {"model": model, "masks": masks, "lower": lower, "upper": upper})


def split_operators(m: Model, j: GCMap) -> SplitOperators:
    """Halves of D = d_H that move the level of uk_grading(j) by -1 and +1.

    The part D_s of D moving levels by s has [L, D_s] = -s*i*D_s for the lift
    L.  D is a derivation plus a wedge with H, so s is one of -3, -1, 1, 3
    and [L, [L, D]] + D = -8 S for the stray part S = D_-3 + D_3.  When S is
    zero the halves are (D -+ i[L, D]) / 2; else the first nonzero column of
    S is the stray component of the first basis form, as the per-form split
    reports it.  Every product and sum runs on sparse rows of triples.
    """
    require_valid(j)
    if j.dim != m.n:
        raise ValueError("structure frame does not match the model")
    dmat = _d_matrix(m)
    masks = basis_masks(m.n)
    lift = lifted_action_matrix(j)
    one = (1, 0, 1)  # triples (a, b, d) = (a + b*i)/d

    def comm(a):
        return linalg.sparse_comb(
            (one, linalg.sparse_mul(lift, a)), ((-1, 0, 1), linalg.sparse_mul(a, lift))
        )

    d_comm = comm(dmat)
    stray8 = linalg.sparse_comb((one, comm(d_comm)), (one, dmat))  # -8 S
    if not any(stray8):  # the halves (D -+ i[L, D]) / 2
        lower = linalg.sparse_comb(((1, 0, 2), dmat), ((0, -1, 2), d_comm))
        upper = linalg.sparse_comb(((1, 0, 2), dmat), ((0, 1, 2), d_comm))
        return SplitOperators(m, masks, lower, upper)
    if comm(comm(stray8)) != linalg.sparse_comb(((-9, 0, 1), stray8)):
        raise AssertionError("d_H moves levels by steps other than 1 and 3")
    col = min(c for row in stray8 for c in row)
    column = {masks[r]: row[col] for r, row in enumerate(stray8) if col in row}
    residual = linalg.sparse_comb(((-1, 0, 8), [column]))[0]  # S's column: -1/8 of -8 S
    raise _stray_component(m, _triple_form(m.n, residual))


class DdbarReport(Record):
    def __init__(self, ok: bool, witness: Optional[Form] = None, detail: str = ""):
        _set(self, "__dict__", {"ok": ok, "witness": witness, "detail": detail})


def ddbar_lemma_check(m: Model, j: GCMap, ops: Optional[SplitOperators] = None) -> DdbarReport:
    """Exact subspace test of the interchange law between the two halves.

    Verifies ker(lower) & im(upper) = im(lower) & ker(upper) = im(upper lower)
    by rank comparisons; on failure returns the first offending basis vector.
    d_H^2 = 0 splits by level into lower^2 = upper^2 = 0 and lower upper = -P
    for P = upper lower, so ker(lower) & im(upper) = upper(ker P) and
    im(lower) & ker(upper) = lower(ker P).  Four eliminations on sparse rows
    of triples: of P's columns, of P's rows for ker P, and of each image.
    """
    sp = ops if ops is not None else split_operators(m, j)
    size = len(sp.masks)
    lower, upper = sp.lower, sp.upper
    prod = linalg.sparse_mul(upper, lower)
    im_prod, im_pivots = linalg.echelon(linalg.sparse_transpose(prod, size), size)
    ker_prod = linalg.null_space(prod, size)
    # canonical bases of the images: row x of ker_prod times half^T is half(x)
    upper_t, lower_t = (linalg.sparse_transpose(half, size) for half in (upper, lower))
    a = linalg.echelon(linalg.sparse_mul(ker_prod, upper_t), size)[0]
    b = linalg.echelon(linalg.sparse_mul(ker_prod, lower_t), size)[0]

    for name, space in (("ker(del) & im(delbar)", a), ("im(del) & ker(delbar)", b)):
        for row in space:
            if not linalg.in_echelon_span(row, im_prod, im_pivots):
                witness = _triple_form(m.n, {sp.masks[c]: row[c] for c in sorted(row)})
                return DdbarReport(
                    ok=False,
                    witness=witness,
                    detail="%s is larger than im(delbar del); witness %s"
                    % (name, witness.to_text(m.names)),
                )
    # im(delbar del) always sits inside both intersections; dims settle equality.
    if len(a) != len(im_prod) or len(b) != len(im_prod):
        return DdbarReport(ok=False, detail="rank bookkeeping mismatch")
    return DdbarReport(ok=True)


def delbar_closed_subcomplex_betti(m: Model, j: GCMap) -> BettiPair:
    """Twisted Betti ranks of the subcomplex of upper-half-closed forms.  Each
    kernel vector has one parity and d_H swaps it, so the even and odd images
    share no coordinates and one rank of all of them is their ranks' sum.
    Row x of the kernel times the transpose of d_H = lower + upper is d_H(x)."""
    sp = split_operators(m, j)
    size, one = len(sp.masks), (1, 0, 1)
    kernel = linalg.null_space(sp.upper, size)
    if not kernel:
        return BettiPair(0, 0)
    span, pivots = linalg.echelon(kernel, size)
    d_h = linalg.sparse_comb((one, sp.lower), (one, sp.upper))
    images = linalg.sparse_mul(kernel, linalg.sparse_transpose(d_h, size))
    n_odd = 0  # ranks in mask coordinates equal ranks in the kernel
    for v, img in zip(kernel, images):
        if not linalg.in_echelon_span(img, span, pivots):
            raise AssertionError("twisted differential left the subcomplex")
        n_odd += _pure_parity(v, sp.masks)
    rank = len(linalg.pivots(images, size))
    return BettiPair(len(kernel) - n_odd - rank, n_odd - rank)


def _pure_parity(row: dict, masks: Sequence[int]) -> int:
    """The parity of the masks of a sparse row's columns, which must agree."""
    degs = {masks[c].bit_count() % 2 for c in row}
    if len(degs) != 1:
        raise AssertionError("basis vector of mixed parity")
    return degs.pop()


# -- shipped models ---------------------------------------------------------------


def torus(n: int, H: Optional[Form] = None, volume: Scalar = ONE, orientation: int = 1) -> Model:
    """Flat torus model: all generator differentials vanish."""
    return Model(n, None, H, volume, orientation)


def heisenberg3(H: Optional[Form] = None) -> Model:
    """3-dimensional nilmanifold model: d(e3) = e1^e2."""
    table = [Form.zero(3), Form.zero(3), Form.monomial(3, (1, 2))]
    return Model(3, table, H)


def kodaira_thurston(H: Optional[Form] = None) -> Model:
    """4-dimensional nilmanifold model: d(e3) = e1^e2, all else flat."""
    table = [Form.zero(4), Form.zero(4), Form.monomial(4, (1, 2)), Form.zero(4)]
    return Model(4, table, H)


def heisenberg5(H: Optional[Form] = None) -> Model:
    """5-dimensional nilmanifold model: d(e5) = e1^e2 + e3^e4."""
    table = [Form.zero(5)] * 4 + [
        Form.monomial(5, (1, 2)) + Form.monomial(5, (3, 4))
    ]
    return Model(5, table, H)
