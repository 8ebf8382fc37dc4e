import math
import random
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gcalg import cartan, gcmaps, gcy, linalg
from gcalg.forms import (
    Form, _merge_sign, _unit_clifford, basis_masks, clifford, contract_vector, form_to_vec,
    mask_key, wedge,
)
from gcalg.gcmaps import i_eigenspace, require_valid, uk_grading
from gcalg import modelfile
from gcalg.modelfile import ParseError, parse_model
from gcalg.models import (
    BettiPair, DdbarReport, Model, _stray_component, d, d_twisted, ddbar_lemma_check,
    del_delbar_split, lie_derivative, split_operators, twisted_cohomology,
)
from gcalg.scalars import ONE, Q, QZERO, Scalar, _mono_key, _mono_mul, _mono_str, scalar

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture
def rng():
    return random.Random(20260810)


def random_q(rng, span=4, complex_ok=True):
    re = Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3]))
    im = Fraction(0)
    if complex_ok and rng.random() < 0.5:
        im = Fraction(rng.randint(-span, span), rng.choice([1, 2]))
    return Q(re, im)


def wide_q(rng, kind=None):
    """A Gaussian rational with denominators up to 10^6, each part drawn on
    its own: kind "real", "imag" or "both" (default: any of them)."""
    kind = kind or rng.choice(["real", "imag", "both"])

    def part():
        den = rng.choice([1, 2, 3, 6, 7, 10 ** 6, 999983, rng.randint(1, 10 ** 6)])
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 3), den)

    return Q(part() if kind != "imag" else 0, part() if kind != "real" else 0)


def triple(q):
    """The reduced triple (a, b, d) a Q stores, the entry format of linalg's rows."""
    return q.a, q.b, q.d


# Gaussian rationals as scalars first had them, on two Fractions: the
# reference of the differential tests of Q, which stores reduced integer
# triples instead, and of its printing
class RefQ:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RefQ is immutable")

    def __add__(self, other):
        return RefQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefQ(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefQ(-self.re, -self.im)

    def __mul__(self, other):
        return RefQ(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return RefQ((self.re * other.re + self.im * other.im) / n,
                    (self.im * other.re - self.re * other.im) / n)

    def __pow__(self, k):
        if k < 0:
            return RefQ(1) / self.__pow__(-k)
        out = RefQ(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return RefQ(self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, RefQ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "Q(%s, %s)" % (self.re, self.im)


def _ref_frac_str(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def ref_format_q(q):
    if q.im == 0:
        return _ref_frac_str(q.re)
    if q.im == 1:
        im = "i"
    elif q.im == -1:
        im = "-i"
    else:
        im = _ref_frac_str(q.im) + "*i"
    if q.re == 0:
        return im
    return "%s%s%s" % (_ref_frac_str(q.re), "+" if q.im > 0 else "-", im.lstrip("-"))


def ref_scalar_str(terms, pi_power=0):
    """Scalar.__str__ of {monomial: RefQ} (nonzero coefficients) times pi^pi_power,
    with the rational content factored out on Fractions."""
    if not terms:
        return "0"
    parts = [x for c in terms.values() for x in (c.re, c.im) if x != 0]
    content = Fraction(gcd(*(x.numerator for x in parts)), lcm(*(x.denominator for x in parts)))
    lead = terms[min(terms, key=_mono_key)]
    if (lead.re < 0) or (lead.re == 0 and lead.im < 0):
        content = -content
    rest = {m: RefQ(c.re / content, c.im / content) for m, c in terms.items()}

    def coeff_piece(q):
        s = ref_format_q(q)
        return "(%s)" % s if ("+" in s[1:]) or ("-" in s[1:]) else s

    poly = ""
    for m, c in sorted(rest.items(), key=lambda kv: _mono_key(kv[0])):
        mono = _mono_str(m)
        if not mono:
            piece = ref_format_q(c)
        elif c == RefQ(1):
            piece = mono
        elif c == RefQ(-1):
            piece = "-" + mono
        else:
            piece = "%s*%s" % (coeff_piece(c), mono)
        poly += "+" + piece if poly and not piece.startswith("-") else piece
    pieces = [coeff_piece(RefQ(content)) if content != 1 else None,
              ("pi" if pi_power == 1 else "pi^%d" % pi_power) if pi_power else None]
    if poly != "1":
        wrap = len(rest) > 1 and any(p is not None for p in pieces)
        pieces.append("(%s)" % poly if wrap else poly)
    out = "*".join(p for p in pieces if p is not None) or "1"
    return "-" + out[3:] if out.startswith("-1*") else out


def gaussian_matrix(rng, rows, cols, density, kind=None):
    return [[wide_q(rng, kind) if rng.random() < density else Q(0) for _ in range(cols)]
            for _ in range(rows)]


def random_form(rng, n, degrees=None, max_terms=4, complex_ok=True):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if degrees is None:
            mask = rng.randrange(1 << n)
        else:
            deg = rng.choice(list(degrees))
            idx = rng.sample(range(n), deg) if deg <= n else []
            mask = 0
            for i in idx:
                mask |= 1 << i
        q = random_q(rng, complex_ok=complex_ok)
        terms[mask] = terms.get(mask, Scalar()) + Scalar.from_q(q)
    return Form(n, terms)


def random_vector(rng, length, span=3):
    return [Scalar.from_q(random_q(rng, span)) for _ in range(length)]


def shipped_structures():
    """(model, structure) for every structure of the shipped model files."""
    out = []
    for path in sorted(MODELS_DIR.glob("*.model")):
        mf = parse_model(path.read_text())
        out += [(mf.model, j) for j in mf.structures.values()]
    return out


# 2-step nilpotent models with Gaussian, parametric or pi coefficients: the
# random models of the rank and ddbar differential tests
def random_nilpotent(rng, n, kind):
    """A 2-step nilpotent model on n generators: the first k (all but at
    least one from n = 3 on) are closed and each later d(e_g) sums e_a^e_b
    over closed a < b, so d^2 = 0.  H, on about half the draws, is closed
    triples plus d of a 2-form.  Coefficients are Gaussian rationals, and
    for kind "param" or "pi" some are -s, s + 1 or a multiple of pi."""
    def coeff():
        c = Scalar.from_q(random_q(rng))
        if kind == "param" and rng.random() < 0.3:
            return rng.choice([-Scalar.parameter("s"), Scalar.parameter("s") + ONE])
        if kind == "pi" and rng.random() < 0.3:
            return c * Scalar.pi()
        return c

    def sparse(masks, count):
        return Form(n, {mk: coeff() for mk in rng.sample(masks, min(count, len(masks)))})

    k = rng.randint(min(n, 2), n - 1) if n > 2 else n
    closed_pairs = [mk for mk in basis_masks(k) if mk.bit_count() == 2]
    table = [Form.zero(n)] * k + [sparse(closed_pairs, rng.randint(0, 3)) for _ in range(n - k)]
    model = Model(n, table)
    if n < 3 or rng.random() < 0.5:
        return model
    triples = [mk for mk in basis_masks(k) if mk.bit_count() == 3]
    pairs = [mk for mk in basis_masks(n) if mk.bit_count() == 2]
    return model.with_twist(sparse(triples, 2) + d(model, sparse(pairs, 2)))


# dense matrix products and sums for the reference constructions; the
# package itself multiplies, adds and scales matrices on sparse rows only
def dense_mul(a, b):
    out = [[Q(0)] * (len(b[0]) if b else 0) for _ in a]
    for orow, row in zip(out, a):
        for k, x in enumerate(row):
            if x.is_zero():
                continue
            for j, y in enumerate(b[k]):
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def vec_to_form(v, masks, n):
    """The form with dense coordinates v on the given basis masks; the
    package reads forms off sparse rows of triples instead."""
    return Form(n, {m: Scalar.from_q(c) for m, c in zip(masks, v) if not c.is_zero()})


# kernels and solves as linalg first had them, on dense rows: the free-column
# kernel of one dense RREF, and one dense RREF of [mat | rhs] per right-hand
# side; the package solves and takes kernels on rows of triples
def ref_kernel_basis(mat, ncols=None):
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    m, pivots = linalg.rref(mat)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Q(1) if c == fc else Q(0) for c in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def ref_solve(mat, rhs):
    """One exact solution of mat @ x = rhs, or None when inconsistent."""
    ncols = len(mat[0]) if mat else 0
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    m, pivots = linalg.rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Q(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][-1]
    return x


def solve_column(mat, rhs):
    """linalg.solve on dense rows for one right-hand side: the solution as
    dense coordinates, or None."""
    ncols = len(mat[0]) if mat else 0
    x = linalg.solve(linalg.to_sparse(mat), linalg.to_sparse([[y] for y in rhs]), ncols, 1)
    return None if x is None else [row[0] for row in linalg.to_dense(x, 1)]


# the operator matrix as first assembled: one dense write per image entry,
# as the package writes it again; the sparse columns of triples the package
# once filled and took the dense matrix as the view of, with each image key
# looked up before its coefficient is converted and zeros not stored
def ref_operator_matrix(op, src, dst):
    row_of = {key: i for i, key in enumerate(dst)}
    out = [[Q(0)] * len(src) for _ in dst]
    for j, key in enumerate(src):
        for k, c in op(key).items():
            out[row_of[k]][j] = c.as_q()
    return out


def ref_operator_columns(op, src, dst):
    row_of = {key: i for i, key in enumerate(dst)}
    out = []
    for key in src:
        col = {}
        for k, c in op(key).items():
            i = row_of[k]
            if not c.is_zero():
                q = c.as_q()
                col[i] = q.a, q.b, q.d
        out.append(col)
    return out


# dense spans as linalg first had them: the canonical RREF rows of a span and
# membership in it; the package eliminates sparse rows of triples instead
def row_space(rows):
    """Canonical basis (RREF nonzero rows) of the span of the given rows."""
    m, pivots = linalg.rref(rows)
    return m[: len(pivots)]


def in_span(v, basis_rref):
    """Membership test against an RREF basis."""
    out = list(v)
    for row in basis_rref:
        lead = next((j for j, x in enumerate(row) if not x.is_zero()), None)
        if lead is None:
            continue
        f = out[lead]
        if not f.is_zero():
            out = [x - f * y for x, y in zip(out, row)]
    return all(x.is_zero() for x in out)


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


# the Clifford action and the pairing as first written: a contraction with
# its own sign loop, contract_vector as a sum of contractions, clifford as
# contract_vector plus a wedge with the built 1-form, and the pairing as a
# dense matrix; the package sums one generator and swaps halves instead
def ref_contract(i, a):
    bit = 1 << (i - 1)
    terms = {}
    for m, c in a.terms.items():
        if not m & bit:
            continue
        below = (m & (bit - 1)).bit_count()
        terms[m ^ bit] = c if below % 2 == 0 else -c
    return Form(a.n, terms)


def ref_contract_vector(coords, a):
    out = Form.zero(a.n)
    for i, c in enumerate(coords, start=1):
        c = scalar(c)
        if not c.is_zero():
            out = out + ref_contract(i, a).scale(c)
    return out


def ref_clifford(v, a):
    coords = [scalar(c) for c in v]
    xi = Form(a.n, {1 << i: coords[a.n + i] for i in range(a.n)})
    return ref_contract_vector(coords[: a.n], a) + wedge(xi, a)


def ref_pairing_matrix(dim):
    half = Q(1, 0) / Q(2)
    p = [[Q(0)] * (2 * dim) for _ in range(2 * dim)]
    for i in range(dim):
        p[i][dim + i] = half
        p[dim + i][i] = half
    return p


# the rank questions of the models layer as first answered: twisted ranks
# from two parity blocks of d_H, integer Betti numbers from one matrix per
# degree, the upper-closed subcomplex from one rank per parity, and the
# ddbar intersections by Zassenhaus; the package reads each off one matrix
# of d_H or the product of its two halves
def ref_intersect_spans(rows_a, rows_b, ncols):
    """Zassenhaus: canonical basis of span(rows_a) & span(rows_b)."""
    block = [list(r) + list(r) for r in rows_a]
    block += [list(r) + [Q(0)] * ncols for r in rows_b]
    m, _ = linalg.rref(block)
    out = []
    for row in m:
        left, right = row[:ncols], row[ncols:]
        if any(not x.is_zero() for x in left):
            continue
        if any(not x.is_zero() for x in right):
            out.append(right)
    return row_space(out) if out else []


def ref_twisted_cohomology(m):
    if m.n == 0:
        return BettiPair(1, 0)
    masks = basis_masks(m.n)
    even = [mk for mk in masks if mk.bit_count() % 2 == 0]
    odd = [mk for mk in masks if mk.bit_count() % 2 == 1]

    def image(mask):
        return d_twisted(m, Form(m.n, {mask: ONE})).terms

    rank_eo = linalg.rank(linalg.operator_matrix(image, even, odd))
    rank_oe = linalg.rank(linalg.operator_matrix(image, odd, even))
    return BettiPair(len(even) - rank_eo - rank_oe, len(odd) - rank_oe - rank_eo)


def ref_betti_numbers(m):
    if not m.H.is_zero():
        raise ValueError("integer grading needs a zero twisting form")
    by_degree = [[mk for mk in basis_masks(m.n) if mk.bit_count() == q] for q in range(m.n + 1)]

    def image(mask):
        return d(m, Form(m.n, {mask: ONE})).terms

    # ranks[q]: rank of d from degree q to degree q + 1 (none out of the top degree)
    ranks = [
        linalg.rank(linalg.operator_matrix(image, by_degree[q], by_degree[q + 1]))
        for q in range(m.n)
    ] + [0]
    return [len(by_degree[q]) - ranks[q] - (ranks[q - 1] if q else 0) for q in range(m.n + 1)]


def ref_delbar_closed_subcomplex_betti(m, j):
    sp = split_operators(m, j)
    kernel = ref_kernel_basis(linalg.to_dense(sp.upper, len(sp.masks)))
    if not kernel:
        return BettiPair(0, 0)
    span = row_space(kernel)
    images = ([], [])  # even, odd
    for v in kernel:
        f = vec_to_form(v, sp.masks, m.n)
        img = form_to_vec(d_twisted(m, f), sp.masks)
        assert in_span(img, span)
        parities = {mk.bit_count() % 2 for mk in f.terms}
        assert len(parities) == 1
        images[parities.pop()].append(img)
    even, odd = images
    rank_e, rank_o = linalg.rank(even), linalg.rank(odd)
    return BettiPair(len(even) - rank_e - rank_o, len(odd) - rank_o - rank_e)


# the level grading as first computed: the pure spinor as the kernel of the
# stacked Clifford system of the space, level k as the kernel of the lift
# shifted so the spinor line sits at -h*i plus k*i, and decompose through the
# stored inverse of the change matrix; the package builds the levels from the
# spinor by Clifford products and solves the change matrix per call instead
def _ref_normalize(f):
    lead = min(f.terms, key=mask_key)
    return f.scale(ONE / f.terms[lead])


def ref_pure_spinor(space):
    n = space.dim_v
    if space.dimension != n:
        raise ValueError(
            "subspace has dimension %d, maximal isotropic needs %d"
            % (space.dimension, n)
        )
    masks = basis_masks(n)
    rows = []
    for v in space.basis:
        coords = [Scalar.from_q(x) for x in v]
        rows.extend(linalg.operator_matrix(
            lambda m: clifford(coords, Form(n, {m: ONE})).terms, masks, masks))
    kernel = ref_kernel_basis(rows, ncols=len(masks))
    if len(kernel) != 1:
        raise ValueError("annihilator line has dimension %d, expected 1" % len(kernel))
    return _ref_normalize(vec_to_form(kernel[0], masks, n))


class RefGrading:
    def __init__(self, dim_v, levels, bases, masks, inverse):
        self.dim_v, self.levels, self.bases = dim_v, levels, bases
        self.masks, self.inverse = masks, inverse

    def decompose(self, f):
        if f.n != self.dim_v:
            raise ValueError("form does not live on this frame")
        if f.parameters():
            raise ValueError("decomposition needs parameter-free coefficients")
        coeffs = linalg.mat_vec(self.inverse, form_to_vec(f, self.masks))
        out = {}
        pos = 0
        for k in self.levels:
            part = Form.zero(self.dim_v)
            for b in self.bases[k]:
                c = coeffs[pos]
                pos += 1
                if not c.is_zero():
                    part = part + b.scale(Scalar.from_q(c))
            if not part.is_zero():
                out[k] = part
        return out


def ref_uk_grading(j):
    n = j.dim
    half = n // 2
    masks = basis_masks(n)
    op = ref_lifted_action_matrix(j)
    svec = form_to_vec(ref_pure_spinor(i_eigenspace(j)), masks)
    image = linalg.mat_vec(op, svec)
    lead = next(i for i, x in enumerate(svec) if not x.is_zero())
    eigen = image[lead] / svec[lead]
    if [x * eigen for x in svec] != image:
        raise ValueError("canonical line is not an eigenvector of the lift")
    shift = Q(0, -half) - eigen
    levels = tuple(range(half, -half - 1, -1))
    bases = {}
    for k in levels:
        diag = shift + Q(0, k)
        target = [list(row) for row in op]
        for r, row in enumerate(target):
            row[r] = row[r] + diag
        kernel = ref_kernel_basis(target)
        bases[k] = tuple(_ref_normalize(vec_to_form(v, masks, n)) for v in kernel)
    if sum(len(b) for b in bases.values()) != len(masks):
        raise ValueError("eigenvalue spectrum escapes the expected levels")
    level_forms = [f for k in levels for f in bases[k]]
    inverse = linalg.invert(linalg.operator_matrix(lambda f: f.terms, level_forms, masks))
    return RefGrading(n, levels, bases, masks, inverse)


# the truncated equivariant complex as first ranked: both parity maps built
# as dense matrices from per-mask EqForm images, the out-map's rows reversed
# and the in-map transposed for one dense RREF each, and the Betti ranks
# from a model rebuilt with the x-degree-0 twist; the package takes sparse
# unit images straight from d, the contractions and the wedge, and reads
# every rank off the row and column rank profiles of one elimination per
# parity map
def ref_equivariant_cohomology(act, h_g, trunc):
    model = act.model
    columns = comb(trunc + act.k, act.k) << model.n
    if columns > cartan.MAX_COLUMNS:
        raise ValueError("truncated complex has %d (x-monomial, mask) columns, beyond %d"
                         % (columns, cartan.MAX_COLUMNS))
    res = cartan.d_equivariant(act, h_g)
    if not res.is_zero():
        raise ValueError("twisting form is not equivariantly closed: %s" % res)
    masks = basis_masks(model.n)
    basis = [(e, mask) for deg in range(trunc + 1)
             for e in cartan.monomials_of_degree(act.k, deg) for mask in masks]
    even_basis = [b for b in basis if b[1].bit_count() % 2 == 0]
    odd_basis = [b for b in basis if b[1].bit_count() % 2 == 1]
    units = {}

    def image(key):
        e, mask = key
        if mask not in units:
            unit = Form(model.n, {mask: ONE})
            img = cartan._d_eq_twisted_unchecked(
                act, h_g, cartan.EqForm.of_form(unit, act.k, trunc))
            units[mask] = (img.trunc, [(ee, mk, c) for ee, f in img.terms.items()
                                       for mk, c in f.terms.items()])
        bound, terms = units[mask]
        return {(cartan._expo_sum(e, ee), mk): c for ee, mk, c in terms
                if sum(e) + sum(ee) <= bound}

    mat_eo = ref_operator_matrix(image, even_basis, odd_basis)
    mat_oe = ref_operator_matrix(image, odd_basis, even_basis)

    def graded(mat_out, mat_in, basis_list):
        size = len(basis_list)
        out_pivots = linalg.rref([row[::-1] for row in mat_out])[1]  # F_p first
        im_pivots = linalg.rref(transpose(mat_in))[1]
        degs = [sum(e) for e, _ in basis_list]
        heads = [bisect_left(degs, p) for p in range(trunc + 2)]
        dims = [size - h - sum(c < size - h for c in out_pivots) + sum(c < h for c in im_pivots)
                for h in heads]
        return [dims[p] - dims[p + 1] for p in range(trunc + 1)]

    even_ranks = graded(mat_eo, mat_oe, even_basis)
    odd_ranks = graded(mat_oe, mat_eo, odd_basis)
    h0 = h_g.component(tuple([0] * act.k))
    betti = twisted_cohomology(model.with_twist(h0))
    free = True
    for deg in range(trunc):
        count = len(cartan.monomials_of_degree(act.k, deg))
        if even_ranks[deg] != count * betti.even or odd_ranks[deg] != count * betti.odd:
            free = False
            break
    return cartan.EquivariantRanks(trunc=trunc, k=act.k, by_degree=tuple(zip(even_ranks, odd_ranks)),
                                   betti=betti, free_pattern=free)


# the equivariant ranks as read before the rank profiles, from five forward
# eliminations on the same sparse columns: per parity, the out-map's rows
# with their columns reversed (its rank on F_p) and the in-map's columns
# (the image's rank off F_p), and the x-degree-0 block of both maps for the
# Betti pair; the package eliminates each parity map once, its columns as
# rows in blocks of x-degree, and reads all three off the two profiles
def ref_five_eliminations(act, h_g, trunc):
    model = act.model
    columns = comb(trunc + act.k, act.k) << model.n
    if columns > cartan.MAX_COLUMNS:
        raise ValueError("truncated complex has %d (x-monomial, mask) columns, beyond %d"
                         % (columns, cartan.MAX_COLUMNS))
    res = cartan.d_equivariant(act, h_g)
    if not res.is_zero():
        raise ValueError("twisting form is not equivariantly closed: %s" % res)
    cols_eo, cols_oe = cartan._cartan_columns(act, h_g, trunc)
    mono_degs = [deg for deg in range(trunc + 1)
                 for _ in cartan.monomials_of_degree(act.k, deg)]

    def graded(cols_out, cols_in):
        size = len(cols_out)
        rows_out = {}  # the out-map's rows, columns reversed: F_p first
        for j, col in enumerate(cols_out):
            for i, x in col.items():
                rows_out.setdefault(i, {})[size - 1 - j] = x
        out_pivots = linalg.pivots(list(rows_out.values()), size)
        im_pivots = linalg.pivots(cols_in, size)
        per = size // len(mono_degs)
        heads = [per * bisect_left(mono_degs, p) for p in range(trunc + 2)]
        dims = [size - h - sum(c < size - h for c in out_pivots) + sum(c < h for c in im_pivots)
                for h in heads]
        return [dims[p] - dims[p + 1] for p in range(trunc + 1)]

    by_degree = tuple(zip(graded(cols_eo, cols_oe), graded(cols_oe, cols_eo)))
    h0 = h_g.component(tuple([0] * act.k))
    if not (h0.is_zero() or h0.is_homogeneous(3)):
        raise ValueError("twisting form must be homogeneous of degree 3")
    betti = BettiPair(1, 0)
    if model.n:
        half = 1 << (model.n - 1)
        block = [{i: x for i, x in col.items() if i < half} for col in cols_eo[:half]]
        block += [{half + i: x for i, x in col.items() if i < half} for col in cols_oe[:half]]
        free = half - len(linalg.pivots(block, 2 * half))
        betti = BettiPair(free, free)
    counts = [len(cartan.monomials_of_degree(act.k, deg)) for deg in range(trunc)]
    pattern = all(ranks == (c * betti.even, c * betti.odd) for ranks, c in zip(by_degree, counts))
    return cartan.EquivariantRanks(trunc=trunc, k=act.k, by_degree=by_degree, betti=betti,
                                   free_pattern=pattern)


# the ddbar path as first run on dense rows: the lift summed in Q into a zero
# matrix, the halves of d_H as dense rows from dense products, and the check
# through row_space and in_span on dense RREF rows; the package keeps sparse
# rows of Gaussian-integer triples from the lift and d_H's matrix to the last
# rank
def ref_lifted_action_matrix(j):
    n = j.dim
    half = Q(1) / Q(2)
    pairs = []
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            jp = j.matrix[a][(b + n) % (2 * n)] * half  # (JP)[a][b]
            if not jp.is_zero():
                pairs.append((a, b, -jp))
    masks = basis_masks(n)
    row_of = {m: i for i, m in enumerate(masks)}
    out = linalg.zeros(len(masks), len(masks))
    for col, mask in enumerate(masks):
        for a, b, w in pairs:
            for first, second, sign in ((b, a, 1), (a, b, -1)):
                one = _unit_clifford(first, n, mask)
                two = one and _unit_clifford(second, n, one[1])
                if two:
                    r = row_of[two[1]]
                    x = out[r][col]
                    out[r][col] = x + w if one[0] * two[0] == sign else x - w
    return out


# the lift on sparse rows of triples as first written: every pair applies
# c_b then c_a, and c_a then c_b, to every basis mask through _unit_clifford
# and sums integer weights into per-row dicts in column order; the package
# visits only the masks a pair moves, a quarter of them, by one sign each
def ref_sparse_lifted_action_matrix(j):
    n = j.dim
    pairs = []
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            jp = j.matrix[a][(b + n) % (2 * n)]
            if jp.a:
                pairs.append((a, b, jp.a, jp.d))
    den = lcm(*(jd for _, _, _, jd in pairs))
    weights = [(a, b, -ja * (den // jd)) for a, b, ja, jd in pairs]
    den *= 2
    masks = basis_masks(n)
    row_of = {m: i for i, m in enumerate(masks)}
    sums = [{} for _ in masks]
    for col, mask in enumerate(masks):
        for a, b, w in weights:
            for first, second, sign in ((b, a, 1), (a, b, -1)):
                one = _unit_clifford(first, n, mask)
                two = one and _unit_clifford(second, n, one[1])
                if two:
                    row = sums[row_of[two[1]]]
                    row[col] = row.get(col, 0) + (w if one[0] * two[0] == sign else -w)
    out = []
    for row in sums:
        out.append({})
        for col, x in row.items():
            if x:
                g = gcd(x, den)
                out[-1][col] = (x // g, 0, den // g)
    return out


def random_complex(rng, n, sign=1):
    """complex_structure(n/2, sign) moved by diag(A, A^-T) for a random
    invertible integer A, which keeps the pairing."""
    while True:
        a = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(a) == n:
            break
    inv = linalg.invert(a)
    g, g_inv = linalg.zeros(2 * n, 2 * n), linalg.zeros(2 * n, 2 * n)
    for r in range(n):
        for c in range(n):
            g[r][c], g[n + r][n + c] = a[r][c], inv[c][r]
            g_inv[r][c], g_inv[n + r][n + c] = inv[r][c], a[c][r]
    j = gcmaps.complex_structure(n // 2, sign).matrix
    return gcmaps.GCMap(n, linalg.mat_mul(g, linalg.mat_mul(j, g_inv)))


class RefSplit:
    """The halves as the split first returned them: dense tuples of Q rows."""

    def __init__(self, model, masks, lower, upper):
        self.model, self.masks, self.lower, self.upper = model, masks, lower, upper


def ref_split_operators(m, j):
    require_valid(j)
    if j.dim != m.n:
        raise ValueError("structure frame does not match the model")
    masks = tuple(basis_masks(m.n))
    try:
        dmat = ref_operator_matrix(lambda k: d_twisted(m, Form(m.n, {k: ONE})).terms, masks, masks)
    except ValueError:  # parameter or pi coefficients: the per-form split names them
        g = uk_grading(j)
        for mask in masks:
            del_delbar_split(m, j, Form(m.n, {mask: ONE}), grading=g)
        raise AssertionError("d_H has level steps other than -1, +1 but splits form by form")
    lift = ref_lifted_action_matrix(j)

    def comm(a):
        return mat_sub(dense_mul(lift, a), dense_mul(a, lift))

    d_comm = comm(dmat)
    stray8 = mat_add(comm(d_comm), dmat)  # -8 S
    if all(x.is_zero() for row in stray8 for x in row):
        half_d = mat_scale(dmat, Q(1) / Q(2))
        i_half_comm = mat_scale(d_comm, Q(0, 1) / Q(2))
        lower = tuple(map(tuple, mat_sub(half_d, i_half_comm)))
        upper = tuple(map(tuple, mat_add(half_d, i_half_comm)))
        return RefSplit(m, masks, lower, upper)
    if comm(comm(stray8)) != mat_scale(stray8, -Q(9)):
        raise AssertionError("d_H moves levels by steps other than 1 and 3")
    col = next(c for c in range(len(masks)) if any(not row[c].is_zero() for row in stray8))
    scale = -Q(1) / Q(8)
    raise _stray_component(m, vec_to_form([scale * row[col] for row in stray8], masks, m.n))


def ref_ddbar_lemma_check(m, j, ops=None):
    sp = ops if ops is not None else ref_split_operators(m, j)
    prod = linalg.mat_mul(sp.upper, sp.lower)
    im_prod = row_space(transpose(prod))
    ker_prod = ref_kernel_basis(prod)
    a = row_space(linalg.mat_mul(ker_prod, transpose(sp.upper)))
    b = row_space(linalg.mat_mul(ker_prod, transpose(sp.lower)))
    for name, space in (("ker(del) & im(delbar)", a), ("im(del) & ker(delbar)", b)):
        for row in space:
            if not in_span(row, im_prod):
                witness = vec_to_form(row, sp.masks, m.n)
                return DdbarReport(
                    ok=False,
                    witness=witness,
                    detail="%s is larger than im(delbar del); witness %s"
                    % (name, witness.to_text(m.names)),
                )
    if len(a) != len(im_prod) or len(b) != len(im_prod):
        return DdbarReport(ok=False, detail="rank bookkeeping mismatch")
    return DdbarReport(ok=True)


# d_H's matrix, the i-eigenspace and the isotropy checks as computed on Q:
# d_H's columns from d_twisted on unit forms, the eigenspace as the dense
# kernel of J - i, and independence, isotropy and transversality from dense
# ranks and Q sums of the pairing; the package runs all of them on triples
# and builds d_H's columns by mask arithmetic
def ref_d_matrix(m, masks):
    cols = ref_operator_columns(
        lambda k: d_twisted(m, Form(m.n, {k: ONE})).terms, masks, masks
    )
    return linalg.sparse_transpose(cols, len(masks))


# d_H's image of one unit form at a time, and forward elimination with a
# fresh candidate set per column, as the package first ran them: it now
# builds all 2^n images term by term, each term visiting only the masks it
# moves, and keeps only the rows not yet pivots in its column index.  `seen`,
# when given, counts the columns with a lone candidate, the pivots already
# 1 and the entries that cancel, so a test can show it met each case.
def ref_d_column(mask, table, h):
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


def ref_eliminate(sparse, ncols, blocks, seen=None):
    seen = seen if seen is not None else {}
    holders = [set() for _ in range(ncols)]  # column -> rows with an entry there
    for i, row in enumerate(sparse):
        for c in row:
            holders[c].add(i)
    free = set(range(len(sparse)))  # rows not yet a pivot row
    order, pivots = [], []
    for c in range(ncols):
        cands = holders[c] & free
        if not cands:
            continue
        seen["lone"] = seen.get("lone", 0) + (len(cands) == 1)
        p = min(cands, key=lambda i: (blocks[i], len(sparse[i]), i))
        free.discard(p)
        cands.discard(p)
        prow = sparse[p]
        seen["one"] = seen.get("one", 0) + (prow[c] == (1, 0, 1))
        inv = linalg._inverse(prow[c])
        for col, y in prow.items():
            prow[col] = linalg._add_mul(None, inv, y)
        for i in cands:
            row = sparse[i]
            fa, fb, fd = row[c]
            f = (-fa, -fb, fd)
            for col, y in prow.items():
                x = row.get(col)
                v = linalg._add_mul(x, f, y)
                if v[0] or v[1]:
                    row[col] = v
                    holders[col].add(i)
                elif x is not None:
                    del row[col]
                    holders[col].discard(i)
                    seen["cancelled"] = seen.get("cancelled", 0) + (col != c)
        order.append(p)
        pivots.append(c)
    return order, pivots


# the one refusal for coefficients that are not Gaussian rationals: the first
# one as the model states it, in the order d(e_1)..d(e_n), H, then per torus
# factor its field xi_j and h_G at x^j (alpha_j), then h_G's other terms, each
# in term order; the references above meet such a coefficient in a summed
# matrix entry or in the per-form split, and word the refusal their own way
def is_coefficient_refusal(message):
    return message.endswith(" is not a plain Gaussian rational") or (
        message == "decomposition needs parameter-free coefficients")


def stated_refusal(coefficients):
    """The refusal of the first coefficient that is not Gaussian, or None."""
    for c in coefficients:
        try:
            c.as_q()
        except ValueError as err:
            return str(err)
    return None


def model_coefficients(m):
    return [c for f in m.d_table + (m.H,) for c in f.terms.values()]


def cartan_coefficients(act, h_g, trunc):
    """The coefficients `equivariant_cohomology` converts, in their order: h_G
    stands in for H, and the cut at min(trunc, h_g.trunc) drops the rest."""
    bound = min(trunc, h_g.trunc)
    zero = tuple([0] * act.k)
    units = [tuple(int(i == j) for i in range(act.k)) for j in range(act.k)] if bound else []
    out = [c for f in act.model.d_table for c in f.terms.values()]
    out += h_g.component(zero).terms.values()
    for v, e in zip(act.xi, units):
        out += list(v) + list(h_g.component(e).terms.values())
    return out + [c for e, f in h_g.terms.items()
                  if e != zero and e not in units and sum(e) <= bound for c in f.terms.values()]


def ref_isotropy_check(dim_v, basis):
    rows = [list(v) for v in basis]
    if rows and linalg.rank(rows) != len(rows):
        raise ValueError("basis vectors are linearly dependent")
    n = dim_v
    for x, a in enumerate(rows):
        for b in rows[x:]:
            if not linalg.sum_q(a[i] * b[n + i] + a[n + i] * b[i] for i in range(n)).is_zero():
                raise ValueError("subspace is not isotropic")


def ref_transverse(basis):
    rows = [list(v) for v in basis] + [[x.conjugate() for x in v] for v in basis]
    return bool(rows) and linalg.rank(rows) == len(rows)


def ref_i_eigenspace(j):
    """The basis of the i-eigenspace, after the checks `i_eigenspace` first
    ran; past `require_valid` the dimension and transversality checks never
    fire."""
    gcmaps.require_valid(j)
    n2 = 2 * j.dim
    m = [[Q(j.matrix[r][c].re) - (Q(0, 1) if r == c else Q(0)) for c in range(n2)]
         for r in range(n2)]
    basis = ref_kernel_basis(m)
    if len(basis) != j.dim:
        raise ValueError("i-eigenspace has dimension %d, expected %d" % (len(basis), j.dim))
    basis = tuple(tuple(v) for v in basis)
    ref_isotropy_check(j.dim, basis)
    if not ref_transverse(basis):
        raise ValueError("eigenspace meets its conjugate; structure is not valid")
    return basis


# the extension, the connection solve, the annihilator and the Lefschetz
# kernel as first run on dense rows: the split halves made dense, P as their
# dense product, closedness by dense mat-vecs, one dense solve per residual
# and per torus factor, and dense kernels of dense systems; the package keeps
# the halves, P, every solve and every kernel on rows of triples
def ref_canonical_extension(act, j, phi, trunc=None):
    model = act.model
    if trunc is None:
        trunc = model.n // 2 + 1
    ops = split_operators(model, j)
    check = ddbar_lemma_check(model, j, ops=ops)
    if not check.ok:
        raise cartan.ExtensionError(
            "interchange law fails on this model: %s" % check.detail,
            check.witness if check.witness is not None else Form.zero(model.n),
        )
    for jj in range(act.k):
        if not lie_derivative(model, act.xi[jj], phi).is_zero():
            raise ValueError("form is not invariant under the action")
    if phi.parameters():
        raise ValueError("decomposition needs parameter-free coefficients")
    lo, up = (linalg.to_dense(half, len(ops.masks)) for half in (ops.lower, ops.upper))
    prod = dense_mul(up, lo)
    cartan._moment_sections(act)

    def kills(half, f):
        return all(x.is_zero() for x in linalg.mat_vec(half, form_to_vec(f, ops.masks)))

    if not (kills(lo, phi) and kills(up, phi)):
        for comp in uk_grading(j).decompose(phi).values():
            if not kills(lo, comp):
                raise ValueError("component is not closed for the lower half")
            if not kills(up, comp):
                raise ValueError("component is not closed for the upper half")
    terms = {tuple([0] * act.k): phi}
    for degree in range(1, trunc + 1):
        top = {e: f for e, f in terms.items() if sum(e) == degree - 1}
        residuals = cartan.moment_operator(act, cartan.EqForm(act.k, model.n, trunc, top)).terms
        if not residuals:
            break
        for e, r in residuals.items():
            sol = ref_solve(prod, form_to_vec(r, ops.masks))
            if sol is None:
                raise cartan.ExtensionError(
                    "moment contribution is not cancellable; interchange "
                    "law violation witness %s" % r.to_text(model.names),
                    r,
                )
            corr = vec_to_form(linalg.mat_vec(up, sol), ops.masks, model.n)
            if not corr.is_zero():
                terms[e] = terms.get(e, Form.zero(model.n)) + corr
    out = cartan.EqForm(act.k, model.n, trunc, terms)
    residual = cartan.generalized_d(act, out)
    if not residual.is_zero():
        raise AssertionError(
            "extension failed to close the generalized differential: %s" % residual
        )
    return out


def ref_connection_solve(action):
    model = action.model
    rows = [[c.as_q() for c in v] for v in action.xi]
    thetas = []
    for j in range(action.k):
        rhs = [Q(1) if i == j else Q(0) for i in range(action.k)]
        sol = ref_solve(rows, rhs)
        if sol is None:
            raise ValueError("action is not free on the model frame")
        thetas.append(Form(model.n, {1 << i: Scalar.from_q(c) for i, c in enumerate(sol)}))
    return cartan.Connection(action, thetas)


def ref_annihilator_basis(phi):
    """The basis of `annihilator(phi).space`: the dense kernel of the dense
    system whose column k is the k-th unit vector of V + V* acting on phi."""
    size = 2 * phi.n
    system = ref_operator_matrix(
        lambda k: clifford([ONE if i == k else Scalar() for i in range(size)], phi).terms,
        range(size), basis_masks(phi.n),
    )
    return tuple(tuple(v) for v in ref_kernel_basis(system, ncols=size))


def ref_lefschetz_check(model, omega):
    if model.n % 2 != 0:
        raise ValueError("model dimension must be even")
    if not omega.is_homogeneous(2) or omega.is_zero():
        raise ValueError("need a nonzero homogeneous 2-form")
    n = model.n // 2
    power = Form.unit(model.n)
    for _ in range(n):
        power = wedge(power, omega)
    if power.top_coefficient().is_zero():
        return gcy.LefschetzReport(ok=False, detail="2-form is degenerate: top power vanishes")
    mid = Form.unit(model.n)
    for _ in range(n - 1):
        mid = wedge(mid, omega)
    masks_in = [1 << i for i in range(model.n)]
    masks_out = [m for m in basis_masks(model.n) if m.bit_count() == 2 * n - 1]
    mat = ref_operator_matrix(
        lambda mk: wedge(mid, Form(model.n, {mk: ONE})).terms, masks_in, masks_out
    )
    kernel = ref_kernel_basis(mat, ncols=len(masks_in))
    if kernel:
        witness = vec_to_form(kernel[0], masks_in, model.n)
        return gcy.LefschetzReport(
            ok=False, witness=witness, detail="kernel witness %s" % witness.to_text(model.names),
        )
    return gcy.LefschetzReport(ok=True)


# the tokenizer as first written: one anchored match per token from the end
# of the last, and a stray character located just past the previous token;
# the package scans the line once, with a catch-all group for the stray one
_REF_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),=]))")


def ref_tokenize(text, line):
    """(kind, text, line, col) per token, or the ParseError's message."""
    out = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            return str(ParseError("unexpected character %r" % rest[0], line, pos + 1))
        num, name, op = m.groups()
        col = m.start(1 if num else 2 if name else 3) + 1
        if num:
            out.append(("NUM", num, line, col))
        elif name:
            out.append(("NAME", name, line, col))
        else:
            out.append(("OP", op, line, col))
        pos = m.end()
    return out


# the action checks as first written: L_v of each d(e_i) and of H by Cartan's
# formula, two d's and two contractions each, the frame after each d(e_i),
# and the curvature's invariance after its horizontality; the package reads
# L_v d(e_i) = d(i_v d(e_i)) off the frame residual, and L_v H = d(i_v H)
class RefTorusAction(cartan.TorusAction):
    __slots__ = ()

    def __init__(self, model, xi, mu_diff=None, alpha=None):
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
        for j, v in enumerate(self.xi, start=1):
            for i, entry in enumerate(model.d_table, start=1):
                res = lie_derivative(model, v, entry)
                if not res.is_zero():
                    raise ValueError(
                        "field %d does not preserve d(%s): %s"
                        % (j, model.names[i - 1], res.to_text(model.names))
                    )
                frame_res = contract_vector(v, entry)
                if not frame_res.is_zero():
                    raise ValueError(
                        "field %d does not preserve the frame: L(%s) = %s"
                        % (j, model.names[i - 1], frame_res.to_text(model.names))
                    )
            res = lie_derivative(model, v, model.H)
            if not res.is_zero():
                raise ValueError("field %d does not preserve the twisting form" % j)
        if mu is not None:
            for j, f in enumerate(mu, start=1):
                df = d(model, f)
                if not df.is_zero():
                    raise ValueError("moment differential %d is not closed" % j)


class RefConnection(cartan.Connection):
    __slots__ = ()

    def __init__(self, action, theta):
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
        curv = [d(model, t) for t in th]
        for j, c in enumerate(curv, start=1):
            for i in range(action.k):
                if not contract_vector(action.xi[i], c).is_zero():
                    raise ValueError("curvature element %d is not horizontal" % j)
                if not lie_derivative(model, action.xi[i], c).is_zero():
                    raise ValueError("curvature element %d is not invariant" % j)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "theta", tuple(th))
        object.__setattr__(self, "curvature", tuple(curv))


def outcome(cls, *args):
    """The built object's slots, or the exact ValueError text."""
    try:
        obj = cls(*args)
    except ValueError as exc:
        return str(exc)
    return tuple(getattr(obj, name) for name in cls.__slots__ or cls.__base__.__slots__)


# Scalar and Form arithmetic, the size guard and d as first written: every
# result goes back through the public constructor, which drops zero
# coefficients (and checks masks); sums fold Q(0) in; d sums wedges of
# contractions.  The package builds clean results through `_scalar_of` and
# `_form_of`, guards sizes in one pass and builds d by mask arithmetic.
def ref_scalar_add(x, y):
    terms = dict(x.terms)
    for k, c in y.terms.items():
        terms[k] = terms.get(k, QZERO) + c
    return Scalar(terms)


def ref_scalar_neg(x):
    return Scalar({k: -c for k, c in x.terms.items()})


def ref_scalar_sub(x, y):
    return ref_scalar_add(x, ref_scalar_neg(y))


def ref_scalar_mul(x, y):
    terms = {}
    for (p1, m1), c1 in x.terms.items():
        for (p2, m2), c2 in y.terms.items():
            k = (p1 + p2, _mono_mul(m1, m2))
            terms[k] = terms.get(k, QZERO) + c1 * c2
    return Scalar(terms)


def ref_form_add(a, b):
    terms = dict(a.terms)
    for m, c in b.terms.items():
        x = terms.get(m)
        terms[m] = c if x is None else ref_scalar_add(x, c)
    return Form(a.n, terms)


def ref_form_neg(a):
    return Form(a.n, {m: ref_scalar_neg(c) for m, c in a.terms.items()})


def ref_form_sub(a, b):
    return ref_form_add(a, ref_form_neg(b))


def ref_scale(a, coeff):
    c = scalar(coeff)
    return Form(a.n, {m: ref_scalar_mul(c, x) for m, x in a.terms.items()})


def ref_wedge(a, b):
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            c = ref_scalar_mul(ca, cb)
            if _merge_sign(ma, mb) < 0:
                c = ref_scalar_neg(c)
            x = terms.get(m)
            terms[m] = c if x is None else ref_scalar_add(x, c)
    return Form(a.n, terms)


def ref_clifford_sum(v, a, first=0):
    terms = {}
    for k, x in enumerate(map(scalar, v), start=first):
        if x.is_zero():
            continue
        for m, c in a.terms.items():
            hit = _unit_clifford(k, a.n, m)
            if hit:
                y = ref_scalar_mul(x, c)
                if hit[0] < 0:
                    y = ref_scalar_neg(y)
                old = terms.get(hit[1])
                terms[hit[1]] = y if old is None else ref_scalar_add(old, y)
    return Form(a.n, terms)


def ref_d(m, a):
    """Sum over generators g of wedge(d(e_g), contract(g, a)), one Form per step."""
    if a.n != m.n:
        raise ValueError("form lives on %d generators, model has %d" % (a.n, m.n))
    out = Form.zero(m.n)
    for g, dg in enumerate(m.d_table, start=1):
        if not dg.is_zero():
            out = ref_form_add(out, ref_wedge(dg, ref_clifford_sum([ONE], a, g - 1)))
    return out


def _ref_coefficients(v):
    if isinstance(v, Scalar):
        return [v]
    if isinstance(v, Form):
        return list(v.terms.values())
    return [c for f in v.terms.values() for c in f.terms.values()]


def ref_check_size(tok, factors, spent, power=1):
    coeffs = [_ref_coefficients(f) for f in factors]
    degree = power * sum(max([0] + [c.degree() for c in cs]) for cs in coeffs)
    if degree > modelfile.MAX_DEGREE:
        raise ParseError(
            "polynomial degree %d beyond %d" % (degree, modelfile.MAX_DEGREE), tok.line, tok.col
        )
    count = math.prod(sum(len(c.terms) for c in cs) ** power for cs in coeffs)
    if count > modelfile.MAX_MONOMIALS:
        params = len(set().union(*(c.parameters() for cs in coeffs for c in cs)))
        count = min(count, math.comb(degree + params, params))
    if count > modelfile.MAX_MONOMIALS:
        raise ParseError(
            "up to %d monomials in a coefficient, beyond %d" % (count, modelfile.MAX_MONOMIALS),
            tok.line, tok.col,
        )
    spent[0] += count * power
    if spent[0] > modelfile.MAX_FILE_PRODUCTS:
        raise ParseError("term products in this file add up to %d, beyond %d"
                         % (spent[0], modelfile.MAX_FILE_PRODUCTS), tok.line, tok.col)
