"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch against the plain
definitions (dense matrices, naive sign counting, Fraction pairs) and never
imports the package, so it can back golden values independently.
"""

from fractions import Fraction
from itertools import combinations


# Gaussian rationals as (re, im) Fraction pairs.

def gq(re=0, im=0):
    return (Fraction(re), Fraction(im))


GQ_ZERO = gq()
GQ_ONE = gq(1)


def gq_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gq_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gq_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gq_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def gq_is_zero(a):
    return a[0] == 0 and a[1] == 0


def rank_oracle(rows):
    """Row reduction over Gaussian rationals, counting pivots."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if not gq_is_zero(m[r][c]):
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = gq_div(GQ_ONE, m[rank][c])
        m[rank] = [gq_mul(inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and not gq_is_zero(m[r][c]):
                f = m[r][c]
                m[r] = [gq_sub(x, gq_mul(f, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def mat_mul_oracle(a, b):
    """Dense product of matrices of gq entries."""
    out = []
    for row in a:
        acc = [GQ_ZERO] * (len(b[0]) if b else 0)
        for k, x in enumerate(row):
            if not gq_is_zero(x):
                acc = [gq_add(s, gq_mul(x, y)) for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


def bott_chern_aeppli(lower, upper):
    """(h_BC, h_A, h_D) of two anticommuting square-zero operators del = lower
    and delbar = upper on N coordinates, given as dense gq matrices (row i is
    output coordinate i), with D = del + delbar:

        h_BC = dim(ker del & ker delbar) - rank(del delbar)
        h_A  = dim ker(del delbar) - dim(im del + im delbar)
        h_D  = dim ker D - rank D

    ker del & ker delbar is the kernel of the two stacked one above the other,
    im del + im delbar the image of the two side by side."""
    n = len(lower)
    r_prod = rank_oracle(mat_mul_oracle(lower, upper))
    r_stacked = rank_oracle(lower + upper)
    r_side = rank_oracle([lo + up for lo, up in zip(lower, upper)])
    r_sum = rank_oracle([[gq_add(x, y) for x, y in zip(lo, up)] for lo, up in zip(lower, upper)])
    return n - r_stacked - r_prod, n - r_prod - r_side, n - 2 * r_sum


def det_oracle(rows):
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return GQ_ONE
    out = GQ_ZERO
    for j, x in enumerate(rows[0]):
        if gq_is_zero(x):
            continue
        minor = det_oracle([row[:j] + row[j + 1:] for row in rows[1:]])
        term = gq_mul(x, minor)
        out = gq_sub(out, term) if j % 2 else gq_add(out, term)
    return out


# Dense exterior algebra on sorted index tuples.

def sign_of_merge(a, b):
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    merged = list(a) + list(b)
    sign = 1
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                sign = -sign
    return sign


def subsets(n):
    out = []
    for q in range(n + 1):
        out.extend(combinations(range(1, n + 1), q))
    return out


def wedge_oracle(n, f, g):
    """f, g: dict subset-tuple -> gq; naive sign counting."""
    out = {}
    for sa, ca in f.items():
        for sb, cb in g.items():
            if set(sa) & set(sb):
                continue
            key = tuple(sorted(sa + sb))
            c = gq_mul(ca, cb)
            if sign_of_merge(sa, sb) < 0:
                c = gq_mul(gq(-1), c)
            out[key] = gq_add(out.get(key, GQ_ZERO), c)
    return {k: v for k, v in out.items() if not gq_is_zero(v)}


def twisted_betti_oracle(n, d_map, h):
    """Z2-graded Betti pair of (forms, d - h^), everything dense.

    d_map: dict generator-index -> dict(subset -> gq) giving d(e_i);
    h: dict(subset -> gq), a closed 3-form.
    """
    basis = subsets(n)
    index = {s: i for i, s in enumerate(basis)}

    def d_of_subset(s):
        out = {}
        for pos, gen in enumerate(s):
            dg = d_map.get(gen, {})
            left = tuple(x for x in s if x < gen)
            right = tuple(x for x in s if x > gen)
            sign = gq(1 if pos % 2 == 0 else -1)
            piece = wedge_oracle(n, {left: GQ_ONE}, dg)
            piece = wedge_oracle(n, piece, {right: GQ_ONE})
            for k, v in piece.items():
                out[k] = gq_add(out.get(k, GQ_ZERO), gq_mul(sign, v))
        return {k: v for k, v in out.items() if not gq_is_zero(v)}

    def d_h(form):
        out = {}
        for s, c in form.items():
            for k, v in d_of_subset(s).items():
                out[k] = gq_add(out.get(k, GQ_ZERO), gq_mul(c, v))
        minus = wedge_oracle(n, h, form)
        for k, v in minus.items():
            out[k] = gq_sub(out.get(k, GQ_ZERO), v)
        return {k: v for k, v in out.items() if not gq_is_zero(v)}

    even = [s for s in basis if len(s) % 2 == 0]
    odd = [s for s in basis if len(s) % 2 == 1]

    def matrix(src, dst):
        rows = []
        for s in src:
            img = d_h({s: GQ_ONE})
            rows.append([img.get(t, GQ_ZERO) for t in dst])
        return rows

    rank_eo = rank_oracle(matrix(even, odd))
    rank_oe = rank_oracle(matrix(odd, even))
    return (len(even) - rank_eo - rank_oe, len(odd) - rank_oe - rank_eo)
