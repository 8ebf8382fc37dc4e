"""Exact linear algebra over Gaussian rationals.

Matrices are dense lists of Q rows, except that `sparse_mul`, `sparse_comb`,
`operator_columns` and `pivot_columns` take or give sparse rows {col: Q} with
no stored zeros.  Inside `_eliminate`, `sparse_mul` and `sparse_comb` each
entry is a reduced Gaussian-integer triple (a, b, d), the value (a + b*i)/d
with d > 0 and gcd(a, b, d) = 1, so zero is `not a and not b`: the loops run
on int arithmetic and only the stored results go back to Q.  `sparse_mul` is
the one matrix product (`mat_mul` is its dense wrapper).  Every rank
question reads its answer off one RREF, which is unique, so results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .scalars import Q, QONE, QZERO

Vec = List[Q]
Mat = List[List[Q]]
Rows = List[Dict[int, Q]]  # sparse rows {col: Q}, no stored zeros
Triple = Tuple[int, int, int]  # (a + b*i)/d, d > 0, gcd(a, b, d) = 1


def zeros(rows: int, cols: int) -> Mat:
    return [[QZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[QONE if i == j else QZERO for j in range(n)] for i in range(n)]


def to_sparse(mat: Mat) -> Rows:
    # the identity test skips the shared QZERO of `zeros` without a Fraction call
    return [{c: x for c, x in enumerate(row) if x is not QZERO and not x.is_zero()}
            for row in mat]


def to_dense(rows: Rows, ncols: int) -> Mat:
    out = zeros(len(rows), ncols)
    for dense, row in zip(out, rows):
        for c, x in row.items():
            dense[c] = x
    return out


def _triple(x: Q) -> Triple:
    re, im = x.re, x.im
    dr, di = re.denominator, im.denominator
    d = dr if dr == di else dr * di // gcd(dr, di)
    return re.numerator * (d // dr), im.numerator * (d // di), d


def _q(t: Triple) -> Q:
    a, b, d = t
    return Q(a, b) if d == 1 else Q(Fraction(a, d), Fraction(b, d))


def _triples(rows) -> List[Dict[int, Triple]]:
    return [{c: _triple(x) for c, x in row.items()} for row in rows]


def _add_mul(x: Optional[Triple], f: Triple, y: Triple) -> Triple:
    """x + f*y, reduced; x is None for zero, and zero comes back (0, 0, 1)."""
    fa, fb, fd = f
    ya, yb, yd = y
    if fb or yb:
        a, b = fa * ya - fb * yb, fa * yb + fb * ya
    else:  # both real
        a, b = fa * ya, 0
    d = fd * yd
    if x is not None:
        xa, xb, xd = x
        if xd == d:
            a, b = a + xa, b + xb
        else:
            a, b, d = a * xd + xa * d, b * xd + xb * d, d * xd
    g = gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def _inverse(t: Triple) -> Triple:
    """1/t = d (a - b*i) / (a^2 + b^2), reduced."""
    a, b, d = t
    a, b, n = d * a, -d * b, a * a + b * b
    g = gcd(a, b, n)
    return a // g, b // g, n // g


def _to_rows(acc: List[Dict[int, Triple]]) -> Rows:
    return [{j: _q(t) for j, t in row.items() if t[0] or t[1]} for row in acc]


def sparse_mul(a: Rows, b: Rows) -> Rows:
    """Product of sparse rows: row i of a times b, over stored entries only."""
    a, b = _triples(a), _triples(b)
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = _add_mul(acc.get(j), x, y)
        out.append(acc)
    return _to_rows(out)


def sparse_comb(*terms) -> Rows:
    """Sum of c * m over (c, m) pairs of sparse matrices of one shape."""
    out = [{} for _ in terms[0][1]]
    for c, m in terms:
        c = _triple(c)
        for acc, row in zip(out, _triples(m)):
            for j, x in row.items():
                acc[j] = _add_mul(acc.get(j), c, x)
    return _to_rows(out)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    return to_dense(sparse_mul(to_sparse(a), to_sparse(b)), len(b[0]) if b else 0)


def mat_vec(a: Mat, v: Vec) -> Vec:
    """a @ v over the nonzero entries of v."""
    nonzero = [(j, y) for j, y in enumerate(v) if not y.is_zero()]
    return [sum_q(row[j] * y for j, y in nonzero) for row in a]


def sum_q(items) -> Q:
    out = QZERO
    for x in items:
        out = out + x
    return out


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def _eliminate(sparse: List[Dict[int, Triple]], ncols: int) -> Tuple[List[int], List[int]]:
    """Gauss-Jordan in place on rows {col: Triple}, with a column -> rows index
    so an update touches stored entries only; returns the pivot columns and
    their rows.  The pivot is the candidate row with the fewest nonzeros (ties:
    lowest index); the RREF is unique, so that rule moves only the fill-in.
    """
    holders = [set() for _ in range(ncols)]  # column -> rows with an entry there
    for i, row in enumerate(sparse):
        for c in row:
            holders[c].add(i)
    free = set(range(len(sparse)))  # rows not yet a pivot row
    pivots, order = [], []
    for c in range(ncols):
        cands = [i for i in holders[c] if i in free]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(sparse[i]), i))
        free.discard(p)
        prow = sparse[p]
        inv = _inverse(prow[c])
        for col, y in prow.items():
            prow[col] = _add_mul(None, inv, y)
        for i in holders[c] - {p}:
            row = sparse[i]
            fa, fb, fd = row[c]
            f = (-fa, -fb, fd)
            for col, y in prow.items():
                x = row.get(col)
                v = _add_mul(x, f, y)
                if v[0] or v[1]:
                    row[col] = v
                    holders[col].add(i)
                elif x is not None:
                    del row[col]
                    holders[col].discard(i)
        pivots.append(c)
        order.append(p)
    return pivots, order


def rref(rows: Mat):
    """Reduced row echelon form; returns (new rows, pivot column list)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    sparse = _triples(to_sparse(rows))
    pivots, order = _eliminate(sparse, ncols)
    pivot_rows = _to_rows(sparse[p] for p in order)
    return to_dense(pivot_rows + [{}] * (len(rows) - len(order)), ncols), pivots


def pivot_columns(rows: Rows, ncols: int) -> List[int]:
    """Pivot columns of the RREF of sparse rows, with no conversion back."""
    return _eliminate(_triples(rows), ncols)[0]


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def row_space(rows: Mat) -> Mat:
    """Canonical basis (RREF nonzero rows) of the span of the given rows."""
    m, pivots = rref(rows)
    return m[: len(pivots)]


def in_span(v: Vec, basis_rref: Mat) -> bool:
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


def kernel_basis(mat: Mat, ncols: Optional[int] = None) -> List[Vec]:
    """Basis of the right kernel {x : mat @ x = 0}, deterministic order."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    m, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [QZERO] * ncols
        v[fc] = QONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(mat: Mat, rhs: Vec) -> Optional[Vec]:
    """One exact solution of mat @ x = rhs, or None when inconsistent."""
    ncols = len(mat[0]) if mat else 0
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    m, pivots = rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [QZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][-1]
    return x


def invert(mat: Mat) -> Mat:
    n = len(mat)
    aug = [list(row) + list(erow) for row, erow in zip(mat, identity(n))]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def leading_minors(mat: Mat) -> Iterator[Q]:
    """Leading principal minors D_1, D_2, ... up to the first zero one: one
    elimination without row swaps, D_k = product of the first k pivots."""
    m = [list(r) for r in mat]
    minor = QONE
    for c in range(len(m)):
        pivot = m[c][c]
        minor = minor * pivot
        yield minor
        if pivot.is_zero():
            return
        inv = QONE / pivot
        for i in range(c + 1, len(m)):
            if not m[i][c].is_zero():
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]


def operator_columns(op: Callable, src: Sequence, dst: Sequence) -> Rows:
    """Entry j is op(src[j]) as {dst index: Q}; op(key) returns the sparse
    image {dst key: Scalar}.  Each image key is looked up, raising KeyError
    outside dst, before its coefficient is converted."""
    row_of = {key: i for i, key in enumerate(dst)}
    out = []
    for key in src:
        col = {}
        for k, c in op(key).items():
            i = row_of[k]
            if not c.is_zero():
                col[i] = c.as_q()
        out.append(col)
    return out


def operator_matrix(op: Callable, src: Sequence, dst: Sequence) -> Mat:
    """Dense view of `operator_columns`: column j holds op(src[j]) in dst order."""
    out = zeros(len(dst), len(src))
    for j, col in enumerate(operator_columns(op, src, dst)):
        for i, x in col.items():
            out[i][j] = x
    return out
