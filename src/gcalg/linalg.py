"""Exact linear algebra over Gaussian rationals.

Matrices are dense lists of Q rows at the interfaces.  Inside, the kernels
work on sparse rows {col: Q} with no stored zeros: `rref` eliminates on
sparse copies with exact division in the Gaussian-rational field, and
`sparse_mul` is the one matrix product (`mat_mul` is its dense wrapper).
Every rank question reads its answer off one RREF, which is unique, so
results are exact.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .scalars import Q, QONE, QZERO

Vec = List[Q]
Mat = List[List[Q]]
Rows = List[Dict[int, Q]]  # sparse rows {col: Q}, no stored zeros


def zeros(rows: int, cols: int) -> Mat:
    return [[QZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[QONE if i == j else QZERO for j in range(n)] for i in range(n)]


def to_sparse(mat: Mat) -> Rows:
    return [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in mat]


def to_dense(rows: Rows, ncols: int) -> Mat:
    out = zeros(len(rows), ncols)
    for dense, row in zip(out, rows):
        for c, x in row.items():
            dense[c] = x
    return out


def sparse_mul(a: Rows, b: Rows) -> Rows:
    """Product of sparse rows: row i of a times b, over stored entries only."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append({j: v for j, v in acc.items() if not v.is_zero()})
    return out


def sparse_comb(*terms) -> Rows:
    """Sum of c * m over (c, m) pairs of sparse matrices of one shape."""
    out = [{} for _ in terms[0][1]]
    for c, m in terms:
        for acc, row in zip(out, m):
            for j, x in row.items():
                acc[j] = acc[j] + c * x if j in acc else c * x
    return [{j: v for j, v in acc.items() if not v.is_zero()} for acc in out]


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    return to_dense(sparse_mul(to_sparse(a), to_sparse(b)), len(b[0]) if b else 0)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum_q(x * y for x, y in zip(row, v)) for row in a]


def sum_q(items) -> Q:
    out = QZERO
    for x in items:
        out = out + x
    return out


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def rref(rows: Mat):
    """Reduced row echelon form; returns (new rows, pivot column list).

    Gauss-Jordan on sparse rows {col: Q} with a column -> rows index, so an
    update touches stored entries only.  The pivot is the candidate row with
    the fewest nonzeros (ties: lowest index); the RREF is unique, so that
    rule moves only the fill-in.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    sparse = to_sparse(rows)
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
        inv = QONE / prow[c]
        for col in prow:
            prow[col] = prow[col] * inv
        for i in holders[c] - {p}:
            row = sparse[i]
            f = row[c]
            for col, y in prow.items():
                x = row.get(col)
                v = -(f * y) if x is None else x - f * y
                if not v.is_zero():
                    row[col] = v
                    holders[col].add(i)
                elif x is not None:
                    del row[col]
                    holders[col].discard(i)
        pivots.append(c)
        order.append(p)
    pivot_rows = [sparse[p] for p in order]
    return to_dense(pivot_rows + [{}] * (len(rows) - len(order)), ncols), pivots


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
    for row in m[len(pivots):]:
        if not row[-1].is_zero():
            return None
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


def intersect_spans(rows_a: Mat, rows_b: Mat, ncols: int) -> Mat:
    """Zassenhaus: canonical basis of span(rows_a) & span(rows_b)."""
    block = []
    for r in rows_a:
        block.append(list(r) + list(r))
    for r in rows_b:
        block.append(list(r) + [QZERO] * ncols)
    m, _ = rref(block)
    out = []
    for row in m:
        left, right = row[:ncols], row[ncols:]
        if any(not x.is_zero() for x in left):
            continue
        if any(not x.is_zero() for x in right):
            out.append(right)
    return row_space(out) if out else []


def operator_matrix(op: Callable, src: Sequence, dst: Sequence) -> Mat:
    """Matrix of a linear operator: column j holds op(src[j]) in dst order.

    op(key) returns the sparse image {dst key: Scalar}; an image key outside
    dst raises KeyError.
    """
    row_of = {key: i for i, key in enumerate(dst)}
    out = zeros(len(dst), len(src))
    for j, key in enumerate(src):
        for k, c in op(key).items():
            out[row_of[k]][j] = c.as_q()
    return out
