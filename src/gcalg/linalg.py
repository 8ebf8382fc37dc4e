"""Exact linear algebra over Gaussian rationals.

Matrices come in two formats: dense lists of Q rows, and sparse rows of
reduced Gaussian-integer triples (a, b, d), the value (a + b*i)/d with d > 0
and gcd(a, b, d) = 1, stored as {col: triple} with no stored zeros, so zero
is `not a and not b`.  A `Q` stores the same triple in its fields a, b, d:
`to_sparse` reads them and `to_dense` builds each `Q` from its triple.
The sparse products, sums, eliminations, kernels and solves (`sparse_mul`,
`sparse_comb`, `rank_profiles`, `pivots`, `echelon`, `null_space`,
`in_echelon_span`, `solve`) run on triples, with int arithmetic only, so a
chain of them converts nothing between its steps; `rref` and `mat_mul` are
their dense views, and `operator_matrix` is a dense matrix of Scalar images.
One forward elimination serves every question, its pivot the candidate of
the earliest row block, then with the fewest nonzeros, then of the lowest
index: `rank_profiles` reads its pivot rows (ranks of leading blocks) and
pivot columns (ranks of leading columns, and the RREF's pivots), `pivots`
the columns of a single block, and `echelon` adds back substitution for the
canonical RREF rows that kernels, solves and witnesses come from.  The RREF
is unique, so results are exact.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .scalars import Q, QONE, QZERO, _q

Vec = List[Q]
Mat = List[List[Q]]
Triple = Tuple[int, int, int]  # (a + b*i)/d, d > 0, gcd(a, b, d) = 1
TRows = List[Dict[int, Triple]]  # sparse rows {col: Triple}, no stored zeros


def zeros(rows: int, cols: int) -> Mat:
    return [[QZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[QONE if i == j else QZERO for j in range(n)] for i in range(n)]


def to_sparse(mat: Mat) -> TRows:
    """Dense Q rows as rows of triples."""
    return [{c: (x.a, x.b, x.d) for c, x in enumerate(row) if not x.is_zero()} for row in mat]


def to_dense(rows: TRows, ncols: int) -> Mat:
    """Rows of triples as dense Q rows with ncols columns."""
    out = zeros(len(rows), ncols)
    for dense, row in zip(out, rows):
        for c, t in row.items():
            dense[c] = _q(*t)
    return out


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


def _add_row(acc: Dict[int, Triple], f: Triple, row: Dict[int, Triple]) -> None:
    """acc += f * row in place; an entry that cancels is removed."""
    for j, y in row.items():
        x = acc.get(j)
        v = _add_mul(x, f, y)
        if v[0] or v[1]:
            acc[j] = v
        elif x is not None:
            del acc[j]


def sparse_mul(a: TRows, b: TRows) -> TRows:
    """Product of rows of triples: row i of a times b, over stored entries only."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            _add_row(acc, x, b[k])
        out.append(acc)
    return out


def sparse_comb(*terms: Tuple[Triple, TRows]) -> TRows:
    """Sum of c * m over (c, m) pairs of a triple and rows of triples of one shape."""
    out = [{} for _ in terms[0][1]]
    for c, m in terms:
        for acc, row in zip(out, m):
            _add_row(acc, c, row)
    return out


def sparse_transpose(rows: TRows, ncols: int) -> TRows:
    """Transpose of sparse rows with ncols columns."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


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


def _eliminate(sparse: TRows, ncols: int, blocks: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Forward elimination in place on rows {col: Triple}, with a column -> rows
    index so an update touches stored entries only: each pivot row is scaled
    to 1 at its pivot and that column is cleared from the rows not yet pivots.
    Returns the pivot rows and the pivot columns, the RREF's (a column is a
    pivot exactly when it is outside the span of the columns before it).  The
    pivot is the candidate of the earliest block (row i's is blocks[i]), then
    fewest nonzeros, then lowest index; that rule moves only the fill-in."""
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
        p = min(cands, key=lambda i: (blocks[i], len(sparse[i]), i))
        free.discard(p)
        cands.discard(p)
        prow = sparse[p]
        inv = _inverse(prow[c])
        for col, y in prow.items():
            prow[col] = _add_mul(None, inv, y)
        for i in cands:
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
        order.append(p)
        pivots.append(c)
    return order, pivots


def rank_profiles(rows: TRows, ncols: int, blocks: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Pivot rows and columns of one forward elimination of rows of triples,
    row i in block blocks[i] (nondecreasing); the rows given are not changed.
    As a row only gains multiples of rows of its block or earlier ones, the
    pivot rows before a block boundary count the rank of the rows before it."""
    return _eliminate([dict(row) for row in rows], ncols, blocks)


def pivots(rows: TRows, ncols: int) -> List[int]:
    """The pivot columns of the RREF of rows of triples, from forward
    elimination alone in a single block; the rows given are not changed."""
    return _eliminate([dict(row) for row in rows], ncols, [0] * len(rows))[1]


def echelon(rows: TRows, ncols: int) -> Tuple[TRows, List[int]]:
    """The nonzero rows of the RREF of rows of triples, in pivot order, and
    their pivot columns; the rows given are not changed.  Back substitution,
    last pivot first, clears each pivot column from the rows above it."""
    sparse = [dict(row) for row in rows]
    order, cols = _eliminate(sparse, ncols, [0] * len(sparse))
    basis = [sparse[p] for p in order]
    for k in range(len(basis) - 1, 0, -1):
        for row in basis[:k]:
            f = row.get(cols[k])
            if f is not None:
                _add_row(row, (-f[0], -f[1], f[2]), basis[k])
    return basis, cols


def null_space(rows: TRows, ncols: int) -> TRows:
    """Basis of {x : rows @ x = 0}, one vector per free column of the RREF in
    increasing order: 1 there, minus that column's entry of each pivot row at
    its pivot, zero elsewhere."""
    basis, pivots = echelon(rows, ncols)
    taken = set(pivots)
    kernel = {c: {c: (1, 0, 1)} for c in range(ncols) if c not in taken}
    for row, p in zip(basis, pivots):
        for c, (a, b, d) in row.items():
            if c != p:
                kernel[c][p] = (-a, -b, d)
    return list(kernel.values())


def in_echelon_span(v: Dict[int, Triple], rows: TRows, pivots: Sequence[int]) -> bool:
    """Whether the sparse vector v lies in the span of RREF rows with these pivots."""
    out = dict(v)
    for row, p in zip(rows, pivots):
        f = out.get(p)
        if f is not None:
            _add_row(out, (-f[0], -f[1], f[2]), row)
    return not out


def rref(rows: Mat):
    """Reduced row echelon form; returns (new rows, pivot column list)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    basis, pivots = echelon(to_sparse(rows), ncols)
    return to_dense(basis + [{}] * (len(rows) - len(basis)), ncols), pivots


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def solve(a: TRows, b: TRows, ncols: int, width: int) -> Optional[TRows]:
    """One exact solution x (ncols rows, width columns) of a @ x = b, from one
    RREF of [a | b], or None when a column of b is outside the image of a.
    The first such column of b is a pivot column of [a | b]; without one,
    row pc of x holds the b-part of the RREF row with pivot pc, and the free
    coordinates are zero."""
    aug = [{**ra, **{ncols + c: t for c, t in rb.items()}} for ra, rb in zip(a, b)]
    basis, pivots = echelon(aug, ncols + width)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [{} for _ in range(ncols)]
    for row, p in zip(basis, pivots):
        x[p] = {c - ncols: t for c, t in row.items() if c >= ncols}
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


def operator_matrix(op: Callable, src: Sequence, dst: Sequence) -> Mat:
    """Column j is op(src[j]), a sparse image {dst key: Scalar}, in dst order;
    each key is looked up, KeyError outside dst, before its value is converted."""
    row_of = {key: i for i, key in enumerate(dst)}
    out = zeros(len(dst), len(src))
    for j, key in enumerate(src):
        for k, c in op(key).items():
            out[row_of[k]][j] = c.as_q()
    return out
