"""Linear generalized complex structures on V + V*.

A structure is a rational matrix J on V + V* (coordinates: V-frame first,
then the dual frame) with J^2 = -1 that preserves the split-signature
pairing.  Everything downstream -- eigenspaces, pure spinors, the spectral
decomposition of the induced action on forms -- is exact linear algebra over
Gaussian rationals.

The pairing P is the half swap (2P swaps the halves of V + V*), so a product
with P is a row swap.  Every Clifford product is the generator
`forms._unit_clifford` on forms held as {mask: triple} (`forms._triples`):
summed by `_clifford` for the spinor and the levels, one move per entry of
the annihilator's system.  The lift writes its entries from the pairs of
generators directly: a pair moves a quarter of the masks, each by one sign.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from . import linalg
from ._record import Record, _set
from .forms import (
    Form,
    _merge_sign,
    _triple_form,
    _triples,
    _unit_clifford,
    basis_masks,
    contract,
    form_to_vec,
    mask_key,
)
from .scalars import Q, QONE, Scalar


class GCMap:
    """Candidate generalized complex structure: 2dim x 2dim rational matrix."""

    __slots__ = ("dim", "matrix")

    def __init__(self, dim: int, matrix: Sequence[Sequence[Q]]):
        if dim <= 0 or dim % 2 != 0:
            raise ValueError("V must have positive even dimension, got %d" % dim)
        m = [list(row) for row in matrix]
        if len(m) != 2 * dim or any(len(r) != 2 * dim for r in m):
            raise ValueError("matrix must be %d x %d" % (2 * dim, 2 * dim))
        for row in m:
            for x in row:
                if not isinstance(x, Q):
                    raise TypeError("matrix entries must be Q")
                if not x.is_real():
                    raise ValueError("matrix entries must be real rationals")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("GCMap is immutable")

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    def __eq__(self, other):
        if not isinstance(other, GCMap):
            return NotImplemented
        return self.dim == other.dim and self.matrix == other.matrix


class ValidationReport(Record):
    def __init__(self, ok: bool, failures: Tuple[str, ...] = ()):
        _set(self, "__dict__", {"ok": ok, "failures": failures})


class IsotropicSubspace(Record):
    """Basis of an isotropic subspace of complexified V + V*."""

    def __init__(self, dim_v: int, basis: Tuple[Tuple[Q, ...], ...]):
        _set(self, "__dict__", {"dim_v": dim_v, "basis": basis})
        rows = self._rows
        n = self.dim_v
        if rows and len(linalg.pivots(rows, 2 * n)) != len(rows):
            raise ValueError("basis vectors are linearly dependent")
        for x, a in enumerate(rows):
            for b in rows[x:]:
                acc = None  # the pairing of a and b, doubled: a's entries times b's, halves swapped
                for c, t in a.items():
                    y = b.get((c + n) % (2 * n))
                    if y is not None:
                        acc = linalg._add_mul(acc, t, y)
                if acc is not None and (acc[0] or acc[1]):
                    raise ValueError("subspace is not isotropic")

    @cached_property
    def _rows(self) -> linalg.TRows:
        """The basis as sparse rows of triples."""
        return linalg.to_sparse(self.basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def type(self) -> int:
        """Corank of the projection to the complexified V."""
        n = self.dim_v
        cut = [{c: t for c, t in row.items() if c < n} for row in self._rows]
        return n - len(linalg.pivots(cut, n))


def validate(j: GCMap) -> ValidationReport:
    """Check J^2 = -1 and orthogonality for the canonical pairing.

    2P swaps the halves of V + V*, so J^T P J = P reads J^T (2PJ) = 2P with
    2PJ the rows of J, halves swapped.
    """
    failures = []
    n2 = 2 * j.dim
    rows = linalg.to_sparse(j.matrix)
    if linalg.sparse_mul(rows, rows) != [{r: (-1, 0, 1)} for r in range(n2)]:
        failures.append("J^2 != -1")
    swap = [(r + j.dim) % n2 for r in range(n2)]
    jt = linalg.sparse_transpose(rows, n2)
    if linalg.sparse_mul(jt, [rows[s] for s in swap]) != [{s: (1, 0, 1)} for s in swap]:
        failures.append("J does not preserve the canonical pairing")
    return ValidationReport(ok=not failures, failures=tuple(failures))


def require_valid(j: GCMap) -> None:
    """Raise ValueError naming the failed checks of an invalid structure."""
    report = validate(j)
    if not report.ok:
        raise ValueError("invalid structure: %s" % "; ".join(report.failures))


def i_eigenspace(j: GCMap) -> IsotropicSubspace:
    """Kernel of J - i over the Gaussian rationals.  Past `require_valid` it
    has dimension dim V and meets its conjugate only in 0: J is real with
    J^2 = -1, so V + V* splits into the i- and (-i)-eigenspaces, each the
    conjugate of the other."""
    require_valid(j)
    return _eigenspace(j)


def _eigenspace(j: GCMap) -> IsotropicSubspace:
    """`i_eigenspace` of a structure that has passed `validate`."""
    n2 = 2 * j.dim
    rows = linalg.to_sparse(j.matrix)
    for r, row in enumerate(rows):  # J is real, so its diagonal entry a/d becomes (a - d*i)/d
        a, _, d = row.get(r, (0, 0, 1))
        row[r] = (a, -d, d)
    basis = linalg.to_dense(linalg.null_space(rows, n2), n2)
    return IsotropicSubspace(j.dim, tuple(tuple(v) for v in basis))


def _transverse(space: IsotropicSubspace) -> bool:
    """Whether a nonzero space meets its conjugate only in 0."""
    rows = space._rows + _conjugate(space._rows)
    return bool(rows) and len(linalg.pivots(rows, 2 * space.dim_v)) == len(rows)


def _conjugate(rows: linalg.TRows) -> linalg.TRows:
    return [{c: (a, -b, d) for c, (a, b, d) in row.items()} for row in rows]


def type_of(j: GCMap) -> int:
    """Corank of the projection of the i-eigenspace to the complexified V."""
    return i_eigenspace(j).type


def _clifford(v: Dict[int, linalg.Triple], f: Dict[int, linalg.Triple], n: int) -> dict:
    """Sum of v[a] * c_a f over the stored entries of v, for a sparse row of
    triples v on V + V* and a form f held as {mask: triple}; the moves are
    those of `clifford`, in its order, and cancelled entries are dropped."""
    out = {}
    for a, x in v.items():
        minus = (-x[0], -x[1], x[2])
        for m, c in f.items():
            hit = _unit_clifford(a, n, m)
            if hit:
                out[hit[1]] = linalg._add_mul(out.get(hit[1]), x if hit[0] > 0 else minus, c)
    return {m: t for m, t in out.items() if t[0] or t[1]}


def _normalized(f: Dict[int, linalg.Triple]) -> Dict[int, linalg.Triple]:
    """f scaled so its first coefficient in `mask_key` order is 1."""
    inv = linalg._inverse(f[min(f, key=mask_key)])
    return {m: linalg._add_mul(None, inv, t) for m, t in f.items()}


def _spinor(space: IsotropicSubspace) -> Dict[int, linalg.Triple]:
    n = space.dim_v
    if space.dimension != n:
        raise ValueError(
            "subspace has dimension %d, maximal isotropic needs %d"
            % (space.dimension, n)
        )
    for mask in basis_masks(n):
        f = {mask: (1, 0, 1)}
        for v in space._rows:
            f = _clifford(v, f, n)
        if f:
            return _normalized(f)
    raise AssertionError("the product of a maximal isotropic basis kills every form")


def pure_spinor(space: IsotropicSubspace) -> Form:
    """Generator of the annihilator line of a maximal isotropic subspace.

    The basis vectors anticommute and square to zero, so their Clifford
    product maps every form into the line; the first basis form (in
    `basis_masks` order) it does not kill gives the generator, normalized so
    the first coefficient in `mask_key` order is 1.
    """
    return _triple_form(space.dim_v, _spinor(space))


class AnnihilatorReport(Record):
    def __init__(self, space: IsotropicSubspace, maximal_isotropic: bool, nondegenerate: bool,
                 transverse: bool):
        _set(self, "__dict__", {"space": space, "maximal_isotropic": maximal_isotropic,
                                "nondegenerate": nondegenerate, "transverse": transverse})


def annihilator(phi: Form) -> AnnihilatorReport:
    """Clifford annihilator of a nonzero form, with the purity flags; phi's first
    coefficient that is not a Gaussian rational is refused before any matrix."""
    if phi.is_zero():
        raise ValueError("annihilator of the zero form")
    n, terms = phi.n, dict(_triples(phi.terms.items()))
    basis = linalg.to_dense(linalg.null_space(_annihilator_system(terms, n), 2 * n), 2 * n)
    space = IsotropicSubspace(n, tuple(tuple(v) for v in basis))
    full, pairing = (1 << n) - 1, (0, 0, 1)  # mukai(phi, conj(phi)), term by term
    for m, (a, b, d) in terms.items():
        x, y, e = terms.get(full ^ m, (0, 0, 1))
        s = (-1) ** (m.bit_count() * (m.bit_count() - 1) // 2) * _merge_sign(m, full ^ m)
        pairing = linalg._add_mul(pairing, (s * a, s * b, d), (x, -y, e))
    return AnnihilatorReport(space=space, maximal_isotropic=space.dimension == n,
                             nondegenerate=bool(pairing[0] or pairing[1]),
                             transverse=_transverse(space))


def _annihilator_system(phi: Dict[int, linalg.Triple], n: int) -> linalg.TRows:
    """Rows of triples whose column k is c_k phi, for phi as {mask: triple}: c_k
    maps unit forms one to one to signed unit forms or 0, so an entry is one move."""
    row_of = {m: i for i, m in enumerate(basis_masks(n))}
    rows = [{} for _ in row_of]
    for k in range(2 * n):
        for m, (a, b, d) in phi.items():
            hit = _unit_clifford(k, n, m)
            if hit:
                rows[row_of[hit[1]]][k] = (a, b, d) if hit[0] > 0 else (-a, -b, d)
    return rows


def b_transform(j: GCMap, b: Form) -> GCMap:
    """Shear the structure by a real 2-form: J -> e^B J e^-B."""
    if not (b.is_zero() or b.is_homogeneous(2)):
        raise ValueError("B-field must be homogeneous of degree 2")
    if b.n != j.dim:
        raise ValueError("B-field lives on %d generators, structure on %d" % (b.n, j.dim))
    bm = _b_matrix(b)
    n = j.dim
    eb = linalg.identity(2 * n)
    ebm = linalg.identity(2 * n)
    for r in range(n):
        for c in range(n):
            eb[n + r][c] = bm[r][c]
            ebm[n + r][c] = -bm[r][c]
    out = linalg.mat_mul(eb, linalg.mat_mul(j.matrix, ebm))
    result = GCMap(n, out)
    report = validate(result)
    if not report.ok:
        raise ValueError("B-transform produced an invalid structure: %s" % (report.failures,))
    return result


def _b_matrix(b: Form) -> linalg.Mat:
    """Matrix of X -> i_X B as a map V -> V* (rows: covector components)."""
    n = b.n
    out = linalg.zeros(n, n)
    for col in range(n):
        cov = contract(col + 1, b)
        for mask, coeff in cov.terms.items():
            row = mask.bit_length() - 1
            q = coeff.as_q()
            if not q.is_real():
                raise ValueError("B-field must be real")
            out[row][col] = q
    return out


def transform_vector(b: Form, v: Sequence[Q]) -> List[Q]:
    """Apply the shear e^B to a V+V* coefficient vector."""
    n = b.n
    bm = _b_matrix(b)
    out = list(v)
    for r in range(n):
        acc = out[n + r]
        for c in range(n):
            if not bm[r][c].is_zero():
                acc = acc + bm[r][c] * v[c]
        out[n + r] = acc
    return out


# -- the induced grading on forms -------------------------------------------------


class UGrading(Record):
    """Eigenspace decomposition of forms under the lifted structure action.

    Level k runs over -n..n (n the half-dimension); level k is the
    eigenspace with eigenvalue -k*i, and level n is the canonical
    (pure-spinor) line.  Its hash leaves the dict `bases` out.
    """

    _hashed = ("dim_v", "levels")

    def __init__(self, dim_v: int, levels: Tuple[int, ...], bases: dict):
        _set(self, "__dict__", {"dim_v": dim_v, "levels": levels, "bases": bases})

    @property
    def half_dim(self) -> int:
        return self.dim_v // 2

    def dimension(self, k: int) -> int:
        return len(self.bases.get(k, ()))

    @cached_property
    def _inverse(self) -> linalg.Mat:
        """Inverse of the matrix whose columns are the level forms, level by level
        in `levels` order; made on the first `decompose` and kept."""
        level_forms = [b for k in self.levels for b in self.bases[k]]
        masks = basis_masks(self.dim_v)
        return linalg.invert(linalg.operator_matrix(lambda b: b.terms, level_forms, masks))

    def decompose(self, f: Form) -> dict:
        """Split a form into its level components (zero parts omitted)."""
        if f.n != self.dim_v:
            raise ValueError("form does not live on this frame")
        if f.parameters():
            raise ValueError("decomposition needs parameter-free coefficients")
        if f.is_zero():
            return {}
        coeffs = iter(linalg.mat_vec(self._inverse, form_to_vec(f, basis_masks(self.dim_v))))
        parts = {k: sum((b.scale(Scalar.from_q(c)) for b, c in zip(self.bases[k], coeffs)
                         if not c.is_zero()), Form.zero(self.dim_v)) for k in self.levels}
        return {k: part for k, part in parts.items() if not part.is_zero()}


def lifted_action_matrix(j: GCMap) -> linalg.TRows:
    """Sparse rows of triples of the quadratic Clifford lift of the structure
    on forms, rows and columns in `basis_masks` order.

    The lift uses the 2-form with coefficient matrix -J P (P the pairing),
    acting through commutators; with the Clifford relation u.v. + v.u. =
    2<u,v> and P^2 = 1/4 this is exactly the normalization that satisfies
    [L, v.] = -(Jv). for every v, including structures that do not commute
    with P (for example B-field shears).  No scalar is added: L has
    eigenvalue -k*i on level k of `uk_grading`, which the tests check on
    every level basis form.  This is the spin representation of so(V + V*)
    on forms (Gualtieri, Generalized complex geometry, 2004).

    L is the sum of w (c_a c_b - c_b c_a) over the pairs a < b of V + V*
    with w = -(JP)[a][b] nonzero, c_a the contraction by e_(a+1) for a < n
    and the wedge with e^(a-n+1) for a >= n (`forms._unit_clifford`).
    - On two different generators (a % n != b % n) c_a and c_b anticommute,
      so the term is 2w c_a c_b.  It moves e_mask only when c_b and then c_a
      apply: bit a % n of mask set for a contraction and clear for a wedge,
      and the same for b, which is a quarter of the masks.  Each such mask
      goes to mask with both bits flipped, with the sign of the two moves:
      -1 to the number of set bits strictly between the two generators,
      times a sign fixed by the pair.
    - On the same generator (b = a + n) the term is w (iota e - e iota),
      which is diagonal: +w on the masks without that generator, -w on
      those with it; the diagonal sums these over the generators.
    The weights are real, so every entry is an integer sum over their common
    denominator, reduced once at the end; each row keeps its columns in
    increasing order.
    """
    n = j.dim
    pairs = []
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            jp = j.matrix[a][(b + n) % (2 * n)]  # 2 (JP)[a][b] = jp.a / jp.d, as J is real
            if jp.a:
                pairs.append((a, b, jp.a, jp.d))
    den = lcm(*(jd for _, _, _, jd in pairs))
    masks = basis_masks(n)
    size = len(masks)
    col_of = [0] * size  # a mask's position in `basis_masks` order
    for col, mask in enumerate(masks):
        col_of[mask] = col
    sums = [{} for _ in masks]  # {column: integer sum} per row mask
    diagonal = [0] * n  # the weight of iota_i e^i - e^i iota_i
    for a, b, ja, jd in pairs:
        w = -ja * (den // jd)  # the entry w = -(JP)[a][b] is w / (2 den)
        i, k = a % n, b % n
        if i == k:
            diagonal[i] += w
            continue
        both = (1 << i) | (1 << k)
        need = (1 << i if a < n else 0) | (1 << k if b < n else 0)
        span = ((1 << i) - 1) ^ ((1 << k) - 1)  # generators from the lower of i, k up to the other
        flip = ((need & span).bit_count() + (k < i)) & 1
        span &= ~both
        free, target = (size - 1) ^ both, need ^ both
        plus, minus = 2 * w, -2 * w
        s = 0
        while True:  # every s within free, in increasing order
            row = sums[s | target]
            col = col_of[s | need]
            row[col] = row.get(col, 0) + (minus if ((s & span).bit_count() ^ flip) & 1 else plus)
            s = (s - free) & free
            if not s:
                break
    if any(diagonal):
        entry = [sum(diagonal)] * size
        for mask in range(1, size):  # the lowest generator of mask turns its +w into -w
            low = mask & -mask
            entry[mask] = entry[mask ^ low] - 2 * diagonal[low.bit_length() - 1]
        for mask, x in enumerate(entry):
            if x:
                row, col = sums[mask], col_of[mask]
                row[col] = row.get(col, 0) + x
    den *= 2
    out = []
    for mask in masks:
        row = sums[mask]
        out.append({})
        for col in sorted(row):
            x = row[col]
            if x:
                g = gcd(x, den)
                out[-1][col] = (x // g, 0, den // g)
    return out


def uk_grading(j: GCMap) -> UGrading:
    """Decompose forms into integer levels -h..h (h = dim V / 2).

    With L the i-eigenspace of J and rho its pure spinor, level h - k is
    spanned by lbar_I . rho over the k-subsets I of a basis of conj(L)
    (Gualtieri).  A level's basis is the RREF of its spanning rows with the
    columns reversed, reversed back: one vector per free coordinate, in
    increasing order, normalized like the spinor.  The spans, the products
    and the eliminations run on triples; each basis form is built once.
    """
    n = j.dim
    half = n // 2
    masks = basis_masks(n)
    top = len(masks) - 1
    col_of = {m: top - i for i, m in enumerate(masks)}  # reversed columns
    space = i_eigenspace(j)
    conj = _conjugate(space._rows)
    levels = tuple(range(half, -half - 1, -1))
    bases = {}
    span = [(-1, _spinor(space))]  # (last conjugate index applied, form)
    for k in levels:
        rows = linalg.echelon([{col_of[m]: t for m, t in f.items()} for _, f in span], len(masks))[0]
        bases[k] = tuple(
            _triple_form(n, _normalized({masks[top - c]: row[c] for c in sorted(row, reverse=True)}))
            for row in reversed(rows)
        )
        span = [(b, _clifford(conj[b], f, n)) for a, f in span for b in range(a + 1, n)]
    count = sum(map(len, bases.values()))
    if count != len(masks):
        raise ValueError(
            "eigenvalue spectrum escapes the expected levels "
            "(%d of %d dimensions found): lift convention bug" % (count, len(masks))
        )
    return UGrading(dim_v=n, levels=levels, bases=bases)


class KahlerReport(Record):
    def __init__(self, ok: bool, commute: bool, positive: bool, detail: str = ""):
        _set(self, "__dict__", {"ok": ok, "commute": commute, "positive": positive,
                                "detail": detail})


def kahler_check(j1: GCMap, j2: GCMap) -> KahlerReport:
    """Commutation plus exact positivity of the induced symmetric pairing."""
    require_valid(j1)
    require_valid(j2)
    if j1.dim != j2.dim:
        raise ValueError("structures live on different spaces")
    a = linalg.mat_mul(j1.matrix, j2.matrix)
    b = linalg.mat_mul(j2.matrix, j1.matrix)
    if a != b:
        return KahlerReport(False, False, False, "structures do not commute")
    # -P J1J2: the rows of J1J2, halves swapped, times -1/2
    n2, minus_half = 2 * j1.dim, -QONE / Q(2)
    g = [[minus_half * x for x in a[(r + j1.dim) % n2]] for r in range(n2)]
    for size, d in enumerate(linalg.leading_minors(g), start=1):
        if not (d.is_real() and d.a > 0):
            return KahlerReport(
                False, True, False,
                "leading principal minor %d is %s, not positive" % (size, d),
            )
    return KahlerReport(True, True, True)


# -- standard structures --------------------------------------------------------


def symplectic_map(omega: Form) -> GCMap:
    """Structure with block form ((0, -omega^-1), (omega, 0))."""
    if not omega.is_homogeneous(2) or omega.is_zero():
        raise ValueError("need a nonzero homogeneous 2-form")
    n = omega.n
    om = _b_matrix(omega)
    if linalg.rank(om) != n:
        raise ValueError("2-form is degenerate")
    inv = linalg.invert(om)
    m = linalg.zeros(2 * n, 2 * n)
    for r in range(n):
        for c in range(n):
            m[r][n + c] = -inv[r][c]
            m[n + r][c] = om[r][c]
    return GCMap(n, m)


def complex_structure(n_pairs: int, sign: int = 1) -> GCMap:
    """Standard constant complex structure pairing generators (2j-1, 2j).

    With sign=+1 the canonical line is spanned by the product of
    e_{2j-1} + i e_{2j}; sign=-1 gives the conjugate orientation, which is
    the one compatible with symplectic_map(sum of e_{2j-1}^e_{2j}).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = 2 * n_pairs
    m = linalg.zeros(2 * n, 2 * n)
    s = Q(sign)
    for jj in range(n_pairs):
        a, b = 2 * jj, 2 * jj + 1
        m[b][a] = -s
        m[a][b] = s
        m[n + b][n + a] = -s
        m[n + a][n + b] = s
    return GCMap(n, m)
