import random
from fractions import Fraction

import pytest

from conftest import (
    in_span, random_q, ref_intersect_spans, ref_kernel_basis, ref_operator_columns,
    ref_operator_matrix, ref_solve, row_space, solve_column,
)
from gcalg import linalg
from gcalg.scalars import Q, QONE, QZERO, Scalar, _q
from oracles import det_oracle, rank_oracle


def random_matrix(rng, rows, cols, span=3):
    return [[random_q(rng, span) for _ in range(cols)] for _ in range(rows)]


def test_rank_against_oracle(rng):
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        want = rank_oracle([[(x.re, x.im) for x in row] for row in m])
        assert linalg.rank(m) == want


def test_kernel_vectors_annihilate(rng):
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        kernel = linalg.to_dense(linalg.null_space(linalg.to_sparse(m), cols), cols)
        assert kernel == ref_kernel_basis(m, ncols=cols)
        assert len(kernel) == cols - linalg.rank(m)
        for v in kernel:
            assert all(x.is_zero() for x in linalg.mat_vec(m, v))


def test_solve_and_inconsistency():
    m = [[QONE, QONE], [QONE, QONE]]
    assert solve_column(m, [Q(2), Q(2)]) == [Q(2), QZERO]  # the free coordinate is 0
    assert solve_column(m, [Q(2), Q(3)]) is None
    a = linalg.to_sparse(m)
    # one column outside the image refuses the lot, wherever it stands
    for b in ([{0: (1, 0, 1), 1: (1, 0, 1)}, {0: (2, 0, 1), 1: (1, 0, 1)}],
              [{0: (1, 0, 1), 1: (2, 0, 1)}, {0: (1, 0, 1), 1: (3, 0, 1)}],
              [{0: (1, 0, 1), 1: (2, 0, 1)}, {0: (2, 0, 1), 1: (4, 0, 1)}]):
        assert linalg.solve(a, b, 2, 2) is None
    assert linalg.solve(a, [{0: (1, 0, 1)}, {0: (1, 0, 1)}], 2, 2) == [{0: (1, 0, 1)}, {}]
    assert linalg.solve([], [], 3, 0) == [{}, {}, {}]


def test_solve_random_consistent(rng):
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        x = [random_q(rng) for _ in range(cols)]
        rhs = linalg.mat_vec(m, x)
        sol = solve_column(m, rhs)
        assert sol is not None and sol == ref_solve(m, rhs)
        assert linalg.mat_vec(m, sol) == rhs


def test_solve_matches_one_dense_solve_per_column(rng):
    # several right-hand sides at once, consistent or not, against one dense
    # solve per column: the same solution columns, or None when any is None
    for _ in range(40):
        rows, cols, width = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        m = [[random_q(rng) if rng.random() < 0.5 else QZERO for _ in range(cols)]
             for _ in range(rows)]
        if rng.random() < 0.5:  # every column in the image
            xs = random_matrix(rng, cols, width)
            b = [[linalg.sum_q(r[k] * xs[k][c] for k in range(cols)) for c in range(width)]
                 for r in m]
        else:
            b = random_matrix(rng, rows, width)
        got = linalg.solve(linalg.to_sparse(m), linalg.to_sparse(b), cols, width)
        want = [ref_solve(m, [r[c] for r in b]) for c in range(width)]
        if None in want:
            assert got is None
        else:
            assert linalg.to_dense(got, width) == [list(r) for r in zip(*want)]


def test_invert_round_trip(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        while True:
            m = random_matrix(rng, n, n)
            if linalg.rank(m) == n:
                break
        inv = linalg.invert(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(n)


def test_invert_singular():
    with pytest.raises(ValueError):
        linalg.invert([[QONE, QONE], [QONE, QONE]])


def _leading_minors_oracle(m):
    """Every leading principal minor up to and including the first zero."""
    out = []
    for k in range(1, len(m) + 1):
        re, im = det_oracle([[(x.re, x.im) for x in row[:k]] for row in m[:k]])
        out.append(Q(re, im))
        if out[-1].is_zero():
            break
    return out


def test_leading_minors_against_laplace_oracle(rng):
    seen_zero = seen_negative = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, span=2)
        if rng.random() < 0.3:
            # make D_k zero: row k of the leading block repeats row 1 (k = 1: zero corner)
            k = rng.randint(1, n)
            m[k - 1][:k] = [x * Q(2) for x in m[0][:k]] if k > 1 else [QZERO]
        want = _leading_minors_oracle(m)
        assert list(linalg.leading_minors(m)) == want
        seen_zero += want[-1].is_zero()
        seen_negative += any(d.is_real() and d.re < 0 for d in want)
    assert seen_zero and seen_negative


def test_leading_minors_examples():
    assert list(linalg.leading_minors([])) == []
    assert list(linalg.leading_minors([[Q(2), QONE], [QONE, Q(3)]])) == [Q(2), Q(5)]
    # a zero pivot ends the sequence even when a later minor is nonzero
    assert list(linalg.leading_minors([[QZERO, QONE], [QONE, QZERO]])) == [QZERO]
    assert list(linalg.leading_minors([[QONE, QONE], [QONE, QONE]])) == [QONE, QZERO]


# Zassenhaus intersections are the reference the ddbar check is compared
# against (tests/test_elimination_refs.py); the package builds none
def test_intersect_spans(rng):
    e1 = [QONE, QZERO, QZERO]
    e2 = [QZERO, QONE, QZERO]
    e3 = [QZERO, QZERO, QONE]
    a = [e1, e2]
    b = [e2, e3]
    inter = ref_intersect_spans(a, b, 3)
    assert len(inter) == 1
    assert in_span(e2, row_space(inter))


def test_intersect_spans_ignores_spanning_rows(rng):
    # the result is the canonical basis of the intersection: dependent or zero
    # input rows give the same rows as their row_space
    for _ in range(30):
        cols = rng.randint(2, 5)
        a = random_matrix(rng, rng.randint(1, 4), cols, span=2)
        b = random_matrix(rng, rng.randint(1, 4), cols, span=2)
        a_dirty = a + [[x * Q(3) - y for x, y in zip(a[0], a[-1])], [QZERO] * cols] + a[:1]
        b_dirty = [[QZERO] * cols] + b + [[x + y for x, y in zip(b[0], b[-1])]]
        want = ref_intersect_spans(row_space(a), row_space(b), cols)
        assert ref_intersect_spans(a_dirty, b_dirty, cols) == want
        assert ref_intersect_spans(a, b, cols) == want
        # shared rows force a nonempty intersection
        shared = ref_intersect_spans(a + b[:1], b, cols)
        assert shared == row_space(shared) and len(shared) >= 1


def test_echelon_and_in_echelon_span():
    rows = linalg.to_sparse([[QONE, Q(2)], [Q(2), Q(4)]])
    basis, pivots = linalg.echelon(rows, 2)
    assert (basis, pivots) == ([{0: (1, 0, 1), 1: (2, 0, 1)}], [0])
    assert rows[1] == {0: (2, 0, 1), 1: (4, 0, 1)}  # the rows given are kept
    assert linalg.in_echelon_span({0: (3, 0, 1), 1: (6, 0, 1)}, basis, pivots)
    assert not linalg.in_echelon_span({0: (1, 0, 1)}, basis, pivots)
    assert linalg.in_echelon_span({}, [], [])


def test_sparse_echelon_matches_dense_row_space(rng):
    # echelon and in_echelon_span against row_space and in_span of the dense
    # rows they replaced (tests/conftest.py), and null_space by its definition
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[random_q(rng) if rng.random() < 0.5 else QZERO for _ in range(cols)]
             for _ in range(rows)]
        sparse = linalg.to_sparse(m)
        basis, pivots = linalg.echelon(sparse, cols)
        want = row_space(m)
        assert linalg.to_dense(basis, cols) == want
        # vector i of the kernel is 1 at the i-th free column and 0 at the
        # others, which with m x = 0 fixes it
        kernel = linalg.to_dense(linalg.null_space(sparse, cols), cols)
        free = [c for c in range(cols) if c not in pivots]
        assert [[v[c] for c in free] for v in kernel] == [
            [QONE if c == fc else QZERO for c in free] for fc in free]
        assert all(x.is_zero() for v in kernel for x in linalg.mat_vec(m, v))
        for v in m + [[random_q(rng) for _ in range(cols)]]:
            got = linalg.in_echelon_span(linalg.to_sparse([v])[0], basis, pivots)
            assert got == in_span(v, want)


def test_operator_matrix_columns_in_dst_order(rng):
    src = ["a", "b", "c", "d"]
    dst = [5, 2, 9]
    images = {}
    for key in src:
        images[key] = {
            k: Scalar.from_q(random_q(rng)) for k in dst if rng.random() < 0.6
        }
    mat = linalg.operator_matrix(lambda key: images[key], src, dst)
    assert len(mat) == len(dst) and all(len(row) == len(src) for row in mat)
    for j, key in enumerate(src):
        column = [row[j] for row in mat]
        assert column == [images[key].get(k, Scalar()).as_q() for k in dst]


def test_operator_matrix_example():
    images = {0: {1: Scalar.rational(2)}, 1: {0: Scalar.imaginary(1), 1: Scalar.rational(-1)}}
    mat = linalg.operator_matrix(lambda key: images[key], [0, 1], [1, 0])
    assert mat == [[Q(2), Q(-1)], [QZERO, Q(0, 1)]]


def test_operator_matrix_rejects_key_outside_dst():
    with pytest.raises(KeyError):
        linalg.operator_matrix(lambda key: {7: Scalar.rational(1)}, [0], [0, 1])



def test_operator_matrix_matches_the_first_loop(rng):
    # operator_matrix, which folds in the sparse columns it was once the dense
    # view of, against one write per image entry and against those columns
    # (kept as the reference of d_H's matrix), zero coefficients and empty
    # images included
    for _ in range(30):
        src = list(range(rng.randint(0, 6)))
        dst = rng.sample(range(20), rng.randint(0, 6))
        images = {key: {k: Scalar.from_q(random_q(rng)) for k in dst if rng.random() < 0.5}
                  for key in src}
        mat = linalg.operator_matrix(lambda key: images[key], src, dst)
        assert mat == ref_operator_matrix(lambda key: images[key], src, dst)
        cols = ref_operator_columns(lambda key: images[key], src, dst)
        assert all(a or b for col in cols for a, b, _ in col.values())
        assert [[_q(*col[i]) if i in col else QZERO for col in cols]
                for i in range(len(dst))] == mat
    assert not hasattr(linalg, "operator_columns")
    for fn in (linalg.operator_matrix, ref_operator_columns, ref_operator_matrix):
        with pytest.raises(KeyError):
            fn(lambda key: {7: Scalar.rational(1)}, [0], [0, 1])


def test_operator_columns_look_up_each_key_before_converting_it():
    # a parameter before an outside key names the parameter, and after it
    # raises KeyError, as the first loop did; operator_matrix keeps the rule
    # of the sparse columns it folds in
    s = Scalar.parameter("s")
    for image, error in [({0: s, 7: Scalar.rational(1)}, ValueError),
                         ({7: Scalar.rational(1), 0: s}, KeyError)]:
        for fn in (linalg.operator_matrix, ref_operator_columns, ref_operator_matrix):
            with pytest.raises(error):
                fn(lambda key: image, [0], [0, 1])
