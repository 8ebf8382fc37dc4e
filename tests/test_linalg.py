import random
from fractions import Fraction

import pytest

from conftest import random_q
from gcalg import linalg
from gcalg.scalars import Q, QONE, QZERO, Scalar
from oracles import rank_oracle


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
        kernel = linalg.kernel_basis(m, ncols=cols)
        assert len(kernel) == cols - linalg.rank(m)
        for v in kernel:
            assert all(x.is_zero() for x in linalg.mat_vec(m, v))


def test_solve_and_inconsistency():
    m = [[QONE, QONE], [QONE, QONE]]
    assert linalg.solve(m, [Q(2), Q(2)]) is not None
    assert linalg.solve(m, [Q(2), Q(3)]) is None


def test_solve_random_consistent(rng):
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        x = [random_q(rng) for _ in range(cols)]
        rhs = linalg.mat_vec(m, x)
        sol = linalg.solve(m, rhs)
        assert sol is not None
        assert linalg.mat_vec(m, sol) == rhs


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


def test_det_multiplicative(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_intersect_spans(rng):
    e1 = [QONE, QZERO, QZERO]
    e2 = [QZERO, QONE, QZERO]
    e3 = [QZERO, QZERO, QONE]
    a = [e1, e2]
    b = [e2, e3]
    inter = linalg.intersect_spans(a, b, 3)
    assert len(inter) == 1
    assert linalg.in_span(e2, linalg.row_space(inter))


def test_in_span_and_row_space():
    rows = [[QONE, Q(2)], [Q(2), Q(4)]]
    basis = linalg.row_space(rows)
    assert len(basis) == 1
    assert linalg.in_span([Q(3), Q(6)], basis)
    assert not linalg.in_span([QONE, QZERO], basis)


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

