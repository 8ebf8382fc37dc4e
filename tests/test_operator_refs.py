"""Differential tests: operator matrices against dense reference constructions.

The references build every Clifford generator as a dense matrix and combine
them with dense products and sums, the way the matrices were first assembled.
The package builds the same matrices column by column from sparse images;
the two must agree entry for entry.
"""

import pytest

from conftest import random_form
from gcalg import linalg
from gcalg.forms import Form, basis_masks, clifford, form_to_vec, vec_to_form
from gcalg.gcmaps import (
    _annihilator_system,
    _pairing_matrix,
    annihilator,
    b_transform,
    complex_structure,
    i_eigenspace,
    lifted_action_matrix,
    pure_spinor,
    symplectic_map,
)
from gcalg.scalars import Q, QONE, QZERO, Scalar


def ref_clifford_matrix(v, n):
    masks = basis_masks(n)
    coords = [Scalar.from_q(x) for x in v]
    cols = []
    for k in range(len(masks)):
        unit = vec_to_form([QONE if i == k else QZERO for i in range(len(masks))], masks, n)
        cols.append(form_to_vec(clifford(coords, unit), masks))
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(masks))]


def ref_lifted_action_matrix(j):
    n = j.dim
    dim = 1 << n
    coeff = linalg.mat_scale(linalg.mat_mul(j.matrix, _pairing_matrix(n)), Q(-1))
    cliff = [
        ref_clifford_matrix([QONE if i == a else QZERO for i in range(2 * n)], n)
        for a in range(2 * n)
    ]
    total = linalg.zeros(dim, dim)
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            w = coeff[a][b]
            if w.is_zero():
                continue
            comm = linalg.mat_sub(
                linalg.mat_mul(cliff[a], cliff[b]), linalg.mat_mul(cliff[b], cliff[a])
            )
            total = linalg.mat_add(total, linalg.mat_scale(comm, w))
    return total


def ref_annihilator_system(phi):
    n = phi.n
    target = form_to_vec(phi, basis_masks(n))
    cols = []
    for k in range(2 * n):
        mat = ref_clifford_matrix([QONE if i == k else QZERO for i in range(2 * n)], n)
        cols.append(linalg.mat_vec(mat, target))
    return [[cols[k][r] for k in range(2 * n)] for r in range(1 << n)]


def standard_omega(n):
    out = Form.zero(n)
    for i in range(n // 2):
        out = out + Form.monomial(n, (2 * i + 1, 2 * i + 2))
    return out


def structures(rng, n):
    base = [
        complex_structure(n // 2, 1),
        complex_structure(n // 2, -1),
        symplectic_map(standard_omega(n)),
    ]
    sheared = []
    for j in base:
        b = random_form(rng, n, degrees=[2], max_terms=3, complex_ok=False)
        if b.is_zero():
            b = Form.monomial(n, (1, 2))
        sheared.append(b_transform(j, b))
    return base + sheared


@pytest.mark.parametrize("n", [2, 4])
def test_lifted_action_matches_dense_commutators(rng, n):
    for j in structures(rng, n):
        assert lifted_action_matrix(j) == ref_lifted_action_matrix(j)


@pytest.mark.parametrize("n", [2, 4])
def test_annihilator_system_matches_dense_products(rng, n):
    forms = [pure_spinor(i_eigenspace(j)) for j in structures(rng, n)]
    forms += [random_form(rng, n, max_terms=5) for _ in range(6)]
    for phi in forms:
        if phi.is_zero():
            continue
        ref = ref_annihilator_system(phi)
        assert _annihilator_system(phi) == ref
        want = linalg.kernel_basis(ref, ncols=2 * n)
        assert annihilator(phi).space.basis == tuple(tuple(v) for v in want)
