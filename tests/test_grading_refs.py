"""The level grading built from the pure spinor against its first form.

`uk_grading` builds level h - k from the spinor line by Clifford products
with k conjugate vectors, and `pure_spinor` applies the product of a basis of
the space to the basis forms.  The references in conftest solve a kernel per
level of the shifted lift, the stacked Clifford system of the space, and keep
the inverse change matrix for `decompose`.  Bases, spinors and decompositions
(values and error messages) must agree exactly, and the lift must act on
every level-k basis form as -k*i.
"""

import random
from functools import lru_cache

import pytest

from conftest import random_form, ref_pure_spinor, ref_uk_grading
from gcalg import linalg
from gcalg.forms import Form, basis_masks
from gcalg.gcmaps import (
    b_transform,
    complex_structure,
    i_eigenspace,
    lifted_action_matrix,
    pure_spinor,
    symplectic_map,
    uk_grading,
)
from gcalg.scalars import Scalar


def _omega(n):
    out = Form.zero(n)
    for a in range(1, n, 2):
        out = out + Form.monomial(n, (a, a + 1))
    return out


def _structures():
    """J+, J- and symplectic at n = 2, 4, 6, plain and under two random
    rational B-shears each, then the three plain at n = 8."""
    rng = random.Random("grading-refs")
    out = []
    for n in (2, 4, 6, 8):
        for j in (complex_structure(n // 2), complex_structure(n // 2, -1),
                  symplectic_map(_omega(n))):
            out.append(j)
            if n < 8:
                out += [b_transform(j, random_form(rng, n, degrees={2}, complex_ok=False))
                        for _ in range(2)]
    return out


STRUCTURES = _structures()
CASES = range(len(STRUCTURES))


@lru_cache(maxsize=None)
def _pair(case):
    j = STRUCTURES[case]
    return uk_grading(j), ref_uk_grading(j)


@pytest.mark.parametrize("case", CASES)
def test_levels_and_spinor_match_reference(case):
    j = STRUCTURES[case]
    got, want = _pair(case)
    assert got.dim_v == want.dim_v and got.levels == want.levels
    for k in want.levels:
        assert got.bases[k] == want.bases[k], k
    space = i_eigenspace(j)
    assert pure_spinor(space) == ref_pure_spinor(space) == got.bases[j.dim // 2][0]


def _outcome(grading, f):
    try:
        return grading.decompose(f)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("case", CASES)
def test_decompose_matches_reference(case):
    got, want = _pair(case)
    n = got.dim_v
    rng = random.Random(case)
    forms = [random_form(rng, n, max_terms=6) for _ in range(3 if n < 8 else 1)]
    forms += [
        Form(n, {0: Scalar.parameter("t")}),
        Form(n, {(1 << n) - 1: Scalar.pi()}),
        random_form(rng, n + 2),
    ]
    outcomes = [_outcome(got, f) for f in forms]
    assert outcomes == [_outcome(want, f) for f in forms]
    assert all(isinstance(x, dict) and x for x in outcomes[:-3])
    assert all(isinstance(x, str) for x in outcomes[-3:])


@pytest.mark.parametrize("case", CASES)
def test_lift_has_eigenvalue_minus_k_i_on_level_k(case):
    # L b + k*i b = 0 for every basis form b of level k, one column each
    j = STRUCTURES[case]
    grading, _ = _pair(case)
    masks = basis_masks(j.dim)
    lift = lifted_action_matrix(j)
    for k in grading.levels:
        cols = linalg.to_sparse(
            linalg.operator_matrix(lambda b: b.terms, grading.bases[k], masks))
        residual = linalg.sparse_comb(((1, 0, 1), linalg.sparse_mul(lift, cols)), ((0, k, 1), cols))
        assert residual == [{}] * len(masks), k
