from math import comb

import pytest

from conftest import in_span, random_form, row_space
from gcalg import linalg
from gcalg.forms import Form, exp_two_form, mukai, wedge
from gcalg.gcmaps import (
    GCMap,
    annihilator,
    b_transform,
    complex_structure,
    i_eigenspace,
    kahler_check,
    pure_spinor,
    symplectic_map,
    transform_vector,
    type_of,
    uk_grading,
    validate,
)
from gcalg.scalars import I, ONE, Q, QONE, QZERO, Scalar


def omega2():
    return Form.monomial(2, (1, 2))


def omega4():
    return Form.monomial(4, (1, 2)) + Form.monomial(4, (3, 4))


def identity_map(dim):
    return GCMap(dim, linalg.identity(2 * dim))


def test_validate_examples():
    assert validate(symplectic_map(omega2())).ok
    assert validate(complex_structure(1)).ok
    rep = validate(identity_map(2))
    assert not rep.ok
    assert any("J^2" in f for f in rep.failures)


def test_validate_pairing_failure():
    # squares to -1 but rescales the pairing on the first dual pair
    m = linalg.zeros(4, 4)
    m[0][2] = Q(-2)
    m[2][0] = Q(1) / Q(2)
    m[1][3] = Q(-1)
    m[3][1] = Q(1)
    rep = validate(GCMap(2, m))
    assert not rep.ok
    assert any("pairing" in f for f in rep.failures)


def test_i_eigenspace_symplectic():
    j = symplectic_map(omega2())
    space = i_eigenspace(j)
    assert space.dimension == 2
    # contains d1 - i e2 and d2 + i e1
    rows = [list(v) for v in space.basis]
    v1 = [QONE, QZERO, QZERO, Q(0, -1)]
    v2 = [QZERO, QONE, Q(0, 1), QZERO]
    span = row_space(rows)
    assert in_span(v1, span)
    assert in_span(v2, span)


def test_i_eigenspace_complex():
    j = complex_structure(1)
    space = i_eigenspace(j)
    rows = row_space([list(v) for v in space.basis])
    assert in_span([QONE, Q(0, 1), QZERO, QZERO], rows)
    assert in_span([QZERO, QZERO, QONE, Q(0, 1)], rows)


def test_i_eigenspace_b_transform():
    j = symplectic_map(omega2())
    b = Form.monomial(2, (1, 2), Scalar.rational(3))
    jb = b_transform(j, b)
    space = i_eigenspace(j)
    moved = [transform_vector(b, list(v)) for v in space.basis]
    got = row_space([list(v) for v in i_eigenspace(jb).basis])
    assert row_space(moved) == got


def test_type_values():
    assert type_of(symplectic_map(omega2())) == 0
    assert type_of(complex_structure(1)) == 1
    assert type_of(symplectic_map(omega4())) == 0
    assert type_of(complex_structure(2)) == 2
    # direct sum of symplectic (on 1,2) and complex (on 3,4) has type 1;
    # factor coordinates (x1, x2 | y1, y2) embed at indices (0,1|4,5), (2,3|6,7)
    js = symplectic_map(omega2())
    jc = complex_structure(1)
    m = linalg.zeros(8, 8)
    for (jm, idx) in ((js.matrix, (0, 1, 4, 5)), (jc.matrix, (2, 3, 6, 7))):
        for r in range(4):
            for c in range(4):
                m[idx[r]][idx[c]] = jm[r][c]
    jsum = GCMap(4, m)
    assert validate(jsum).ok
    assert type_of(jsum) == 1


def test_pure_spinor_examples():
    j = symplectic_map(omega2())
    assert pure_spinor(i_eigenspace(j)) == Form.unit(2) + Form.monomial(2, (1, 2), I)
    jc = complex_structure(1)
    assert pure_spinor(i_eigenspace(jc)) == Form.generator(2, 1) + Form.generator(2, 2).scale(I)


def test_pure_spinor_b_transform_correspondence():
    j = symplectic_map(omega2())
    b = Form.monomial(2, (1, 2), Scalar.rational(2))
    spin = pure_spinor(i_eigenspace(j))
    spin_b = pure_spinor(i_eigenspace(b_transform(j, b)))
    expected = wedge(exp_two_form(-b), spin)
    lead = min(expected.terms, key=lambda m: (m.bit_count(), m))
    expected = expected.scale(ONE / expected.terms[lead])
    assert spin_b == expected


def test_annihilator_examples():
    spinor = Form.unit(2) + Form.monomial(2, (1, 2), I)
    rep = annihilator(spinor)
    assert rep.space.dimension == 2
    assert rep.maximal_isotropic and rep.nondegenerate and rep.transverse

    rep1 = annihilator(Form.unit(2))
    assert rep1.space.dimension == 2
    assert rep1.maximal_isotropic
    assert not rep1.nondegenerate
    assert not rep1.transverse

    rep2 = annihilator(Form.generator(2, 1))
    assert rep2.space.dimension == 2
    rows = row_space([list(v) for v in rep2.space.basis])
    assert in_span([QZERO, QONE, QZERO, QZERO], rows)  # d2
    assert in_span([QZERO, QZERO, QONE, QZERO], rows)  # e1
    with pytest.raises(ValueError):
        annihilator(Form.zero(2))


def test_annihilator_recovers_eigenspace():
    for j in (symplectic_map(omega2()), complex_structure(1), complex_structure(2)):
        space = i_eigenspace(j)
        rep = annihilator(pure_spinor(space))
        got = row_space([list(v) for v in rep.space.basis])
        want = row_space([list(v) for v in space.basis])
        assert got == want


def test_b_transform_examples(rng):
    j = symplectic_map(omega2())
    assert b_transform(j, Form.zero(2)) == j
    b = Form.monomial(2, (1, 2), Scalar.rational(5))
    assert type_of(b_transform(j, b)) == 0
    with pytest.raises(ValueError):
        b_transform(j, Form.generator(2, 1))
    for _ in range(10):
        n = rng.choice([2, 4])
        jj = symplectic_map(omega2() if n == 2 else omega4())
        bb = random_form(rng, n, degrees={2}, complex_ok=False)
        assert type_of(b_transform(jj, bb)) == type_of(jj)
    for _ in range(5):
        bb = random_form(rng, 4, degrees={2}, complex_ok=False)
        assert type_of(b_transform(complex_structure(2), bb)) == 2


def test_uk_grading_dimensions_and_lines():
    j = symplectic_map(omega2())
    g = uk_grading(j)
    assert [g.dimension(k) for k in g.levels] == [1, 2, 1]
    assert g.bases[1] == (Form.unit(2) + Form.monomial(2, (1, 2), I),)
    jc = complex_structure(1)
    gc = uk_grading(jc)
    assert gc.bases[1] == (Form.generator(2, 1) + Form.generator(2, 2).scale(I),)
    for n_pairs in (1, 2):
        jj = complex_structure(n_pairs)
        gg = uk_grading(jj)
        dims = {k: gg.dimension(k) for k in gg.levels}
        assert sum(dims.values()) == 2 ** (2 * n_pairs)
        for k in gg.levels:
            assert dims[k] == comb(2 * n_pairs, n_pairs - k)


def test_uk_grading_decompose_round_trip(rng):
    j = symplectic_map(omega4())
    g = uk_grading(j)
    for _ in range(5):
        f = random_form(rng, 4)
        parts = g.decompose(f)
        total = Form.zero(4)
        for part in parts.values():
            total = total + part
        assert total == f


def test_kahler_examples():
    j1 = symplectic_map(omega2())
    j2 = complex_structure(1, sign=-1)
    assert kahler_check(j1, j2).ok
    rep = kahler_check(j1, j1)
    assert not rep.ok and rep.commute and not rep.positive
    # a generic shear of one factor breaks commutation (needs dim > 2:
    # on a 2-dimensional space every 2-form is a multiple of omega)
    j14 = symplectic_map(omega4())
    j24 = complex_structure(2, sign=-1)
    rep2 = kahler_check(b_transform(j14, Form.monomial(4, (1, 3))), j24)
    assert not rep2.ok and not rep2.commute


def test_kahler_four_dim():
    j1 = symplectic_map(omega4())
    j2 = complex_structure(2, sign=-1)
    assert kahler_check(j1, j2).ok


def test_kahler_reports_first_failing_minor_past_size_one():
    # flipping the orientation of the (3,4) pair in both halves keeps J2
    # commuting with J1 but makes the pairing indefinite on that pair
    j1 = symplectic_map(omega4())
    m = [list(row) for row in complex_structure(2, sign=-1).matrix]
    for r, c in ((2, 3), (3, 2), (6, 7), (7, 6)):
        m[r][c] = -m[r][c]
    rep = kahler_check(j1, GCMap(4, m))
    assert rep.commute and not rep.positive and not rep.ok
    assert rep.detail == "leading principal minor 3 is -1/8, not positive"
    rep1 = kahler_check(j1, complex_structure(2, sign=1))
    assert rep1.detail == "leading principal minor 1 is -1/2, not positive"


def test_uk_grading_of_sheared_structures():
    # shears move the grading; dimensions stay binomial and the canonical
    # line is the sheared spinor line
    jw = symplectic_map(omega4())
    b = Form.monomial(4, (1, 3)) + Form.monomial(4, (2, 4), Scalar.rational(2))
    jb = b_transform(jw, b)
    grading = uk_grading(jb)
    for k in grading.levels:
        assert grading.dimension(k) == comb(4, 2 - k)
    spin_b = pure_spinor(i_eigenspace(jb))
    assert grading.bases[2] == (spin_b,)
    expected = wedge(exp_two_form(-b), pure_spinor(i_eigenspace(jw)))
    lead = min(expected.terms, key=lambda m: (m.bit_count(), m))
    assert spin_b == expected.scale(Scalar.rational(1) / expected.terms[lead])


def test_lift_commutator_identity(rng):
    # [L, v.] = -(Jv). for the quadratic lift, including sheared structures
    from gcalg.forms import basis_masks, clifford
    from gcalg.gcmaps import lifted_action_matrix
    from gcalg.scalars import Scalar as Sc

    jw = symplectic_map(omega4())
    jb = b_transform(jw, Form.monomial(4, (1, 4)))
    for j in (jw, complex_structure(2), jb):
        masks = basis_masks(4)
        op = linalg.to_dense(lifted_action_matrix(j), len(masks))

        def apply_op(form):
            vec = [form.terms.get(mk, Sc()).as_q() for mk in masks]
            out = linalg.mat_vec(op, vec)
            return Form(4, {mk: Sc.from_q(c) for mk, c in zip(masks, out)})

        for _ in range(4):
            v = [Sc.rational(rng.randint(-3, 3)) for _ in range(8)]
            jv = [
                sum(
                    (Sc.from_q(j.matrix[r][c]) * v[c] for c in range(8)),
                    Sc(),
                )
                for r in range(8)
            ]
            f = random_form(rng, 4)
            comm = apply_op(clifford(v, f)) - clifford(v, apply_op(f))
            assert comm == -clifford(jv, f)
