"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either a worked golden value or backed
by the independent oracles in tests/oracles.py.
"""

import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from conftest import random_form, random_vector
from gcalg import linalg
from gcalg.cartan import (
    Connection,
    EqForm,
    TorusAction,
    basic_twist,
    canonical_extension,
    descend_form,
    equivariant_cohomology,
    gamma_from_connection,
    generalized_d,
    hamiltonian_check,
)
from gcalg.forms import (
    Form,
    basis_masks,
    canonical_pairing,
    clifford,
    contract,
    exp_two_form,
    integrate,
    mukai,
    reversal,
    wedge,
)
from gcalg.gcmaps import (
    complex_structure,
    i_eigenspace,
    lifted_action_matrix,
    pure_spinor,
    symplectic_map,
    type_of,
    uk_grading,
)
from gcalg.gcy import dh_density, gcy_check, quotient_family, volume_form
from gcalg.models import (
    Model,
    d,
    d_twisted,
    d_untwisted_plus,
    ddbar_lemma_check,
    heisenberg3,
    heisenberg5,
    kodaira_thurston,
    sigma_twist,
    torus,
    twisted_cohomology,
)
from gcalg.scalars import I, ONE, Q, Scalar
from oracles import twisted_betti_oracle


def report(num, text):
    print("criterion %2d: PASS - %s" % (num, text))


def dz(n, j):
    return Form.generator(n, 2 * j - 1) + Form.generator(n, 2 * j).scale(I)


def standard_omega(n):
    out = Form.zero(n)
    for j in range(1, n // 2 + 1):
        out = out + Form.monomial(n, (2 * j - 1, 2 * j))
    return out


def test_criterion_01_dh_golden_values():
    t = Scalar.parameter("t")
    t4 = torus(4)
    c = Form.monomial(4, (1, 2))

    start = time.perf_counter()
    fam1 = quotient_family(t4, wedge(exp_two_form(c.scale(-I)), dz(4, 2)), c, "t")
    r1 = dh_density(fam1, 3, 1, orientation=1)
    elapsed1 = time.perf_counter() - start
    assert r1.density == Scalar.rational(-2) * Scalar.pi() * (t + ONE)
    assert str(r1.density) == "-2*pi*(t+1)"
    assert r1.normalization == Scalar.rational(-1, 2) * Scalar.pi()
    assert elapsed1 < 1.0

    start = time.perf_counter()
    fam2 = quotient_family(t4, wedge(dz(4, 1), dz(4, 2)), c, "t")
    r2 = dh_density(fam2, 3, 1, orientation=-1)
    elapsed2 = time.perf_counter() - start
    assert r2.density == Scalar.rational(-2) * Scalar.pi()
    assert str(r2.density) == "-2*pi"
    assert elapsed2 < 1.0
    report(1, "densities -2*pi*(t+1) and -2*pi exact, %.3fs / %.3fs" % (elapsed1, elapsed2))


def test_criterion_02_intermediate_pairings():
    t = Scalar.parameter("t")
    c = Form.monomial(4, (1, 2))
    rho1t = wedge(exp_two_form(c.scale(-(I * (t + ONE)))), dz(4, 2))
    assert mukai(rho1t, rho1t.conjugate()) == Scalar.rational(4) * (t + ONE)

    rho2 = wedge(dz(4, 1), dz(4, 2))
    top = wedge(reversal(rho2), rho2.conjugate())
    assert top == Form.monomial(4, (1, 2, 3, 4), Scalar.rational(-4))
    report(2, "pairings 4*(t+1) and -4*vol exact")


def test_criterion_03_mukai_b_invariance():
    rng = random.Random(703)
    cases = 0
    for n in (2, 4, 6, 8):
        for _ in range(55):
            a = random_form(rng, n)
            b = random_form(rng, n)
            bb = random_form(rng, n, degrees={2}, complex_ok=False)
            eb = exp_two_form(bb)
            assert mukai(wedge(eb, a), wedge(eb, b)) == mukai(a, b)
            cases += 1
    assert cases >= 200
    report(3, "%d randomized shear-invariance cases, exact equality" % cases)


def test_criterion_04_differential_soundness():
    shipped = [
        torus(2), torus(3), torus(4),
        torus(3, H=Form.monomial(3, (1, 2, 3))),
        torus(4, H=Form.monomial(4, (2, 3, 4))),
        heisenberg3(), kodaira_thurston(), heisenberg5(),
        kodaira_thurston(H=Form.monomial(4, (1, 2, 4))),
    ]
    checked = 0
    for m in shipped:
        for mask in range(1 << m.n):
            f = Form(m.n, {mask: ONE})
            assert d(m, d(m, f)).is_zero()
            assert d_twisted(m, d_twisted(m, f)).is_zero()
            checked += 1
    with pytest.raises(ValueError):
        heisenberg5(H=Form.monomial(5, (1, 2, 5)))  # dH != 0
    bad_table = [
        Form.zero(4), Form.zero(4),
        Form.monomial(4, (1, 2)), Form.monomial(4, (3, 4)),
    ]
    with pytest.raises(ValueError):
        Model(4, bad_table)  # d^2(e4) = e1^e2^e4 != 0
    report(4, "d^2 = 0 and twisted-d^2 = 0 on %d basis forms; invalid models rejected" % checked)


def test_criterion_05_exp_lambda_isomorphism():
    rng = random.Random(505)
    bases = [torus(3), torus(4), heisenberg3(), kodaira_thurston(), heisenberg5()]
    cases = 0
    nontrivial = 0
    while cases < 55:
        base = bases[cases % len(bases)]
        lam = random_form(rng, base.n, degrees={2}, complex_ok=False)
        twist = d(base, lam)
        shifted = base.with_twist(base.H + twist)
        assert twisted_cohomology(shifted) == twisted_cohomology(base)
        if not twist.is_zero():
            nontrivial += 1
        cases += 1
    assert cases >= 50
    assert nontrivial >= 10  # nilmanifold models make the check non-vacuous
    report(5, "%d random transport pairs (%d with a genuine twist change), ranks equal"
           % (cases, nontrivial))


def test_criterion_06_twisted_cohomology_oracle():
    t3t = torus(3, H=Form.monomial(3, (1, 2, 3)))
    pair = twisted_cohomology(t3t)
    oracle = twisted_betti_oracle(3, {}, {(1, 2, 3): (Fraction(1), Fraction(0))})
    assert (pair.even, pair.odd) == oracle == (3, 3)

    t3 = torus(3)
    pair0 = twisted_cohomology(t3)
    oracle0 = twisted_betti_oracle(3, {}, {})
    assert (pair0.even, pair0.odd) == oracle0 == (4, 4)
    report(6, "T3 ranks (3,3) twisted / (4,4) plain, equal to the brute-force oracle")


def test_criterion_07_gc_linear_layer():
    for n in (2, 4):
        half = n // 2
        omega = standard_omega(n)
        jw = symplectic_map(omega)
        jc = complex_structure(half)

        space_w = i_eigenspace(jw)
        space_c = i_eigenspace(jc)
        assert space_w.dimension == n and space_c.dimension == n
        assert type_of(jw) == 0
        assert type_of(jc) == half

        spinor_w = pure_spinor(space_w)
        assert spinor_w == exp_two_form(omega.scale(I))
        spinor_c = pure_spinor(space_c)
        dz_product = dz(n, 1)
        for j in range(2, half + 1):
            dz_product = wedge(dz_product, dz(n, j))
        assert spinor_c == dz_product

        for j, spinor in ((jw, spinor_w), (jc, spinor_c)):
            grading = uk_grading(j)
            for k in grading.levels:
                assert grading.dimension(k) == comb(n, half - k)
            assert sum(grading.dimension(k) for k in grading.levels) == 2 ** n
            assert grading.bases[half] == (spinor,)
            # eigenvalue -half*i on the canonical line, straight from the lift
            masks = basis_masks(n)
            op = linalg.to_dense(lifted_action_matrix(j), len(masks))
            vec = [spinor.terms.get(mk, Scalar()).as_q() for mk in masks]
            image = linalg.mat_vec(op, vec)
            assert image == [Q(0, -half) * x for x in vec]
    report(7, "eigenspaces, types (0, n), spinors, level dimensions, -n*i anchor exact")


def test_criterion_08_clifford_relation():
    rng = random.Random(808)
    cases = 0
    for _ in range(210):
        n = rng.choice([2, 3, 4])
        v = random_vector(rng, 2 * n)
        phi = random_form(rng, n)
        assert clifford(v, clifford(v, phi)) == phi.scale(canonical_pairing(v, v, n))
        cases += 1
    assert cases >= 200
    report(8, "%d randomized square-to-pairing cases, exact" % cases)


def test_criterion_09_cartan_map_ranks():
    for m in (2, 3, 4):
        act = TorusAction(torus(m), [[1] + [0] * (m - 1)])
        r2 = equivariant_cohomology(act, act.h_equivariant(2), 2)
        r3 = equivariant_cohomology(act, act.h_equivariant(3), 3)
        quotient = twisted_cohomology(torus(m - 1))
        expected = (quotient.even, quotient.odd)
        assert r2.totals_stable() == expected
        assert r3.totals_stable() == expected
        assert r2.by_degree[:2] == r3.by_degree[:2]  # truncation stability

    t4 = torus(4, H=Form.monomial(4, (2, 3, 4)))
    act = TorusAction(t4, [[1, 0, 0, 0]])
    r2 = equivariant_cohomology(act, act.h_equivariant(2), 2)
    r3 = equivariant_cohomology(act, act.h_equivariant(3), 3)
    quotient = twisted_cohomology(torus(3, H=Form.monomial(3, (1, 2, 3))))
    assert r2.totals_stable() == r3.totals_stable() == (quotient.even, quotient.odd) == (3, 3)
    assert r2.by_degree[:2] == r3.by_degree[:2]
    report(9, "free-circle ranks match the quotient for T2,T3,T4 and the twisted T4 case")


def test_criterion_10_hamiltonian_and_volume():
    t2 = torus(2)
    act = TorusAction(t2, [[1, 0]], mu_diff=[Form.generator(2, 2)], alpha=[Form.zero(2)])
    rho = exp_two_form(Form.monomial(2, (1, 2), I))
    assert hamiltonian_check(act, rho).ok

    act_bad = TorusAction(t2, [[1, 0]], mu_diff=[Form.zero(2)], alpha=[Form.zero(2)])
    rep = hamiltonian_check(act_bad, rho)
    assert not rep.ok
    assert rep.spinor_residuals[0] == Form.generator(2, 2).scale(-I)

    # reversal sends twisted-closed forms to opposite-twist-closed forms
    rng = random.Random(1010)
    models = [
        torus(3, H=Form.monomial(3, (1, 2, 3))),
        torus(4, H=Form.monomial(4, (2, 3, 4))),
        heisenberg3(H=Form.monomial(3, (1, 2, 3))),
        kodaira_thurston(H=Form.monomial(4, (1, 2, 4))),
        torus(3),
    ]
    closed_checked = 0
    for model in models:
        closed_monomials = [
            Form(model.n, {mask: ONE})
            for mask in range(1 << model.n)
            if d_twisted(model, Form(model.n, {mask: ONE})).is_zero()
        ]
        for _ in range(25):
            a = d_twisted(model, random_form(rng, model.n))
            for basis_form in rng.sample(closed_monomials, k=min(2, len(closed_monomials))):
                a = a + basis_form.scale(Scalar.from_q(Q(rng.randint(-3, 3))))
            assert d_twisted(model, a).is_zero()
            out = sigma_twist(model, a)
            assert d_untwisted_plus(model, out).is_zero()
            closed_checked += 1
    assert closed_checked >= 100

    # symplectic volume normalization through half-dimension three
    for n in (2, 4, 6):
        model = torus(n)
        omega = standard_omega(n)
        g = gcy_check(model, exp_two_form(omega.scale(I)))
        power = Form.unit(n)
        for j in range(1, n // 2 + 1):
            power = wedge(power, omega).scale(ONE / Scalar.rational(j))
        assert volume_form(g) == power
    report(10, "moment-data certification, %d reversal-closedness cases, volume = omega^n/n!"
           % closed_checked)


def test_criterion_11_formality_pattern_and_extensions():
    # Hamiltonian data that exists at model scale: trivial actions with zero
    # moment data (a nonzero constant field is free on an invariant model and
    # the formality hypothesis genuinely fails there; see the free-circle
    # ranks of criterion 9).
    rng = random.Random(1111)
    for n in (2, 4):
        model = torus(n)
        jw = symplectic_map(standard_omega(n))
        assert ddbar_lemma_check(model, jw).ok
        act = TorusAction(
            model, [[0] * n], mu_diff=[Form.zero(n)], alpha=[Form.zero(n)]
        )
        rho = exp_two_form(standard_omega(n).scale(I))
        assert hamiltonian_check(act, rho).ok
        for trunc in (2, 3):
            ranks = equivariant_cohomology(act, act.h_equivariant(trunc), trunc)
            assert ranks.free_pattern
            betti = twisted_cohomology(model)
            for deg, (e, o) in enumerate(ranks.by_degree):
                assert (e, o) == (betti.even, betti.odd)  # one monomial per degree, k=1
        # canonical extensions close the generalized differential exactly
        for _ in range(6):
            phi = random_form(rng, n)
            ext = canonical_extension(act, jw, phi)
            assert generalized_d(act, ext).is_zero()

    # translation datum: feasible extensions close exactly as well
    t2 = torus(2)
    act_rot = TorusAction(t2, [[1, 0]], mu_diff=[Form.generator(2, 2)], alpha=[Form.zero(2)])
    jw2 = symplectic_map(Form.monomial(2, (1, 2)))
    for phi in (Form.generator(2, 2), exp_two_form(Form.monomial(2, (1, 2), I))):
        ext = canonical_extension(act_rot, jw2, phi)
        assert generalized_d(act_rot, ext).is_zero()
    report(11, "free-module pattern at truncations 2 and 3; extensions close exactly")


def test_criterion_12_gamma_descent():
    t3 = torus(3)
    act = TorusAction(
        t3, [[1, 0, 0]], mu_diff=[Form.zero(3)], alpha=[Form.generator(3, 2)]
    )
    conn = Connection(act, [Form.generator(3, 1)])
    gamma = gamma_from_connection(conn)
    assert gamma == Form.monomial(3, (1, 2))
    assert contract(1, gamma) == Form.generator(3, 2)
    twist = basic_twist(conn)
    assert twist.is_zero()
    assert descend_form(conn, twist) == Form.zero(2)
    report(12, "twist potential e1^e2, contraction e2, descended twist 0, exact")
