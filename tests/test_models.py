import random
from fractions import Fraction

import pytest

from conftest import MODELS_DIR, random_form, random_vector, ref_solve
from gcalg.forms import Form, clifford, contract_vector, exp_two_form, reversal, wedge
from gcalg.gcmaps import complex_structure, symplectic_map
from gcalg.models import (
    BettiPair,
    IntegrabilityError,
    Model,
    betti_numbers,
    d,
    d_twisted,
    ddbar_lemma_check,
    del_delbar_split,
    delbar_closed_subcomplex_betti,
    exp_lambda_transport,
    heisenberg3,
    heisenberg5,
    kodaira_thurston,
    module_wedge,
    reversal_clifford_pair,
    sigma_twist,
    split_operators,
    torus,
    twisted_cohomology,
)
from gcalg.modelfile import parse_model
from gcalg.scalars import I, ONE, Q, Scalar
from oracles import twisted_betti_oracle

ALL_MODELS = [torus(2), torus(3), torus(4), heisenberg3(), kodaira_thurston(), heisenberg5()]


def test_d_examples():
    t3 = torus(3)
    assert d(t3, Form.monomial(3, (1, 2))).is_zero()
    h3 = heisenberg3()
    assert d(h3, Form.generator(3, 3)) == Form.monomial(3, (1, 2))
    assert d(h3, Form.monomial(3, (1, 3))).is_zero()
    kt = kodaira_thurston()
    assert d(kt, Form.monomial(4, (3, 4))) == Form.monomial(4, (1, 2, 4))


def test_d_squares_to_zero_exhaustively():
    for m in ALL_MODELS:
        for mask in range(1 << m.n):
            f = Form(m.n, {mask: ONE})
            assert d(m, d(m, f)).is_zero()
            assert d_twisted(m, d_twisted(m, f)).is_zero()


def ref_d(m, a):
    """d as first written: the graded Leibniz rule bit by bit, wedging d(e_g)
    between the generators before and after it with sign (-1)^position."""
    out = Form.zero(m.n)
    for mask, coeff in a.terms.items():
        rest = mask
        pos = 0
        while rest:
            low = rest & -rest
            di = m.d_table[low.bit_length() - 1]
            if not di.is_zero():
                left = Form(m.n, {mask & (low - 1): ONE})
                right = Form(m.n, {mask & ~((low << 1) - 1): ONE})
                piece = wedge(left, wedge(di, right)).scale(coeff)
                out = out + (piece if (pos % 2 == 0) else -piece)
            rest ^= low
            pos += 1
    return out


def test_d_matches_leibniz_reference():
    # d sums d(e_g) ^ contract(g, a) over generators: on every unit form and
    # on random forms whose coefficients are Gaussian, parametric and carry
    # pi powers 0..2 (so some images mix powers on one mask)
    from test_clifford_refs import random_scalar

    iwasawa = parse_model((MODELS_DIR / "iwasawa.model").read_text()).model
    rng = random.Random("d-leibniz")
    for m in (kodaira_thurston(), heisenberg5(), iwasawa):
        for mask in range(1 << m.n):
            f = Form(m.n, {mask: ONE})
            assert d(m, f) == ref_d(m, f)
        for _ in range(200):
            f = Form(m.n, {rng.randrange(1 << m.n): random_scalar(rng, rng.randint(0, 2))
                           for _ in range(rng.randint(1, 6))})
            assert d(m, f) == ref_d(m, f)


def test_d_twisted_examples():
    t3 = torus(3, H=Form.monomial(3, (1, 2, 3)))
    assert d_twisted(t3, Form.unit(3)) == -Form.monomial(3, (1, 2, 3))
    assert d_twisted(t3, Form.generator(3, 1)).is_zero()
    t3p = torus(3)
    f = Form.generator(3, 2)
    assert d_twisted(t3p, f) == d(t3p, f)


def test_model_construction_rejections():
    # twisting form that is not closed
    bad_h = Form.monomial(5, (1, 2, 5))
    with pytest.raises(ValueError, match="not closed"):
        heisenberg5(H=bad_h)
    # differential that does not square to zero
    table = [Form.zero(4), Form.zero(4), Form.monomial(4, (1, 2)), Form.monomial(4, (3, 4))]
    with pytest.raises(ValueError, match="not a differential"):
        Model(4, table)
    with pytest.raises(ValueError, match="degree 2"):
        Model(2, [Form.generator(2, 1), Form.zero(2)])
    with pytest.raises(ValueError, match="degree 3"):
        torus(3, H=Form.monomial(3, (1, 2)))


def test_twisted_cohomology_against_oracle():
    point = Model(0)
    assert twisted_cohomology(point) == BettiPair(1, 0)

    t3 = torus(3)
    assert (twisted_cohomology(t3).even, twisted_cohomology(t3).odd) == \
        twisted_betti_oracle(3, {}, {})
    assert twisted_cohomology(t3) == BettiPair(4, 4)

    t3t = torus(3, H=Form.monomial(3, (1, 2, 3)))
    oracle = twisted_betti_oracle(3, {}, {(1, 2, 3): (Fraction(1), Fraction(0))})
    assert (twisted_cohomology(t3t).even, twisted_cohomology(t3t).odd) == oracle
    assert twisted_cohomology(t3t) == BettiPair(3, 3)

    h3 = heisenberg3()
    oracle_h3 = twisted_betti_oracle(
        3, {3: {(1, 2): (Fraction(1), Fraction(0))}}, {}
    )
    pair = twisted_cohomology(h3)
    assert (pair.even, pair.odd) == oracle_h3

    kt = kodaira_thurston()
    oracle_kt = twisted_betti_oracle(
        4, {3: {(1, 2): (Fraction(1), Fraction(0))}}, {}
    )
    pair = twisted_cohomology(kt)
    assert (pair.even, pair.odd) == oracle_kt


def test_betti_numbers_untwisted():
    assert betti_numbers(torus(3)) == [1, 3, 3, 1]
    assert betti_numbers(heisenberg3()) == [1, 2, 2, 1]
    assert betti_numbers(kodaira_thurston()) == [1, 3, 4, 3, 1]
    with pytest.raises(ValueError):
        betti_numbers(torus(3, H=Form.monomial(3, (1, 2, 3))))


def test_exp_lambda_examples():
    t3 = torus(3)
    a = Form.generator(3, 1)
    assert exp_lambda_transport(t3, Form.zero(3), a) == a
    lam = Form.monomial(3, (1, 2))
    assert exp_lambda_transport(t3, lam, Form.unit(3)) == Form.unit(3) + lam
    with pytest.raises(ValueError):
        exp_lambda_transport(heisenberg3(), Form.generator(3, 3), a)


def test_exp_lambda_rank_invariance(rng):
    cases = 0
    models = [torus(3), torus(4), heisenberg3(), kodaira_thurston(), heisenberg5()]
    while cases < 12:
        base = models[cases % len(models)]
        lam = random_form(rng, base.n, degrees={2}, complex_ok=False)
        twist = d(base, lam)
        if not twist.is_zero():
            model_twisted = base.with_twist(twist)
            assert twisted_cohomology(model_twisted) == twisted_cohomology(base)
        cases += 1


def test_module_wedge():
    t3 = torus(3, H=Form.monomial(3, (1, 2, 3)))
    b = Form.generator(3, 2)
    assert module_wedge(t3, Form.unit(3), b) == b
    got = module_wedge(t3, Form.generator(3, 1), b)
    assert got == Form.monomial(3, (1, 2))
    assert d_twisted(t3, got).is_zero()
    h3 = heisenberg3()
    with pytest.raises(ValueError, match="not closed"):
        module_wedge(h3, Form.generator(3, 3), Form.unit(3))


def test_sigma_twist_examples():
    t4 = torus(4)
    c = Form.monomial(4, (1, 2))
    dz2 = Form.generator(4, 3) + Form.generator(4, 4).scale(I)
    a = wedge(exp_two_form(c.scale(-I)), dz2)
    out = sigma_twist(t4, a)
    assert out == dz2 + wedge(c, dz2).scale(I)
    # twisted case: reversal of a twisted-closed form kills the opposite twist
    t3t = torus(3, H=Form.monomial(3, (1, 2, 3)))
    closed = Form.generator(3, 1) + Form.monomial(3, (1, 2, 3))
    assert d_twisted(t3t, closed).is_zero()
    sigma_twist(t3t, closed)
    with pytest.raises(ValueError, match="not twisted-closed"):
        sigma_twist(t3t, Form.unit(3))


def test_reversal_clifford_pair():
    z = Scalar()
    spinor = Form.unit(2) + Form.monomial(2, (1, 2), I)
    r1, r2 = reversal_clifford_pair([ONE, z, z, -I], spinor)
    assert r1.is_zero() and r2.is_zero()


def test_reversal_clifford_pair_random(rng):
    # whenever v kills a, the sign-flipped vector kills the reversal
    for _ in range(40):
        n = rng.choice([2, 3])
        a = random_form(rng, n)
        v = random_vector(rng, 2 * n)
        r1, r2 = reversal_clifford_pair(v, a)
        if r1.is_zero():
            assert r2.is_zero()
    # engineered annihilations: v = d1 . a for a without e1
    for _ in range(20):
        n = 3
        sub = random_form(rng, n, degrees={0, 1, 2})
        a = wedge(Form.generator(n, 1), sub)
        if a.is_zero():
            continue
        v = [ONE if i == 0 else Scalar() for i in range(2 * n)]
        r1, r2 = reversal_clifford_pair(v, wedge(Form.generator(n, 1), sub))
        if r1.is_zero():
            assert r2.is_zero()


def test_del_delbar_split_examples():
    t2 = torus(2)
    jw = symplectic_map(Form.monomial(2, (1, 2)))
    spinor = Form.unit(2) + Form.monomial(2, (1, 2), I)
    assert del_delbar_split(t2, jw, spinor) == (Form.zero(2), Form.zero(2))
    assert del_delbar_split(t2, jw, Form.unit(2)) == (Form.zero(2), Form.zero(2))
    # constant symplectic-type structure is not integrable on the nilmanifold
    kt = kodaira_thurston()
    jw4 = symplectic_map(Form.monomial(4, (1, 2)) + Form.monomial(4, (3, 4)))
    with pytest.raises(IntegrabilityError):
        del_delbar_split(kt, jw4, Form.generator(4, 3))


def test_del_delbar_split_complex_on_nilmanifold():
    # the paired complex structure is integrable: d splits into adjacent levels
    kt = kodaira_thurston()
    jc = complex_structure(2)
    lo, up = del_delbar_split(kt, jc, Form.generator(4, 3))
    assert lo + up == d(kt, Form.generator(4, 3))


def test_ddbar_check():
    t2 = torus(2)
    assert ddbar_lemma_check(t2, symplectic_map(Form.monomial(2, (1, 2)))).ok
    t4 = torus(4)
    jw4 = symplectic_map(Form.monomial(4, (1, 2)) + Form.monomial(4, (3, 4)))
    assert ddbar_lemma_check(t4, jw4).ok
    assert ddbar_lemma_check(t4, complex_structure(2)).ok

    kt = kodaira_thurston()
    jc = complex_structure(2)
    report = ddbar_lemma_check(kt, jc)
    assert not report.ok
    assert report.witness is not None
    _verify_ddbar_witness(kt, jc, report.witness)


def _verify_ddbar_witness(m, j, witness):
    # witness must sit in one of the two intersections but not in im(up @ lo)
    from gcalg import linalg
    from gcalg.scalars import ZERO

    sp = split_operators(m, j)
    lo = linalg.to_dense(sp.lower, len(sp.masks))
    up = linalg.to_dense(sp.upper, len(sp.masks))
    vec = [witness.terms.get(mk, ZERO).as_q() for mk in sp.masks]
    in_ker_lo = all(x.is_zero() for x in linalg.mat_vec(lo, vec))
    in_ker_up = all(x.is_zero() for x in linalg.mat_vec(up, vec))
    in_im_up = ref_solve(up, vec) is not None
    in_im_lo = ref_solve(lo, vec) is not None
    assert (in_ker_lo and in_im_up) or (in_ker_up and in_im_lo)
    assert ref_solve(linalg.mat_mul(up, lo), vec) is None


def test_delbar_closed_subcomplex_matches_full_on_tori():
    t2 = torus(2)
    jw = symplectic_map(Form.monomial(2, (1, 2)))
    assert delbar_closed_subcomplex_betti(t2, jw) == twisted_cohomology(t2)
    t4 = torus(4)
    jw4 = symplectic_map(Form.monomial(4, (1, 2)) + Form.monomial(4, (3, 4)))
    assert delbar_closed_subcomplex_betti(t4, jw4) == twisted_cohomology(t4)
    assert delbar_closed_subcomplex_betti(t4, complex_structure(2)) == twisted_cohomology(t4)


def test_euler_characteristic_twist_independent():
    pairs = [
        (torus(3), Form.monomial(3, (1, 2, 3))),
        (kodaira_thurston(), Form.monomial(4, (1, 2, 4))),
        (heisenberg5(), Form.monomial(5, (1, 2, 5), Scalar.rational(0))),
    ]
    for base, h in pairs:
        twisted = base.with_twist(h)
        a = twisted_cohomology(base)
        b = twisted_cohomology(twisted)
        assert a.even - a.odd == b.even - b.odd


def test_lie_derivative_invariance():
    from gcalg.models import lie_derivative

    h3 = heisenberg3()
    for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        assert lie_derivative(h3, [Scalar.rational(x) for x in v],
                              Form.monomial(3, (1, 2))).is_zero()


def test_twisted_integrable_complex_structure():
    # H = e1^e2^e4 has pure adjacent-level components for the standard
    # complex pairing, so the twisted differential splits with both halves
    # nonzero even though the underlying differential vanishes
    t4h = torus(4, H=Form.monomial(4, (1, 2, 4)))
    jc = complex_structure(2)
    sp = split_operators(t4h, jc)
    assert any(sp.lower) and any(sp.upper)
    # interchange law fails here: the twist itself is a two-sided cycle
    report = ddbar_lemma_check(t4h, jc, ops=sp)
    assert not report.ok and report.witness is not None

    from oracles import twisted_betti_oracle
    from fractions import Fraction as Fr
    pair = twisted_cohomology(t4h)
    oracle = twisted_betti_oracle(4, {}, {(1, 2, 4): (Fr(1), Fr(0))})
    assert (pair.even, pair.odd) == oracle == (6, 6)
    # rank equality of the upper-closed subcomplex can hold even when the
    # interchange law fails; the implication is one-way
    assert delbar_closed_subcomplex_betti(t4h, jc) == pair


def test_twisted_gcy_structure_on_nonzero_twist():
    from gcalg.gcy import gcy_check, volume_form

    t4h = torus(4, H=Form.monomial(4, (1, 2, 4)))
    dz1 = Form.generator(4, 1) + Form.generator(4, 2).scale(I)
    dz2 = Form.generator(4, 3) + Form.generator(4, 4).scale(I)
    g = gcy_check(t4h, wedge(dz1, dz2))
    assert g.pairing == Scalar.rational(-4)
    assert volume_form(g) == Form.monomial(4, (1, 2, 3, 4))


def test_del_delbar_split_nonzero_halves():
    t4h = torus(4, H=Form.monomial(4, (1, 2, 4)))
    jc = complex_structure(2)
    lo, up = del_delbar_split(t4h, jc, Form.unit(4))
    assert not lo.is_zero() and not up.is_zero()
    assert lo + up == -Form.monomial(4, (1, 2, 4))


def test_iwasawa_literature_goldens():
    # the compact quotient of the complex Heisenberg group, dw3 = w1^w2 for
    # w1 = e1 + i*e2, w2 = e3 + i*e4, w3 = e5 + i*e6
    from gcalg.gcmaps import type_of

    mf = parse_model((MODELS_DIR / "iwasawa.model").read_text())
    model, j = mf.model, mf.structures["Jc"]
    assert betti_numbers(model) == [1, 4, 8, 10, 8, 4, 1]  # Nomizu
    assert type_of(j) == 3  # complex type
    report = ddbar_lemma_check(model, j)
    assert not report.ok
    assert report.witness.to_text(model.names) == "e1^e3+i*e1^e4+i*e2^e3-e2^e4"
    w = [Form.generator(6, 2 * k + 1) + Form.generator(6, 2 * k + 2).scale(I) for k in range(3)]
    assert report.witness == wedge(w[0], w[1]) == d(model, w[2])  # the textbook obstruction
    _verify_ddbar_witness(model, j, report.witness)
