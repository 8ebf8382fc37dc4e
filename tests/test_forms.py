import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_form, random_vector
from gcalg.forms import (
    Form,
    basis_masks,
    canonical_pairing,
    clifford,
    contract,
    contract_vector,
    exp_two_form,
    integrate,
    mukai,
    reversal,
    wedge,
)
from gcalg.scalars import I, ONE, Q, Scalar
from oracles import gq, wedge_oracle


def gens(n):
    return [Form.generator(n, i) for i in range(1, n + 1)]


def test_wedge_examples():
    e1, e2, e3, e4 = gens(4)
    e12 = Form.monomial(4, (1, 2))
    assert wedge(e1, e2) == e12
    assert wedge(e2, e1) == -e12
    a = Form.unit(4) + e12
    b = Form.unit(4) + Form.monomial(4, (3, 4))
    assert wedge(a, b) == (
        Form.unit(4) + e12 + Form.monomial(4, (3, 4)) + Form.monomial(4, (1, 2, 3, 4))
    )


def test_wedge_mismatch():
    with pytest.raises(ValueError):
        wedge(Form.unit(2), Form.unit(3))


def test_wedge_against_oracle(rng):
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        a = random_form(rng, n)
        b = random_form(rng, n)
        got = wedge(a, b)
        fa = {_mask_tuple(m): _q_pair(c) for m, c in a.terms.items()}
        fb = {_mask_tuple(m): _q_pair(c) for m, c in b.terms.items()}
        want = wedge_oracle(n, fa, fb)
        assert {_mask_tuple(m): _q_pair(c) for m, c in got.terms.items()} == want


def _mask_tuple(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask & (1 << i))


def _q_pair(c):
    q = c.as_q()
    return (q.re, q.im)


form_strategy = st.integers(min_value=0, max_value=10 ** 6)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_wedge_graded_commutativity(data):
    rng = random.Random(data.draw(form_strategy))
    n = rng.choice([2, 3, 4])
    p = rng.randint(0, n)
    q = rng.randint(0, n)
    a = random_form(rng, n, degrees={p})
    b = random_form(rng, n, degrees={q})
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    if (p * q) % 2 == 1:
        rhs = -rhs
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_associativity(data):
    rng = random.Random(data.draw(form_strategy))
    n = rng.choice([2, 3, 4])
    a, b, c = (random_form(rng, n) for _ in range(3))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_contract_examples():
    e1, e2 = gens(2)
    assert contract(1, e1) == Form.unit(2)
    assert contract(1, e2) == Form.zero(2)
    assert contract(2, Form.monomial(2, (1, 2))) == -e1
    with pytest.raises(ValueError):
        contract(3, e1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contract_is_a_derivation_and_squares_to_zero(data):
    rng = random.Random(data.draw(form_strategy))
    n = rng.choice([2, 3, 4])
    i = rng.randint(1, n)
    a = random_form(rng, n, degrees={rng.randint(0, n)})
    b = random_form(rng, n)
    p = next(iter(a.degrees())) if a.degrees() else 0
    lhs = contract(i, wedge(a, b))
    sign_b = contract(i, b) if p % 2 == 0 else -contract(i, b)
    rhs = wedge(contract(i, a), b) + wedge(a, sign_b)
    assert lhs == rhs
    assert contract(i, contract(i, b)).is_zero()


def test_reversal_examples():
    e1 = Form.generator(3, 1)
    assert reversal(e1) == e1
    e12 = Form.monomial(3, (1, 2))
    assert reversal(e12) == -e12
    e123 = Form.monomial(3, (1, 2, 3))
    assert reversal(e123) == -e123


def test_reversal_is_an_anti_automorphism(rng):
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5])
        a = random_form(rng, n)
        b = random_form(rng, n)
        assert reversal(wedge(a, b)) == wedge(reversal(b), reversal(a))


def test_mukai_trivial_top():
    top = Form.monomial(4, (1, 2, 3, 4))
    assert mukai(top, Form.unit(4)) == ONE


def test_mukai_values_from_worked_example():
    # basis (dx1, dy1, dx2, dy2); the two families and their printed pairings
    t = Scalar.parameter("t")
    c = Form.monomial(4, (1, 2))
    dz2 = Form.generator(4, 3) + Form.generator(4, 4).scale(I)
    rho1t = wedge(exp_two_form(c.scale(-(I * (t + ONE)))), dz2)
    assert mukai(rho1t, rho1t.conjugate()) == Scalar.rational(4) * (t + ONE)

    dz1 = Form.generator(4, 1) + Form.generator(4, 2).scale(I)
    rho2 = wedge(dz1, dz2)
    assert mukai(rho2, rho2.conjugate()) == Scalar.rational(-4)
    assert wedge(reversal(rho2), rho2.conjugate()) == Form.monomial(
        4, (1, 2, 3, 4), Scalar.rational(-4)
    )


def test_mukai_b_invariance(rng):
    for _ in range(60):
        n = rng.choice([2, 4, 6])
        a = random_form(rng, n)
        b = random_form(rng, n)
        bb = random_form(rng, n, degrees={2}, complex_ok=False)
        eb = exp_two_form(bb)
        assert mukai(wedge(eb, a), wedge(eb, b)) == mukai(a, b)


def test_exp_examples():
    assert exp_two_form(Form.zero(4)) == Form.unit(4)
    e12 = Form.monomial(4, (1, 2))
    assert exp_two_form(e12) == Form.unit(4) + e12
    b = e12 + Form.monomial(4, (3, 4))
    expect = Form.unit(4) + e12 + Form.monomial(4, (3, 4)) + Form.monomial(4, (1, 2, 3, 4))
    assert exp_two_form(b) == expect
    with pytest.raises(ValueError):
        exp_two_form(Form.generator(4, 1))


def test_exp_divides_by_factorials():
    n = 6
    b = (
        Form.monomial(n, (1, 2), Scalar.rational(2))
        + Form.monomial(n, (3, 4), Scalar.rational(3))
        + Form.monomial(n, (5, 6))
    )
    e = exp_two_form(b)
    # cube term: 2*3*1 * e123456
    assert e.coefficient((1, 2, 3, 4, 5, 6)) == Scalar.rational(6)


def test_clifford_examples():
    one2 = Form.unit(2)
    z = Scalar()
    assert clifford([ONE, z, z, z], Form.generator(2, 1)) == one2
    assert clifford([z, z, ONE, z], one2) == Form.generator(2, 1)
    spinor = one2 + Form.monomial(2, (1, 2), I)
    assert clifford([ONE, z, z, -I], spinor).is_zero()
    with pytest.raises(ValueError):
        clifford([ONE, z], one2)


def test_clifford_relation(rng):
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        v = random_vector(rng, 2 * n)
        phi = random_form(rng, n)
        vv = clifford(v, clifford(v, phi))
        pairing = canonical_pairing(v, v, n)
        assert vv == phi.scale(pairing)


def test_canonical_pairing_polarization(rng):
    for _ in range(30):
        n = rng.choice([2, 3])
        v = random_vector(rng, 2 * n)
        w = random_vector(rng, 2 * n)
        phi = random_form(rng, n)
        lhs = clifford(v, clifford(w, phi)) + clifford(w, clifford(v, phi))
        two = Scalar.rational(2)
        assert lhs == phi.scale(two * canonical_pairing(v, w, n))


def test_integrate_examples():
    t = Scalar.parameter("t")
    n = 4
    top = Form.monomial(n, (1, 2, 3, 4))
    assert integrate(top) == ONE
    assert integrate(Form.generator(n, 1)) == Scalar()
    scaled = top.scale(Scalar.rational(4) * (t + ONE))
    assert integrate(scaled) == Scalar.rational(4) * (t + ONE)
    assert integrate(top, orientation=-1) == -ONE
    assert integrate(top, volume=Scalar.rational(1, 2)) == ONE / Scalar.rational(2)
    with pytest.raises(ValueError):
        integrate(top, orientation=2)


def test_sums_store_a_term_without_partner_as_is(monkeypatch):
    # a new key takes its coefficient unchanged, so a sum whose terms never
    # meet adds no Scalars: wedging disjoint unit forms, adding forms on
    # disjoint keys, or applying one unit vector of V + V*
    calls = [0]
    original = Scalar.__add__

    def counted(a, b):
        calls[0] += 1
        return original(a, b)

    monkeypatch.setattr(Scalar, "__add__", counted)
    e13, e2 = Form.monomial(4, (1, 3)), Form.generator(4, 2)
    assert wedge(e13, e2) == Form.monomial(4, (1, 2, 3), -ONE)
    assert (e13 + e2).terms == {0b0101: ONE, 0b0010: ONE}
    assert clifford([ONE if k == 5 else Scalar() for k in range(8)], e13) == -Form.monomial(
        4, (1, 2, 3))
    assert calls[0] == 0
    assert e13 + e13 == e13.scale(Scalar.rational(2)) and calls[0] == 1  # the counter counts


def test_basis_masks_sorts_once_per_n():
    # degree first, then mask; one tuple per n, shared by every caller
    for n in range(9):
        masks = basis_masks(n)
        assert isinstance(masks, tuple) and masks is basis_masks(n)
        assert list(masks) == sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
