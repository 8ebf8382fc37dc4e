import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    RefConnection, RefTorusAction, outcome, random_form, random_nilpotent, random_q,
)
import gcalg.cartan
from gcalg.cartan import (
    stable_equivariant_ranks,
    Connection,
    EqForm,
    ExtensionError,
    ModelMorphism,
    TorusAction,
    basic_twist,
    canonical_extension,
    cartan_map,
    d_equivariant,
    d_equivariant_twisted,
    descend_form,
    equivariant_cohomology,
    gamma_from_connection,
    generalized_d,
    hamiltonian_check,
    kirwan_map,
    moment_conjugation_residual,
    moment_operator,
    monomials_of_degree,
    quotient_model,
    wedge_eq,
)
from gcalg.forms import Form, basis_masks, contract, wedge
from gcalg.gcmaps import complex_structure, symplectic_map
import gcalg.models
from gcalg.models import (
    Model,
    d,
    d_twisted,
    heisenberg3,
    kodaira_thurston,
    lie_derivative,
    torus,
    twisted_cohomology,
)
from gcalg.scalars import I, ONE, Q, Scalar

Z2 = Form.zero(2)


def t2_translation(mu=True):
    t2 = torus(2)
    if mu:
        return TorusAction(t2, [[1, 0]], mu_diff=[Form.generator(2, 2)], alpha=[Z2])
    return TorusAction(t2, [[1, 0]])


def test_eqform_basics():
    f = Form.generator(2, 1)
    eq = EqForm.of_form(f, 1, 2)
    assert eq.component((0,)) == f
    shifted = eq.x_shift(0)
    assert shifted.component((1,)) == f
    over = shifted.x_shift(0).x_shift(0)
    assert over.is_zero() and not hasattr(over, "dropped")  # past the truncation, cut silently
    assert (eq + (-eq)).is_zero()
    assert wedge_eq(eq, shifted).is_zero()  # e1 ^ e1
    with pytest.raises(ValueError):
        EqForm(1, 2, 2, {(0, 0): f})


def test_d_equivariant_trivial_action_is_d():
    h3 = heisenberg3()
    act = TorusAction(h3, [[0, 0, 0]])
    for mask in range(1 << 3):
        f = Form(3, {mask: ONE})
        eq = act.eqform(f, 3)
        assert d_equivariant(act, eq) == act.eqform(d(h3, f), 3)


def test_d_equivariant_examples():
    act = t2_translation(mu=False)
    eq = act.eqform(Form.generator(2, 1), 2)
    out = d_equivariant(act, eq)
    assert out.component((1,)) == Form.unit(2, -ONE)
    t3 = torus(3)
    act3 = TorusAction(t3, [[1, 0, 0]])
    eq2 = EqForm(1, 3, 3, {(1,): Form.generator(3, 2)})
    assert d_equivariant(act3, eq2).is_zero()


def test_d_equivariant_squares_to_zero(rng):
    cases = [
        (torus(2), [[1, 0]]),
        (torus(3), [[1, 0, 0]]),
        (heisenberg3(), [[0, 0, 1]]),       # central circle
        (kodaira_thurston(), [[0, 0, 1, 0]]),
    ]
    for m, vecs in cases:
        act = TorusAction(m, vecs)
        for _ in range(6):
            eta = EqForm(1, m.n, 4, {
                (0,): random_form(rng, m.n),
                (1,): random_form(rng, m.n),
            })
            dd = d_equivariant(act, d_equivariant(act, eta))
            assert dd.is_zero()


def test_d_equivariant_twisted_examples():
    t3 = torus(3)
    act = TorusAction(t3, [[1, 0, 0]])
    h_g = EqForm(1, 3, 3, {(1,): Form.generator(3, 2)})
    assert d_equivariant(act, h_g).is_zero()
    out = d_equivariant_twisted(act, h_g, act.eqform(Form.unit(3), 3))
    assert out == EqForm(1, 3, 3, {(1,): -Form.generator(3, 2)})
    zero = EqForm(1, 3, 3)
    eta = act.eqform(Form.generator(3, 1), 3)
    assert d_equivariant_twisted(act, zero, eta) == d_equivariant(act, eta)
    bad = EqForm(1, 3, 3, {(1,): Form.generator(3, 1)})
    with pytest.raises(ValueError, match="equivariantly closed"):
        d_equivariant_twisted(act, bad, eta)


def test_d_equivariant_twisted_squares_to_zero(rng):
    t4 = torus(4, H=Form.monomial(4, (2, 3, 4)))
    act = TorusAction(t4, [[1, 0, 0, 0]])
    h_g = act.h_equivariant(4)
    for _ in range(6):
        eta = EqForm(1, 4, 4, {(0,): random_form(rng, 4), (1,): random_form(rng, 4)})
        dd = d_equivariant_twisted(act, h_g, d_equivariant_twisted(act, h_g, eta))
        assert dd.is_zero()


def test_moment_operator_examples():
    # zero moment data reduces to the horizontal part of the differential
    t2 = torus(2)
    act0 = TorusAction(t2, [[1, 0]], mu_diff=[Z2], alpha=[Z2])
    eta = act0.eqform(Form.generator(2, 1), 3)
    assert moment_operator(act0, eta) == EqForm(1, 2, 3, {(1,): Form.unit(2, -ONE)})

    act = t2_translation()
    gamma = EqForm(1, 2, 3, {(1,): Form.unit(2)})
    out = moment_operator(act, gamma)
    assert out.component((2,)) == Form.generator(2, 2).scale(I)


def test_generalized_d_squares_residual():
    # residual appears exactly when contraction of the twist mismatches d(alpha)
    t4 = torus(4, H=Form.monomial(4, (1, 2, 3)))
    act_bad = TorusAction(t4, [[1, 0, 0, 0]], mu_diff=[Form.zero(4)], alpha=[Form.zero(4)])
    eta = act_bad.eqform(Form.unit(4), 4)
    res = generalized_d(act_bad, generalized_d(act_bad, eta))
    assert not res.is_zero()  # i_1 H = e2^e3 != 0 = d(alpha)

    act_good = TorusAction(
        t4, [[0, 0, 0, 1]], mu_diff=[Form.zero(4)], alpha=[Form.zero(4)],
    )
    rep = hamiltonian_check(act_good, Form.unit(4))
    assert rep.closure_ok
    eta4 = act_good.eqform(Form.unit(4), 4)
    res2 = generalized_d(act_good, generalized_d(act_good, eta4))
    assert res2.is_zero()


def test_hamiltonian_check_examples():
    act = t2_translation()
    rho = Form.unit(2) + Form.monomial(2, (1, 2), I)
    assert hamiltonian_check(act, rho).ok

    act_bad = TorusAction(torus(2), [[1, 0]], mu_diff=[Z2], alpha=[Z2])
    rep = hamiltonian_check(act_bad, rho)
    assert not rep.ok
    assert rep.spinor_residuals[0] == Form.generator(2, 2).scale(-I)

    act_triv = TorusAction(torus(2), [[0, 0]], mu_diff=[Z2], alpha=[Z2])
    assert hamiltonian_check(act_triv, rho).ok


def test_equivariant_cohomology_trivial_action_tensor_pattern():
    t2 = torus(2)
    act = TorusAction(t2, [[0, 0]])
    ranks = equivariant_cohomology(act, act.h_equivariant(3), 3)
    assert ranks.free_pattern
    for deg, (e, o) in enumerate(ranks.by_degree):
        count = len(monomials_of_degree(1, deg))
        assert (e, o) == (2 * count, 2 * count)


def test_equivariant_cohomology_free_circle():
    expected = {2: (1, 1), 3: (2, 2), 4: (4, 4)}
    for m, total in expected.items():
        act = TorusAction(torus(m), [[1] + [0] * (m - 1)])
        r2 = equivariant_cohomology(act, act.h_equivariant(2), 2)
        r3 = equivariant_cohomology(act, act.h_equivariant(3), 3)
        assert r2.totals_stable() == total
        assert r3.totals_stable() == total
        assert r2.by_degree[:2] == r3.by_degree[:2]
        assert not r3.free_pattern


def test_equivariant_cohomology_twisted_circle():
    t4 = torus(4, H=Form.monomial(4, (2, 3, 4)))
    act = TorusAction(t4, [[1, 0, 0, 0]])
    r2 = equivariant_cohomology(act, act.h_equivariant(2), 2)
    r3 = equivariant_cohomology(act, act.h_equivariant(3), 3)
    assert r2.totals_stable() == (3, 3)
    assert r3.totals_stable() == (3, 3)
    quotient = torus(3, H=Form.monomial(3, (1, 2, 3)))
    pair = twisted_cohomology(quotient)
    assert r3.totals_stable() == (pair.even, pair.odd)


def test_equivariant_cohomology_refuses_an_even_degree_twist(monkeypatch):
    # x1*(e2^e3) is equivariantly closed for a circle along e1 on T^3, but
    # wedging an even form keeps the parity, so d_G - h_G^ is no map between
    # the even and odd parts: refused before any column is built
    act = TorusAction(torus(3), [[1, 0, 0]])
    built = []
    monkeypatch.setattr(gcalg.cartan, "_d_column", lambda *args: built.append(args))
    for trunc in (1, 2):
        h_g = EqForm(1, 3, trunc, {(1,): Form.monomial(3, (2, 3))})
        assert d_equivariant(act, h_g).is_zero()
        with pytest.raises(ValueError, match=r"^twisting form has a term of even form "
                                             r"degree: x1\*\(e2\^e3\)$"):
            equivariant_cohomology(act, h_g, trunc)
    assert built == []
    # at trunc 0 the term is cut from every column, and the ranks are those of T^3
    monkeypatch.undo()
    ranks = equivariant_cohomology(act, EqForm(1, 3, 0, {(1,): Form.monomial(3, (2, 3))}), 0)
    assert ranks.by_degree == ((4, 4),)


def _kt_circle(c=ONE, h=ONE, a=ONE, s=ONE):
    """d(e3) = c e1^e2, H = h e1^e2^e3, a circle along s e4 with alpha = a e1."""
    model = Model(4, [Form.zero(4), Form.zero(4), Form(4, {0b011: c}), Form.zero(4)],
                  Form(4, {0b0111: h}))
    return TorusAction(model, [[0, 0, 0, s]], alpha=[Form(4, {0b0001: a})])


def test_equivariant_cohomology_refusals_name_the_first_scalar():
    # the first coefficient that is not Gaussian, as stated, in the order
    # d(e_1)..d(e_n), H, then xi_j and alpha_j: no sign of a column and no
    # sum; a coefficient the cut drops (alpha and xi at trunc 0) is never read
    pi, t = Scalar.pi(), Scalar.parameter("t")
    cases = {
        "d pi": (_kt_circle(c=pi), ["pi"] * 3),
        "d t": (_kt_circle(c=t), ["t"] * 3),
        "H pi": (_kt_circle(h=-pi), ["-pi"] * 3),
        "H t": (_kt_circle(h=t), ["t"] * 3),
        "alpha pi": (_kt_circle(a=pi), [None, "pi", "pi"]),
        "alpha t": (_kt_circle(a=-t), [None, "-t", "-t"]),
        "xi pi": (_kt_circle(s=pi), [None, "pi", "pi"]),
        "xi t": (_kt_circle(s=-t), [None, "-t", "-t"]),
        "d t, H pi": (_kt_circle(c=t, h=pi), ["t"] * 3),
        "alpha pi, xi t": (_kt_circle(a=pi, s=t), [None, "t", "t"]),
    }
    for name, (act, want) in cases.items():
        for trunc, scalar_text in enumerate(want):
            h_g = act.h_equivariant(trunc)
            if scalar_text is None:
                assert equivariant_cohomology(act, h_g, trunc).by_degree == ((4, 4),), name
                continue
            with pytest.raises(ValueError) as err:
                equivariant_cohomology(act, h_g, trunc)
            assert str(err.value) == "scalar %s is not a plain Gaussian rational" % scalar_text
    # h_G's own term order does not decide: its x^0 part comes first
    act = _kt_circle(h=pi, a=-t)
    for trunc in (0, 1, 2):
        for terms in ({(1,): act.alpha[0], (0,): act.model.H},
                      {(0,): act.model.H, (1,): act.alpha[0]}):
            with pytest.raises(ValueError, match="^scalar pi is not"):
                equivariant_cohomology(act, EqForm(1, 4, trunc, terms), trunc)


def test_connection_and_curvature():
    t2 = torus(2)
    act = TorusAction(t2, [[1, 0]])
    conn = Connection(act, [Form.generator(2, 1)])
    assert conn.curvature[0].is_zero()
    # nilmanifold circle has nonzero curvature
    kt = kodaira_thurston()
    act_kt = TorusAction(kt, [[0, 0, 1, 0]])
    conn_kt = Connection(act_kt, [Form.generator(4, 3)])
    assert conn_kt.curvature[0] == Form.monomial(4, (1, 2))
    with pytest.raises(ValueError, match="duality"):
        Connection(act, [Form.generator(2, 2)])
    solved = Connection.solve(act)
    assert solved.theta[0] == Form.generator(2, 1)
    act_triv = TorusAction(t2, [[0, 0]])
    with pytest.raises(ValueError, match="not free"):
        Connection.solve(act_triv)


def test_cartan_map_examples():
    t2 = torus(2)
    act = TorusAction(t2, [[1, 0]])
    conn = Connection(act, [Form.generator(2, 1)])
    assert cartan_map(conn, act.eqform(Form.unit(2), 3)) == Form.unit(2)
    assert cartan_map(conn, EqForm(1, 2, 3, {(1,): Form.unit(2)})).is_zero()
    assert cartan_map(conn, act.eqform(Form.monomial(2, (1, 2)), 3)).is_zero()
    assert cartan_map(conn, act.eqform(Form.generator(2, 2), 3)) == Form.generator(2, 2)


def test_cartan_map_is_a_chain_map(rng):
    t4 = torus(4, H=Form.monomial(4, (2, 3, 4)))
    act = TorusAction(t4, [[1, 0, 0, 0]])
    conn = Connection(act, [Form.generator(4, 1)])
    h_g = act.h_equivariant(4)
    h_basic = Form.monomial(4, (2, 3, 4))
    for _ in range(8):
        eta = EqForm(1, 4, 4, {(0,): random_form(rng, 4), (1,): random_form(rng, 4)})
        lhs = cartan_map(conn, d_equivariant_twisted(act, h_g, eta))
        mapped = cartan_map(conn, eta)
        rhs = d(t4, mapped) - wedge(h_basic, mapped)
        assert lhs == rhs
    # curvature-bearing case: nilmanifold circle, untwisted
    kt = kodaira_thurston()
    act_kt = TorusAction(kt, [[0, 0, 1, 0]])
    conn_kt = Connection(act_kt, [Form.generator(4, 3)])
    for _ in range(8):
        eta = EqForm(1, 4, 4, {(0,): random_form(rng, 4), (1,): random_form(rng, 4)})
        lhs = cartan_map(conn_kt, d_equivariant(act_kt, eta))
        rhs = d(kt, cartan_map(conn_kt, eta))
        assert lhs == rhs


def test_gamma_and_basic_twist():
    t3 = torus(3)
    act = TorusAction(t3, [[1, 0, 0]], mu_diff=[Form.zero(3)], alpha=[Form.generator(3, 2)])
    conn = Connection(act, [Form.generator(3, 1)])
    gamma = gamma_from_connection(conn)
    assert gamma == Form.monomial(3, (1, 2))
    assert contract(1, gamma) == Form.generator(3, 2)
    assert basic_twist(conn).is_zero()
    assert descend_form(conn, basic_twist(conn)).is_zero()
    assert gamma_from_connection(
        Connection(
            TorusAction(t3, [[1, 0, 0]], mu_diff=[Form.zero(3)], alpha=[Form.zero(3)]),
            [Form.generator(3, 1)],
        )
    ).is_zero()
    act_bad = TorusAction(t3, [[1, 0, 0]], mu_diff=[Form.zero(3)], alpha=[Form.generator(3, 1)])
    with pytest.raises(ValueError, match="horizontal"):
        gamma_from_connection(Connection(act_bad, [Form.generator(3, 1)]))


def test_descend_examples():
    t4 = torus(4)
    act = TorusAction(t4, [[1, 0, 0, 0]])
    conn = Connection(act, [Form.generator(4, 1)])
    assert descend_form(conn, Form.unit(4)) == Form.unit(3)
    assert descend_form(conn, Form.monomial(4, (2, 3, 4))) == Form.monomial(3, (1, 2, 3))
    with pytest.raises(ValueError, match="not basic"):
        descend_form(conn, Form.monomial(4, (1, 2)))


def test_quotient_model_of_nilmanifold_circle():
    kt = kodaira_thurston()
    act = TorusAction(kt, [[0, 0, 1, 0]])
    conn = Connection(act, [Form.generator(4, 3)])
    qm = quotient_model(conn)
    assert qm.n == 3
    assert all(f.is_zero() for f in qm.d_table)
    # equivariant ranks match the circle-bundle base through the Cartan map:
    # degree-0 piece is H(T3) mod the curvature class, degree 1 its image
    # H of the circle complex is H(T3) with x acting as the curvature class:
    # degree 0 = H(T3)/(e12 ^ H(T3)) = (3,3), degree 1 = its image = (1,1);
    # the order-2 torsion leaves artifacts in the top two truncation degrees,
    # so the authoritative window comes from two consecutive runs
    stable = stable_equivariant_ranks(act, 3)
    assert stable.by_degree[:2] == ((3, 3), (1, 1))
    assert all(r == (0, 0) for r in stable.by_degree[2:])
    base = torus(3)
    pair = twisted_cohomology(base)
    assert stable.totals() == (pair.even, pair.odd) == (4, 4)


def test_kirwan_examples():
    t4 = torus(4, H=Form.monomial(4, (2, 3, 4)))
    act = TorusAction(t4, [[1, 0, 0, 0]])
    conn = Connection(act, [Form.generator(4, 1)])
    sub = ModelMorphism.identity(t4)
    assert kirwan_map(act, conn, sub, act.eqform(Form.unit(4), 3)) == Form.unit(3)
    assert kirwan_map(act, conn, sub, EqForm(1, 4, 3, {(1,): Form.unit(4)})).is_zero()
    vol = Form.monomial(4, (2, 3, 4))
    assert kirwan_map(act, conn, sub, act.eqform(vol, 3)) == Form.monomial(3, (1, 2, 3))


def test_model_morphism_validation():
    t2 = torus(2)
    t4 = torus(4)
    proj = ModelMorphism(
        t2, t4,
        [Form.generator(2, 1), Form.generator(2, 2), Form.zero(2), Form.zero(2)],
    )
    assert proj.pullback(Form.monomial(4, (1, 2))) == Form.monomial(2, (1, 2))
    assert proj.pullback(Form.monomial(4, (3, 4))).is_zero()
    h3 = heisenberg3()
    with pytest.raises(ValueError, match="differentials"):
        ModelMorphism(
            torus(3), h3,
            [Form.generator(3, 1), Form.generator(3, 2), Form.generator(3, 3)],
        )


def test_canonical_extension_feasible_cases():
    act = t2_translation()
    jw = symplectic_map(Form.monomial(2, (1, 2)))
    phi = Form.generator(2, 2)
    ext = canonical_extension(act, jw, phi)
    assert ext == EqForm.of_form(phi, 1, ext.trunc)
    assert generalized_d(act, ext).is_zero()

    rho = Form.unit(2) + Form.monomial(2, (1, 2), I)
    ext2 = canonical_extension(act, jw, rho)
    assert generalized_d(act, ext2).is_zero()

    # trivial action: everything closed extends by itself
    act_triv = TorusAction(torus(2), [[0, 0]], mu_diff=[Z2], alpha=[Z2])
    ext3 = canonical_extension(act_triv, jw, Form.monomial(2, (1, 2)))
    assert generalized_d(act_triv, ext3).is_zero()


def test_canonical_extension_infeasible_case():
    # flat model: lower half vanishes, the moment contribution of the
    # symplectic form cannot be cancelled, and no extension exists
    t4 = torus(4)
    w4 = Form.monomial(4, (1, 2)) + Form.monomial(4, (3, 4))
    act = TorusAction(t4, [[1, 0, 0, 0]], mu_diff=[Form.generator(4, 2)], alpha=[Form.zero(4)])
    jw4 = symplectic_map(w4)
    with pytest.raises(ExtensionError) as err:
        canonical_extension(act, jw4, w4)
    assert not err.value.witness.is_zero()


def test_canonical_extension_unextendable_generator():
    # e1 is closed on the flat model but its moment contribution cannot be
    # cancelled: the recursion reports infeasibility
    act = t2_translation()
    jw = symplectic_map(Form.monomial(2, (1, 2)))
    with pytest.raises(ExtensionError):
        canonical_extension(act, jw, Form.generator(2, 1))


@pytest.mark.parametrize("k", [0, 1])
def test_canonical_extension_refuses_a_form_on_another_frame(monkeypatch, k):
    # refused before any matrix is built, also at k = 0, where no contraction
    # would meet phi's generator count
    split = []
    monkeypatch.setattr(gcalg.cartan, "split_operators", lambda *args: split.append(args))
    act = TorusAction(torus(2), [[1, 0]] * k, mu_diff=[Form.generator(2, 2)] * k, alpha=[Z2] * k)
    jw = symplectic_map(Form.monomial(2, (1, 2)))
    for phi in (Form.generator(4, 2), Form.unit(1)):
        with pytest.raises(ValueError, match="^form lives on the wrong frame$"):
            canonical_extension(act, jw, phi)
    assert split == []


def test_moment_conjugation_identity(rng):
    act = t2_translation()
    for _ in range(6):
        gamma = random_form(rng, 2)
        assert moment_conjugation_residual(act, gamma, 3) == {}
    t4 = torus(4)
    act4 = TorusAction(
        t4, [[1, 0, 0, 0]],
        mu_diff=[Form.generator(4, 2)], alpha=[Form.zero(4)],
    )
    for _ in range(4):
        gamma = random_form(rng, 4)
        assert moment_conjugation_residual(act4, gamma, 3) == {}
    # twisted, with a moment one-form: the identity is an operator identity
    # and does not need the Hamiltonian closure conditions
    t4t = torus(4, H=Form.monomial(4, (2, 3, 4)))
    act4t = TorusAction(
        t4t, [[1, 0, 0, 0]],
        mu_diff=[Form.generator(4, 3)], alpha=[Form.generator(4, 4)],
    )
    for _ in range(4):
        gamma = random_form(rng, 4)
        assert moment_conjugation_residual(act4t, gamma, 3) == {}


def test_action_invariance_validation():
    h3 = heisenberg3()
    TorusAction(h3, [[0, 0, 1]])  # the central circle preserves the frame
    kt = kodaira_thurston()
    TorusAction(kt, [[0, 0, 1, 0]])
    # a non-central translation moves the frame: L(e3) = i_1(e1^e2) = e2
    with pytest.raises(ValueError, match="frame"):
        TorusAction(h3, [[1, 0, 0]])
    with pytest.raises(ValueError, match="not closed"):
        TorusAction(
            heisenberg3(), [[0, 0, 1]],
            mu_diff=[Form.generator(3, 3)], alpha=[Form.zero(3)],
        )


def _series_twisted_d(act, series, trunc):
    """Apply d - x^j i_j - H_G^ to a (x-expo, mu-expo) -> Form series,
    with d(mu^j) given by the declared moment differentials."""
    from gcalg.scalars import Scalar as Sc

    model = act.model
    out = {}

    def add(key, f):
        if f.is_zero() or sum(key[0]) > trunc:
            return
        out[key] = out.get(key, Form.zero(model.n)) + f

    for (ex, em), f in series.items():
        add((ex, em), d(model, f) - wedge(model.H, f))
        for j in range(act.k):
            if em[j]:
                lowered = tuple(p - 1 if idx == j else p for idx, p in enumerate(em))
                add((ex, lowered), wedge(act.mu_diff[j], f).scale(Sc.rational(em[j])))
            exj = tuple(p + 1 if idx == j else p for idx, p in enumerate(ex))
            add((exj, em), -act.contract_j(j, f) - wedge(act.alpha[j], f))
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_certified_data_closes_the_formal_extension():
    # with the two certified conditions and a twisted-closed spinor, the
    # series exp(i mu) rho is closed for the twisted equivariant differential
    t2 = torus(2)
    act = t2_translation()
    rho = Form.unit(2) + Form.monomial(2, (1, 2), I)
    assert hamiltonian_check(act, rho).ok
    trunc = 4
    series = {}
    for degree in range(trunc + 1):
        for e in monomials_of_degree(act.k, degree):
            coeff = Scalar.rational(1)
            for p in e:
                for s in range(1, p + 1):
                    coeff = coeff * I / Scalar.rational(s)
            series[(e, e)] = rho.scale(coeff)
    assert _series_twisted_d(act, series, trunc) == {}

    # breaking the moment differential leaves a nonzero residual
    act_bad = TorusAction(torus(2), [[1, 0]], mu_diff=[Z2], alpha=[Z2])
    assert _series_twisted_d(act_bad, series, trunc) != {}


def test_rank_two_torus_actions():
    # the full translation torus leaves only the point classes
    t2 = torus(2)
    act = TorusAction(t2, [[1, 0], [0, 1]])
    stable = stable_equivariant_ranks(act, 2)
    assert stable.by_degree[0] == (1, 0)
    assert stable.totals() == (1, 0)

    # trivial rank-2 action: free pattern with d+1 monomials per degree
    act_triv = TorusAction(t2, [[0, 0], [0, 0]])
    ranks = equivariant_cohomology(act_triv, act_triv.h_equivariant(2), 2)
    assert ranks.free_pattern
    assert ranks.by_degree == ((2, 2), (4, 4), (6, 6))

    # mixed rank-2 data: translation plus trivial factor with moment data
    act_mixed = TorusAction(
        t2, [[1, 0], [0, 0]],
        mu_diff=[Form.generator(2, 2), Form.zero(2)],
        alpha=[Z2, Z2],
    )
    rho = Form.unit(2) + Form.monomial(2, (1, 2), I)
    assert hamiltonian_check(act_mixed, rho).ok
    jw = symplectic_map(Form.monomial(2, (1, 2)))
    ext = canonical_extension(act_mixed, jw, rho)
    assert generalized_d(act_mixed, ext).is_zero()
    for gamma in (Form.generator(2, 1), rho):
        assert moment_conjugation_residual(act_mixed, gamma, 2) == {}


# -- the action checks against their first version ------------------------------
# RefTorusAction and RefConnection (tests/conftest.py) take L_v d(e_i) and L_v H
# by Cartan's formula and check the curvature's invariance; the package reads
# L_v d(e_i) = d(i_v d(e_i)) and L_v H = d(i_v H) off the frame residual, as
# Model has checked d(d(e_i)) = 0 and dH = 0, and drops the invariance check.


def random_three_step(rng, n):
    """A 3-step nilpotent model on n >= 4 generators, in layers: k closed
    generators (k = 2 or 3), middle ones with d a sum of c1^c over closed c,
    and the rest with d a sum of c1^b over middle b plus closed pairs, so that
    d(c1^b) = -c1^d(b) = 0 and d^2 = 0.  The layers take the generator names
    in a random order.  H, on about half the draws, is d of a 2-form plus,
    when k = 3, the closed triple."""
    k = rng.choice([2, 3]) if n > 4 else 2
    mid = range(k, k + rng.randint(1, n - k - 1))
    name = rng.sample(range(n), n)  # the layer position p is generator name[p]

    def term(*ps):
        return Form(n, {sum(1 << name[p] for p in ps): Scalar.from_q(random_q(rng))})

    table = [Form.zero(n)] * n
    for p in mid:
        table[name[p]] = term(0, rng.randrange(1, k))
    for p in range(mid.stop, n):
        table[name[p]] = term(0, rng.choice(mid)) + (term(1, 2) if k == 3 else Form.zero(n))
    model = Model(n, table)
    if rng.random() < 0.5:
        return model
    pairs = [mk for mk in basis_masks(n) if mk.bit_count() == 2]
    h = d(model, Form(n, {mk: Scalar.from_q(random_q(rng)) for mk in rng.sample(pairs, 2)}))
    return model.with_twist(h + term(0, 1, 2) if k == 3 else h)


def random_action_args(rng, model):
    """Constant fields, half of them on generators that no d(e_i) holds (so
    the frame is preserved), and optional moment differentials and one-forms,
    closed or not."""
    n = model.n
    held = 0
    for f in model.d_table:
        for mk in f.terms:
            held |= mk
    central = [g for g in range(n) if not held >> g & 1] or [n - 1]
    k = rng.choice([1, 1, 2])
    xi = []
    for _ in range(k):
        pool = central if rng.random() < 0.5 else list(range(n))
        support = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
        xi.append([Scalar.from_q(random_q(rng)) if g in support else Scalar() for g in range(n)])

    def one_form():
        g = rng.randrange(n)
        return rng.choice([Form.zero(n), Form.generator(n, g + 1).scale(Scalar.from_q(random_q(rng)))])

    mu = [one_form() for _ in range(k)] if rng.random() < 0.6 else None
    alpha = [one_form() for _ in range(k)] if rng.random() < 0.4 else None
    return xi, mu, alpha


def _kind(result):
    """A refusal's message up to its first colon, numbers as j, or "built"."""
    return re.sub(r"\d+", "j", result.split(":")[0]) if isinstance(result, str) else "built"


def test_action_checks_match_first_version():
    rng = random.Random("action-checks")
    kinds, connections = Counter(), Counter()
    for trial in range(240):
        n = rng.randint(2, 6) if trial % 2 else rng.randint(4, 6)
        model = random_nilpotent(rng, n, "gauss") if trial % 2 else random_three_step(rng, n)
        xi, mu, alpha = random_action_args(rng, model)
        want = outcome(RefTorusAction, model, xi, mu, alpha)
        assert outcome(TorusAction, model, xi, mu, alpha) == want
        kinds[_kind(want)] += 1
        if isinstance(want, str):
            continue
        act = TorusAction(model, xi, mu, alpha)
        try:
            thetas = list(Connection.solve(act).theta)
        except ValueError:  # not free: any 1-forms, for the duality refusal
            thetas = [Form.generator(n, 1)] * act.k
        for j in range(act.k):
            if rng.random() < 0.5:
                g = rng.randrange(n)
                thetas[j] = thetas[j] + Form.generator(n, g + 1).scale(Scalar.from_q(random_q(rng)))
        want = outcome(RefConnection, act, thetas)
        assert outcome(Connection, act, thetas) == want
        connections[_kind(want)] += 1
    assert kinds.keys() == {"built", "field j does not preserve d(ej)", "field j does not preserve the frame",
                            "moment differential j is not closed"}, kinds
    assert min(kinds.values()) >= 10, kinds
    # a field that preserves the frame is central: i_v d(e_g) = 0 for every g,
    # so i_v d(theta) = 0 and the curvature is always horizontal
    assert connections.keys() == {"built", "duality fails"}, connections
    assert min(connections.values()) >= 10, connections


def test_action_refusals():
    e = lambda n, *gens: Form.monomial(n, gens)
    model = Model(4, [e(4, 2, 3), e(4, 3, 4), Form.zero(4), Form.zero(4)])
    cases = [
        ((model, [[0, 0, 1, 0]]), "field 1 does not preserve d(e1): -e3^e4"),
        ((heisenberg3(), [[1, 0, 0]]), "field 1 does not preserve the frame: L(e3) = e2"),
        ((heisenberg3(), [[0, 0, 1]], [e(3, 3)]), "moment differential 1 is not closed"),
    ]
    for args, message in cases:
        assert outcome(TorusAction, *args) == outcome(RefTorusAction, *args) == message
    # RefTorusAction's refusal of a field that moves H is left out: a field
    # that preserves the frame is central, so L_v H = d(i_v H) = 0 on every
    # checked model


def test_every_accepted_action_is_central():
    # TorusAction admits a field only when every frame residual i_v d(e_i) is
    # zero; then L_v = d i_v + i_v d kills every form, parameters and pi
    # included, which is why cartan checks no invariance
    rng = random.Random("central-actions")
    t, s = Scalar.parameter("t"), Scalar.parameter("s")
    built = moved = 0
    for trial in range(120):
        n = rng.randint(2, 6) if trial % 2 else rng.randint(4, 6)
        model = random_nilpotent(rng, n, "gauss") if trial % 2 else random_three_step(rng, n)
        xi, _, _ = random_action_args(rng, model)
        gens = [model.generator(i) for i in range(1, n + 1)]
        forms = [random_form(rng, n) + random_form(rng, n).scale(t * s - Scalar.pi())
                 for _ in range(3)] + gens + list(model.d_table) + [model.H]
        try:
            act = TorusAction(model, xi)
        except ValueError:  # a refused field moves a generator: L_v e_i = i_v d(e_i)
            assert any(not lie_derivative(model, v, g).is_zero() for v in xi for g in gens)
            moved += 1
            continue
        built += 1
        for v in act.xi:
            assert all(lie_derivative(model, v, f).is_zero() for f in forms)
    assert built >= 30 and moved >= 30, (built, moved)


def test_frame_preserving_action_takes_no_lie_derivative(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return lie_derivative(*args)

    monkeypatch.setattr(gcalg.models, "lie_derivative", counted)
    assert not hasattr(gcalg.cartan, "lie_derivative")
    kt = kodaira_thurston()
    act = TorusAction(kt, [[0, 0, 1, 0]], mu_diff=[Form.generator(4, 1)], alpha=[Form.zero(4)])
    Connection(act, [Form.generator(4, 3)])
    t4t = torus(4, H=Form.monomial(4, (2, 3, 4)))
    TorusAction(t4t, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert calls == []
    counted(kt, act.xi[0], Form.generator(4, 4))  # the counter does count
    assert len(calls) == 1
