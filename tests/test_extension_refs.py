"""Differential tests: the extension, the connection solve, the annihilator
and the Lefschetz kernel against the dense versions they replaced.

The references (tests/conftest.py) make the split halves dense, multiply
them densely, test closedness by dense mat-vecs and solve one dense system
per residual and per torus factor; the package keeps the halves, P = upper
lower, every solve and every kernel on sparse rows of Gaussian-integer
triples.  Values, flags and exact messages (with the witness of an
ExtensionError) must agree on derandomized cases: symplectic T^n at n = 2,
4, 6 with circle actions, the shipped model with an action and a structure,
a solvable model where P is nonzero and the recursion really solves, forms
failing each half, non-cancellable residuals, pi and parameter coefficients,
free and non-free actions, pure and non-pure forms.  A parameter in the form
is refused by the same conversion as pi, naming its first coefficient in
mask order, where the reference words it its own way.
"""

import random
from fractions import Fraction

from conftest import (
    MODELS_DIR, is_coefficient_refusal, random_form, random_q, ref_annihilator_basis,
    ref_canonical_extension, ref_connection_solve, ref_lefschetz_check, stated_refusal,
)
from gcalg import gcy, linalg
from gcalg.cartan import Connection, EqForm, ExtensionError, TorusAction, canonical_extension
from gcalg.forms import Form, basis_masks, exp_two_form
from gcalg.gcmaps import annihilator, complex_structure, i_eigenspace, pure_spinor, symplectic_map
from gcalg.modelfile import parse_model
from gcalg.models import Model, torus
from gcalg.scalars import I, ONE, Q, Scalar


def outcome(fn, *args):
    """A comparable value, or the error: its type, message and any witness."""
    try:
        out = fn(*args)
    except ExtensionError as err:
        return "ExtensionError", str(err), err.witness
    except (ValueError, AssertionError) as err:
        return type(err).__name__, str(err)
    if isinstance(out, EqForm):
        return out.k, out.trunc, out.to_text(), out
    if isinstance(out, Connection):
        return out.theta, out.curvature
    return out


def scalar(rng):
    return Scalar.from_q(random_q(rng, span=3))


def omega_of(n):
    out = Form.zero(n)
    for a in range(1, n, 2):
        out = out + Form.monomial(n, (a, a + 1))
    return out


def solvable(n):
    """d(e1) = e1^e2, d(e3) = e2^e3 times T^(n-4): a unimodular solvable
    model on which the interchange law holds for the symplectic form below
    and both halves are nonzero, so P = upper lower is nonzero."""
    z = Form.zero(n)
    model = Model(n, [Form.monomial(n, (1, 2)), z, Form.monomial(n, (2, 3))] + [z] * (n - 3))
    omega = Form.monomial(n, (1, 3)) + Form.monomial(n, (2, 4))
    for a in range(5, n, 2):
        omega = omega + Form.monomial(n, (a, a + 1))
    return model, symplectic_map(omega)


def extension_cases():
    rng = random.Random("extension-refs")
    cases = []
    # symplectic T^n with circle actions: rho = exp(i omega), omega, the
    # unit, random forms (with pi or a parameter now and then), each along a
    # random generator with the Hamiltonian moment form or a random one
    for n in (2, 4, 6):
        omega = omega_of(n)
        j = symplectic_map(omega)
        rho = exp_two_form(omega.scale(I))
        phis = [rho, omega, Form.unit(n)] + [random_form(rng, n, max_terms=3) for _ in range(3)]
        phis += [rho + Form.monomial(n, (1,), Scalar.pi()),
                 Form.monomial(n, (2,), Scalar.parameter("t"))]
        for phi in phis:
            a = rng.randrange(n)
            xi = [1 if i == a else 0 for i in range(n)]
            dual = Form.generator(n, a + 2 if a % 2 == 0 else a)  # mu with d mu = i_xi omega, up to sign
            for mu in (dual, Form(n, {1 << rng.randrange(n): scalar(rng)})):
                cases.append((TorusAction(torus(n), [xi], mu_diff=[mu], alpha=[Form.zero(n)]), j, phi))
    # the shipped model with both an action and a structure, on each named form
    mf = parse_model((MODELS_DIR / "t2_symplectic.model").read_text())
    for value in mf.values.values():
        if isinstance(value, Form):
            for act in mf.actions.values():
                for j in mf.structures.values():
                    cases.append((act, j, value))
    # the solvable model: closed forms times random Gaussian scalars, rank
    # one and two actions along e4 or fixed, moment forms from e2, e4 and
    # alpha from e1..e4; many residuals are cancellable, many are not
    model, j = solvable(4)
    g = lambda *idx: Form.monomial(4, idx)
    z = Form.zero(4)
    for phi in (g(2), g(4), g(2, 4), Form.unit(4), g(1, 3)):
        for mu in (z, g(2), g(4)):
            for alpha in (z, g(1), g(3), g(1) + g(3), g(2)):
                c, k = scalar(rng), rng.choice([1, 1, 2])
                xi = [[0, 0, 0, rng.choice([0, 1])] for _ in range(k)]
                act = TorusAction(model, xi, mu_diff=[mu.scale(scalar(rng))] + [g(2)] * (k - 1),
                                  alpha=[alpha.scale(c)] + [g(1)] * (k - 1))
                cases.append((act, j, phi.scale(scalar(rng))))
    # forms failing the lower half, the upper half on the top level (times
    # T^2), pi coefficients at two masks (the one at the first mask in
    # `basis_masks` order is named, not the first one stored), and a parameter
    act4 = TorusAction(model, [[0, 0, 0, 1]], mu_diff=[g(2)], alpha=[g(1)])
    pi = Scalar.pi()
    for phi in (g(1), g(1) + g(2), g(2, 4).scale(pi) + g(2).scale(pi * Scalar.rational(2)),
                g(2) + g(4).scale(pi), g(2).scale(Scalar.parameter("s"))):
        cases.append((act4, j, phi))
    model6, j6 = solvable(6)
    h = lambda *idx: Form.monomial(6, idx)
    act6 = TorusAction(model6, [[0] * 6], mu_diff=[Form.zero(6)], alpha=[Form.zero(6)])
    a = h(1) - h(1, 2, 4).scale(I) + h(1, 5, 6).scale(I) + h(1, 2, 4, 5, 6)
    b = h(1, 4) - h(1, 4, 5, 6).scale(I)
    cases += [(act6, j6, a + b), (act6, j6, a), (act6, j6, b), (act6, j6, h(2))]
    # a structure for which the interchange law fails, and a stray split
    kt = Model(4, [Form.zero(4), Form.zero(4), Form.monomial(4, (1, 2)), Form.zero(4)])
    cases.append((TorusAction(kt, [[0, 0, 0, 1]], mu_diff=[z], alpha=[z]), complex_structure(2), g(1)))
    t4h = torus(4, Form(4, {0b0111: ONE}))
    cases.append((TorusAction(t4h, [[0, 0, 0, 1]], mu_diff=[z], alpha=[z]),
                  symplectic_map(omega_of(4)), g(4)))
    return cases


def test_extension_matches_the_dense_recursion():
    seen = {}
    for act, j, phi in extension_cases():
        for trunc in (None, 2):
            got = outcome(canonical_extension, act, j, phi, trunc)
            want = outcome(ref_canonical_extension, act, j, phi, trunc)
            if want[0] == "ValueError" and is_coefficient_refusal(want[1]):  # phi's, by mask
                want = "ValueError", stated_refusal(phi.terms[m] for m in basis_masks(act.model.n)
                                                    if m in phi.terms)
            assert got == want, (act.xi, phi)
            key = got[0] if isinstance(got[0], str) else "extended" if len(got[-1].terms) > 1 else "closed"
            seen.setdefault(key, set()).add(got[1] if isinstance(got[0], str) else None)
    # every outcome: extensions that solve, closed forms that extend by
    # themselves, non-cancellable residuals, both halves, pi, parameters,
    # a failed interchange law and a stray split
    assert {"extended", "closed", "ExtensionError", "ValueError"} <= set(seen)
    messages = set().union(*(seen[key] for key in seen if key not in ("extended", "closed")))
    assert {"component is not closed for the lower half",
            "component is not closed for the upper half",
            "scalar t is not a plain Gaussian rational",
            "scalar s is not a plain Gaussian rational",
            "scalar pi is not a plain Gaussian rational"} <= messages
    assert "scalar 2*pi is not a plain Gaussian rational" in messages
    assert any(m.startswith("moment contribution is not cancellable") for m in messages)
    assert any(m.startswith("interchange law fails on this model") for m in messages)
    assert any(m.startswith("structure is not integrable") for m in messages)


def test_extension_of_a_closed_form_runs_no_dense_algebra(monkeypatch):
    # a closed phi whose recursion solves: the halves, P, the closedness
    # check and each solve stay on triples, with no dense conversion back
    model, j = solvable(4)
    e1, e2 = Form.generator(4, 1), Form.generator(4, 2)
    act = TorusAction(model, [[0, 0, 0, 1]], mu_diff=[e2], alpha=[e1])
    calls = []
    for name in ("to_dense", "mat_mul", "mat_vec", "rref", "solve"):
        def spy(*args, _name=name, _original=getattr(linalg, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(linalg, name, spy)
    ext = canonical_extension(act, j, e2)
    assert len(ext.terms) == 4 and calls == ["solve"] * 3
    t2 = parse_model((MODELS_DIR / "t2_symplectic.model").read_text())
    calls.clear()
    canonical_extension(t2.actions["rot"], t2.structures["Jw"], t2.values["rho"])
    assert calls == []  # the moment contribution of rho vanishes: no solve


def actions_for_connections():
    rng = random.Random("connection-refs")
    out = []
    for n in (1, 2, 3, 4):
        for k in range(0, min(n, 3) + 1):
            for kind in ("free", "dependent", "random", "param"):
                xi = [[random_q(rng, span=2) for _ in range(n)] for _ in range(k)]
                if kind == "free":  # frame-aligned, scaled
                    xi = [[Q(c + 1) if i == c else Q(0) for i in range(n)] for c in range(k)]
                if kind == "dependent" and k >= 2:
                    xi[-1] = [x * Q(Fraction(1, 2), 1) + y for x, y in zip(xi[0], xi[1])]
                if kind == "dependent" and k == 1:
                    xi = [[Q(0)] * n]
                coords = [[Scalar.from_q(x) for x in v] for v in xi]
                if kind == "param" and k:
                    coords[0][0] = Scalar.parameter("s")
                out.append(TorusAction(torus(n), coords))
    return out


def test_connection_solve_matches_one_dense_solve_per_factor():
    seen = set()
    for act in actions_for_connections():
        got = outcome(Connection.solve, act)
        assert got == outcome(ref_connection_solve, act), act.xi
        seen.add(got[1] if isinstance(got[0], str) else "solved")
    assert seen >= {"solved", "action is not free on the model frame",
                    "scalar s is not a plain Gaussian rational"}


def test_annihilator_matches_the_dense_kernel():
    rng = random.Random("annihilator-refs")
    forms = []
    for n in (2, 4, 6):
        js = [symplectic_map(omega_of(n)), complex_structure(n // 2), complex_structure(n // 2, -1)]
        forms += [pure_spinor(i_eigenspace(j)) for j in js]  # pure
        forms += [random_form(rng, n, max_terms=4) for _ in range(4)]  # mostly not
        forms += [Form.unit(n), Form.monomial(n, tuple(range(1, n + 1)))]
    flags = set()
    for phi in forms:
        report = annihilator(phi)
        assert report.space.basis == ref_annihilator_basis(phi), phi
        assert report.space.type == ref_type(phi.n, report.space.basis)
        flags.add(report.maximal_isotropic)
    assert flags == {True, False}


def ref_type(n, basis):
    return n - linalg.rank([list(v[:n]) for v in basis])


def test_lefschetz_check_matches_the_dense_kernel():
    rng = random.Random("lefschetz-refs")
    cases = []
    for n in (2, 4, 6):
        cases.append((torus(n), omega_of(n)))
        for _ in range(4):
            pairs = [m for m in range(1 << n) if m.bit_count() == 2]
            omega = Form(n, {mk: scalar(rng) for mk in rng.sample(pairs, min(2, len(pairs)))})
            cases.append((torus(n), omega))
    cases += [(torus(3), Form.monomial(3, (1, 2))), (torus(4), Form.generator(4, 1))]
    details = set()
    for model, omega in cases:
        got = outcome(gcy.lefschetz_check, model, omega)
        assert got == outcome(ref_lefschetz_check, model, omega)
        details.add(got[1] if isinstance(got, tuple) else got.detail)
    assert {"", "2-form is degenerate: top power vanishes",
            "model dimension must be even", "need a nonzero homogeneous 2-form"} <= details
