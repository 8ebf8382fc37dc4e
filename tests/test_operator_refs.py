"""Differential tests: operator matrices against dense reference constructions.

The references build every Clifford generator as a dense matrix and combine
them with dense products and sums, the way the matrices were first assembled;
the Clifford action, the contractions and the pairing matrix they use are the
conftest copies of the first versions, so no reference runs the generator
the package sums.
The package builds the same matrices column by column from sparse images
(the lift of J by mask arithmetic on integer sums, with no Clifford call);
the two must agree entry for entry, and the lift also with its first
mask-arithmetic version, which summed Q values into a zero matrix, and with
its first sparse version, which made two Clifford moves per pair and mask,
in each row's column order too.  The
structure check is compared the same way: the dense products J J and
J^T P J against the package's sparse ones, on valid structures, perturbed
ones and random sparse integer matrices.  The sparse
product and linear combination on rows of triples are checked against the
dense product and sum on Gaussian matrices with large denominators.

The torus-layer references sum the x^j-weighted pieces of the moment
operator, the equivariant differential, the Hamiltonian residuals and the
extension's residual step one piece at a time, each building its own
section -xi_j + i(m^j + i a^j); the package builds the sections once and
sums through one helper.

The Cartan-complex reference builds each column of the truncated complex's
matrices from its own image, one twisted equivariant differential per (x
monomial, basis mask); the package builds the 2^n images of the masks and
shifts them by the monomial.  Where the reference meets a coefficient that is
not Gaussian in a matrix entry, the package refuses it before any column,
naming the first one the action states.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    MODELS_DIR, cartan_coefficients, dense_mul, gaussian_matrix, is_coefficient_refusal, mat_add,
    mat_scale, mat_sub, random_complex, random_form, random_q, ref_clifford, ref_contract_vector,
    ref_kernel_basis, ref_lifted_action_matrix, ref_operator_matrix, ref_pairing_matrix,
    ref_sparse_lifted_action_matrix, stated_refusal, transpose, triple, vec_to_form, wide_q,
)
from gcalg import linalg
import gcalg.cartan
import gcalg.gcmaps
import gcalg.models
from gcalg.cartan import (
    EqForm,
    TorusAction,
    _d_eq_twisted_unchecked,
    _expo_add,
    canonical_extension,
    d_equivariant,
    equivariant_cohomology,
    hamiltonian_check,
    moment_conjugation_residual,
    moment_operator,
    monomials_of_degree,
)
from gcalg.forms import Form, _triples, basis_masks, clifford, form_to_vec, mukai, wedge
from gcalg.gcmaps import (
    GCMap,
    _annihilator_system,
    _b_matrix,
    annihilator,
    b_transform,
    complex_structure,
    i_eigenspace,
    lifted_action_matrix,
    pure_spinor,
    symplectic_map,
    validate,
)
from gcalg.modelfile import parse_model
from gcalg.models import Model, d, kodaira_thurston, torus
from gcalg.scalars import ONE, Q, QONE, QZERO, Scalar


def ref_clifford_matrix(v, n):
    masks = basis_masks(n)
    coords = [Scalar.from_q(x) for x in v]
    cols = []
    for k in range(len(masks)):
        unit = vec_to_form([QONE if i == k else QZERO for i in range(len(masks))], masks, n)
        cols.append(form_to_vec(ref_clifford(coords, unit), masks))
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(masks))]


def ref_lift_from_commutators(j):
    n = j.dim
    dim = 1 << n
    coeff = mat_scale(dense_mul(j.matrix, ref_pairing_matrix(n)), Q(-1))
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
            comm = mat_sub(dense_mul(cliff[a], cliff[b]), dense_mul(cliff[b], cliff[a]))
            for trow, crow in zip(total, comm):
                for c, x in enumerate(crow):
                    if not x.is_zero():
                        trow[c] = trow[c] + w * x
    return total


def ref_annihilator_system(phi):
    n = phi.n
    target = [[x] for x in form_to_vec(phi, basis_masks(n))]
    cols = []
    for k in range(2 * n):
        mat = ref_clifford_matrix([QONE if i == k else QZERO for i in range(2 * n)], n)
        cols.append([row[0] for row in dense_mul(mat, target)])
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


def random_symplectic(rng, n):
    """A random nondegenerate rational 2-form's structure."""
    while True:
        w = random_form(rng, n, degrees=[2], max_terms=n, complex_ok=False)
        try:
            return symplectic_map(w)
        except ValueError:  # zero or degenerate
            continue


@pytest.mark.parametrize("n", [2, 4, 6])
def test_lifted_action_matches_dense_commutators(rng, n):
    b = random_form(rng, n, degrees=[2], max_terms=3, complex_ok=False)
    js = structures(rng, n) + [b_transform(random_symplectic(rng, n), b)]
    for j in js:
        dense = linalg.to_dense(lifted_action_matrix(j), 1 << n)
        assert dense == ref_lift_from_commutators(j) == ref_lifted_action_matrix(j)


def random_real(rng, n, density):
    """A random real 2n x 2n matrix: the lift reads any, valid or not."""
    return GCMap(n, [[Q(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6))))
                      if rng.random() < density else QZERO for _ in range(2 * n)]
                     for _ in range(2 * n)])


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_lift_by_pairs_matches_the_first_sparse_lift(n, monkeypatch):
    # entries and each row's column order; the shears fill the JP block
    moves = []
    monkeypatch.setattr(gcalg.gcmaps, "_unit_clifford", lambda *args: moves.append(args))
    rng = random.Random("lift-by-pairs-%d" % n)
    js = [GCMap(n, linalg.zeros(2 * n, 2 * n))]
    js += [random_real(rng, n, density) for density in (0.1, 0.5, 1.0)]
    for base in (random_complex(rng, n), random_complex(rng, n, -1), random_symplectic(rng, n)):
        b = random_form(rng, n, degrees=[2], max_terms=n * (n - 1) // 2, complex_ok=False)
        js += [base, b_transform(base, b)]
    for j in js:
        got, want = lifted_action_matrix(j), ref_sparse_lifted_action_matrix(j)
        assert got == want
        assert [list(row) for row in got] == [list(row) for row in want]
    assert moves == []  # the lift applies no Clifford move


def test_lifted_action_calls_no_clifford(monkeypatch):
    import gcalg.forms
    import gcalg.gcmaps

    calls = [0]

    def counted(*args):
        calls[0] += 1
        return clifford(*args)

    assert not hasattr(gcalg.gcmaps, "clifford")  # gcmaps applies only the unit moves
    monkeypatch.setattr(gcalg.forms, "clifford", counted)
    monkeypatch.setattr(gcalg.models, "clifford", counted)
    for j in structures(random.Random(3), 4):
        lifted_action_matrix(j)
    assert calls[0] == 0
    gcalg.models.reversal_clifford_pair([QZERO] * 4, Form.unit(2))  # the counter does count
    assert calls[0] > 0


# -- the sparse products ---------------------------------------------------------
# sparse_mul and sparse_comb against the dense product and sum, on Gaussian
# matrices with denominators up to 10^6, where a column of the right factor
# in the left factor's kernel and a term taken back out cancel exactly.


def _stores_no_zeros(rows):
    return all(a or b for row in rows for a, b, _ in row.values())


@pytest.mark.parametrize("kind", ["real", "imag", "both", None])
def test_sparse_products_match_dense_products(kind):
    rng = random.Random("sparse-products-%s" % kind)
    cancelled = 0
    for _ in range(15):
        r, k, c = rng.randint(1, 5), rng.randint(2, 6), rng.randint(1, 6)
        density = rng.choice([0.3, 0.7, 1.0])
        a = gaussian_matrix(rng, r, k, density, kind)
        b = gaussian_matrix(rng, k, c, density, kind)
        kernel = ref_kernel_basis(a, ncols=k)
        if kernel:  # a times this column of b is zero
            for row, x in zip(b, kernel[0]):
                row[0] = x
            cancelled += 1
        got = linalg.sparse_mul(linalg.to_sparse(a), linalg.to_sparse(b))
        assert linalg.to_dense(got, c) == dense_mul(a, b) and _stores_no_zeros(got)

        a2 = gaussian_matrix(rng, r, k, density, kind)
        c1, c2 = wide_q(rng), wide_q(rng, kind)
        got = linalg.sparse_comb(
            (triple(c1), linalg.to_sparse(a)), (triple(c2), linalg.to_sparse(a2)),
            (triple(-c1), linalg.to_sparse(a)))
        want = mat_add(mat_add(mat_scale(a, c1), mat_scale(a2, c2)), mat_scale(a, -c1))
        assert linalg.to_dense(got, k) == want and _stores_no_zeros(got)
    assert cancelled >= 5


# -- the structure checks ------------------------------------------------------


def ref_validate(j):
    """The dense check: J^2 against -1 and J^T P J against P."""
    failures = []
    n2 = 2 * j.dim
    minus_one = [[Q(-1) if r == c else QZERO for c in range(n2)] for r in range(n2)]
    if dense_mul(j.matrix, j.matrix) != minus_one:
        failures.append("J^2 != -1")
    p = ref_pairing_matrix(j.dim)
    if dense_mul(transpose(j.matrix), dense_mul(p, j.matrix)) != p:
        failures.append("J does not preserve the canonical pairing")
    return not failures, tuple(failures)


def validation_cases(rng, n):
    """Valid structures; 1-2 entries of them moved by a rational; conjugates
    A J A^-1 by an integer shear A (J^2 = -1 kept, the pairing broken);
    the B-field shears e^B themselves (orthogonal, J^2 != -1); random
    sparse integer matrices."""
    n2 = 2 * n
    valid = [j.matrix for j in structures(rng, n)] + [random_symplectic(rng, n).matrix]
    out = list(valid)
    for m in valid:
        for count in (1, 2, 1, 2):
            moved = [list(row) for row in m]
            for _ in range(count):
                r, c = rng.randrange(n2), rng.randrange(n2)
                moved[r][c] = moved[r][c] + random_q(rng, complex_ok=False)
            out.append(moved)
        p, q = rng.sample(range(n2), 2)
        c = Q(rng.choice([-2, -1, 1, 2]))
        a = [[QONE if r == s else c if (r, s) == (p, q) else QZERO for s in range(n2)]
             for r in range(n2)]
        a_inv = [[-x if (r, s) == (p, q) else x for s, x in enumerate(row)]
                 for r, row in enumerate(a)]
        out.append(dense_mul(a, dense_mul(m, a_inv)))
        bm = _b_matrix(random_form(rng, n, degrees=[2], max_terms=3, complex_ok=False))
        out.append([[QONE if r == s else bm[r - n][s] if r >= n > s else QZERO
                     for s in range(n2)] for r in range(n2)])
    for _ in range(10):
        out.append([[Q(rng.choice([-2, -1, 1, 2])) if rng.random() < 0.2 else QZERO
                     for _ in range(n2)] for _ in range(n2)])
    return [GCMap(n, m) for m in out]


def test_validate_matches_dense_products():
    rng = random.Random(8)
    outcomes = set()
    for n in (2, 4, 6):
        for j in validation_cases(rng, n):
            report = validate(j)
            assert (report.ok, report.failures) == ref_validate(j)
            outcomes.add(report.failures)
    assert outcomes == {
        (),
        ("J^2 != -1",),
        ("J does not preserve the canonical pairing",),
        ("J^2 != -1", "J does not preserve the canonical pairing"),
    }


@pytest.mark.parametrize("n", [2, 4, 6])
def test_annihilator_system_matches_dense_products(rng, n):
    forms = [pure_spinor(i_eigenspace(j)) for j in structures(rng, n)]
    forms += [random_form(rng, n, max_terms=5) for _ in range(6)]
    for phi in forms:
        if phi.is_zero():
            continue
        ref = ref_annihilator_system(phi)
        system = _annihilator_system(dict(_triples(phi.terms.items())), n)
        assert linalg.to_dense(system, 2 * n) == ref
        want = ref_kernel_basis(ref, ncols=2 * n)
        report = annihilator(phi)
        assert report.space.basis == tuple(tuple(v) for v in want)
        # the Mukai pairing on triples against the Scalar one
        assert report.nondegenerate == (not mukai(phi, phi.conjugate()).is_zero())


def test_annihilator_refuses_the_first_coefficient_as_stated():
    # phi's coefficients become triples in term order before any matrix is
    # built, so the refusal names the first one phi states, where the system
    # built from Clifford products met a later one first (t in the first
    # example: column 0, the contraction by e1, meets t*e1^e2 before any
    # column reaches -pi*e2)
    t, pi = Scalar.parameter("t"), Scalar.pi()
    e1, e2, e12 = (Form(2, {m: ONE}) for m in (0b01, 0b10, 0b11))
    cases = [(e2.scale(-pi) + e12.scale(t), "scalar -pi is not a plain Gaussian rational"),
             (e1 + e2.scale(t + ONE), "scalar t+1 is not a plain Gaussian rational"),
             (e12.scale(t) + e1.scale(pi), "scalar t is not a plain Gaussian rational")]
    rng = random.Random("annihilator-refusals")
    for _ in range(40):
        n = rng.randint(1, 4)
        phi = random_form(rng, n, max_terms=5)
        bad = [pi * Scalar.rational(rng.randint(1, 5)) if rng.random() < 0.5 else
               t * Scalar.rational(rng.randint(1, 5)) + Scalar.from_q(random_q(rng))
               for _ in range(2)]
        for c in bad:
            phi = phi + Form(n, {rng.randrange(1 << n): c})
        cases.append((phi, stated_refusal(phi.terms.values())))
    for phi, message in cases:
        assert message is not None
        with pytest.raises(ValueError) as err:
            annihilator(phi)
        assert str(err.value) == message == stated_refusal(phi.terms.values())


def test_annihilator_builds_no_scalar_product(monkeypatch):
    # no forms.clifford, no Clifford sum and no Scalar product: phi's terms
    # become triples once (one as_q per term) and the system, the kernel and
    # the Mukai pairing run on them
    import gcalg.forms

    rng = random.Random("annihilator-count")
    phis = [pure_spinor(i_eigenspace(j)) for n in (2, 4, 6) for j in structures(rng, n)]
    phis += [random_form(rng, n, max_terms=6) for n in (1, 2, 3, 4) for _ in range(5)]
    phis = [phi for phi in phis if not phi.is_zero()]
    calls = {}
    for owner, name in [(gcalg.forms, "clifford"), (gcalg.forms, "_clifford_sum"),
                        (Scalar, "__mul__"), (Scalar, "as_q")]:
        calls[name] = 0

        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    for phi in phis:
        for name in calls:
            calls[name] = 0
        annihilator(phi)
        assert calls["clifford"] == calls["_clifford_sum"] == calls["__mul__"] == 0
        assert calls["as_q"] <= len(phi.terms)
    gcalg.forms.contract(1, Form.generator(2, 1))  # the counters do count
    gcalg.forms.clifford([ONE] * 4, Form.generator(2, 1))
    assert calls["clifford"] == 1 and calls["_clifford_sum"] == 2 and calls["__mul__"] > 0


# -- the torus layer: moment sections and x-weighted sums ----------------------


def ref_d_equivariant(act, eta):
    out = eta.map_forms(lambda f: d(act.model, f))
    for e, f in eta.terms.items():
        for j in range(act.k):
            piece = ref_contract_vector(act.xi[j], f)
            if piece.is_zero():
                continue
            out = out + EqForm(eta.k, eta.n, eta.trunc, {_expo_add(e, j): -piece})
    return out


def ref_moment_operator(act, eta):
    out = EqForm(eta.k, eta.n, eta.trunc)
    i_unit = Scalar.imaginary(1)
    for e, f in eta.terms.items():
        for j in range(act.k):
            piece = -ref_contract_vector(act.xi[j], f)
            cov = act.mu_diff[j].scale(i_unit) - act.alpha[j]
            piece = piece + wedge(cov, f)
            if not piece.is_zero():
                out = out + EqForm(eta.k, eta.n, eta.trunc, {_expo_add(e, j): piece})
    return out


def ref_spinor_residuals(act, rho):
    residuals = []
    for j in range(act.k):
        cov = act.mu_diff[j].scale(Scalar.imaginary(1)) - act.alpha[j]
        residuals.append(ref_contract_vector([-c for c in act.xi[j]], rho) + wedge(cov, rho))
    return tuple(residuals)


def ref_sections(act):
    n = act.model.n
    out = []
    for j in range(act.k):
        vec = [-c for c in act.xi[j]] + [Scalar()] * n
        cov = act.mu_diff[j].scale(Scalar.imaginary(1)) - act.alpha[j]
        for mask, coeff in cov.terms.items():
            vec[n + mask.bit_length() - 1] = coeff
        out.append(vec)
    return out


def ref_extension_residuals(act, terms, degree):
    """One step of the extension recursion, as a hand loop over the terms."""
    sections = ref_sections(act)
    residuals = {}
    for e, f in terms.items():
        if sum(e) != degree - 1:
            continue
        for jj in range(act.k):
            piece = ref_clifford(sections[jj], f)
            if piece.is_zero():
                continue
            key = _expo_add(e, jj)
            residuals[key] = residuals.get(key, Form.zero(act.model.n)) + piece
    return {e: f for e, f in residuals.items() if not f.is_zero()}


def random_action(rng, n, k):
    """A rank-k action with moment data on a flat torus with a random twist,
    or on Kodaira-Thurston (n = 4) along e3 and e4 with closed moment forms."""

    def one_form(gens):
        return Form(n, {1 << (g - 1): Scalar.from_q(Q(rng.randint(-2, 2), rng.randint(-1, 1)))
                        for g in rng.sample(gens, 2)})

    if n == 4 and rng.random() < 0.5:
        model = kodaira_thurston()
        xi = [[0, 0, rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(k)]
        closed = [1, 2, 4]
    else:
        h = random_form(rng, n, degrees=[3], max_terms=2) if n >= 3 else None
        model = torus(n, h)
        xi = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        closed = list(range(1, n + 1))
    return TorusAction(
        model, xi,
        mu_diff=[one_form(closed) for _ in range(k)],
        alpha=[one_form(list(range(1, n + 1))) for _ in range(k)],
    )


def random_eqform(rng, act, trunc, edge):
    """Components below the truncation degree, plus one on it when edge."""
    degrees = [rng.randrange(trunc) for _ in range(2)] + ([trunc] if edge else [])
    terms = {}
    for deg in degrees:
        e = rng.choice(monomials_of_degree(act.k, deg))
        terms[e] = random_form(rng, act.model.n, max_terms=3)
    return EqForm(act.k, act.model.n, trunc, terms)


def _same(got, want):
    return (got.k, got.n, got.trunc, got.terms) == (want.k, want.n, want.trunc, want.terms)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_torus_operators_match_per_piece_sums(rng, n, k):
    for trunc in (1, 2, 3, 4):
        for edge in (True, False):
            act = random_action(rng, n, k)
            eta = random_eqform(rng, act, trunc, edge)
            got = moment_operator(act, eta)
            assert _same(got, ref_moment_operator(act, eta))
            assert max(map(sum, got.terms), default=0) <= trunc  # an edge term's image is cut
            assert _same(d_equivariant(act, eta), ref_d_equivariant(act, eta))
            rho = random_form(rng, n, max_terms=4)
            assert hamiltonian_check(act, rho).spinor_residuals == ref_spinor_residuals(act, rho)
            for degree in range(1, trunc + 1):
                top = {e: f for e, f in eta.terms.items() if sum(e) == degree - 1}
                step = moment_operator(act, EqForm(k, n, trunc, top)).terms
                # the order decides which residual the extension reports first
                want = ref_extension_residuals(act, eta.terms, degree)
                assert list(step.items()) == list(want.items())


def _solvable_symplectic(mu):
    z = Form.zero(4)
    model = Model(4, [Form.monomial(4, (1, 2)), z, Form.monomial(4, (2, 3)), z])
    j = symplectic_map(Form.monomial(4, (1, 3)) + Form.monomial(4, (2, 4)))
    data = {"mu_diff": [z], "alpha": [z]} if mu else {}
    return TorusAction(model, [[0, 0, 0, 0]], **data), j


def test_missing_moment_data_is_reported_first():
    act, j = _solvable_symplectic(mu=False)
    phi = Form.generator(4, 1)  # closed for neither half of d
    for trunc in (0, 2, None):
        with pytest.raises(ValueError, match="^action carries no moment data$"):
            canonical_extension(act, j, phi, trunc=trunc)
    eta = EqForm.of_form(phi, 1, 2)
    for call in (
        lambda: moment_operator(act, eta),
        lambda: hamiltonian_check(act, phi),
        lambda: moment_conjugation_residual(act, phi, 2),
    ):
        with pytest.raises(ValueError, match="^action carries no moment data$"):
            call()
    # with moment data the same phi fails its closedness check instead
    act_mu, _ = _solvable_symplectic(mu=True)
    for trunc in (0, None):
        with pytest.raises(ValueError, match="^component is not closed for the lower half$"):
            canonical_extension(act_mu, j, phi, trunc=trunc)


def test_extension_recursion_goldens():
    # d(e1) = e1^e2, d(e3) = e2^e3 with a field along e4: the recursion runs
    # to the truncation degree; the texts were recorded before the residual
    # step went through moment_operator
    act0, j = _solvable_symplectic(mu=False)
    e1, e2 = Form.generator(4, 1), Form.generator(4, 2)
    act1 = TorusAction(act0.model, [[0, 0, 0, 1]], mu_diff=[e2], alpha=[e1])
    assert str(canonical_extension(act1, j, e2)) == (
        "(e2) + x1*(e1+i*e1^e2^e4) + x1^2*(2*i*e1-2*e1^e2^e4)"
        " + x1^3*(-4*e1-4*i*e1^e2^e4)"
    )
    act2 = TorusAction(
        act0.model, [[0, 0, 0, 1], [0, 0, 0, 0]],
        mu_diff=[e2, e2], alpha=[Form.zero(4), e1],
    )
    assert str(canonical_extension(act2, j, e2, trunc=4)) == (
        "(e2) + x2*(e1+i*e1^e2^e4) + x2^2*(i*e1-e1^e2^e4) + x1*x2*(2*i*e1-2*e1^e2^e4)"
        " + x2^3*(-e1-i*e1^e2^e4) + x1*x2^2*(-4*e1-4*i*e1^e2^e4)"
        " + x1^2*x2*(-4*e1-4*i*e1^e2^e4) + x2^4*(-i*e1+e1^e2^e4)"
        " + x1*x2^3*(-6*i*e1+6*e1^e2^e4) + x1^2*x2^2*(-12*i*e1+12*e1^e2^e4)"
        " + x1^3*x2*(-8*i*e1+8*e1^e2^e4)"
    )


# -- the truncated Cartan complex: columns from the 2^n unit images -------------

CARTAN_COLUMNS = gcalg.cartan._cartan_columns


def ref_cartan_matrices(act, h_g, trunc):
    """mat_eo and mat_oe with one twisted differential per column."""
    n = act.model.n
    basis = [
        (e, mask)
        for deg in range(trunc + 1)
        for e in monomials_of_degree(act.k, deg)
        for mask in basis_masks(n)
    ]
    even_basis = [b for b in basis if b[1].bit_count() % 2 == 0]
    odd_basis = [b for b in basis if b[1].bit_count() % 2 == 1]

    def image(key):
        e, mask = key
        src = EqForm(act.k, n, trunc, {e: Form(n, {mask: Scalar.rational(1)})})
        img = _d_eq_twisted_unchecked(act, h_g, src)
        return {(ee, mk): c for ee, f in img.terms.items() for mk, c in f.terms.items()}

    return [ref_operator_matrix(image, even_basis, odd_basis),
            ref_operator_matrix(image, odd_basis, even_basis)]


class _Assembled(Exception):
    pass


def cartan_matrices(monkeypatch, act, h_g, trunc):
    """The two column sets equivariant_cohomology assembles, as dense
    matrices with one column per source; stops it there."""
    mats = []

    def capture(*args):
        cols = CARTAN_COLUMNS(*args)
        assert all(a or b for part in cols for col in part for a, b, _ in col.values())
        for src, dst in (cols, cols[::-1]):
            mats.append(linalg.to_dense(linalg.sparse_transpose(src, len(dst)), len(src)))
        raise _Assembled

    monkeypatch.setattr(gcalg.cartan, "_cartan_columns", capture)
    with pytest.raises(_Assembled):
        equivariant_cohomology(act, h_g, trunc)
    monkeypatch.setattr(gcalg.cartan, "_cartan_columns", CARTAN_COLUMNS)
    return mats


def closed_action(rng, n, k, with_alpha, twisted):
    """An action whose h_G = H + x^j alpha_j is equivariantly closed.

    Flat T^n rotated along s_j e_j for j <= k: H and the alpha_j live on the
    other generators, so i_xi H = 0, and the e_1, e_2 parts of alpha_2,
    alpha_1 cancel in i_1 alpha_2 + i_2 alpha_1.  Kodaira-Thurston (n = 4,
    k = 1) along e4: d alpha = b e1^e2 = i_4 H, so b = 0 without alpha.
    """

    def q():
        return Scalar.from_q(random_q(rng))

    if n == 4 and k == 1 and rng.random() < 0.5:
        b = q() if twisted and with_alpha else Scalar()
        model = kodaira_thurston(Form(4, {0b0111: q(), 0b1011: b}) if twisted else None)
        alpha = Form(4, {0b0100: b, 0b0001: q()})
        return TorusAction(model, [[0, 0, 0, 1]], alpha=[alpha] if with_alpha else None)
    s = [rng.choice([-2, -1, 1, 3]) for _ in range(k)]
    rest = [1 << i for i in range(k, n)]
    h = None
    if twisted:
        triples = [a | b | c for a in rest for b in rest for c in rest if a < b < c]
        h = Form(n, {m: q() for m in rng.sample(triples, min(2, len(triples)))})
    model = torus(n, h)
    xi = [[s[j] if i == j else 0 for i in range(n)] for j in range(k)]
    if not with_alpha:
        return TorusAction(model, xi)
    alphas = [{m: q() for m in rest if rng.random() < 0.7} for _ in range(k)]
    if k == 2:
        c = q()
        alphas[0][0b10] = c * Scalar.rational(s[0])
        alphas[1][0b01] = -c * Scalar.rational(s[1])
    return TorusAction(model, xi, alpha=[Form(n, a) for a in alphas])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cartan_columns_match_per_column_images(monkeypatch, n, k):
    rng = random.Random("cartan-%d-%d" % (n, k))
    kinds = [(a, t) for a in (False, True) for t in (False, True) if not t or n - k >= 3]
    for trunc in range(6):
        for with_alpha, twisted in kinds:
            act = closed_action(rng, n, k, with_alpha, twisted)
            h_g = act.h_equivariant(trunc)
            assert d_equivariant(act, h_g).is_zero()
            got = cartan_matrices(monkeypatch, act, h_g, trunc)
            assert got == ref_cartan_matrices(act, h_g, trunc)


def _refusal(fn, *args):
    try:
        fn(*args)
    except ValueError as err:
        return str(err)
    return None


def test_cartan_refusals_name_the_first_stated_coefficient(monkeypatch):
    # pi and parameters in d, xi, H and alpha: the complex is refused where
    # the per-column images meet one, naming the first coefficient in the
    # order d, H, xi, alpha, and a coefficient the cut drops is never read;
    # a complex that is built matches the per-column images
    rng = random.Random("cartan-refusals")
    pi, s, t = Scalar.pi(), Scalar.parameter("s"), Scalar.parameter("t")

    def c():
        return rng.choice([ONE, Scalar.rational(-2), Scalar.imaginary(1), pi, -pi,
                           Scalar.rational(3) * pi, s, -t, s + ONE])

    actions = []
    for _ in range(30):
        table = [Form.zero(4), Form.zero(4), Form(4, {0b0011: c()}), Form.zero(4)]
        model = Model(4, table, Form(4, {0b0111: c()}) if rng.random() < 0.7 else None)
        alpha = Form(4, {0b0001: c(), 0b0010: c()})
        actions.append(TorusAction(model, [[0, 0, 0, c()]], alpha=[alpha]))
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        rest = [1 << g for g in range(1, n)]
        triples = [a | b | e for a in rest for b in rest for e in rest if a < b < e]
        h = Form(n, {m: c() for m in rng.sample(triples, min(2, len(triples)))})
        alpha = Form(n, {m: c() for m in rest if rng.random() < 0.6})
        actions.append(TorusAction(torus(n, h), [[c()] + [0] * (n - 1)], alpha=[alpha]))
    seen = {"built": 0, "errors": set()}
    for act in actions:
        for trunc in (0, 1, 2):
            h_g = act.h_equivariant(trunc)
            want = _refusal(ref_cartan_matrices, act, h_g, trunc)
            if want is not None and is_coefficient_refusal(want):
                want = stated_refusal(cartan_coefficients(act, h_g, trunc))
            assert _refusal(equivariant_cohomology, act, h_g, trunc) == want
            if want is None:
                seen["built"] += 1
                assert cartan_matrices(monkeypatch, act, h_g, trunc) == ref_cartan_matrices(
                    act, h_g, trunc)
            else:
                seen["errors"].add(want)
    assert seen["built"] > 10
    assert seen["errors"] == {"scalar %s is not a plain Gaussian rational" % c
                              for c in ("pi", "-pi", "3*pi", "s", "-t", "s+1")}


def test_cartan_columns_cut_at_a_lower_twist_truncation(monkeypatch):
    # h_G truncated below the complex cuts every image at its own degree
    rng = random.Random("cartan-cut")
    act = closed_action(rng, 5, 1, True, True)
    for trunc in (2, 4):
        h_g = act.h_equivariant(trunc - 1)
        assert cartan_matrices(monkeypatch, act, h_g, trunc) == ref_cartan_matrices(
            act, h_g, trunc)


def test_cartan_complex_takes_one_image_per_mask(monkeypatch):
    # beyond the closedness check: no d, wedge, contraction or Scalar product
    # (the columns come from mask arithmetic on triples), no EqForm
    # differential, no operator_columns, and no dense matrix, transpose, RREF
    # or rebuilt twisted complex
    calls = {}
    for name, original in [("d", gcalg.models.d), ("wedge", gcalg.forms.wedge),
                           ("contract_vector", gcalg.forms.contract_vector),
                           ("_d_eq_twisted_unchecked", gcalg.cartan._d_eq_twisted_unchecked),
                           ("operator_matrix", linalg.operator_matrix), ("rref", linalg.rref),
                           ("twisted_cohomology", gcalg.models.twisted_cohomology),
                           ("__mul__", Scalar.__mul__)]:
        calls[name] = 0

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for owner in (gcalg.forms, gcalg.models, gcalg.cartan, linalg, Scalar):
            if vars(owner).get(name) is original:
                monkeypatch.setattr(owner, name, counted)
    assert "twisted_cohomology" not in vars(gcalg.cartan)
    assert "transpose" not in vars(linalg)  # no dense transpose to make
    assert "operator_columns" not in vars(linalg)  # folded into operator_matrix

    def count(act, trunc):
        h_g = act.h_equivariant(trunc)
        for name in calls:
            calls[name] = 0
        d_equivariant(act, h_g)
        closedness = dict(calls)
        equivariant_cohomology(act, h_g, trunc)
        assert calls["d"] > closedness["d"] > 0
        return {name: calls[name] - 2 * closedness[name] for name in calls}

    zero = dict.fromkeys(calls, 0)
    act = parse_model((MODELS_DIR / "t4_twisted_circle.model").read_text()).actions["rot"]
    for trunc in (0, 3, 6):
        assert count(act, trunc) == zero
    rng = random.Random("cartan-count")
    assert count(closed_action(rng, 3, 2, True, False), 4) == zero
    kt = TorusAction(kodaira_thurston(), [[0, 0, 0, 1]], alpha=[Form.generator(4, 1)])
    assert count(kt, 3) == zero
