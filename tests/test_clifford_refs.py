"""Differential tests: the Clifford action and the pairing on V + V*.

The package has one Clifford generator: a unit vector of V + V* maps a unit
form to a signed unit form or to zero.  `contract`, `contract_vector` and
`clifford` each sum it over a form's terms and a vector's nonzero
coordinates.  The references in conftest are the first versions: a
contraction with its own sign loop, a sum of contractions, and contractions
plus a wedge with a built 1-form.  They are compared on random forms at
n = 1..6 with Gaussian, parametric and pi coefficients and vectors with zero
entries.

The pairing is the half swap.  The isotropy check, the Kahler pairing
-P J1 J2 and the transversality check are compared with the dense pairing
matrix on i-eigenspaces of B-sheared structures and on perturbed bases, and
`mat_vec` is pinned to multiply only the nonzero entries of its vector.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    dense_mul, random_q, ref_clifford, ref_contract, ref_contract_vector, ref_pairing_matrix,
)
from gcalg import linalg
from gcalg.forms import Form, clifford, contract, contract_vector
from gcalg.gcmaps import (
    IsotropicSubspace, _transverse, annihilator, b_transform, complex_structure, i_eigenspace,
    kahler_check, symplectic_map,
)
from gcalg.scalars import Q, QZERO, Scalar
from test_operator_refs import random_symplectic, standard_omega, structures

T, S = Scalar.parameter("t"), Scalar.parameter("s")


def random_scalar(rng, pi_power, zero_frac=0.0):
    """Zero, a Gaussian rational, or a polynomial in t and s, times pi^pi_power."""
    if rng.random() < zero_frac:
        return Scalar()
    kind = rng.choice(["q", "q", "t", "poly"])
    q = Scalar.from_q(random_q(rng))
    if kind == "t":
        q = q * T
    elif kind == "poly":
        q = q * T * S + Scalar.from_q(random_q(rng)) * T * T + Scalar.from_q(random_q(rng))
    return q * Scalar.pi(pi_power) if pi_power else q


def random_terms(rng, n, pi_power):
    return Form(n, {rng.randrange(1 << n): random_scalar(rng, pi_power)
                    for _ in range(rng.randint(1, 6))})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_clifford_matches_reference(n):
    rng = random.Random("clifford-%d" % n)
    for trial in range(25):
        # one pi power per form and per vector gives finished values; every
        # fifth trial mixes pi powers inside the vector, so a coefficient may
        # hold two powers, and another fifth has plain int, Fraction and Q
        # coordinates
        pa, pv = rng.randint(0, 1), rng.randint(0, 1)
        a = random_terms(rng, n, pa)
        mixed = trial % 5 == 4
        v = [random_scalar(rng, rng.randint(0, 1) if mixed else pv, zero_frac=0.4)
             for _ in range(2 * n)]
        if trial % 5 == 3:
            v = [rng.choice([0, 0, 1, -2, Fraction(1, 3), random_q(rng)]) for _ in range(2 * n)]
        if trial == 0:
            v = [Scalar()] * (2 * n)
        got = clifford(v, a)
        assert got == ref_clifford(v, a)
        if not mixed:  # a finished value: reading each pi power does not raise
            assert {c.pi_power for c in got.terms.values()} <= {0, 1, 2}
        assert contract_vector(v[:n], a) == ref_contract_vector(v[:n], a)
        for i in range(1, n + 1):
            assert contract(i, a) == ref_contract(i, a)


def test_clifford_sum_does_not_depend_on_grouping():
    # on e1^e2 the contraction by e3 gives 1 and the two wedges pi and -pi;
    # the partial sum 1 + pi is allowed, and the finished value is 1
    pi = Scalar.pi()
    a = Form(3, {0b111: Scalar.rational(1), 0b010: pi, 0b001: pi})
    v = [0, 0, 1, 1, 1, 0]
    assert clifford(v, a) == ref_clifford(v, a) == Form.monomial(3, (1, 2))


# -- the pairing ------------------------------------------------------------------


def ref_isotropy(dim_v, rows):
    """The outcome of the isotropy check with the dense pairing matrix."""
    if rows and linalg.rank([list(v) for v in rows]) != len(rows):
        return "basis vectors are linearly dependent"
    p = ref_pairing_matrix(dim_v)
    for a in rows:
        for b in rows:
            val = dense_mul([list(a)], dense_mul(p, [[x] for x in b]))[0][0]
            if not val.is_zero():
                return "subspace is not isotropic"
    return "ok"


def isotropy(dim_v, rows):
    try:
        IsotropicSubspace(dim_v, tuple(tuple(v) for v in rows))
    except ValueError as e:
        return str(e)
    return "ok"


def sheared_spaces(rng, n):
    js = structures(rng, n) + [random_symplectic(rng, n)]
    return [i_eigenspace(j).basis for j in js]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_isotropy_matches_dense_pairing(n):
    rng = random.Random("isotropy-%d" % n)
    seen = set()
    for basis in sheared_spaces(rng, n):
        cases = [basis, basis[:1], basis[1:]]
        conj = tuple(tuple(x.conjugate() for x in v) for v in basis)
        cases.append(basis[:1] + conj[:1])  # u and its conjugate pair to nonzero
        cases.append(basis + basis[:1])  # dependent
        for _ in range(3):  # one entry moved
            rows = [list(v) for v in basis]
            r, c = rng.randrange(len(rows)), rng.randrange(2 * n)
            rows[r][c] = rows[r][c] + random_q(rng)
            cases.append(rows)
        for rows in cases:
            want = ref_isotropy(n, rows)
            assert isotropy(n, rows) == want
            seen.add(want)
    assert seen == {"ok", "subspace is not isotropic", "basis vectors are linearly dependent"}


def ref_kahler_detail(j1, j2):
    """The Kahler positivity detail with -P J1 J2 from the dense pairing."""
    a = dense_mul(j1.matrix, j2.matrix)
    g = [[-x for x in row] for row in dense_mul(ref_pairing_matrix(j1.dim), a)]
    for size, d in enumerate(linalg.leading_minors(g), start=1):
        if not (d.is_real() and d.re > 0):
            return "leading principal minor %d is %s, not positive" % (size, d)
    return ""


def test_kahler_pairing_matches_dense_pairing():
    cases = []
    for n in (2, 4, 6):
        omega = standard_omega(n)
        for sign in (1, -1):
            j2 = complex_structure(n // 2, sign)
            cases += [(symplectic_map(omega), j2), (symplectic_map(-omega), j2),
                      (j2, j2), (symplectic_map(omega), symplectic_map(omega))]
        b = Form.monomial(n, (1, 2))
        cases.append((b_transform(symplectic_map(omega), b),
                      b_transform(complex_structure(n // 2, -1), b)))
    details = set()
    for j1, j2 in cases:
        rep = kahler_check(j1, j2)
        if rep.commute:
            assert rep.detail == ref_kahler_detail(j1, j2)
            details.add(rep.ok)
    assert details == {True, False}


# -- transversality ---------------------------------------------------------------


def test_transversality_edges():
    assert not _transverse(IsotropicSubspace(2, ()))
    # a generic form on 4 generators has 8 independent Clifford images
    rep = annihilator(Form(4, {m: Scalar.from_q(Q(m + 1, m % 3)) for m in range(16)}))
    assert rep.space.dimension == 0 and not rep.transverse
    assert not annihilator(Form.generator(2, 1)).transverse
    one, i, z = Q(1), Q(0, 1), QZERO
    # V itself is real; span(e1, e2 + i e3) in V meets its conjugate in e1
    real = IsotropicSubspace(2, ((one, z, z, z), (z, one, z, z)))
    mixed = IsotropicSubspace(4, ((one, z, z, z, z, z, z, z), (z, one, i, z, z, z, z, z)))
    assert not _transverse(real) and not _transverse(mixed)
    rng = random.Random("transverse")
    for n in (2, 4):
        for basis in sheared_spaces(rng, n):
            assert _transverse(IsotropicSubspace(n, basis))
            assert _transverse(IsotropicSubspace(n, basis[:1]))


# -- mat_vec ------------------------------------------------------------------------


def test_mat_vec_multiplies_only_nonzero_entries(monkeypatch):
    rng = random.Random("mat-vec")
    calls = [0]
    mul = Q.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    for rows, cols in ((1, 1), (3, 5), (8, 8), (5, 2)):
        m = [[random_q(rng) if rng.random() < 0.6 else QZERO for _ in range(cols)]
             for _ in range(rows)]
        v = [random_q(rng) if rng.random() < 0.5 else QZERO for _ in range(cols)]
        want = [row[0] for row in dense_mul(m, [[x] for x in v])]
        monkeypatch.setattr(Q, "__mul__", counted)
        calls[0] = 0
        got = linalg.mat_vec(m, v)
        monkeypatch.setattr(Q, "__mul__", mul)
        assert got == want
        assert calls[0] == rows * sum(1 for x in v if not x.is_zero())
