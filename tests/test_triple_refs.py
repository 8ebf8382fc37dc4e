"""Differential tests: the steps moved onto Gaussian-integer triples against
their Q versions.

d_H's matrix is built by mask arithmetic: each set bit g of a mask moves the
terms of d(e_g) onto the rest of the mask, and H's terms are wedged on.  The
reference (tests/conftest.py) applies `d_twisted` to each unit form and reads
the coefficients as Q.  The i-eigenspace, the independence, isotropy and
transversality checks and the level grading run on triples; their references
take dense kernels and ranks and Q sums of the pairing.  Values and error
messages must agree exactly, except that a model with a parameter or pi
coefficient is refused before any matrix is built, naming the first such
coefficient as the model states it, where the reference names a matrix entry.
"""

import random

import pytest

from conftest import (
    is_coefficient_refusal, model_coefficients, random_form, random_nilpotent, random_q,
    ref_betti_numbers, ref_d_matrix, ref_i_eigenspace, ref_isotropy_check, ref_transverse,
    ref_twisted_cohomology, shipped_structures, stated_refusal, wide_q,
)
from gcalg import gcmaps, linalg
from gcalg.forms import Form, _triples, basis_masks, contract_vector, wedge
from gcalg.gcmaps import (
    GCMap, IsotropicSubspace, _transverse, b_transform, complex_structure, i_eigenspace,
    symplectic_map, uk_grading,
)
from gcalg.models import (
    Model, _d_matrix, _unit_images, betti_numbers, d, twisted_cohomology,
)
from gcalg.scalars import ONE, Q, QZERO, Scalar, _q


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)


def coefficient(rng, kind):
    c = Scalar.from_q(random_q(rng))
    if kind == "param" and rng.random() < 0.3:
        return rng.choice([-Scalar.parameter("s"), Scalar.parameter("s") + ONE,
                           Scalar.parameter("s")])
    if kind == "pi" and rng.random() < 0.3:
        return c * Scalar.pi()
    return c


def random_almost_abelian(rng, n, kind):
    """d(e_g) = e1 ^ sum_h A[g][h] e_h over h >= 2, so d^2 = 0 for any A.  A
    diagonal entry of A puts e_g in d(e_g), so two bits of one mask move onto
    the same key: those entries are sums, and opposite diagonal entries (s and
    -s) cancel.  H, on about half the draws, is e1 wedge a 2-form."""
    table = [Form.zero(n)] * min(n, 1)
    for g in range(2, n + 1):
        terms = {}
        for h in rng.sample(range(2, n + 1), rng.randint(0, min(3, n - 1))):
            terms[1 | 1 << (h - 1)] = coefficient(rng, kind)
        if rng.random() < 0.6:
            terms[1 | 1 << (g - 1)] = coefficient(rng, kind)
        table.append(Form(n, terms))
    model = Model(n, table)
    if n < 3 or rng.random() < 0.5:
        return model
    pairs = [mk for mk in basis_masks(n) if mk.bit_count() == 2 and not mk & 1]
    h = Form(n, {1 | mk: coefficient(rng, kind) for mk in rng.sample(pairs, min(2, len(pairs)))})
    return model.with_twist(h)


def models():
    rng = random.Random("triple-refs-models")
    out = [model for model, _ in shipped_structures()]
    for n in range(8):
        for kind in ("gauss", "param", "pi"):
            out += [random_nilpotent(rng, n, kind), random_almost_abelian(rng, n, kind)]
    return out


def _refused_as_stated(model, got, want):
    """got is want, or, where the reference refuses a coefficient that is not
    Gaussian, the refusal of the first one the model states."""
    if isinstance(want, tuple) and is_coefficient_refusal(want[1]):
        want = "ValueError", stated_refusal(model_coefficients(model))
    return got == want


def test_d_matrix_matches_unit_forms_through_d_twisted():
    seen = {"values": 0, "errors": set()}
    for model in models():
        got = _outcome(_d_matrix, model)
        assert _refused_as_stated(model, got, _outcome(ref_d_matrix, model, basis_masks(model.n)))
        if isinstance(got, tuple):
            seen["errors"].add(got[1])
        else:
            seen["values"] += 1
        for fn, ref in ((twisted_cohomology, ref_twisted_cohomology),
                        (betti_numbers, ref_betti_numbers)):
            assert _refused_as_stated(model, _outcome(fn, model), _outcome(ref, model)), (
                fn.__name__, model)
    assert seen["values"] > 30
    assert {"scalar s is not a plain Gaussian rational",
            "scalar -s is not a plain Gaussian rational",
            "scalar s+1 is not a plain Gaussian rational"} <= seen["errors"]
    assert any(e.endswith("*pi is not a plain Gaussian rational") for e in seen["errors"])


def test_d_matrix_sums_moves_onto_one_key():
    # d(e2) = e1^e2 and d(e3) = c e1^e3: column e2^e3 gets e1^e2^e3 from e2
    # and c e1^e2^e3 from e3, which cancel for c = -1
    for c3, want in ((1, {0b111: Q(2)}), (-1, {})):
        model = Model(3, [Form.zero(3), Form(3, {0b011: ONE}), Form(3, {0b101: Scalar.rational(c3)})])
        masks = basis_masks(3)
        col = masks.index(0b110)
        got = {masks[r]: _q(*row[col]) for r, row in enumerate(_d_matrix(model))
               if col in row}
        assert got == want
    # with -s and s on the diagonal the parametric terms cancel in column
    # e2^e3, and no matrix is built: the refusal names d(e2)'s -s, which the
    # reference meets first in column e2 and d(e3)'s s would not have named
    s = Scalar.parameter("s")
    model = Model(3, [Form.zero(3), Form(3, {0b011: -s}), Form(3, {0b101: s})])
    assert _outcome(_d_matrix, model) == ("ValueError", "scalar -s is not a plain Gaussian rational")
    assert _outcome(ref_d_matrix, model, basis_masks(3))[0] == "ValueError"


def test_unit_images_add_a_twist_onto_the_moves_of_its_table():
    # a twist of 1-forms lands where the 2-form moves of d do, and a 0-form
    # table -xi contracts: both passes add into one image per mask, as the
    # Form sums d(e_mask) - h ^ e_mask and -i_xi(e_mask) - h ^ e_mask do,
    # term order included, and a sum that cancels leaves no entry
    rng = random.Random("d-column-twist")
    cases = []
    for n in range(1, 6):
        for _ in range(3):
            for model in (random_nilpotent(rng, n, "gauss"), random_almost_abelian(rng, n, "gauss")):
                h = Form(n, {1 << g: coefficient(rng, "gauss") for g in range(n) if rng.random() < 0.6})
                xi = [coefficient(rng, "gauss") if rng.random() < 0.6 else Scalar() for _ in range(n)]
                cases.append((model, h, xi))
    # d(e2) = e1^e2 and h = e1: in column e2 the move and the twist cancel
    model = Model(2, [Form.zero(2), Form(2, {0b11: ONE})])
    cases.append((model, Form(2, {0b01: ONE}), [ONE, ONE]))
    sums = {"collisions": 0, "cancelled": 0}
    for model, h, xi in cases:
        n = model.n
        tables = {"d": [_triples(dg.terms.items()) for dg in model.d_table],
                  "contraction": [[] if c.is_zero() else _triples([(0, -c)]) for c in xi]}
        twist = _triples(h.terms.items())
        images = {name: _unit_images(n, table, twist) for name, table in tables.items()}
        assert all(len(per_mask) == 1 << n for per_mask in images.values())
        for mask in range(1 << n):
            unit = Form(n, {mask: ONE})
            wedged = wedge(h, unit)
            for name in tables:
                moved = d(model, unit) if name == "d" else -contract_vector(xi, unit)
                want = moved - wedged
                sums["collisions"] += bool(moved.terms.keys() & wedged.terms.keys())
                sums["cancelled"] += len(want.terms) < len(moved.terms.keys() | wedged.terms.keys())
                got = images[name][mask]
                assert list(got) == list(want.terms)
                assert [_q(*t) for t in got.values()] == [
                    c.as_q() for c in want.terms.values()]
    assert sums["collisions"] > 20 and sums["cancelled"] > 0


def _omega(n):
    out = Form.zero(n)
    for a in range(1, n, 2):
        out = out + Form.monomial(n, (a, a + 1))
    return out


def structures():
    """J+, J- and symplectic at n = 2, 4, 6, plain and under two random
    rational B-shears each."""
    rng = random.Random("triple-refs-structures")
    out = []
    for n in (2, 4, 6):
        for j in (complex_structure(n // 2), complex_structure(n // 2, -1),
                  symplectic_map(_omega(n))):
            out.append(j)
            out += [b_transform(j, random_form(rng, n, degrees={2}, complex_ok=False))
                    for _ in range(2)]
    return out


def test_i_eigenspace_matches_dense_kernel():
    for j in structures():
        space = i_eigenspace(j)
        assert space.basis == ref_i_eigenspace(j)
        assert _transverse(space) and ref_transverse(space.basis)


def test_valid_structures_have_transverse_eigenspaces_of_dim_v():
    # i_eigenspace checks neither fact: J real with J^2 = -1 splits V + V*
    # into the i- and (-i)-eigenspaces, each the conjugate of the other, so
    # past require_valid each has dimension dim V and they meet only in 0
    rng = random.Random("valid-eigenspaces")
    symplectic = 0
    for n in (2, 4, 6):
        bases = [complex_structure(n // 2), complex_structure(n // 2, -1), symplectic_map(_omega(n))]
        for _ in range(4):
            try:
                bases.append(symplectic_map(random_form(rng, n, degrees={2}, max_terms=n,
                                                        complex_ok=False)))
                symplectic += 1
            except ValueError:  # degenerate
                pass
        for base in bases:
            for j in [base] + [b_transform(base, random_form(rng, n, degrees={2}, complex_ok=False))
                               for _ in range(2)]:
                gcmaps.require_valid(j)
                space = i_eigenspace(j)
                assert space.dimension == n and _transverse(space)
    assert symplectic >= 4


def _conjugated(j, s):
    """S J S^-1 for an invertible rational S: J^2 = -1 still, pairing not kept."""
    inv = linalg.invert(s)
    return GCMap(j.dim, linalg.mat_mul(s, linalg.mat_mul(j.matrix, inv)))


def test_eigenspace_checks_keep_their_messages():
    rng = random.Random("triple-refs-invalid")
    bad = []
    for n in (2, 4):
        j = complex_structure(n // 2)
        bad.append(GCMap(n, linalg.zeros(2 * n, 2 * n)))
        bad.append(GCMap(n, [[x + x for x in row] for row in j.matrix]))
        for _ in range(3):
            s = linalg.identity(2 * n)
            for _ in range(2):
                s[rng.randrange(2 * n)][rng.randrange(2 * n)] = Q(rng.randint(1, 3))
            if linalg.rank(s) == 2 * n:
                bad.append(_conjugated(j, s))
    outcomes = [_outcome(lambda: i_eigenspace(j).basis) for j in bad]
    assert outcomes == [_outcome(ref_i_eigenspace, j) for j in bad]
    assert all(o[1].startswith("invalid structure: ") for o in outcomes if isinstance(o, tuple))


def test_isotropy_and_transversality_match_q_checks():
    rng = random.Random("triple-refs-isotropy")
    seen = set()
    for j in structures():
        n = j.dim
        basis = i_eigenspace(j).basis
        conj = tuple(tuple(x.conjugate() for x in v) for v in basis)
        cases = [basis, basis[:1], (), basis + basis[:1], basis[:1] + conj[:1],
                 tuple(tuple(x * Q(3, 7) for x in v) for v in basis)]
        for _ in range(2):  # one entry moved, with a wide denominator
            rows = [list(v) for v in basis]
            rows[rng.randrange(n)][rng.randrange(2 * n)] += wide_q(rng)
            cases.append(tuple(map(tuple, rows)))
        real = tuple(tuple(QZERO if c != i else Q(1) for c in range(2 * n)) for i in range(n))
        cases += [real, real[:1] + basis[1:]]
        for rows in cases:
            want = _outcome(ref_isotropy_check, n, rows)
            got = _outcome(IsotropicSubspace, n, rows)
            if want is None:
                assert isinstance(got, IsotropicSubspace)
                assert _transverse(got) == ref_transverse(rows)
                seen.add(("ok", ref_transverse(rows)))
            else:
                assert got == want
                seen.add(want[1])
    assert seen == {("ok", True), ("ok", False), "basis vectors are linearly dependent",
                    "subspace is not isotropic"}


def test_grading_keeps_the_spectrum_check(monkeypatch):
    # a maximal isotropic space that meets its conjugate spans too little
    one, i = Q(1), Q(0, 1)

    def vec(entries):
        return tuple(entries.get(c, QZERO) for c in range(8))

    space = IsotropicSubspace(4, (vec({0: one}), vec({5: one}), vec({2: one, 3: i}),
                                  vec({6: one, 7: i})))
    monkeypatch.setattr(gcmaps, "i_eigenspace", lambda j: space)
    with pytest.raises(ValueError, match="eigenvalue spectrum escapes the expected levels "
                                         r"\(4 of 16 dimensions found\)"):
        uk_grading(complex_structure(2))


def test_grading_runs_no_rref_no_dense_vectors_and_no_form_clifford(monkeypatch):
    import gcalg.forms
    import gcalg.models

    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(linalg, "rref")
    for name in ("form_to_vec", "clifford"):
        counting(gcalg.forms, name)
        for owner in (gcmaps, gcalg.models):
            if hasattr(owner, name):
                counting(owner, name)
    js = structures()
    calls.clear()
    for j in js:
        uk_grading(j)
    assert calls == {}
    # the counters do count
    linalg.rank([[Q(1)]])
    gcalg.models.reversal_clifford_pair([QZERO] * 4, Form.unit(2))
    gcmaps.UGrading.decompose(uk_grading(complex_structure(1)), Form.unit(2))
    assert set(calls) == {"rref", "clifford", "form_to_vec"}
