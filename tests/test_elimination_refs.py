"""Differential tests: rank questions against the eliminations they replaced.

The references are the constructions the package first used: one kernel per
step of the x-degree filtration, lifted to full coordinates and stacked on
the image for a rank; ddbar intersections of re-canonicalised spans by
Zassenhaus; subcomplex coordinates from one solve per basis vector; and the
Betti ranks from one matrix per parity or degree (tests/conftest.py).  The
package reads the same answers off one RREF per matrix, with one matrix of
d_H and the product of its halves; the two must agree exactly.  That
RREF itself is checked against the dense elimination it replaced, also on
Gaussian matrices with denominators up to 10^6, and its int-triple loop
against any use of Q arithmetic; so are the row and column rank profiles
that the equivariant complex reads off one elimination per parity map, and
the complex itself against its dense first version
(ref_equivariant_cohomology) and its five-elimination version
(ref_five_eliminations).  A coefficient that is not Gaussian is refused
before any matrix, naming the first one the model states, where a reference
meets it in a matrix entry or in its per-form split.
"""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from conftest import (
    MODELS_DIR, RefSplit, cartan_coefficients, gaussian_matrix, in_span, is_coefficient_refusal,
    mat_add, mat_scale, mat_sub, model_coefficients, random_nilpotent, random_q, ref_betti_numbers,
    ref_delbar_closed_subcomplex_betti, ref_equivariant_cohomology, ref_five_eliminations, ref_intersect_spans, ref_kernel_basis,
    ref_solve, ref_split_operators, ref_twisted_cohomology, row_space, shipped_structures,
    solve_column, stated_refusal, transpose, triple, vec_to_form, wide_q,
)
from gcalg import linalg
from gcalg.cartan import (
    EqForm,
    EquivariantRanks,
    TorusAction,
    _d_eq_twisted_unchecked,
    canonical_extension,
    d_equivariant,
    equivariant_cohomology,
    monomials_of_degree,
)
from gcalg.forms import Form, basis_masks, form_to_vec
from gcalg.gcmaps import (
    b_transform,
    complex_structure,
    lifted_action_matrix,
    symplectic_map,
    uk_grading,
)
from gcalg.modelfile import parse_model
from gcalg.models import (
    BettiPair,
    DdbarReport,
    IntegrabilityError,
    Model,
    SplitOperators,
    _pure_parity,
    betti_numbers,
    d,
    d_twisted,
    ddbar_lemma_check,
    del_delbar_split,
    delbar_closed_subcomplex_betti,
    kodaira_thurston,
    split_operators,
    torus,
    twisted_cohomology,
)
from gcalg.scalars import ONE, QONE, QZERO, Q, Scalar
from oracles import rank_oracle


def ref_by_degree(act, h_g, trunc):
    model = act.model
    basis = [
        (e, mask)
        for deg in range(trunc + 1)
        for e in monomials_of_degree(act.k, deg)
        for mask in basis_masks(model.n)
    ]
    even_basis = [b for b in basis if b[1].bit_count() % 2 == 0]
    odd_basis = [b for b in basis if b[1].bit_count() % 2 == 1]

    def image(key):
        e, mask = key
        src = EqForm(act.k, model.n, trunc, {e: Form(model.n, {mask: ONE})})
        img = _d_eq_twisted_unchecked(act, h_g, src)
        return {(ee, mk): c for ee, f in img.terms.items() for mk, c in f.terms.items()}

    mat_eo = linalg.operator_matrix(image, even_basis, odd_basis)
    mat_oe = linalg.operator_matrix(image, odd_basis, even_basis)

    def graded(mat_out, mat_in, basis_list):
        im = row_space(transpose(mat_in))
        degs = [sum(e) for e, _ in basis_list]
        dims = []
        for p in range(trunc + 2):
            keep = [i for i, dg in enumerate(degs) if dg >= p]
            sub = [[row[i] for i in keep] for row in mat_out]
            rows = []
            for v in ref_kernel_basis(sub, ncols=len(keep)):
                full = [QZERO] * len(basis_list)
                for pos, i in enumerate(keep):
                    full[i] = v[pos]
                rows.append(full)
            stacked = rows + [list(r) for r in im]
            dims.append(linalg.rank(stacked) if stacked else 0)
        return [dims[p] - dims[p + 1] for p in range(trunc + 1)]

    even = graded(mat_eo, mat_oe, even_basis)
    odd = graded(mat_oe, mat_eo, odd_basis)
    return tuple(zip(even, odd))


def ref_ddbar(sp):
    dim, n, names = len(sp.masks), sp.model.n, sp.model.names
    lo, up = linalg.to_dense(sp.lower, dim), linalg.to_dense(sp.upper, dim)
    ker_lo = row_space(ref_kernel_basis(lo))
    ker_up = row_space(ref_kernel_basis(up))
    im_lo = row_space(transpose(lo))
    im_up = row_space(transpose(up))
    im_uplo = row_space(transpose(linalg.mat_mul(up, lo)))
    a = ref_intersect_spans(ker_lo, im_up, dim)
    b = ref_intersect_spans(im_lo, ker_up, dim)
    for name, space in (("ker(del) & im(delbar)", a), ("im(del) & ker(delbar)", b)):
        for row in space:
            if not in_span(row, im_uplo):
                witness = vec_to_form(row, sp.masks, n)
                return DdbarReport(
                    ok=False,
                    witness=witness,
                    detail="%s is larger than im(delbar del); witness %s"
                    % (name, witness.to_text(names)),
                )
    if len(a) != len(im_uplo) or len(b) != len(im_uplo):
        return DdbarReport(ok=False, detail="rank bookkeeping mismatch")
    return DdbarReport(ok=True)


def ref_delbar_closed_betti(m, j):
    sp = split_operators(m, j)
    kernel = ref_kernel_basis(linalg.to_dense(sp.upper, len(sp.masks)))
    if not kernel:
        return BettiPair(0, 0)
    forms = [vec_to_form(v, sp.masks, m.n) for v in kernel]
    span = row_space(kernel)

    def coords(f):
        sol = ref_solve(transpose(span), form_to_vec(f, sp.masks))
        assert sol is not None
        return sol

    def parity(f):
        degs = {mk.bit_count() % 2 for mk in f.terms}
        assert len(degs) == 1
        return degs.pop()

    even = [coords(d_twisted(m, f)) for f in forms if parity(f) == 0]
    odd = [coords(d_twisted(m, f)) for f in forms if parity(f) == 1]
    n_even = sum(1 for f in forms if parity(f) == 0)
    rank_e, rank_o = linalg.rank(even), linalg.rank(odd)
    return BettiPair(n_even - rank_e - rank_o, len(forms) - n_even - rank_o - rank_e)


def assert_same_ranks(act, h_g, trunc):
    assert d_equivariant(act, h_g).is_zero()
    got = equivariant_cohomology(act, h_g, trunc).by_degree
    assert got == ref_by_degree(act, h_g, trunc)


SHIPPED_ACTIONS = [
    (path.name, name)
    for path in sorted(MODELS_DIR.glob("*.model"))
    for name in parse_model(path.read_text()).actions
]


@pytest.mark.parametrize("model_file, action", SHIPPED_ACTIONS)
def test_shipped_actions_match_stacked_kernels(model_file, action):
    act = parse_model((MODELS_DIR / model_file).read_text()).actions[action]
    assert act.k == 1
    for trunc in range(1, 6):
        assert_same_ranks(act, act.h_equivariant(trunc), trunc)


def _q(rng):
    return Scalar.from_q(random_q(rng, complex_ok=False))


def test_rank_two_action_matches_stacked_kernels():
    # T^3 rotated along e1, e2; i_1 alpha_2 + i_2 alpha_1 = 0 keeps h_G closed
    rng = random.Random(7)
    c = _q(rng)
    a1 = Form(3, {0b100: _q(rng), 0b010: c})
    a2 = Form(3, {0b100: _q(rng), 0b001: -c})
    act = TorusAction(torus(3), [[1, 0, 0], [0, 1, 0]], alpha=[a1, a2])
    for trunc in range(1, 4):
        assert_same_ranks(act, act.h_equivariant(trunc), trunc)


def _random_closed_twist(rng, family):
    """(action, h_G) with h_G = H + x alpha, d alpha = i_xi H, i_xi alpha = 0."""
    if family == "KT":
        # d(e3) = e1^e2; xi = e4 and i_4 (b e1^e2^e4) = b d(e3)
        b = _q(rng)
        model = kodaira_thurston(Form(4, {0b0111: _q(rng), 0b1011: b}))
        alpha = Form(4, {0b0100: b, 0b0001: _q(rng)})
        act = TorusAction(model, [[0, 0, 0, 1]], alpha=[alpha])
    else:
        n = int(family[1])
        rest = range(1, n)  # bits of e2 .. en
        h = Form(n, {0b1110: _q(rng)}) if n == 4 else Form.zero(n)
        alpha = Form(n, {1 << i: _q(rng) for i in rest if rng.random() < 0.7})
        act = TorusAction(torus(n, h), [[1] + [0] * (n - 1)], alpha=[alpha])
    return act


@pytest.mark.parametrize("family", ["T3", "T4", "KT"])
def test_random_closed_twists_match_stacked_kernels(family):
    rng = random.Random("twist-" + family)
    for trunc in (1, 2, 3, 2):
        act = _random_closed_twist(rng, family)
        assert_same_ranks(act, act.h_equivariant(trunc), trunc)


def _shears(model, j, rng):
    """The structure and a B-shear of it by a closed constant 2-form."""
    n = model.n
    closed = [
        m for m in basis_masks(n) if m.bit_count() == 2 and d(model, Form(n, {m: ONE})).is_zero()
    ]
    b = Form(n, {m: _q(rng) for m in rng.sample(closed, min(2, len(closed)))})
    return [j, b_transform(j, b)]


def test_ddbar_reports_match_spans_of_canonical_rows():
    rng = random.Random(11)
    cases = shipped_structures() + [
        (torus(4), complex_structure(2, sign=-1)),
        (torus(4), symplectic_map(Form(4, {0b0011: ONE, 0b1100: ONE}))),
        (torus(6), complex_structure(3)),
        (torus(6, Form(6, {0b100011: ONE})), complex_structure(3)),
    ]
    verdicts = set()
    for model, j in cases:
        for jj in _shears(model, j, rng):
            sp = split_operators(model, jj)
            got = ddbar_lemma_check(model, jj, ops=sp)
            assert got == ref_ddbar(sp)
            verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_delbar_closed_betti_matches_solved_coordinates():
    for model, j in shipped_structures():
        assert delbar_closed_subcomplex_betti(model, j) == ref_delbar_closed_betti(model, j)


def test_delbar_closed_betti_builds_d_h_once(monkeypatch):
    # d_H is lower + upper, the sum of the halves split_operators holds, so
    # d_H's matrix is built once per call, inside split_operators
    import gcalg.models

    calls = [0]
    original = gcalg.models._d_matrix

    def counted(m):
        calls[0] += 1
        return original(m)

    monkeypatch.setattr(gcalg.models, "_d_matrix", counted)
    for model, j in shipped_structures():
        calls[0] = 0
        got = delbar_closed_subcomplex_betti(model, j)
        assert calls[0] == 1
        assert got == ref_delbar_closed_subcomplex_betti(model, j)
        sp = split_operators(model, j)
        size = len(sp.masks)
        halves = linalg.sparse_comb(((1, 0, 1), sp.lower), ((1, 0, 1), sp.upper))
        assert linalg.to_dense(halves, size) == linalg.to_dense(original(model), size)


def test_pure_parity_reads_the_masks_of_a_row():
    # the parity of a kernel vector is that of the masks of its columns
    t = (1, 0, 1)
    assert _pure_parity({0: t, 3: t}, [0b1, 0b11, 0b101, 0b111]) == 1
    assert _pure_parity({1: t}, [0b1, 0b11]) == 0
    with pytest.raises(AssertionError, match="basis vector of mixed parity"):
        _pure_parity({0: t, 1: t}, [0b1, 0b11])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)


def test_betti_ranks_match_parity_and_degree_blocks_on_random_models():
    # n = 0..7 with Gaussian, parametric and pi coefficients, with and
    # without H: values and error messages must be those of the blocks
    rng = random.Random("nilpotent-betti")
    seen = {"values": 0, "errors": set(), "delbar": 0}
    for n in range(8):
        for kind in ("gauss", "gauss", "param", "param", "pi", "pi"):
            model = random_nilpotent(rng, n, kind)
            checks = [(twisted_cohomology, ref_twisted_cohomology, (model,)),
                      (betti_numbers, ref_betti_numbers, (model,))]
            if n in (2, 4) or (n == 6 and kind == "gauss"):
                omega = Form(n, {3 << (2 * i): Scalar.rational(rng.choice([-2, -1, 1, 3]), 2)
                                 for i in range(n // 2)})  # sum of c_i e_2i-1^e_2i
                for j in (complex_structure(n // 2), symplectic_map(omega)):
                    checks.append((delbar_closed_subcomplex_betti,
                                   ref_delbar_closed_subcomplex_betti, (model, j)))
            for fn, ref, args in checks:
                got, want = _outcome(fn, *args), _outcome(ref, *args)
                if isinstance(want, tuple) and is_coefficient_refusal(want[1]):
                    want = "ValueError", stated_refusal(model_coefficients(model))
                assert got == want, (fn.__name__, model, kind)
                if isinstance(got, tuple) and isinstance(got[0], str):
                    seen["errors"].add(got[1])
                else:
                    seen["values"] += 1
                if fn is delbar_closed_subcomplex_betti and isinstance(got, BettiPair):
                    seen["delbar"] += 1
    assert seen["values"] > 40 and seen["delbar"] > 5
    # parametric and pi coefficients are named as stated, twists reach the
    # degree check
    assert {"integer grading needs a zero twisting form",
            "scalar s+1 is not a plain Gaussian rational",
            "scalar -s is not a plain Gaussian rational"} <= seen["errors"]
    assert any(e.endswith("*pi is not a plain Gaussian rational") for e in seen["errors"])


def test_one_rref_per_matrix(monkeypatch):
    calls = {"rref": 0, "echelon": 0, "pivots": 0, "rank_profiles": 0, "solve": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, counted)

    def count(fn, *args, **kwargs):
        calls.update(rref=0, echelon=0, pivots=0, rank_profiles=0, solve=0)
        fn(*args, **kwargs)
        return dict(calls)

    act = parse_model((MODELS_DIR / "t4_twisted_circle.model").read_text()).actions["rot"]
    for trunc in (2, 4, 6):
        # one per parity map, whatever trunc is, whose row and column rank
        # profiles give every rank, so none runs back substitution
        got = count(equivariant_cohomology, act, act.h_equivariant(trunc), trunc)
        assert got == {"rref": 0, "echelon": 0, "pivots": 0, "rank_profiles": 2, "solve": 0}
    mf = parse_model((MODELS_DIR / "kodaira_thurston.model").read_text())
    j = mf.structures["Jc"]
    sp = split_operators(mf.model, j)
    # the image and kernel of P = upper lower, and the canonical bases of
    # upper(ker P) and lower(ker P), all on sparse rows of triples
    got = count(ddbar_lemma_check, mf.model, j, ops=sp)
    assert got == {"rref": 0, "echelon": 4, "pivots": 0, "rank_profiles": 0, "solve": 0}
    assert count(split_operators, mf.model, j) == {
        "rref": 0, "echelon": 0, "pivots": 0, "rank_profiles": 0, "solve": 0}
    # the kernel of the upper half and its canonical basis, then the images'
    # rank from pivots alone
    got = count(delbar_closed_subcomplex_betti, mf.model, j)
    assert got == {"rref": 0, "echelon": 2, "pivots": 1, "rank_profiles": 0, "solve": 0}


# -- the level split of d_H ---------------------------------------------------
# The first reference is the per-mask split the package first used: the level
# grading, then one del_delbar_split per basis form.  The package reads the
# halves off two commutators with the lift instead; the two must agree.  The
# second reference takes the same commutators with dense products and sums
# (ref_split_operators, tests/conftest.py), as the package did before its
# products went sparse; it is the one used at n = 6, where the per-mask split
# takes half a minute.


def ref_per_mask_split(m, j):
    g = uk_grading(j)
    masks = tuple(basis_masks(m.n))
    halves = {mk: del_delbar_split(m, j, Form(m.n, {mk: ONE}), grading=g) for mk in masks}
    lower = linalg.operator_matrix(lambda mk: halves[mk][0].terms, masks, masks)
    upper = linalg.operator_matrix(lambda mk: halves[mk][1].terms, masks, masks)
    return masks, tuple(map(tuple, lower)), tuple(map(tuple, upper))


def _split_or_error(fn, m, j):
    """(masks, lower, upper) with dense tuple halves, or (message, residual)."""
    try:
        sp = fn(m, j)
    except IntegrabilityError as err:
        return str(err), err.residual
    if isinstance(sp, SplitOperators):
        assert sp.model is m
        size = len(sp.masks)
        return (sp.masks,) + tuple(tuple(map(tuple, linalg.to_dense(h, size)))
                                   for h in (sp.lower, sp.upper))
    if isinstance(sp, RefSplit):
        return sp.masks, sp.lower, sp.upper
    return sp


def _random_three_form(rng, n):
    masks = [m for m in basis_masks(n) if m.bit_count() == 3]
    return Form(n, {m: _q(rng) for m in rng.sample(masks, 2)})


def _ddbar_workload_cases(rng):
    """The twisted families of the ddbar benchmark at n = 4, each structure
    sheared by a closed B in e1^e3, e1^e4: flat T^4 with H on every triple,
    and an e1^e2^e4 twist, with J+, J- and a symplectic form;
    Kodaira-Thurston twisted by e1^e2^e3 and e1^e2^e4 with J+ and J-.
    Returns (family, structure kind, model, j)."""
    def q():
        return Scalar.rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))

    out = []
    triples = [m for m in basis_masks(4) if m.bit_count() == 3]
    for family in ("flatH", "h124", "ktH"):
        for kind in ("J+", "J-", "w"):
            if family == "flatH":
                model = torus(4, Form(4, {m: q() for m in triples}))
            elif family == "h124":
                model = torus(4, Form(4, {0b1011: q()}))
            elif kind == "w":
                continue
            else:
                model = kodaira_thurston(Form(4, {0b0111: q(), 0b1011: q()}))
            if kind == "w":
                j = symplectic_map(Form(4, {0b0011: q(), 0b1100: q()}))
            else:
                j = complex_structure(2, sign=1 if kind == "J+" else -1)
            out.append((family, kind, model, b_transform(j, Form(4, {0b0101: q(), 0b1001: q()}))))
    return out


def test_split_matches_per_mask_split():
    rng = random.Random(13)
    cases = []
    for model, j in shipped_structures():
        cases += [(model, jj) for jj in _shears(model, j, rng) + _shears(model, j, rng)[1:]]
    w4 = symplectic_map(Form(4, {0b0011: ONE, 0b1100: ONE}))
    for j in (complex_structure(2), complex_structure(2, sign=-1), w4):
        cases += [(torus(4, _random_three_form(rng, 4)), j) for _ in range(2)]
    workload = _ddbar_workload_cases(rng)
    cases += [(model, j) for _, _, model, j in workload]
    # twisted T^6: integrable for one twist, a stray component for the other
    t6 = [(torus(6, Form(6, {h: ONE})), complex_structure(3)) for h in (0b100011, 0b101001)]
    cases += t6
    nonintegrable = []
    for model, j in cases:
        ref = _split_or_error(ref_split_operators, model, j)
        if model.n <= 4:
            assert _split_or_error(ref_per_mask_split, model, j) == ref
        assert _split_or_error(split_operators, model, j) == ref
        nonintegrable.append(isinstance(ref[0], str))
    assert set(nonintegrable) == {True, False}
    tail = nonintegrable[len(cases) - len(workload) - len(t6):]
    assert tail[len(workload):] == [False, True]
    # J+ and J- split under every twist; the twists break the symplectic forms
    for (family, kind, _, _), stray in zip(workload, tail):
        assert stray == (kind == "w")


def test_split_of_parametric_twist_fails_as_the_per_mask_split():
    # both refuse it; the per-mask split words a parameter its own way, the
    # split names it
    model = torus(4, Form(4, {0b0111: Scalar.parameter("t")}))
    with pytest.raises(ValueError) as ref:
        ref_per_mask_split(model, complex_structure(2))
    with pytest.raises(ValueError) as got:
        split_operators(model, complex_structure(2))
    assert str(ref.value) == "decomposition needs parameter-free coefficients"
    assert str(got.value) == "scalar t is not a plain Gaussian rational"


def test_split_on_twisted_t6_moves_levels_by_one():
    # the per-mask reference takes about half a minute here
    model = torus(6, Form(6, {0b100011: ONE}))
    j = complex_structure(3)
    sp = split_operators(model, j)
    masks = basis_masks(6)
    dmat = linalg.operator_matrix(
        lambda mk: d_twisted(model, Form(6, {mk: ONE})).terms, masks, masks
    )
    lift = lifted_action_matrix(j)
    assert tuple(sp.masks) == tuple(masks)
    lower, upper = (linalg.to_dense(h, len(masks)) for h in (sp.lower, sp.upper))
    assert mat_add(lower, upper) == dmat
    lift = linalg.to_dense(lift, len(masks))
    for half, eigen in ((lower, Q(0, 1)), (upper, Q(0, -1))):
        assert any(not x.is_zero() for row in half for x in row)
        comm = mat_sub(linalg.mat_mul(lift, half), linalg.mat_mul(half, lift))
        assert comm == mat_scale(half, eigen)


def _solvable_symplectic():
    """d(e1) = e1^e2, d(e3) = e2^e3 with w = e1^e3 + e2^e4: the interchange
    law holds and both halves are nonzero, so closedness is really tested."""
    z = Form.zero(4)
    model = Model(4, [Form.monomial(4, (1, 2)), z, Form.monomial(4, (2, 3)), z])
    j = symplectic_map(Form.monomial(4, (1, 3)) + Form.monomial(4, (2, 4)))
    act = TorusAction(model, [[0, 0, 0, 0]], mu_diff=[z], alpha=[z])
    return model, j, act


def ref_extension_check(grading, phi, lo, up):
    """The component-by-component closedness check the extension first ran."""
    masks = basis_masks(phi.n)
    for comp in grading.decompose(phi).values():
        vec = form_to_vec(comp, masks)
        if any(not x.is_zero() for x in linalg.mat_vec(lo, vec)):
            return "component is not closed for the lower half"
        if any(not x.is_zero() for x in linalg.mat_vec(up, vec)):
            return "component is not closed for the upper half"
    return None


def test_extension_closedness_errors_match_component_check():
    model, j, act = _solvable_symplectic()
    sp = split_operators(model, j)
    assert ddbar_lemma_check(model, j, ops=sp).ok
    rng = random.Random(17)
    grading = uk_grading(j)
    phis = [Form(4, {mk: _q(rng) for mk in rng.sample(range(16), 2)}) for _ in range(8)]
    # lower-exact forms, and level -1 and +1 forms closed for one half only
    lower, upper = (linalg.to_dense(h, len(sp.masks)) for h in (sp.lower, sp.upper))
    phis += [vec_to_form(linalg.mat_vec(lower, form_to_vec(f, sp.masks)), sp.masks, 4)
             for f in phis[:4]]
    e1, e124 = Form.monomial(4, (1,), Scalar.imaginary(1)), Form.monomial(4, (1, 2, 4))
    phis += [e1 + e124, -e1 + e124]
    messages = set()
    for phi in phis:
        want = ref_extension_check(grading, phi, lower, upper)
        try:
            canonical_extension(act, j, phi)
            got = None
        except ValueError as err:
            got = str(err)
        assert got == want
        messages.add(want)
    assert messages == {
        None,
        "component is not closed for the lower half",
        "component is not closed for the upper half",
    }
    with pytest.raises(ValueError) as err:
        canonical_extension(act, j, Form(4, {0b0101: Scalar.parameter("t")}))
    assert str(err.value) == "scalar t is not a plain Gaussian rational"


def test_extension_names_the_half_failing_on_the_top_level():
    # on the solvable model times T^2, a sits at level 0 and fails only the
    # upper half, b sits at level -1 and fails the lower half: the component
    # check names the upper half although the lower half fails on a + b
    z = Form.zero(6)
    model = Model(6, [Form.monomial(6, (1, 2)), z, Form.monomial(6, (2, 3)), z, z, z])
    j = symplectic_map(
        Form.monomial(6, (1, 3)) + Form.monomial(6, (2, 4)) + Form.monomial(6, (5, 6))
    )
    act = TorusAction(model, [[0] * 6], mu_diff=[z], alpha=[z])
    i = Scalar.imaginary(1)
    a = (Form.monomial(6, (1,)) - Form.monomial(6, (1, 2, 4), i)
         + Form.monomial(6, (1, 5, 6), i) + Form.monomial(6, (1, 2, 4, 5, 6)))
    b = Form.monomial(6, (1, 4)) - Form.monomial(6, (1, 4, 5, 6), i)
    sp = split_operators(model, j)
    lower = linalg.to_dense(sp.lower, len(sp.masks))
    assert any(not x.is_zero() for x in linalg.mat_vec(lower, form_to_vec(a + b, sp.masks)))
    with pytest.raises(ValueError) as err:
        canonical_extension(act, j, a + b)
    assert str(err.value) == "component is not closed for the upper half"


def test_split_builds_no_grading(monkeypatch):
    import gcalg.cartan
    import gcalg.models

    calls = {"rref": 0, "echelon": 0, "uk_grading": 0, "del_delbar_split": 0}

    def counting(name, owner):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting("rref", linalg)
    counting("echelon", linalg)
    counting("uk_grading", gcalg.models)
    counting("del_delbar_split", gcalg.models)
    monkeypatch.setattr(gcalg.cartan, "uk_grading", gcalg.models.uk_grading)

    def count(fn, *args):
        calls.update(rref=0, echelon=0, uk_grading=0, del_delbar_split=0)
        fn(*args)
        return dict(calls)

    mf = parse_model((MODELS_DIR / "kodaira_thurston.model").read_text())
    model, j = mf.model, mf.structures["Jc"]
    assert count(split_operators, model, j) == {
        "rref": 0, "echelon": 0, "uk_grading": 0, "del_delbar_split": 0}
    # four eliminations of sparse rows replace the four dense rref calls
    assert count(ddbar_lemma_check, model, j) == {
        "rref": 0, "echelon": 4, "uk_grading": 0, "del_delbar_split": 0}
    t2 = parse_model((MODELS_DIR / "t2_symplectic.model").read_text())
    got = count(canonical_extension, t2.actions["rot"], t2.structures["Jw"], Form.generator(2, 2))
    assert got["uk_grading"] == 0
    solv, jw, act = _solvable_symplectic()
    assert count(canonical_extension, act, jw, Form.generator(4, 4))["uk_grading"] == 0
    # a non-integrable rational split reads its stray part off the commutators
    # too (the per-mask split takes about 6 s here)
    t6 = torus(6, Form.monomial(6, (1, 4, 6), Scalar.rational(2)))
    calls.update(rref=0, echelon=0, uk_grading=0, del_delbar_split=0)
    with pytest.raises(IntegrabilityError) as err:
        split_operators(t6, complex_structure(3))
    assert calls == {"rref": 0, "echelon": 0, "uk_grading": 0, "del_delbar_split": 0}
    assert str(err.value) == (
        "structure is not integrable on this model; stray component "
        "1/2*e1^e3^e5-1/2*e1^e4^e6-1/2*e2^e3^e6-1/2*e2^e4^e5"
    )


def test_split_rejects_level_steps_other_than_one_and_three(monkeypatch):
    # d_H is a derivation plus a wedge with H, so it moves levels by 1 or 3;
    # an operator with a level-0 part must trip the self-check, not be split
    import gcalg.models

    original = gcalg.models._d_matrix

    def plus_identity(m):  # d_H + 1, row by row
        return [{**row, i: linalg._add_mul(row.get(i), (1, 0, 1), (1, 0, 1))}
                for i, row in enumerate(original(m))]

    monkeypatch.setattr(gcalg.models, "_d_matrix", plus_identity)
    with pytest.raises(AssertionError, match="steps other than 1 and 3"):
        split_operators(torus(4), complex_structure(2))


# -- the elimination kernel ----------------------------------------------------
# The reference is the dense Gauss-Jordan `rref` the package first used: first
# nonzero row as the pivot, every entry of the pivot row multiplied.  The
# package eliminates on sparse rows with a fewest-nonzeros pivot; the RREF is
# unique, so rows and pivots must agree exactly.


def ref_rref(rows):
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def sparse_matrix(rng, rows, cols, density):
    return [[random_q(rng) if rng.random() < density else QZERO for _ in range(cols)]
            for _ in range(rows)]


def assert_same_rref(mat):
    want = ref_rref(mat)
    assert linalg.rref(mat) == want
    return want


@pytest.mark.parametrize("density", [0.01, 0.05, 0.2, 0.5])
def test_rref_matches_dense_on_random_sparse_matrices(density):
    rng = random.Random("rref-%s" % density)
    size = 24 if density < 0.1 else 14  # dense Gaussian rationals grow fast
    for _ in range(40):
        rows, cols = rng.randint(1, size), rng.randint(1, size)
        mat = sparse_matrix(rng, rows, cols, density)
        if rows > 1 and rng.random() < 0.3:
            mat[rng.randrange(rows)] = list(mat[0])  # a duplicate row
        assert_same_rref(mat)


def test_rref_edge_shapes():
    rng = random.Random("rref-edges")
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[], []]) == ([[], []], [])
    row = sparse_matrix(rng, 1, 9, 0.5)
    col = sparse_matrix(rng, 9, 1, 0.5)
    cases = [
        row, col, sparse_matrix(rng, 1, 9, 0.0), sparse_matrix(rng, 9, 1, 0.0),
        sparse_matrix(rng, 20, 3, 0.4), sparse_matrix(rng, 3, 20, 0.4),  # tall, wide
        [[QZERO] * 5 for _ in range(4)],  # all zero
        [list(row[0]) for _ in range(5)],  # duplicate rows
    ]
    for mat in cases:
        m, pivots = assert_same_rref(mat)
        assert len(m) == len(mat) and all(len(r) == len(mat[0]) for r in m)


def assert_same_pivots(mat):
    """The pivots of echelon on the sparse rows of mat against the dense reference."""
    ncols = len(mat[0]) if mat else 0
    pivots = linalg.echelon(linalg.to_sparse(mat), ncols)[1]
    assert pivots == ref_rref(mat)[1]
    assert len(pivots) == rank_oracle([[(x.re, x.im) for x in row] for row in mat])


@pytest.mark.parametrize("density", [0.01, 0.05, 0.2, 0.5])
def test_echelon_pivots_match_dense_rref(density):
    rng = random.Random("pivots-%s" % density)
    size = 24 if density < 0.1 else 12  # dense Gaussian rationals grow fast
    for _ in range(30):
        rows, cols = rng.randint(1, size), rng.randint(1, size)
        mat = gaussian_matrix(rng, rows, cols, density)
        if rows > 1 and rng.random() < 0.3:
            mat[rng.randrange(rows)] = list(mat[0])  # a duplicate row
        if rng.random() < 0.3:
            c = rng.randrange(cols)
            for row in mat:
                row[c] = QZERO  # a zero column
        assert_same_pivots(mat)
    assert linalg.echelon([], 7) == ([], []) and linalg.echelon([{}, {}], 0) == ([], [])
    assert linalg.echelon([{}] * 3, 5) == ([], [])


# `pivots` runs the forward pass alone and stops at row echelon form; a column
# is a pivot exactly when it is outside the span of the columns before it, so
# its pivots are the dense RREF's.


def shaped_matrix(rng, shape):
    """A random sparse Gaussian matrix of the given shape: zero rows, repeated
    rows, rank-deficient, wide, tall, or rows that differ from a multiple of
    another in one entry, so that elimination cancels all their other ones."""
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    if shape == "wide":
        cols = rows + rng.randint(4, 12)
    elif shape == "tall":
        rows = cols + rng.randint(4, 12)
    density = rng.choice([0.1, 0.3, 0.6, 1.0])
    mat = sparse_matrix(rng, rows, cols, density)
    if shape == "zero-rows":
        for _ in range(rng.randint(1, 3)):
            mat.insert(rng.randint(0, len(mat)), [QZERO] * cols)
    elif shape == "repeated":
        mat += [list(mat[rng.randrange(rows)]) for _ in range(rng.randint(1, 3))]
    elif shape == "deficient":  # rows combined from fewer than min(rows, cols)
        base = sparse_matrix(rng, rng.randint(0, min(rows, cols) - 1), cols, density)
        mat = [[QZERO] * cols for _ in range(rows)]
        for row in mat:
            for b in base:
                c = random_q(rng)
                row[:] = [x + c * y for x, y in zip(row, b)]
    elif shape == "cancel":
        for _ in range(rng.randint(1, 4)):
            c = wide_q(rng)  # never zero
            near = [c * x for x in mat[rng.randrange(rows)]]
            near[rng.randrange(cols)] = random_q(rng)
            mat.append(near)
    rng.shuffle(mat)
    return mat


@pytest.mark.parametrize("shape", ["zero-rows", "repeated", "deficient", "wide", "tall", "cancel"])
def test_pivots_match_dense_rref(shape):
    rng = random.Random("pivots-only-%s" % shape)
    for _ in range(40):
        mat = shaped_matrix(rng, shape)
        ncols = len(mat[0])
        rows = linalg.to_sparse(mat)
        before = [dict(row) for row in rows]
        got = linalg.pivots(rows, ncols)
        assert got == ref_rref(mat)[1] == linalg.echelon(rows, ncols)[1]
        assert rows == before  # the rows given are not changed
        if shape == "deficient":
            assert len(got) < min(len(mat), ncols)
    assert linalg.pivots([], 4) == [] and linalg.pivots([{}, {}], 3) == []


# `rank_profiles` eliminates rows in blocks, the pivot from the earliest block
# first: its pivot columns are still the dense RREF's, and the pivot rows
# before each block boundary count the dense rank of the rows before it.


def block_ends(blocks):
    """The row indices at which a block ends: each boundary, and the row count."""
    return [i for i in range(1, len(blocks)) if blocks[i] != blocks[i - 1]] + [len(blocks)]


def assert_same_profiles(rows, ncols, blocks):
    before = [dict(row) for row in rows]
    pivot_rows, pivot_cols = linalg.rank_profiles(rows, ncols, blocks)
    assert rows == before  # the rows given are not changed
    mat = linalg.to_dense(rows, ncols)
    assert pivot_cols == ref_rref(mat)[1]
    assert sorted(set(pivot_rows)) == sorted(pivot_rows) and len(pivot_rows) == len(pivot_cols)
    for end in block_ends(blocks):
        assert sum(r < end for r in pivot_rows) == len(ref_rref(mat[:end])[1])
    return pivot_rows, pivot_cols


@pytest.mark.parametrize("shape", ["empty", "zero-rows", "repeated", "wide", "tall", "no-columns",
                                   "row-per-block", "random-blocks"])
def test_rank_profiles_match_dense_rref(shape):
    rng = random.Random("rank-profiles-%s" % shape)
    for _ in range(40):
        if shape == "empty":
            mat, ncols = [], rng.randint(0, 6)
        elif shape == "no-columns":
            mat, ncols = [[] for _ in range(rng.randint(1, 6))], 0
        else:
            kind = shape if shape in ("zero-rows", "repeated", "wide", "tall") else rng.choice(
                ["zero-rows", "repeated", "deficient", "wide", "tall", "cancel"])
            mat = shaped_matrix(rng, kind)
            ncols = len(mat[0])
        if shape == "row-per-block":
            blocks = list(range(len(mat)))
        else:  # a random partition into runs of consecutive rows
            blocks = sorted(rng.randrange(rng.randint(1, 4)) for _ in mat)
        rows = linalg.to_sparse(mat)
        got = assert_same_profiles(rows, ncols, blocks)
        # with one block, the rule and the result are those of pivots
        single = linalg.rank_profiles(rows, ncols, [0] * len(rows))
        assert single[1] == linalg.pivots(rows, ncols) == got[1]
    assert linalg.rank_profiles([], 4, []) == ([], [])
    assert linalg.rank_profiles([{}, {}], 0, [0, 1]) == ([], [])


# Gaussian matrices with denominators up to 10^6: real, pure-imaginary or
# mixed entries, and rows that are Gaussian combinations of two others, so
# that elimination cancels stored entries to exact zeros.


def add_dependent_rows(rng, mat, count):
    for _ in range(count):
        a, b = rng.sample(range(len(mat)), 2)
        c1, c2 = wide_q(rng), wide_q(rng)
        mat.append([c1 * x + c2 * y for x, y in zip(mat[a], mat[b])])


def test_triples_are_reduced_and_round_trip(monkeypatch):
    rng = random.Random("triples")
    for x in [wide_q(rng) for _ in range(200)] + [QZERO, QONE, Q(0, -1), Q(Fraction(1, 6), 3)]:
        a, b, d = triple(x)
        assert d > 0 and gcd(a, b, d) == 1 and linalg._q(a, b, d) == x
    # every entry rref converts back, and every entry sparse_mul, solve,
    # sparse_comb, echelon and null_space store, is a reduced nonzero triple
    stored = []
    original = linalg._q

    def record(*t):
        stored.append(t)
        return original(*t)

    monkeypatch.setattr(linalg, "_q", record)
    for _ in range(10):
        mat = gaussian_matrix(rng, 5, 6, 0.7)
        add_dependent_rows(rng, mat, 2)
        rows = linalg.to_sparse(mat)
        linalg.rref(mat)
        square = linalg.sparse_mul(rows, linalg.sparse_transpose(rows, 6))
        made = [
            square,
            linalg.solve(rows, square, 6, len(rows)),
            linalg.sparse_comb(*((triple(wide_q(rng)), rows) for _ in range(2))),
            linalg.echelon(rows, 6)[0],
            linalg.null_space(rows, 6),
        ]
        stored += [t for m in made for row in m for t in row.values()]
    assert len(stored) > 700
    assert all(d > 0 and gcd(a, b, d) == 1 and (a or b) for a, b, d in stored)


@pytest.mark.parametrize("kind", ["real", "imag", "both", None])
def test_rref_matches_dense_on_wide_gaussian_matrices(kind):
    rng = random.Random("rref-wide-%s" % kind)
    for _ in range(12):
        rows, cols = rng.randint(2, 7), rng.randint(1, 9)
        mat = gaussian_matrix(rng, rows, cols, rng.choice([0.3, 0.7, 1.0]), kind)
        add_dependent_rows(rng, mat, rng.randint(1, 3))
        rng.shuffle(mat)
        m, pivots = assert_same_rref(mat)
        assert len(pivots) <= rows  # the combinations add no rank


def test_rref_on_pure_imaginary_pivots():
    # upper triangular with a pure-imaginary diagonal: in column c only row c
    # is a candidate, so every pivot is pure imaginary
    rng = random.Random("rref-imaginary")
    for size in (1, 2, 5, 9):
        mat = [[wide_q(rng, "imag") if r == c else
                wide_q(rng) if c > r and rng.random() < 0.6 else QZERO
                for c in range(size)] for r in range(size)]
        m, pivots = assert_same_rref(mat)
        assert pivots == list(range(size)) and m == linalg.identity(size)


def test_rref_runs_no_q_arithmetic(monkeypatch):
    # a dense 16x16 Gaussian matrix: the loop runs on int triples, so no Q
    # operation is called between the conversions in and out
    rng = random.Random("rref-no-q")
    mat = [[random_q(rng) for _ in range(16)] for _ in range(16)]
    want = ref_rref(mat)
    calls = {name: 0 for name in ("__mul__", "__add__", "__sub__", "__truediv__")}
    for name in calls:
        def counted(a, b, _name=name, _original=getattr(Q, name)):
            calls[_name] += 1
            return _original(a, b)
        monkeypatch.setattr(Q, name, counted)
    got = linalg.rref(mat)
    QONE * QONE  # the counters do count
    monkeypatch.undo()
    assert calls == {"__mul__": 1, "__add__": 0, "__sub__": 0, "__truediv__": 0}
    assert got == want and len(got[1]) == 16


def _captured_inputs(monkeypatch, name, fn, *args):
    """The arguments of every call fn makes to linalg.<name>, copied."""
    seen = []
    original = getattr(linalg, name)

    def capture(rows, *rest):
        seen.append(([dict(r) if isinstance(r, dict) else list(r) for r in rows],) + rest)
        return original(rows, *rest)

    monkeypatch.setattr(linalg, name, capture)
    fn(*args)
    monkeypatch.setattr(linalg, name, original)
    return seen


def test_rref_matches_dense_on_captured_matrices(monkeypatch):
    # the equivariant complex hands its sparse rows to rank_profiles, and the
    # grading its level spans to echelon
    captured = []
    for model_file, name in SHIPPED_ACTIONS:
        act = parse_model((MODELS_DIR / model_file).read_text()).actions[name]
        for trunc in range(1, 7):
            captured += _captured_inputs(monkeypatch, "rank_profiles", equivariant_cohomology,
                                         act, act.h_equivariant(trunc), trunc)
    rng = random.Random(7)  # the rank-two action of the test above
    c = _q(rng)
    a1 = Form(3, {0b100: _q(rng), 0b010: c})
    a2 = Form(3, {0b100: _q(rng), 0b001: -c})
    act = TorusAction(torus(3), [[1, 0, 0], [0, 1, 0]], alpha=[a1, a2])
    captured += _captured_inputs(monkeypatch, "rank_profiles", equivariant_cohomology, act,
                                 act.h_equivariant(3), 3)
    grading = _captured_inputs(monkeypatch, "echelon", uk_grading, complex_structure(3))
    assert len(captured) == 2 * (6 * len(SHIPPED_ACTIONS) + 1) and grading
    for rows, ncols, blocks in captured:
        assert_same_profiles(rows, ncols, blocks)
    for rows, ncols in [c[:2] for c in captured] + grading:
        basis, pivots = linalg.echelon(rows, ncols)
        mat, want = ref_rref(linalg.to_dense(rows, ncols))
        assert pivots == want
        assert linalg.to_dense(basis, ncols) == mat[: len(want)]


def test_rank_questions_match_dense_rref(monkeypatch):
    rng = random.Random("rank-questions")
    cases = []
    for _ in range(25):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        density = rng.choice([0.1, 0.3, 0.6])
        a = sparse_matrix(rng, rows, cols, density)
        b = sparse_matrix(rng, rng.randint(1, 8), cols, density)
        rhs = [random_q(rng) if rng.random() < 0.5 else QZERO for _ in range(rows)]
        sq = sparse_matrix(rng, cols, cols, rng.choice([0.3, 0.8]))
        cases.append((a, b, rhs, sq, cols))

    def kernel(a, cols):
        # the free-column kernel of the RREF, as kernel_basis first read it
        m, pivots = linalg.rref(a)
        basis = []
        for fc in (c for c in range(cols) if c not in pivots):
            v = [QONE if c == fc else QZERO for c in range(cols)]
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
        return basis

    def answers(solve):
        out = []
        for a, b, rhs, sq, cols in cases:
            out.append(kernel(a, cols))
            out.append(solve(a, rhs))
            out.append(linalg.rref(a + b))
            try:
                out.append(linalg.invert(sq))
            except ValueError as e:
                out.append(str(e))
        return out

    # the sparse solve and kernel against the dense ones, which read the RREF
    got = answers(solve_column)
    assert got[::4] == [linalg.to_dense(linalg.null_space(linalg.to_sparse(a), cols), cols)
                        for a, _, _, _, cols in cases]
    monkeypatch.setattr(linalg, "rref", ref_rref)
    assert got == answers(ref_solve)
    # the draw reaches both outcomes of solve and invert
    assert None in got[1::4] and any(s is not None for s in got[1::4])
    assert "matrix is singular" in got[3::4] and any(isinstance(m, list) for m in got[3::4])


def test_rref_pivots_on_the_sparsest_candidate_row(monkeypatch):
    # an arrow matrix: row 0 is full, row i > 0 holds columns 0 and i.  The
    # full row as the first pivot fills every row (2132 multiplications, or
    # 794 taking the densest candidate each time); the sparsest candidate
    # keeps each update to about two entries (494)
    size = 16
    arrow = [[Q(1)] * size] + [
        [Q(1) if c in (0, i) else QZERO for c in range(size)] for i in range(1, size)
    ]
    muls = [0]
    original = linalg._add_mul  # one multiplication of stored entries per call

    def counted(*args):
        muls[0] += 1
        return original(*args)

    monkeypatch.setattr(linalg, "_add_mul", counted)
    m, pivots = linalg.rref(arrow)
    monkeypatch.undo()
    assert (m, pivots) == ref_rref(arrow)
    assert muls[0] <= 2 * size * size


# -- the equivariant complex against its dense first version --------------------
# ref_equivariant_cohomology (tests/conftest.py) builds both parity maps as
# dense matrices from per-mask EqForm images and rebuilds the model for the
# Betti ranks.  The package must give the same value or the same exception:
# with parametric and pi coefficients, which scalar is named first depends on
# the order in which the columns convert their coefficients.


def _coefficient(rng, wild):
    """A Gaussian rational, or with probability wild a multiple of s or pi."""
    r = rng.random()
    if r < wild / 2:
        return Scalar.parameter("s") * Scalar.rational(rng.choice([1, -1, 2, -2]))
    if r < wild:
        return Scalar.pi() * Scalar.rational(rng.choice([1, -1]))
    return Scalar.from_q(random_q(rng))


def _random_equivariant_case(rng):
    """(action, h_g, trunc): flat T^n rotated along s_j e_j with H and the
    alpha_j on the other generators (closed by the k = 2 cancellation of
    closed_action in test_operator_refs.py), or Kodaira-Thurston along e4;
    h_g is the action's own, truncated below trunc, without its x-degree-0
    part, or with a closed 1-form there instead of a 3-form."""
    wild = rng.choice([0.0, 0.0, 0.1, 0.3])
    n, k = rng.randint(0, 5), rng.choice([1, 2])
    with_h, with_alpha = rng.random() < 0.6, rng.random() < 0.7
    if n == 4 and k == 1 and rng.random() < 0.4:
        q, b = _coefficient(rng, wild), _coefficient(rng, wild) if with_alpha else Scalar()
        model = kodaira_thurston(Form(4, {0b0111: q, 0b1011: b}) if with_h else None)
        alpha = [Form(4, {0b0100: b, 0b0001: _coefficient(rng, wild)})] if with_alpha else None
        act = TorusAction(model, [[0, 0, 0, 1]], alpha=alpha)
        rest = [0b0001]
    else:
        s = [_coefficient(rng, wild) for _ in range(k)]
        rest = [1 << i for i in range(k, n)]
        triples = [a | b | c for a in rest for b in rest for c in rest if a < b < c]
        h = None
        if with_h and triples:
            h = Form(n, {m: _coefficient(rng, wild) for m in rng.sample(triples, min(2, len(triples)))})
        xi = [[s[j] if i == j else 0 for i in range(n)] for j in range(k)]
        alpha = None
        if with_alpha:
            terms = [{m: _coefficient(rng, wild) for m in rest if rng.random() < 0.7}
                     for _ in range(k)]
            if k == 2 and n >= 2:
                c = _coefficient(rng, wild)
                terms[0][0b10] = c * s[0]
                terms[1][0b01] = -c * s[1]
            alpha = [Form(n, t) for t in terms]
        act = TorusAction(torus(n, h), xi, alpha=alpha)
    trunc = rng.randint(0, 6)
    while trunc and comb(trunc + k, k) << n > 160:  # keeps the dense reference quick
        trunc -= 1
    h_g = act.h_equivariant(trunc)
    kind = rng.choice(["own", "own", "lower", "no h0", "not a 3-form"])
    if kind == "lower" and trunc:
        h_g = act.h_equivariant(rng.randrange(trunc))
    elif kind == "no h0":
        h_g = EqForm(k, n, trunc, {e: f for e, f in h_g.terms.items() if any(e)})
    elif kind == "not a 3-form" and rest:
        terms = dict(h_g.terms)
        terms[tuple([0] * k)] = Form(n, {rng.choice(rest): _coefficient(rng, wild)})
        h_g = EqForm(k, n, trunc, terms)
    return act, h_g, trunc


def equivariant_cases(count=320):
    rng = random.Random("equivariant-differential")
    return [_random_equivariant_case(rng) for _ in range(count)]


def _ranks_or_error(fn, act, h_g, trunc):
    try:
        return fn(act, h_g, trunc)
    except (ValueError, KeyError) as e:
        return type(e).__name__, str(e)


def test_equivariant_ranks_match_dense_reference():
    cases = equivariant_cases()
    got = [_ranks_or_error(equivariant_cohomology, *case) for case in cases]
    want = [_ranks_or_error(ref_equivariant_cohomology, *case) for case in cases]
    want = [("ValueError", stated_refusal(cartan_coefficients(*case)))
            if isinstance(w, tuple) and is_coefficient_refusal(w[1]) else w
            for w, case in zip(want, cases)]
    assert got == want
    errors = {g[1] for g in got if isinstance(g, tuple)}
    # the draw reaches ranks and each kind of refusal
    assert sum(isinstance(g, tuple) for g in got) < len(got) - 100
    assert any("not a plain Gaussian rational" in e for e in errors)
    assert "twisting form must be homogeneous of degree 3" in errors
    assert any(not isinstance(g, tuple) and not g.free_pattern for g in got)


# -- one elimination per parity map against five --------------------------------
# ref_five_eliminations (tests/conftest.py) reads the same ranks as the
# package did before the rank profiles: each parity map eliminated on its
# rows and on its columns, and the x-degree-0 block for the Betti pair.


def _two_torus_cases():
    """2-tori along e5 and e6 (or two mixes of them) on T^6 and on Iwasawa,
    whose d(e5) and d(e6) leave both fields central, with and without
    H = e1^e2^e3 and alpha = (e1, 0)."""
    iwasawa = parse_model((MODELS_DIR / "iwasawa.model").read_text()).model
    fields = ([[0] * 4 + [1, 0], [0] * 5 + [1]], [[0] * 4 + [1, 1], [0] * 4 + [1, -1]])
    h = Form.monomial(6, (1, 2, 3))
    for model in (torus(6), iwasawa):
        for xi in fields:
            for twist in (None, h):
                act = TorusAction(model.with_twist(twist), xi,
                                  alpha=[Form.generator(6, 1), Form.zero(6)])
                yield from ((act, act.h_equivariant(trunc), trunc) for trunc in range(5))


def test_one_elimination_per_map_matches_five():
    shipped = [(act, act.h_equivariant(trunc), trunc) for act in (
        parse_model((MODELS_DIR / model_file).read_text()).actions[name]
        for model_file, name in SHIPPED_ACTIONS) for trunc in range(1, 7)]
    tori = list(_two_torus_cases())
    # n = 0: the odd parity is empty, so one map has no columns, the other no rows
    empty = [(act, act.h_equivariant(trunc), trunc)
             for act in (TorusAction(torus(0), [[]] * k) for k in (1, 2)) for trunc in range(4)]
    cases = shipped + equivariant_cases() + tori + empty
    got = [_ranks_or_error(equivariant_cohomology, *case) for case in cases]
    assert got == [_ranks_or_error(ref_five_eliminations, *case) for case in cases]
    # the 2-tori are all closed, and the twist and the model move their ranks
    assert not any(isinstance(g, tuple) for g in got[-len(tori) - len(empty):])
    assert len({g.by_degree for g in got[-len(tori) - len(empty):-len(empty)]}) > 5
    assert got[-1] == EquivariantRanks(trunc=3, k=2, by_degree=((1, 0), (2, 0), (3, 0), (4, 0)),
                                       betti=BettiPair(1, 0), free_pattern=True)
