"""The ddbar path on sparse rows of triples against the dense path it replaced.

`split_operators` and `ddbar_lemma_check` keep every entry a reduced
Gaussian-integer triple from the lift and d_H's matrix to the last rank.  The
references in tests/conftest.py are the dense path: the lift summed in Q into
a zero matrix, the halves as dense rows from dense products, and the check
through dense RREF rows (`row_space`, `in_span`).  Both must give the same
halves, the same verdict, witness and detail, and the same error, on
B-sheared J+, J- and symplectic structures over random 2-step nilpotent
models; where the reference's per-form split refuses a parameter or pi
coefficient, the split refuses before any matrix, naming the first one the
model states.  The Bott-Chern and Aeppli ranks of tests/oracles.py decide
the same lemma a second way, with no linalg at all.
"""

import random
import sys
from fractions import Fraction

from conftest import (
    MODELS_DIR, RefSplit, is_coefficient_refusal, model_coefficients, random_nilpotent, random_q,
    ref_ddbar_lemma_check, ref_split_operators, shipped_structures, stated_refusal,
)
from gcalg import linalg
from gcalg.forms import Form, basis_masks, wedge
from gcalg.gcmaps import b_transform, complex_structure, symplectic_map
from gcalg.modelfile import parse_model
from gcalg.models import (
    IntegrabilityError, Model, SplitOperators, d, ddbar_lemma_check, kodaira_thurston,
    split_operators, torus,
)
from gcalg.scalars import I, ONE, Scalar
from oracles import bott_chern_aeppli


def _rational(rng):
    return Scalar.rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _structures(rng, n):
    """J+, J- and the symplectic structure of sum c_i e_2i-1^e_2i."""
    omega = Form(n, {3 << (2 * i): _rational(rng) for i in range(n // 2)})
    return [complex_structure(n // 2, 1), complex_structure(n // 2, -1), symplectic_map(omega)]


def _shear(rng, model, j):
    """j, or j sheared by a rational 2-form, closed on the model on most draws."""
    if rng.random() < 0.2:
        return j
    n = model.n
    pairs = [mk for mk in basis_masks(n) if mk.bit_count() == 2]
    closed = [mk for mk in pairs if d(model, Form(n, {mk: ONE})).is_zero()]
    pool = closed if rng.random() < 0.8 else pairs
    picked = rng.sample(pool, min(2, len(pool)))
    return b_transform(j, Form(n, {mk: _rational(rng) for mk in picked}))


def _holomorphic_nilpotent(rng, n):
    """T^(n-2) x R^2 with d w = a random (2,0) + (1,1) form in the closed
    w_k = e_(2k-1) + i e_2k, k < n/2, for w = e_(n-1) + i e_n: J+ is
    integrable, and at n = 6 (Iwasawa-like) the product of the halves is
    nonzero."""
    w = [Form.generator(n, 2 * k + 1) + Form.generator(n, 2 * k + 2).scale(I)
         for k in range(n // 2 - 1)]
    pieces = [wedge(a, b) for i, a in enumerate(w) for b in w[i + 1:]]
    pieces += [wedge(a, b.conjugate()) for a in w for b in w]
    dw = Form.zero(n)
    for f in rng.sample(pieces, min(len(pieces), rng.randint(1, 3))):
        dw = dw + f.scale(Scalar.from_q(random_q(rng)))
    re = (dw + dw.conjugate()).scale(Scalar.rational(1, 2))
    im = (dw - dw.conjugate()).scale(Scalar.imaginary(Fraction(-1, 2)))
    return Model(n, [Form.zero(n)] * (n - 2) + [re, im])


def _solvable_symplectic(rng):
    """d e1 = a e1^e2, d e3 = a e2^e3 (solvable, unimodular) with the closed
    symplectic form b e1^e3 + c e2^e4: both halves and their product are
    nonzero, and the lemma holds."""
    a = _rational(rng)
    z = Form.zero(4)
    model = Model(4, [Form.monomial(4, (1, 2), a), z, Form.monomial(4, (2, 3), a), z])
    omega = Form(4, {0b0101: _rational(rng), 0b1010: _rational(rng)})
    return model, symplectic_map(omega)


def ddbar_cases(counts=((2, 14), (4, 52), (6, 1)), extra=(3, 6)):
    """(model, structure) pairs: for each of count random nilpotent models on
    n generators (Gaussian coefficients, one in five parametric or with pi),
    its three structures, most of them sheared; then, where the product of
    the halves is nonzero, extra[0] holomorphic nilpotent models at n = 6
    with J+ and extra[1] solvable models with their symplectic form, most of
    them sheared."""
    rng = random.Random("ddbar-differential")
    cases = []
    for n, count in counts:
        for _ in range(count):
            kind = rng.choice(["gauss"] * 8 + ["param", "pi"])
            model = random_nilpotent(rng, n, kind)
            cases += [(model, _shear(rng, model, j)) for j in _structures(rng, n)]
    for _ in range(extra[0]):
        model = _holomorphic_nilpotent(rng, 6)
        cases.append((model, _shear(rng, model, complex_structure(3))))
    for _ in range(extra[1]):
        model, j = _solvable_symplectic(rng)
        cases.append((model, _shear(rng, model, j)))
    return cases


def _outcome(fn, *args):
    """The value, with the halves of a split as dense tuples, or the error."""
    try:
        out = fn(*args)
    except IntegrabilityError as err:
        return "stray", str(err), err.residual
    except ValueError as err:
        return type(err).__name__, str(err)
    if isinstance(out, SplitOperators):
        size = len(out.masks)
        return (out.masks,) + tuple(tuple(map(tuple, linalg.to_dense(h, size)))
                                    for h in (out.lower, out.upper))
    if isinstance(out, RefSplit):
        return out.masks, out.lower, out.upper
    return out


def test_split_and_check_match_the_dense_path():
    cases = ddbar_cases()
    seen = {"ok": 0, "fails": 0, "stray": 0, "error": 0}
    for model, j in cases:
        # the check splits first, so a failed split is the check's error too
        split, want = _outcome(split_operators, model, j), _outcome(ref_split_operators, model, j)
        if want[0] == "ValueError" and is_coefficient_refusal(want[1]):
            want = "ValueError", stated_refusal(model_coefficients(model))
        assert split == want, (model, j.matrix)
        if isinstance(split[0], str):
            seen["stray" if split[0] == "stray" else "error"] += 1
            continue
        report = ddbar_lemma_check(model, j)
        assert report == ref_ddbar_lemma_check(model, j, ops=RefSplit(model, *split))
        seen["ok" if report.ok else "fails"] += 1
    assert len(cases) >= 200
    # both verdicts, with witnesses, stray components and refused coefficients
    assert min(seen.values()) >= 3, seen


def test_check_builds_no_dense_matrix(monkeypatch):
    # no 2^n x 2^n matrix is made dense: the only dense rows the check turns
    # sparse are those of the structure itself, in validate (linalg has no
    # dense transpose left)
    seen = []
    for name in ("to_dense", "mat_mul", "rref", "operator_matrix", "to_sparse"):
        def spy(*args, _name=name, _original=getattr(linalg, name)):
            mat = args[0] if _name != "operator_matrix" else []
            caller = sys._getframe(1).f_code.co_name
            seen.append((_name, caller, len(mat), len(mat[0]) if mat else 0))
            return _original(*args)

        monkeypatch.setattr(linalg, name, spy)
    iwasawa = parse_model((MODELS_DIR / "iwasawa.model").read_text())
    h = Form(4, {0b0111: Scalar.rational(2), 0b1011: Scalar.rational(-1)})
    z = Form.zero(4)
    solvable = Model(4, [Form.monomial(4, (1, 2)), z, Form.monomial(4, (2, 3)), z])
    cases = [
        (kodaira_thurston(), complex_structure(2)),  # fails, with a witness
        (iwasawa.model, iwasawa.structures["Jc"]),
        # holds with both halves nonzero
        (solvable, symplectic_map(Form.monomial(4, (1, 3)) + Form.monomial(4, (2, 4)))),
        (torus(4, h), symplectic_map(Form(4, {0b0011: ONE, 0b1100: ONE}))),  # stray
    ]
    verdicts = []
    for model, j in cases:
        seen.clear()
        try:
            verdicts.append(ddbar_lemma_check(model, j).ok)
        except IntegrabilityError:
            verdicts.append(None)
        assert seen == [("to_sparse", "validate", 2 * model.n, 2 * model.n)]
    assert verdicts == [False, False, True, None]


def _gq_rows(sp, half):
    return [[(x.re, x.im) for x in row] for row in linalg.to_dense(half, len(sp.masks))]


def test_bott_chern_and_aeppli_ranks_decide_the_lemma():
    """h_BC + h_A >= 2 h_D, with equality exactly when the check holds, and
    h_BC = h_A, for the halves of random models, models whose halves have a
    nonzero product, and the shipped structures.  The halves come from
    split_operators, which the test above compares with the dense split; the
    ranks come from tests/oracles.py alone.

    Angella and Tomassini (Invent. Math. 192 (2013), 71-81) prove the first
    two for del and delbar on a compact complex manifold, with b_k in place
    of h_D.  That hypothesis does not hold here: the operators are the halves
    of d_H on a finite model.  Their proof uses only the algebra of a double
    complex of finite-dimensional spaces (Varouchas' exact sequences and
    Frolicher's inequality), and that does apply: the lower half moves the
    level of uk_grading by -1, the upper half by +1, and each level has one
    form parity, so putting level k in the bidegrees (p, q) with q - p = k
    makes them a double complex with finitely many nonzero terms in each
    total degree, whose total cohomology in the degrees of one parity is
    that parity's part of H_D.  So the test checks a known consequence, not
    a cited theorem.  h_BC = h_A is not part of theirs: it holds here because
    every model is unimodular (the nilpotent ones, and the solvable one with
    trace-free ad e2), so the Mukai pairing of level k with level -k makes
    each half adjoint to itself up to sign.
    """
    cases = ddbar_cases(((2, 4), (4, 22)), (2, 4)) + shipped_structures()
    verdicts = []
    for model, j in cases:
        try:
            sp = split_operators(model, j)
        except (IntegrabilityError, ValueError):
            continue
        h_bc, h_a, h_d = bott_chern_aeppli(_gq_rows(sp, sp.lower), _gq_rows(sp, sp.upper))
        assert h_bc + h_a >= 2 * h_d
        assert (h_bc + h_a == 2 * h_d) == ddbar_lemma_check(model, j).ok
        assert h_bc == h_a
        verdicts.append(h_bc + h_a == 2 * h_d)
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5
