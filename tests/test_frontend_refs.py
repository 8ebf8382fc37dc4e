"""The front end's fast paths against their first versions (tests/conftest.py).

`Scalar` and `Form` arithmetic build clean results through `_scalar_of` and
`_form_of`, `modelfile._check_size` reads each factor in one pass, and
`models.d` is built by mask arithmetic.  Each must give the same values in
the same key and term order (the term order names the pi powers of a mix),
the same messages and the same `spent` totals as its first version.  A
`matrix` row is read by one pattern when it can be, and must give the same
values, or the same located error, as the token path it skips.
"""

import random
import re
import time
from types import SimpleNamespace

from conftest import (
    MODELS_DIR, random_nilpotent, random_q, ref_check_size, ref_clifford_sum, ref_d,
    ref_form_add, ref_form_neg, ref_form_sub, ref_scalar_add, ref_scalar_mul, ref_scalar_neg,
    ref_scalar_sub, ref_scale, ref_wedge,
)

from gcalg import modelfile
from gcalg.cartan import EqForm
from gcalg.forms import Form, _clifford_sum, contract_vector, wedge
from gcalg.modelfile import (
    MAX_DEGREE, MAX_DIGITS, MAX_FILE_PRODUCTS, MAX_MONOMIALS, ModelFileError, ParseError, Token,
    _ROW_RE, _rational_list, _rational_row, parse_model, tokenize,
)
from gcalg.models import d
from gcalg.scalars import ONE, Q, QZERO, Scalar

PARAMS = ("t", "s", "u")
TOK = Token("OP", "*", 3, 7)


def layout(v):
    """A value with its key order and, per coefficient, its term order."""
    if isinstance(v, Scalar):
        return list(v.terms.items())
    if isinstance(v, Form):
        return v.n, [(m, list(c.terms.items())) for m, c in v.terms.items()]
    return v.k, v.trunc, [(e, layout(f)) for e, f in v.terms.items()]


def outcome(fn, *args):
    """The layout of fn(*args) and its printed form, or the error's message."""
    try:
        v = fn(*args)
    except (ValueError, ZeroDivisionError) as e:
        return "error: %s" % e
    try:
        text = str(v)
    except ValueError as e:  # a coefficient mixing pi powers
        text = "unprintable: %s" % e
    return layout(v), text


def random_scalar(rng, pis=(0,), max_terms=3, max_exp=2):
    """Unit coefficients on two thirds of the terms, so that sums cancel."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        names = rng.sample(PARAMS, rng.randint(0, 2))
        mono = tuple(sorted((nm, rng.randint(1, max_exp)) for nm in names))
        terms[(rng.choice(pis), mono)] = rng.choice([Q(1), Q(-1), random_q(rng, span=2)])
    return Scalar(terms)


def cancelling(rng, x, pis):
    """A scalar that cancels some of x's terms and adds a few of its own."""
    terms = {k: -c for k, c in x.terms.items() if rng.random() < 0.7}
    terms.update(random_scalar(rng, pis, max_terms=1).terms)
    return Scalar(terms)


def random_pis(rng):
    return rng.choice([(0,), (0,), (0, 1), (1, -1, 0)])


def random_coeff(rng, pis):
    """A form coefficient: half the time +-1 times a pi power, so that wedges cancel."""
    if rng.random() < 0.5:
        return Scalar.from_q(rng.choice([Q(1), Q(-1)]), rng.choice(pis))
    return random_scalar(rng, pis, max_terms=2)


def random_coeff_form(rng, n, pis, max_terms=4):
    return Form(n, {rng.randrange(1 << n): random_coeff(rng, pis)
                    for _ in range(rng.randint(0, max_terms))})


def cancelling_form(rng, a, pis):
    terms = {m: cancelling(rng, c, pis) for m, c in a.terms.items() if rng.random() < 0.8}
    terms.update(random_coeff_form(rng, a.n, pis, max_terms=1).terms)
    return Form(a.n, terms)


def test_scalar_arithmetic_matches_first_version(rng):
    ops = {"+": (Scalar.__add__, ref_scalar_add), "-": (Scalar.__sub__, ref_scalar_sub),
           "*": (Scalar.__mul__, ref_scalar_mul)}
    cancelled = mixed = 0
    for _ in range(300):
        pis = random_pis(rng)
        pool = [random_scalar(rng, pis) for _ in range(3)]
        for _ in range(6):
            x = rng.choice(pool)
            y = rng.choice(pool + [cancelling(rng, x, pis)] * 2)
            fast, ref = ops[rng.choice("+-*")]
            got = outcome(fast, x, y)
            assert got == outcome(ref, x, y), (x.terms, y.terms)
            assert outcome(Scalar.__neg__, x) == outcome(ref_scalar_neg, x)
            z = fast(x, y)
            cancelled += len(z.terms) < len(x.terms) + len(y.terms) and not z.is_zero()
            mixed += got[1].startswith("unprintable")
            pool.append(z)
        q = random_q(rng)
        assert layout(Scalar.from_q(q, 1)) == layout(Scalar({(1, ()): q}))
        assert Scalar.from_q(Q(0), 2).is_zero()
    assert cancelled > 100 and mixed > 50
    # t^2 cancels on t * -t and comes back on t^2 * 1: it keeps its first place
    t = Scalar.parameter("t")
    x, y = ONE + t + t * t, t * t - t + ONE
    assert [m for _, m in (x * y).terms] == [m for _, m in ref_scalar_mul(x, y).terms] == [
        (("t", 2),), (), (("t", 4),)]


def test_form_arithmetic_matches_first_version(rng):
    ops = [
        (Form.__add__, ref_form_add), (Form.__sub__, ref_form_sub),
        (lambda a, b: -a, lambda a, b: ref_form_neg(a)),
        (wedge, ref_wedge), (lambda a, b: wedge(b, a), lambda a, b: ref_wedge(b, a)),
    ]
    for _ in range(300):
        n = rng.randint(0, 5)
        pis = random_pis(rng)
        pool = [random_coeff_form(rng, n, pis) for _ in range(2)]
        for _ in range(5):
            a = rng.choice(pool)
            b = rng.choice(pool + [cancelling_form(rng, a, pis)] * 2)
            fast, ref = rng.choice(ops)
            assert outcome(fast, a, b) == outcome(ref, a, b)
            c = rng.choice([random_scalar(rng, pis), Scalar(), 2, Q(1, -1)])
            assert outcome(Form.scale, a, c) == outcome(ref_scale, a, c)
            v = [random_scalar(rng, pis, max_terms=1) for _ in range(2 * n)]
            first = rng.randrange(2 * n) if n else 0
            assert outcome(_clifford_sum, v, a) == outcome(ref_clifford_sum, v, a)
            assert outcome(_clifford_sum, v[:1], a, first) == outcome(ref_clifford_sum, v[:1], a, first)
            pool.append(fast(a, b))
    # e1^e2^e3 cancels on e2 ^ e1^e3 and comes back on e3 ^ e1^e2, after
    # the three e4 terms: the first version keeps it first
    a = Form(4, {0b0001: ONE, 0b0010: ONE, 0b1000: ONE, 0b0100: ONE})
    b = Form(4, {0b0110: ONE, 0b0101: ONE, 0b0011: ONE})
    assert list(wedge(a, b).terms) == list(ref_wedge(a, b).terms) == [0b0111, 0b1110, 0b1101, 0b1011]


def test_d_matches_first_version_on_arbitrary_tables(rng):
    # d reads only n and the table, so the tables need not square to zero;
    # unit coefficients make the contributions to one mask cancel and come
    # back, which is where the order of summation shows
    mixed = 0
    for _ in range(600):
        n = rng.randint(0, 6)
        pis = random_pis(rng)
        pairs = [1 << i | 1 << j for i in range(n) for j in range(i + 1, n)]
        table = [Form(n, {rng.choice(pairs): random_coeff(rng, pis)
                          for _ in range(rng.randint(0, 4))}) if pairs else Form(n)
                 for _ in range(n)]
        m = SimpleNamespace(n=n, d_table=tuple(table))
        a = random_coeff_form(rng, n, pis, max_terms=10)
        got = outcome(d, m, a)
        assert got == outcome(ref_d, m, a)
        mixed += got[1].startswith("unprintable")
    assert mixed > 20
    m = SimpleNamespace(n=2, d_table=(Form(2), Form(2)))
    assert outcome(d, m, Form(3)) == outcome(ref_d, m, Form(3))


def test_d_matches_first_version_on_models(rng):
    models = [parse_model(p.read_text()).model for p in sorted(MODELS_DIR.glob("*.model"))]
    models += [random_nilpotent(rng, rng.randint(2, 6), kind)
               for kind in ("gauss", "param", "pi") for _ in range(30)]
    for m in models:
        for a in [m.H] + list(m.d_table) + [random_coeff_form(rng, m.n, (0, 1))
                                            for _ in range(4)]:
            assert outcome(d, m, a) == outcome(ref_d, m, a)


def guard(check, factors, spent, power):
    """What a size guard says of factors and the file total it leaves."""
    box = [spent]
    try:
        check(TOK, factors, box, power)
    except ParseError as e:
        return str(e), box[0]
    return None, box[0]


def powers_of(name, top):
    """The scalar 1 + name + ... + name^top."""
    return Scalar({(0, ((name, e),) if e else ()): Q(1) for e in range(top + 1)})


def linear(count):
    """The sum of count distinct parameters, a degree-1 scalar of count monomials."""
    return Scalar({(0, (("p%d" % k, 1),)): Q(1) for k in range(count)})


def test_size_guard_matches_first_version_on_generated_factors(rng):
    verdicts = set()
    for _ in range(2000):
        pis = random_pis(rng)
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["scalar", "form", "eqform"])
            s = random_scalar(rng, pis, max_terms=rng.choice([1, 3, 8]), max_exp=rng.choice([1, 4, 9]))
            if kind == "scalar":
                factors.append(s)
                continue
            f = random_coeff_form(rng, 3, pis, max_terms=rng.choice([1, 4, 8])) + Form.unit(3, s)
            factors.append(f if kind == "form" else EqForm(1, 3, 4, {(rng.randint(0, 2),): f}))
        power = rng.choice([0, 1, 1, 2, 3, 5, 12])
        spent = rng.choice([0, rng.randrange(MAX_FILE_PRODUCTS), MAX_FILE_PRODUCTS - 5])
        got = guard(modelfile._check_size, factors, spent, power)
        assert got == guard(ref_check_size, factors, spent, power)
        verdicts.add(got[0].split(":", 1)[1].split()[0] if got[0] else None)
    assert verdicts == {None, "polynomial", "up", "term"}


def test_size_guard_matches_first_version_at_its_boundaries():
    t = Scalar.parameter("t")
    t16, t17 = t ** 16, t ** 17
    cases = [
        ([t16], 2), ([t ** 11], 3), ([t16, t16], 1), ([t16, t17], 1),  # degree 32 / 33
        ([Form.unit(2, t16)], 2), ([Form.generator(2, 1), t ** 33], 1),
        ([powers_of("t", 9)], 3),  # 10^3 = 1000 monomials
        ([powers_of("t", 6), powers_of("s", 10), powers_of("u", 12)], 1),  # 1001, C(31, 3) more
        ([powers_of("t", 10)] * 3, 1),  # 1331, but C(30 + 1, 1) = 31
        ([linear(1000)], 1), ([linear(1001)], 1),  # 1000 / 1001 by itself
    ]
    seen = []
    for factors, power in cases:
        want = guard(ref_check_size, factors, 0, power)
        assert guard(modelfile._check_size, factors, 0, power) == want
        seen.append(want)
        if want[0] is None:  # the file total lands on the cap, then one past it
            for start in (MAX_FILE_PRODUCTS - want[1], MAX_FILE_PRODUCTS - want[1] + 1):
                got = guard(modelfile._check_size, factors, start, power)
                assert got == guard(ref_check_size, factors, start, power)
                assert (got[0] is None) == (got[1] == MAX_FILE_PRODUCTS)
    messages = [m for m, _ in seen]
    assert messages[:4] == [None, "line 3, col 7: polynomial degree 33 beyond %d" % MAX_DEGREE] * 2
    assert messages[4] is None and messages[5] == messages[1]
    assert seen[6] == (None, 3000) and seen[8] == (None, 31) and seen[9] == (None, 1000)
    assert messages[7] == messages[10] == (
        "line 3, col 7: up to 1001 monomials in a coefficient, beyond %d" % MAX_MONOMIALS)
    assert seen[10][0] is not None


def _expr(rng, depth):
    atoms = ["t", "s", "pi", "i", "2", "3", "e1", "e2", "e3", "e1^e2", "a", "(t+s+1)"]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.choice(["+", "-", "*", "*", "/", "^", "^", "exp", "paren"])
    if kind == "^":
        return "(%s)^%d" % (_expr(rng, depth - 1), rng.choice([0, 1, 2, 3, 5, 12, 16, 32]))
    if kind == "exp":
        return "exp(%s*e1^e2 + e2^e3)" % rng.choice(["t", "pi", "i*s", "2"])
    if kind == "paren":
        return "(%s)" % _expr(rng, depth - 1)
    if kind == "/":
        return "%s / %s" % (_expr(rng, depth - 1), rng.choice(["2", "pi", "(1+i)", "t"]))
    return "%s %s %s" % (_expr(rng, depth - 1), kind, _expr(rng, depth - 1))


def _parse_outcome(text, check, monkeypatch):
    trail = []

    def recorded(tok, factors, spent, power=1):
        try:
            check(tok, factors, spent, power)
        finally:
            trail.append(spent[0])

    monkeypatch.setattr(modelfile, "_check_size", recorded)
    try:
        mf = parse_model(text)
    except (ParseError, ModelFileError) as e:
        return str(e), trail
    return {name: layout(v) for name, v in mf.values.items()}, trail


def test_parse_model_matches_first_size_guard_on_generated_files(rng, monkeypatch):
    errors = 0
    for _ in range(150):
        lines = ["model g", "generators e1 e2 e3 e4", "params t s", "let a = (t + 1/2)*pi"]
        lines += ["let v%d = %s" % (k, _expr(rng, 3)) for k in range(rng.randint(1, 12))]
        text = "\n".join(lines) + "\n"
        fast = _parse_outcome(text, modelfile._check_size, monkeypatch)
        assert fast == _parse_outcome(text, ref_check_size, monkeypatch), text
        errors += isinstance(fast[0], str)
    assert 20 < errors < 140


# -- the trusted constructors keep what the public ones would ---------------------------


def recleaned(v):
    """v rebuilt by the public constructors from its own terms."""
    if isinstance(v, Scalar):
        return Scalar(v.terms)
    return Form(v.n, {m: Scalar(c.terms) for m, c in v.terms.items()})


def assert_clean(v):
    assert layout(v) == layout(recleaned(v))
    scalars = [v] if isinstance(v, Scalar) else list(v.terms.values())
    assert all(not q.is_zero() for c in scalars for q in c.terms.values())
    if isinstance(v, Form):
        assert all(0 <= m < 1 << v.n and not c.is_zero() for m, c in v.terms.items())


def test_arithmetic_chains_stay_clean(rng):
    for _ in range(200):
        n = rng.randint(0, 5)
        pis = random_pis(rng)
        scalars = [random_scalar(rng, pis) for _ in range(3)]
        forms = [random_coeff_form(rng, n, pis)]
        if n:
            forms.append(Form.generator(n, rng.randint(1, n)))
        table = SimpleNamespace(n=n, d_table=tuple(random_coeff_form(rng, n, pis) for _ in range(n)))
        for _ in range(8):
            x, y = rng.choice(scalars), rng.choice(scalars)
            y = rng.choice([y, cancelling(rng, x, pis)])
            scalars += [x + y, x - y, x * y, -x, Scalar.from_q(random_q(rng), rng.choice(pis))]
            a, b = rng.choice(forms), rng.choice(forms)
            b = rng.choice([b, cancelling_form(rng, a, pis)])
            v = [rng.choice(scalars) for _ in range(2 * n)]
            forms += [a + b, a - b, -a, wedge(a, b), a.scale(rng.choice(scalars)),
                      _clifford_sum(v, a), contract_vector(v[:n], a), d(table, a)]
        for value in scalars + forms:
            assert_clean(value)


def test_operations_skip_the_public_constructors(rng, monkeypatch):
    n = 4
    a = random_coeff_form(rng, n, (0, 1), max_terms=6)
    b = cancelling_form(rng, a, (0, 1))
    c = random_scalar(rng, (0, 1))
    m = SimpleNamespace(n=n, d_table=tuple(random_coeff_form(rng, n, (0,)) for _ in range(n)))
    v = [random_scalar(rng) for _ in range(2 * n)]
    calls = []
    for cls in (Scalar, Form):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    results = [wedge(a, b), a.scale(c), a.scale(2), a + b, a - b, -a, c + c, c - c, c * c, -c,
               _clifford_sum(v, a), Form.generator(n, 2), Scalar.from_q(Q(1, 2)), d(m, a)]
    assert calls == []
    assert any(not r.is_zero() for r in results)
    Form(n, a.terms)
    assert calls == ["Form"]  # the counter sees a public construction


# -- matrix rows ---------------------------------------------------------------

SEPARATORS = ("", " ", "  ", ",", ", ", " ,", ",,", "\t", " , ")
BAD_PIECES = ("0/0", "1/-2", "+-3", "--1", "- ,3", "1/", "/2", "/", "x", "e1", "i", "pi", "*",
              "(", ")", "=", "^", "$", "#", "1.5", "2e3", "1_0", "\u00e9", "\u0663", "1/\u0663",
              "3/00", "- ", "+")


def random_entry(rng):
    """A signed rational literal, with spaces around the sign and the slash."""
    sign = rng.choice(("", "", "-", "+", "- ", "+  "))
    num = rng.choice(("0", "00", "1", "7", "12", "0420", str(rng.randint(0, 10 ** 12))))
    if rng.random() < 0.4:
        num += rng.choice(("/", " / ", "/ ", " /")) + rng.choice(("1", "2", "05", "0010", "97"))
    return sign + num


def random_row(rng):
    """Well formed rows, rows with one bad piece, and rows past MAX_DIGITS."""
    pieces = [random_entry(rng) for _ in range(rng.randint(0, 10))]
    kind = rng.random()
    if kind < 0.45:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(BAD_PIECES))
    elif kind < 0.5:
        digits = rng.choice((MAX_DIGITS, MAX_DIGITS + 1, 5000))
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(("", "-", "1/")) + "9" * digits)
    out = rng.choice(("", " ", "  "))
    for piece in pieces:
        # a separator between two digits would join two literals into one
        sep = rng.choice(SEPARATORS)
        out += (sep or " ") + piece if out[-1:].isdigit() and piece[:1].isdigit() else sep + piece
    return out + rng.choice(("", " ", ","))


def read(fn, *args):
    try:
        return fn(*args)
    except ParseError as e:
        return str(e), e.line, e.col, e.reason


def test_matrix_rows_read_like_their_tokens():
    rng = random.Random("matrix-rows")
    direct = refused = long_rows = 0
    for count in range(3000):
        text, line = random_row(rng), rng.randint(1, 99)
        got = read(_rational_row, text, line)
        assert got == read(lambda: _rational_list(tokenize(text, line))), text
        if len(text) > MAX_DIGITS:
            long_rows += 1
        elif _ROW_RE.fullmatch(text):  # read without tokens: zeros share one Q
            direct += 1
            assert all(q is QZERO for q in got if q == QZERO), text
        if isinstance(got, tuple):
            refused += 1
    assert direct >= 1000 and refused >= 1000 and long_rows >= 50, (direct, refused, long_rows)


def test_matrix_row_errors_keep_their_locations():
    assert read(_rational_row, " 1 0/0", 4) == ("line 4, col 6: zero denominator", 4, 6,
                                                "zero denominator")
    assert read(_rational_row, "1/-2", 4)[0] == "line 4, col 2: expected a denominator"
    assert read(_rational_row, "+-3", 4)[0] == "line 4, col 2: expected a rational number"
    assert read(_rational_row, "1 x", 4)[0] == "line 4, col 3: expected a rational number"
    assert read(_rational_row, "1 $", 4)[0] == "line 4, col 2: unexpected character '$'"
    assert read(_rational_row, "0 -" + "9" * 1001, 4)[0] == (
        "line 4, col 4: number literal beyond 1000 digits")
    assert read(_rational_row, "- 1/ 2, 0,,3", 4) == [Q(-1) / Q(2), QZERO, Q(3)]


def test_a_failing_row_fails_in_linear_time():
    # nested repeats over a digit run would backtrack through every split of it
    for text in ("1" * 999 + "x", "1 " * 499 + "x", "- " * 499 + "1/", "1/" * 499 + "x"):
        start = time.perf_counter()
        assert _ROW_RE.fullmatch(text) is None
        assert time.perf_counter() - start < 0.05, text


def test_the_front_end_patterns_compile_on_python_3_10():
    # possessive quantifiers and atomic groups compile only from Python 3.11 on
    patterns = [v for v in vars(modelfile).values() if isinstance(v, re.Pattern)]
    assert _ROW_RE in patterns
    for pattern in patterns:
        assert not re.search(r"[*+?}]\+|\(\?>", pattern.pattern), pattern.pattern


def test_matrix_blocks_skip_the_tokens(monkeypatch):
    text = (MODELS_DIR / "t4_h124.model").read_text()
    header = "structure Jm matrix\n" + "".join(
        " ".join("1" if c == (r + 4) % 8 else "0" for c in range(8)) + "\n" for r in range(8))
    text += header.replace("1", "-1", 4) + "end\n"
    lines = []
    monkeypatch.setattr(modelfile, "tokenize", lambda t, line: lines.append(line) or tokenize(t, line))
    mf = parse_model(text)
    assert mf.structures["Jm"].matrix[0][4] == Q(-1) and mf.structures["Jm"].matrix[7][3] == Q(1)
    matrix_lines = range(text.count("\n") - 8, text.count("\n"))
    assert lines and not set(lines) & set(matrix_lines), lines
