import json
import random
import time
from fractions import Fraction

import pytest

from conftest import MODELS_DIR, ref_tokenize

from gcalg.cartan import EqForm
from gcalg.cli import main
from gcalg.forms import Form, exp_two_form, wedge
from gcalg.modelfile import (
    MAX_DIGITS,
    MAX_GENERATORS,
    MAX_VALUE_DIGITS,
    ModelFileError,
    ParseError,
    parse_form_text,
    parse_model,
    parse_scalar_text,
    tokenize,
)
from gcalg.models import torus
from gcalg.scalars import I, ONE, Q, Scalar

T3 = """
model demo
generators e1 e2 e3
H = 1 * e1^e2^e3
"""


def test_parse_simple_twist():
    mf = parse_model(T3)
    assert mf.name == "demo"
    assert mf.model.H == Form.monomial(3, (1, 2, 3))


def test_parse_spinor_expression():
    text = """
model demo
generators e1 e2
let rho = e1 + i*e2
"""
    mf = parse_model(text)
    assert mf.values["rho"] == Form.generator(2, 1) + Form.generator(2, 2).scale(I)


def test_parse_family_expression():
    text = """
model demo
generators e1 e2 e3 e4
params t
let c = e1^e2
let rho1 = exp(-i*(t+1)*c) ^ (e3 + i*e4)
"""
    mf = parse_model(text)
    t = Scalar.parameter("t")
    c = Form.monomial(4, (1, 2))
    dz2 = Form.generator(4, 3) + Form.generator(4, 4).scale(I)
    expect = wedge(exp_two_form(c.scale(-(I * (t + ONE)))), dz2)
    assert mf.values["rho1"] == expect


def test_round_trip_form_printing():
    mf = parse_model(T3)
    examples = [
        "e1+i*e2",
        "1+i*e1^e2",
        "1/2*e2-2*e1^e3",
        "(1+i)*e1",
        "(t+1)*e2",
    ]
    model = torus(3)
    for text in examples:
        form = parse_form_text(text, model, params=["t"])
        assert form.to_text() == text
        assert parse_form_text(form.to_text(), model, params=["t"]) == form


def test_parse_errors_with_locations():
    with pytest.raises(ParseError) as err:
        parse_model("model demo\ngenerators e1 e2\nlet a = e1 + $")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_model("model demo\ngenerators e1 e2\nlet a = e9")
    assert "undeclared symbol" in err.value.reason

    with pytest.raises(ParseError) as err:
        parse_model("model demo\ngenerators e1 e2\nlet a = (e1 + e2")
    assert err.value.line == 3

    with pytest.raises(ParseError):
        parse_model("generators e1")  # missing header


def test_validation_errors_are_domain_errors():
    bad = """
model bad
generators e1 e2 e3 e4 e5
d e5 = e1^e2 + e3^e4
H = e1^e2^e5
"""
    with pytest.raises(ModelFileError, match="not closed"):
        parse_model(bad)
    bad2 = """
model bad2
generators e1 e2 e3 e4
d e3 = e1^e2
d e4 = e3^e4
"""
    with pytest.raises(ModelFileError, match="not a differential"):
        parse_model(bad2)


def test_parse_structure_blocks():
    text = """
model demo
generators e1 e2
let omega = e1^e2
structure Jw symplectic omega
structure Jc complex
structure Jm matrix
  0 0 0 -1
  0 0 1 0
  0 -1 0 0
  1 0 0 0
end
"""
    mf = parse_model(text)
    assert set(mf.structures) == {"Jw", "Jc", "Jm"}
    assert mf.structures["Jw"] == mf.structures["Jm"]


def test_parse_action_connection_and_eqform():
    text = """
model demo
generators e1 e2
action rot
  xi 1 = 1 0
  mu 1 = e2
  alpha 1 = 0
end
connection th for rot
  theta 1 = e1
end
eqform g for rot = x1*e2 + 1
"""
    mf = parse_model(text)
    act = mf.actions["rot"]
    assert act.k == 1
    assert act.mu_diff[0] == Form.generator(2, 2)
    conn = mf.connections["th"]
    assert conn.theta[0] == Form.generator(2, 1)
    g = mf.values["g"]
    assert isinstance(g, EqForm)
    assert g.component((1,)) == Form.generator(2, 2)
    assert g.component((0,)) == Form.unit(2)


def test_eqform_power_round_trip():
    text = """
model demo
generators e1 e2
action rot
  xi 1 = 1 0
end
eqform g for rot = x1^2*e2 + x1*(e1^e2)
"""
    mf = parse_model(text)
    g = mf.values["g"]
    assert g.component((2,)) == Form.generator(2, 2)
    assert g.component((1,)) == Form.monomial(2, (1, 2))
    # printed text re-parses to the same value
    text2 = "model demo\ngenerators e1 e2\naction rot\n  xi 1 = 1 0\nend\n" \
        "eqform h for rot = " + g.to_text() + "\n"
    mf2 = parse_model(text2)
    assert mf2.values["h"] == g


def test_parse_samples_and_negative_rationals():
    text = """
model demo
generators e1 e2
params t
samples t = 0, 1, -1/2
"""
    mf = parse_model(text)
    assert mf.samples["t"] == [Fraction(0), Fraction(1), Fraction(-1, 2)]


def test_samples_for_an_undeclared_parameter_name_their_line():
    text = "model demo\ngenerators e1 e2\nparams t\n\nsamples s = 1, 2\n"
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert str(err.value) == "line 5: samples for undeclared parameter 's'"
    assert err.value.line == 5


def test_unexpected_end_is_located_past_the_last_token(tmp_path, capsys):
    path = tmp_path / "end.model"
    for body, col in [("let a = e1 +", 13), ("let a = (e1 + e2", 17), ("let a = exp(", 13)]:
        path.write_text("model end\ngenerators e1 e2\n%s   # comment\n" % body)
        code = main(["validate", str(path)])
        payload = json.loads(capsys.readouterr().out)
        error = "line 3, col %d: unexpected end of expression" % col
        assert code == 2 and payload == {"error": error, "kind": "parse"}
    with pytest.raises(ParseError) as err:
        parse_form_text("", torus(2))
    assert str(err.value) == "line 1, col 1: unexpected end of expression"


def test_scalar_round_trip_through_parser():
    for text in ("-2*pi*(t+1)", "4*(t+1)", "-2*pi", "1/2*pi", "t^2+2"):
        val = parse_scalar_text(text, params=["t"])
        assert str(val) == text


def test_power_and_division_semantics():
    model = torus(2)
    assert parse_form_text("2^2", model) == Form.unit(2, Scalar.rational(4))
    assert parse_form_text("e1^e2", model) == Form.monomial(2, (1, 2))
    assert parse_form_text("e1^2", model).is_zero()  # iterated wedge
    assert parse_scalar_text("pi^2").pi_power == 2
    assert parse_scalar_text("1/2") == Scalar.rational(1, 2)
    with pytest.raises(ParseError):
        parse_form_text("e1/e2", model)
    with pytest.raises(ParseError):
        parse_form_text("1/t", model, params=["t"])
    with pytest.raises(ParseError):
        parse_form_text("exp(e1)", model)


def test_pi_powers_are_checked_on_each_operator_result(tmp_path, capsys):
    # the order of terms inside an operand never matters; a result with two
    # pi powers on one coefficient is a parse error at its operator
    two_forms = "e2^e3 + e1^e3 + e1^e2"
    path = tmp_path / "pi.model"
    for body, error in [
        ("let a = (e1 + pi*e2 + pi*e3) ^ (%s)" % two_forms, None),
        ("let a = (pi*e2 + pi*e3 + e1) ^ (%s)" % two_forms, None),
        ("let a = (e1 + pi*e2) ^ (e2 + e1)",
         "line 3, col 22: cannot add scalars with pi powers 0 and 1"),
        ("let a = pi + 1", "line 3, col 12: cannot add scalars with pi powers 1 and 0"),
    ]:
        path.write_text("model pi\ngenerators e1 e2 e3\n%s\n" % body)
        code = main(["validate", str(path)])
        payload = json.loads(capsys.readouterr().out)
        if error is None:
            assert code == 0 and payload["ok"]
            a = parse_model(path.read_text()).values["a"]
            assert a.coefficient((1, 2, 3)) == ONE
        else:
            assert code == 2 and payload == {"error": error, "kind": "parse"}


HEADER = "model hostile\ngenerators e1 e2\nparams t s u\n"


def _validate_file(tmp_path, capsys, body):
    path = tmp_path / "hostile.model"
    path.write_text(HEADER + body)
    start = time.perf_counter()
    code = main(["validate", str(path)])
    seconds = time.perf_counter() - start
    return code, json.loads(capsys.readouterr().out), seconds


@pytest.mark.parametrize(
    "body, col, reason",
    [
        ("let a = t^2000000\n", 11, "exponent beyond +-32"),
        ("let a = " + "(" * 5000 + "e1" + ")" * 5000 + "\n", 109, "nested deeper than 100 levels"),
    ],
    ids=["huge-exponent", "deep-parentheses"],
)
def test_hostile_input_is_a_quick_located_parse_error(tmp_path, capsys, body, col, reason):
    code, payload, seconds = _validate_file(tmp_path, capsys, body)
    assert code == 2 and payload["kind"] == "parse"
    assert payload["error"] == "line 4, col %d: %s" % (col, reason)
    assert seconds < 1.0


DH_CIRCLE = ("model circle\ngenerators e1 e2\nparams t\nlet c = e1^e2\nlet rho = exp(-i*c)\n"
             "dh f\n  base = rho\n  twist = c\n  param = t\n  n = %s\n  k = %s\nend\n")


def _dh(tmp_path, capsys, n, k):
    path = tmp_path / "dh.model"
    path.write_text(DH_CIRCLE % (n, k))
    start = time.perf_counter()
    code = main(["dh", str(path)])
    return code, json.loads(capsys.readouterr().out), time.perf_counter() - start


def test_dh_n_and_k_are_capped_as_exponents(tmp_path, capsys):
    # both enter the normalization (2 pi)^k / (2i)^(n-k) as powers; uncapped,
    # n = 200001, k = 200000 ran for seconds and failed on an int conversion
    code, payload, seconds = _dh(tmp_path, capsys, 200001, 200000)
    assert code == 2 and seconds < 1.0
    assert payload == {"error": "line 10, col 7: dh n beyond +-32", "kind": "parse"}
    assert _dh(tmp_path, capsys, 32, -33)[1]["error"] == "line 11, col 7: dh k beyond +-32"
    assert _dh(tmp_path, capsys, "(-33)", 1)[1]["error"] == "line 10, col 7: dh n beyond +-32"
    code, payload, _ = _dh(tmp_path, capsys, 32, 31)  # at the cap: 2(n - k) = 2 generators
    assert code == 0 and payload["normalization"] == "-1073741824*pi^31*i"  # -i 2^30 pi^31
    spec = parse_model((MODELS_DIR / "t4_rho1.model").read_text()).dh_specs["f1"]
    assert (spec.n, spec.k) == (3, 1)


def test_number_literals_are_capped_at_max_digits(tmp_path, capsys):
    # past Python's int-string limit (4300 digits) the conversion failed with
    # no line or column
    assert MAX_DIGITS == 1000
    big, cap = "9" * 5000, "9" * MAX_DIGITS
    path = tmp_path / "big.model"
    head = "model big\ngenerators e1 e2 e3\n"
    matrix = "model big\ngenerators e1 e2\nstructure J matrix\n  0 0 %s 0\n" + (
        "  0 0 0 1\n" * 3 + "end\n")
    for text, where in [(head + "H = %s*e1^e2^e3\n" % big, "line 3, col 5"),
                        (matrix % ("-" + big), "line 4, col 8"),
                        (head + "let c = 1/%s*e1 + $\n" % big, "line 3, col 11"),
                        (head + "let c = $ + %s\n" % big,
                         "line 3, col 8: unexpected character '$'")]:
        path.write_text(text)
        start = time.perf_counter()
        code = main(["cohomology", str(path)])
        seconds = time.perf_counter() - start
        assert code == 2 and seconds < 1.0
        error = where if "unexpected" in where else where + ": number literal beyond 1000 digits"
        assert json.loads(capsys.readouterr().out) == {"error": error, "kind": "parse"}
    with pytest.raises(ParseError, match="line 1, col 3: number literal beyond 1000 digits"):
        parse_scalar_text("2*" + "1" * (MAX_DIGITS + 1))
    # at the cap
    path.write_text(head + "H = %s*e1^e2^e3\n" % cap)
    assert main(["cohomology", str(path)]) == 0
    capsys.readouterr()
    mf = parse_model(matrix % ("-" + cap))
    assert mf.structures["J"].matrix[0][2] == Q(-(10 ** MAX_DIGITS - 1))


def test_computed_numbers_are_capped_at_max_value_digits(tmp_path, capsys):
    # a value built past Python's int-string limit (4300 digits) failed with
    # no line or column when it was printed; now the operator or call that
    # builds a number of more than MAX_VALUE_DIGITS digits is the location
    assert MAX_VALUE_DIGITS == 4000
    nines = "9" * MAX_DIGITS
    path = tmp_path / "big.model"
    head = "model big\ngenerators e1 e2 e3\nH = "

    def validate(h):
        path.write_text(head + h + "*e1^e2^e3\n")
        code = main(["validate", str(path)])
        return code, json.loads(capsys.readouterr().out)

    # a power is refused at its "^" from the estimate, before it is computed
    start = time.perf_counter()
    assert validate("(%s)^5" % nines) == (
        2, {"error": "line 3, col 1007: up to 5001 digits in a number, beyond 4000",
            "kind": "parse"})
    assert validate("1/(%s)^-5" % nines)[1]["error"].startswith("line 3, col 1009: up to")
    assert time.perf_counter() - start < 1.0
    # a sum of fractions grows its denominator: the "+" that passes the cap
    dens = [10 ** (MAX_DIGITS - 1) + k for k in (1, 2, 3, 5, 7, 11)]
    h = "(%s)" % " + ".join("1/%d" % d for d in dens)
    partial = [sum(Fraction(1, d) for d in dens[:k + 1]) for k in range(len(dens))]
    first = next(k for k, s in enumerate(partial) if s.denominator >= 10 ** MAX_VALUE_DIGITS)
    plus = [k for k, ch in enumerate(head.splitlines()[-1] + h, start=1) if ch == "+"]
    assert first == 4 and validate(h) == (
        2, {"error": "line 3, col %d: a number of more than 4000 digits" % plus[first - 1],
            "kind": "parse"})
    # just under the cap: 4000 digits still validate and print
    for under, value in [("(%s)^4" % nines, (10 ** MAX_DIGITS - 1) ** 4),
                         ("(%s)" % " + ".join("1/%d" % d for d in dens[:4]), partial[3])]:
        code, out = validate(under)
        assert code == 0 and out["twist"] == "%s*e1^e2^e3" % value
    # one digit more, by a product or a quotient; an exp at its call
    for h in ("(%s)^4 * 10" % nines, "(%s)^4 / (1/10)" % nines):
        assert validate(h) == (
            2, {"error": "line 3, col 1010: a number of more than 4000 digits", "kind": "parse"})
    with pytest.raises(ParseError, match="line 1, col 1: up to 6001 digits in a number"):
        parse_form_text("exp(X^3*e1^e2 + X^2*e3^e4)".replace("X", "(%s)" % nines), torus(4))
    assert parse_scalar_text("(%s)^4" % nines) == Scalar.rational((10 ** MAX_DIGITS - 1) ** 4)


def test_a_long_polynomial_variable_exceeds_the_rank_with_a_location():
    # a NAME, not a NUM: its digit run is read only when it is short enough
    head = "model hand\ngenerators e1 e2\naction r\n  xi 1 = 1 0\nend\neqform g for r = "
    for digits in ("2", "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), "9" * 5000):
        name = "x" + digits
        with pytest.raises(ParseError) as err:
            parse_model(head + name + "\n")
        assert str(err.value) == (
            "line 6, col 18: polynomial variable %s exceeds the torus rank 1" % name)


def _names(first, last):
    return " ".join("e%d" % i for i in range(first, last + 1))


def test_generator_count_limit_is_a_quick_located_parse_error(tmp_path, capsys):
    assert MAX_GENERATORS == 8
    path = tmp_path / "wide.model"
    path.write_text("model wide\ngenerators %s\n" % _names(1, 14))
    start = time.perf_counter()
    code = main(["cohomology", str(path)])
    seconds = time.perf_counter() - start
    assert code == 2 and seconds < 1.0
    # the first name past the limit, e9, starts at col 36
    assert json.loads(capsys.readouterr().out) == {
        "error": "line 2, col 36: more than 8 generators", "kind": "parse"}
    # the count runs over every generators line of the file
    with pytest.raises(ParseError) as err:
        parse_model("model wide\ngenerators %s\ngenerators e7 e8 e9\n" % _names(1, 6))
    assert (err.value.line, err.value.col, err.value.reason) == (3, 18, "more than 8 generators")
    assert parse_model("model wide\ngenerators %s\n" % _names(1, 8)).model.n == 8


def test_input_limits_count_every_kind_of_nesting():
    for text in (
        "-" * 101 + "e1",  # unary signs
        "exp(" * 101 + "e1^e2" + ")" * 101,  # call arguments
        "(" * 50 + "-(" * 26 + "e1" + ")" * 76,  # mixed
    ):
        with pytest.raises(ParseError) as err:
            parse_form_text(text, torus(2))
        assert err.value.reason == "nested deeper than 100 levels"
    for exponent in ("33", "-33", "(40)", "(-(40))"):
        with pytest.raises(ParseError) as err:
            parse_scalar_text("t^" + exponent, ["t"])
        assert err.value.reason == "exponent beyond +-32"


def test_input_just_under_the_limits(tmp_path, capsys):
    body = (
        "let a = " + "(" * 100 + "e1" + ")" * 100 + "\n"
        + "let b = " + "-" * 100 + "e1\n"
        + "let c = (t+1)^32 * 2^-32 * e1\n"
        + "let d = " + "+".join(["e2"] * 3000) + "\n"
    )
    code, payload, _ = _validate_file(tmp_path, capsys, body)
    assert code == 0 and payload["ok"]
    mf = parse_model(HEADER + body)
    assert mf.values["a"] == Form.generator(2, 1)
    assert mf.values["b"] == Form.generator(2, 1)
    assert mf.values["d"] == Form.generator(2, 2).scale(Scalar.rational(3000))


@pytest.mark.parametrize(
    "body, where, reason",
    [
        ("let a = (t+s+1)^16^4\n", "line 4, col 19", "polynomial degree 64 beyond 32"),
        ("let b = (t+s+1)^32\nlet a = b^8\n", "line 5, col 10", "polynomial degree 256 beyond 32"),
        ("let a = (t+s+u+1)^32\n", "line 4, col 18",
         "up to 6545 monomials in a coefficient, beyond 1000"),
    ],
    ids=["chained-power", "power-of-a-let", "monomials"],
)
def test_degree_budget_is_a_quick_located_parse_error(tmp_path, capsys, body, where, reason):
    code, payload, seconds = _validate_file(tmp_path, capsys, body)
    assert code == 2 and payload["kind"] == "parse"
    assert payload["error"] == "%s: %s" % (where, reason)
    assert seconds < 1.0


def test_degree_budget_counts_every_coefficient():
    model = torus(2)
    for text, degree in (
        ("(t^20*e1) * (t^13*e2)", 33),  # form times form
        ("(t^20*e1 + s) * t^13", 33),  # form times scalar
        ("(e1 + t^11*s^6*e2)^2", 34),  # power of a form
        ("t^16 * t^16 * t", 33),  # a chain of products
    ):
        with pytest.raises(ParseError) as err:
            parse_form_text(text, model, params=["t", "s"])
        assert err.value.reason == "polynomial degree %d beyond 32" % degree
    # exp(w) reaches w^(n/2)
    t6 = torus(6)
    with pytest.raises(ParseError) as err:
        parse_form_text("exp((t+s+1)^11*(e1^e2+e3^e4+e5^e6))", t6, params=["t", "s"])
    assert err.value.reason == "polynomial degree 33 beyond 32"
    top = parse_form_text("exp(t^16*(e1^e2+e3^e4))", torus(4), params=["t"]).top_coefficient()
    assert top == Scalar.parameter("t") ** 32


def test_monomial_budget_bounds_one_coefficient():
    model = torus(6)
    ps = ["t", "s", "u"]
    # the largest powers under the budget: C(34, 2) = 561 and C(19, 3) = 969
    assert len(parse_scalar_text("(t+s+1)^32", ["t", "s"]).terms) == 561
    assert len(parse_scalar_text("(t+s+u+1)^16", ps).terms) == 969
    for text, count in (
        ("(t+s+u+1)^17", 1140),  # a power
        ("(t+s+u+1)^16 * (t+s+u+1)", 1140),  # a product
        ("exp((t+s+u+1)^10*(e1^e2+e3^e4+e5^e6))", 5456),  # exp reaches w^3
        ("(t+s+u+1)^16 * ((t+s+u+1)*e1)", 1140),  # a scalar times a form
    ):
        with pytest.raises(ParseError) as err:
            parse_form_text(text, model, params=ps)
        assert err.value.reason == "up to %d monomials in a coefficient, beyond 1000" % count
    # sparse factors stay cheap at any degree: 2 * 2 monomials, not C(35, 3)
    prod = parse_scalar_text("(t^8*s^8*u^8 + t^8) * (t^4*s^4 + u^8)", ps)
    assert len(prod.terms) == 4 and prod.degree() == 32


def test_file_budget_stops_at_the_statement_that_crosses_it(tmp_path, capsys):
    # each power is in budget (969 monomials, 969 * 16 term products, about
    # 0.5 s); ten of them took seconds, now the second crosses 20000
    body = "".join("let a%d = (t+s+u+%d)^16\n" % (k, k) for k in range(1, 11))
    code, payload, seconds = _validate_file(tmp_path, capsys, body)
    assert code == 2 and payload["kind"] == "parse"
    assert payload["error"] == "line 5, col 19: term products in this file add up to 31008, beyond 20000"
    assert seconds < 1.0
    # the total is per file: one such power per file still parses
    code, payload, _ = _validate_file(tmp_path, capsys, "let a = (t+s+u+1)^16 * e1\n")
    assert code == 0 and payload["ok"]
    # statements of every kind add to the same total
    act = "action r\nxi 1 = 1 0\nalpha 1 = (t+s+u+1)^16*e2\nend\n"
    code, payload, _ = _validate_file(tmp_path, capsys, "let a = (t+s+u+2)^16\n" + act)
    assert (code, payload["kind"]) == (2, "parse")
    assert payload["error"].startswith("line 7, col 20: term products in this file")


def test_polynomial_degree_just_under_the_budget(tmp_path, capsys):
    body = "let b = (t+s)^16\nlet a = b*b*e1\nlet c = ((t+s)^2)^16 - t^32\n"
    code, payload, seconds = _validate_file(tmp_path, capsys, body)
    assert code == 0 and payload["ok"]
    assert seconds < 1.0
    values = parse_model(HEADER + body).values
    assert values["a"].terms[0b01].degree() == 32
    assert values["c"].degree() == 32 and values["c"].degree("t") == 31


@pytest.mark.parametrize(
    "body, where",
    [
        ("structure J matrix\n  0 0 0 1/0\n  0 0 1 0\n  0 -1 0 0\n  1 0 0 0\nend\n",
         "line 5, col 11"),
        ("action r\n  xi 1 = 1/0 0\nend\n", "line 5, col 12"),
        ("samples t = 0, 1/0\n", "line 4, col 18"),
    ],
    ids=["matrix-row", "xi-row", "samples"],
)
def test_zero_denominators_are_located_parse_errors(tmp_path, capsys, body, where):
    code, payload, _ = _validate_file(tmp_path, capsys, body)
    assert code == 2
    assert payload == {"error": "%s: zero denominator" % where, "kind": "parse"}


def test_xi_rows_are_located_in_their_own_line():
    with pytest.raises(ParseError) as err:
        parse_model("model demo\ngenerators e1 e2\naction r\n  xi 1 = 1 x\nend\n")
    assert str(err.value) == "line 4, col 12: expected a rational number"


@pytest.mark.parametrize(
    "what, block, line",
    [
        ("mu", "action r\n  xi 1 = 1 0\n  mu 1 = g\nend\n", 6),
        ("alpha", "action r\n  xi 1 = 1 0\n  alpha 1 = g\nend\n", 6),
        ("theta", "action r\n  xi 1 = 1 0\nend\nconnection c for r\n  theta 1 = g\nend\n", 8),
    ],
    ids=["mu", "alpha", "theta"],
)
def test_moment_and_connection_forms_are_located_in_their_own_line(what, block, line):
    # g is an eqform; the error names the mu, alpha or theta line, not the block header
    with pytest.raises(ParseError) as err:
        parse_model(HEADER + block + "eqform g for r = x1\n")
    assert str(err.value) == "line %d, col 1: %s must be a form" % (line, what)


def test_forms_meet_eqforms_only_under_a_torus_rank():
    eq = "model demo\ngenerators e1 e2\naction r\n  xi 1 = 1 0\nend\neqform g for r = x1\n"
    mf = parse_model(eq + "eqform h for r = g + e1\n")
    assert mf.values["h"].component((0,)) == Form.generator(2, 1)
    with pytest.raises(ParseError) as err:
        parse_model(eq + "let h = g + e1\n")
    assert str(err.value) == "line 7, col 11: polynomial variables are not allowed here"


def test_blocks_without_end_fail_after_their_body_lines():
    for block, error in [
        ("structure J matrix\n  0 0 0 -1\n", "line 3, col 1: matrix block missing 'end'"),
        ("action r\n  xi 1 = 1 0\n", "line 3, col 1: action block missing 'end'"),
        ("connection c for r\n  theta 1 = e1\n", "line 3, col 1: connection block missing 'end'"),
        ("dh f\n  base = 1\n", "line 3, col 1: dh block missing 'end'"),
        ("dh f\n  base = (1\n", "line 4, col 12: unexpected end of expression"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_model("model demo\ngenerators e1 e2\n" + block)
        assert str(err.value) == error


@pytest.mark.parametrize("index", [0, 2])
@pytest.mark.parametrize("what", ["mu", "alpha"])
def test_moment_lines_outside_the_rank_name_their_line(what, index):
    text = ("model demo\ngenerators e1 e2\naction r\n  xi 1 = 1 0\n  %s %d = e2\nend\n"
            % (what, index))
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert str(err.value) == "line 5: action 'r' defines %s %d outside 1..1" % (what, index)
    assert err.value.line == 5


@pytest.mark.parametrize("field", ["orientaton", "colour"])
def test_unknown_dh_fields_are_located_at_the_field(field):
    text = ("model demo\ngenerators e1 e2\nparams t\ndh f\n  base = 1\n  twist = e1^e2\n"
            "  param = t\n  n = 1\n  k = 1\n  %s = -1\nend\n" % field)
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == "line 10, col 3: unknown dh field %r" % field


DH_F = "params t\ndh f\n  base = 1\n  twist = e1^e2\n  param = t\n  n = 1\n  k = 1\n%send\n"


@pytest.mark.parametrize(
    "body, error",
    [
        ("structure J complex\nstructure J symplectic e1^e2\n", "line 4, col 11: repeated structure 'J'"),
        ("action r\n  xi 1 = 1 0\nend\nconnection c for r\n  theta 1 = e1\nend\n"
         "connection c for r\n  theta 1 = e1\nend\n", "line 9, col 12: repeated connection 'c'"),
        (DH_F % "" + "dh f\n  base = 1\nend\n", "line 11, col 4: repeated dh 'f'"),
        ("params t\nsamples t = 1\nsamples t = 2\n", "line 5, col 9: repeated samples 't'"),
        ("action r\n  xi 1 = 1 0\n  xi 1 = 0 1\nend\n", "line 5, col 6: repeated xi 1"),
        ("action r\n  xi 1 = 1 0\n  mu 1 = e1\n  mu 1 = e2\nend\n", "line 6, col 6: repeated mu 1"),
        ("action r\n  xi 1 = 1 0\n  alpha 1 = 0\n  alpha 1 = e1\nend\n",
         "line 6, col 9: repeated alpha 1"),
        ("action r\n  xi 1 = 1 0\nend\nconnection c for r\n  theta 1 = e1\n  theta 1 = e2\nend\n",
         "line 8, col 9: repeated theta 1"),
        (DH_F % "  n = 2\n", "line 10, col 3: repeated dh field 'n'"),
        ("d e2 = e1\nd e2 = 0\n", "line 4, col 3: repeated d 'e2'"),
        ("H = 0\nH = 0\n", "line 4, col 1: repeated H"),
        ("volume = 1\nvolume = 2\n", "line 4, col 1: repeated volume"),
        ("orientation = +1\norientation = -1\n", "line 4, col 1: repeated orientation"),
        ("params t t\n", "line 3, col 10: repeated parameter 't'"),
        ("params t\nparams s t\n", "line 4, col 10: repeated parameter 't'"),
    ],
    ids=["structure", "connection", "dh", "samples", "xi", "mu", "alpha", "theta",
         "dh-field", "d", "H", "volume", "orientation", "parameter", "parameter-lines"],
)
def test_repeated_definitions_fail_at_the_second(body, error):
    with pytest.raises(ParseError) as err:
        parse_model("model demo\ngenerators e1 e2\n" + body)
    assert str(err.value) == error


# -- the tokenizer against its first version (ref_tokenize, tests/conftest.py) --


def _tokenize_outcome(text, line):
    try:
        return [tuple(tok) for tok in tokenize(text, line)]
    except ParseError as exc:
        return str(exc)


def test_tokenize_matches_reference_on_shipped_and_corpus_lines():
    corpus = json.loads((MODELS_DIR.parent / "tests" / "data" / "modelfile_corpus.json").read_text())
    texts = [p.read_text() for p in sorted(MODELS_DIR.glob("*.model"))]
    texts += [entry["text"] for entry in corpus]
    lines = [(line, no) for text in texts for no, line in enumerate(text.split("\n"), start=1)]
    assert len(lines) > 5000
    refused = 0
    for line, no in lines:
        want = ref_tokenize(line, no)
        assert _tokenize_outcome(line, no) == want, line
        refused += isinstance(want, str)
    assert refused > 100  # comments, '.', '#' and friends


def test_tokenize_locates_stray_characters_past_the_previous_token():
    assert _tokenize_outcome("let bad = e1 ? e2", 7) == "line 7, col 13: unexpected character '?'"
    rng = random.Random("stray-characters")
    pieces = ["e1", "x2", "12", "007", "_a9", "+", "-", "*", "/", "^", "(", ")", ",", "=",
              " ", "  ", "\t"]
    strays = ["?", "#", ".", "!", "$", "@", "~", "[", "]", "{", ";", ":", "'", "\"", "\u00e9",
              "\u00b2", "\u0663", "\u3000x"]
    refused = 0
    for _ in range(3000):
        parts = [rng.choice(pieces) for _ in range(rng.randint(0, 8))]
        stray = rng.choice(strays)
        where = rng.choice(["start", "middle", "end"])
        at = {"start": 0, "middle": len(parts) // 2, "end": len(parts)}[where]
        parts.insert(at, rng.choice(["", " ", "\t "]) + stray)
        line = "".join(parts)
        want = ref_tokenize(line, 3)
        assert _tokenize_outcome(line, 3) == want, line
        refused += isinstance(want, str)
    assert refused > 2500
    for line in ["", "   ", "\t", "e1  ", "  1/0  ", "\u3000e1\u3000"]:
        assert _tokenize_outcome(line, 1) == ref_tokenize(line, 1)
