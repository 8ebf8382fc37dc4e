import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import RefQ, ref_format_q, ref_scalar_str, triple
from gcalg import linalg
from gcalg.forms import Form
from gcalg.modelfile import parse_scalar_text
from gcalg.scalars import I, ONE, Q, QZERO, Scalar, ZERO, format_q


def test_q_arithmetic():
    a = Q(1, 2)
    b = Q(Fraction(1, 3), -1)
    assert a + b == Q(Fraction(4, 3), 1)
    assert a * b == Q(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert (a / b) * b == a
    assert a.conjugate() == Q(1, -2)
    assert (Q(0, 1) * Q(0, 1)) == Q(-1)


def test_q_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q(1) / Q(0)


def test_scalar_constructors_and_equality():
    t = Scalar.parameter("t")
    assert t * ONE == t
    assert t - t == ZERO
    assert ZERO.is_zero()
    assert (t * t).degree("t") == 2
    assert Scalar.pi(2).pi_power == 2
    assert hash(t + ONE) == hash(ONE + t)


def test_scalar_pi_addition_rules():
    # a sum applies no rule; reading the pi power of a mixed value raises
    pi = Scalar.pi()
    assert pi + ZERO == pi
    mixed = pi + ONE
    assert mixed == ONE + pi and mixed - ONE == pi
    for read in (lambda: mixed.pi_power, lambda: str(mixed)):
        with pytest.raises(ValueError, match="^cannot add scalars with pi powers 1 and 0$"):
            read()
    assert repr(mixed) == "Scalar({(1, ()): Q(1, 0), (0, ()): Q(1, 0)})"
    assert repr(Form(1, {1: mixed})) == "Form(1, {1: %r})" % mixed
    assert (pi * pi).pi_power == 2
    assert (pi / pi).pi_power == 0


def test_scalar_division_rules():
    t = Scalar.parameter("t")
    half = ONE / Scalar.rational(2)
    assert half + half == ONE
    with pytest.raises(ValueError):
        ONE / t
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugation_fixes_parameters_and_pi():
    t = Scalar.parameter("t")
    s = (t + I) * Scalar.pi()
    c = s.conjugate()
    assert c == (t - I) * Scalar.pi()
    assert c.conjugate() == s


def test_substitute():
    t = Scalar.parameter("t")
    s = Scalar.rational(4) * (t + ONE)
    assert s.substitute({"t": 1}).as_q() == Q(8)
    assert s.substitute({"t": Fraction(-1)}).is_zero()
    two_params = Scalar.parameter("a") * t
    assert two_params.substitute({"a": 2}) == t * Scalar.rational(2)


def test_is_real():
    t = Scalar.parameter("t")
    assert (t + ONE).is_real()
    assert not (t + I).is_real()


@pytest.mark.parametrize(
    "value, text",
    [
        (Scalar.rational(-2) * Scalar.pi() * (Scalar.parameter("t") + ONE), "-2*pi*(t+1)"),
        (Scalar.rational(-2) * Scalar.pi(), "-2*pi"),
        (Scalar.rational(4) * (Scalar.parameter("t") + ONE), "4*(t+1)"),
        (Scalar.rational(1), "1"),
        (Scalar.rational(-4), "-4"),
        (I, "i"),
        (-I, "-i"),
        (Scalar.imaginary(2), "2*i"),
        (ONE + I, "1+i"),
        (Scalar.parameter("t") ** 2 + Scalar.rational(2), "t^2+2"),
        (Scalar.rational(1, 2) * Scalar.pi(), "1/2*pi"),
        (ZERO, "0"),
    ],
)
def test_canonical_printing(value, text):
    assert str(value) == text


@pytest.mark.parametrize(
    "text",
    ["-2*pi*(t+1)", "-2*pi", "4*(t+1)", "t^2+2", "1/2*pi", "i", "-i", "2*i",
     "1+i", "pi^2*(t-1)", "-4", "0"],
)
def test_print_parse_round_trip(text):
    value = parse_scalar_text(text, params=["t"])
    assert str(value) == text
    again = parse_scalar_text(str(value), params=["t"])
    assert again == value


# -- the triple representation against the Fraction-pair reference ---------


def _operand(rng):
    """A (re, im) pair of ints and Fractions: zero, integers, pure
    imaginaries, Fractions given with negative denominators, Gaussian
    numbers sharing factors with their denominators, and wide ones."""
    kind = rng.choice(["zero", "int", "imag", "negden", "shared", "wide"])
    if kind == "zero":
        return rng.choice([(0, 0), (Fraction(0), 0), (0, Fraction(0, 5))])
    if kind == "int":
        return rng.randint(-9, 9), rng.choice([0, rng.randint(-9, 9)])
    if kind == "imag":
        return 0, Fraction(rng.choice([-3, -1, 1, 2, 6]), rng.choice([1, 2, 3]))
    if kind == "negden":
        return Fraction(3, -6), Fraction(rng.randint(-4, 4), -rng.randint(1, 8))
    if kind == "shared":  # (k*(1 +- i))/m: products and quotients cancel common factors
        k, m = rng.choice([1, 2, 3, 6]), rng.choice([1, 2, 4, 6, 12])
        return Fraction(k, m), Fraction(rng.choice([-k, k]), m)
    return (Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)),
            Fraction(rng.randint(-10 ** 3, 10 ** 3), rng.choice([1, 7, 999983])))


def _agrees(q, ref):
    a, b, d = triple(q)
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
    assert (q.re, q.im) == (ref.re, ref.im)
    assert repr(q) == repr(ref) and format_q(q) == ref_format_q(ref) == str(q)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as e:
        return e


def test_q_triples_match_the_fraction_pair_reference():
    rng = random.Random("q-triples")
    seen = {"zero_div": 0, "reduced": 0, "equal": 0}
    for _ in range(2000):
        ops = [_operand(rng), _operand(rng)]
        (x, y), (rx, ry) = ([Q(*o) for o in ops], [RefQ(*o) for o in ops])
        _agrees(x, rx)
        _agrees(y, ry)
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert x != triple(x) and x != rx  # a Q equals only a Q
        seen["equal"] += x == y
        if x == y:
            assert hash(x) == hash(y)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            got, want = _outcome(op, x, y), _outcome(op, rx, ry)
            if isinstance(want, ZeroDivisionError):
                assert str(got) == str(want) == "division by zero Gaussian rational"
                seen["zero_div"] += 1
                continue
            _agrees(got, want)
            seen["reduced"] += triple(got)[2] < x.d * y.d
        _agrees(-x, -rx)
        _agrees(x.conjugate(), rx.conjugate())
        assert x.is_zero() == (rx == RefQ()) and x.is_real() == (rx.im == 0)
        k = rng.randint(-3, 5)
        got, want = _outcome(pow, x, k), _outcome(pow, rx, k)
        if isinstance(want, ZeroDivisionError):
            assert isinstance(got, ZeroDivisionError)
        else:
            _agrees(got, want)
        # a scalar of up to three terms in t and s, times a power of pi
        monos = rng.sample([(), (("t", 1),), (("s", 2),), (("s", 1), ("t", 1))], rng.randint(1, 3))
        coeffs = [(q, r) for q, r in ((x, rx), (y, ry), (x * y, rx * ry)) if not q.is_zero()]
        power = rng.choice([0, 0, 1, 2])
        value = Scalar({(power, m): q for m, (q, _) in zip(monos, coeffs)})
        assert str(value) == ref_scalar_str({m: r for m, (_, r) in zip(monos, coeffs)}, power)
    assert seen["zero_div"] > 100 and seen["reduced"] > 500 and seen["equal"] > 10


def test_q_accepts_ints_and_fractions_as_it_did():
    for re, im in [(0, 0), (-4, 0), (Fraction(3, -6), 2), (1, Fraction(-10, 4)),
                   (Fraction(2, 6), Fraction(5, 15)), (True, False)]:
        _agrees(Q(re, im), RefQ(re, im))
    assert triple(Q(Fraction(1, 6), Fraction(1, 4))) == (2, 3, 12)
    assert triple(Q(Fraction(3, -6))) == (-1, 0, 2) and triple(Q()) == (0, 0, 1)
    with pytest.raises(AttributeError):
        Q(1).a = 2


def test_arithmetic_builds_no_fraction(monkeypatch):
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    x = Q(Fraction(1, 3), -2)  # built before the count starts
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    y = (x * Q(3, 4) - Q(1) / Q(0, 6)) ** 3 + x.conjugate()
    z = -y / x + Q(7) ** -2
    assert z != y and hash(z) != hash(y) and not z.is_zero() and not z.is_real()
    assert format_q(z) and repr(z) and str(Scalar.from_q(z) * Scalar.parameter("t"))
    mat = [[x, QZERO, z], [QZERO, QZERO, QZERO], [y, x * x, QZERO]]
    assert linalg.to_dense(linalg.to_sparse(mat), 3) == mat
    value = parse_scalar_text("(t+1/2*s+i)^8", ["t", "s"])
    assert value.degree() == 8 and str(value).startswith("1/256*(1024*s*t^7+")
    assert made == []


def test_known_wrong_printing_stays_byte_identical():
    # The content factored out of 22 + 9/4*i is 1/4, and the Gaussian rest is
    # printed unwrapped after it; pi*(1+3i) likewise, and neither parses back.
    # The fix, listed with the benchmark item of ROADMAP.md, changes CLI
    # output, so it waits for a benchmark change that may re-record
    # perfbench/expected_seed1.json; until then both stay as printed.
    assert str(Scalar.from_q(Q(22, Fraction(9, 4)))) == "1/4*88+9*i"
    assert str(Scalar.pi() * Scalar.from_q(Q(1, 3))) == "pi*1+3*i"
