from fractions import Fraction

import pytest

from gcalg.forms import Form
from gcalg.modelfile import parse_scalar_text
from gcalg.scalars import I, ONE, Q, Scalar, ZERO


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
