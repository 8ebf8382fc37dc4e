"""Sums do not depend on grouping.

A Scalar keys its terms by (pi power, monomial), so `+` applies no rule and a
value may hold several pi powers while it is built; reading `pi_power` (and
so printing) raises on a finished value that still mixes them.  Permuting
and re-bracketing the summands of a Scalar sum, or inserting the terms of a
form's inputs in another order, must give the same value and the same
printed outcome: the text, or the mixed-power error.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from gcalg.forms import Form, clifford, wedge
from gcalg.scalars import Q, Scalar

MIXED = re.compile(r"cannot add scalars with pi powers (\d+) and (\d+)")
MONOMIALS = [(), (("t", 1),), (("s", 1), ("t", 1)), (("t", 2),)]

summands = st.builds(
    lambda power, mono, re_, im: Scalar({(power, mono): Q(re_, im)}),
    st.integers(0, 2), st.sampled_from(MONOMIALS),
    st.fractions(-3, 3, max_denominator=4), st.integers(-2, 2),
)


def outcome(value):
    """The printed scalar or form, or "mixed" when a coefficient mixes pi powers."""
    try:
        return str(value)
    except ValueError as e:
        first, second = MIXED.fullmatch(str(e)).groups()
        assert first != second
        return "mixed"


def bracketed(data, items):
    """The sum of items under a drawn binary bracketing."""
    if len(items) == 1:
        return items[0]
    cut = data.draw(st.integers(1, len(items) - 1))
    return bracketed(data, items[:cut]) + bracketed(data, items[cut:])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.lists(summands, min_size=1, max_size=8), st.lists(summands, max_size=3))
def test_scalar_sums_ignore_order_and_bracketing(data, items, cancelled):
    items = items + cancelled + [-c for c in cancelled]
    total = sum(items[1:], items[0])
    other = bracketed(data, data.draw(st.permutations(items)))
    assert other == total and hash(other) == hash(total)
    assert outcome(other) == outcome(total)
    powers = {p for p, _ in total.terms}
    assert (outcome(total) == "mixed") == (len(powers) > 1)


def forms(n):
    """Lists of (mask, single-power coefficient) pairs, masks possibly repeated."""
    return st.lists(st.tuples(st.integers(0, (1 << n) - 1), summands), min_size=1, max_size=6)


def build(n, pairs):
    """The form whose coefficient on a mask sums its pairs, in list order."""
    terms = {}
    for mask, c in pairs:
        terms[mask] = terms.get(mask, Scalar()) + c
    return Form(n, terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 4))
def test_form_products_ignore_term_order(data, n):
    a_pairs, b_pairs = data.draw(forms(n)), data.draw(forms(n))
    a, b = build(n, a_pairs), build(n, b_pairs)
    a2 = build(n, data.draw(st.permutations(a_pairs)))
    b2 = build(n, data.draw(st.permutations(b_pairs)))
    v = data.draw(st.lists(summands, min_size=2 * n, max_size=2 * n))
    for got, want in [(a2 + b2, a + b), (b2 + a2, a + b), (wedge(a2, b2), wedge(a, b)),
                      (clifford(v, a2), clifford(v, a))]:
        assert got == want
        assert outcome(got) == outcome(want)
