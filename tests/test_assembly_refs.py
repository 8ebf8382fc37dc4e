"""Differential tests: the term-major unit images of d_H and the forward
elimination against the versions they replaced (tests/conftest.py).

`models._unit_images` builds the image of every unit form in one pass per
term of each d(e_g) and of the twist, visiting only the masks that term
moves; the reference builds one column per mask.  Every image must equal
the reference column for that mask, key order included, since the Cartan
complex and d_H's matrix store entries in that order.  `linalg._eliminate`
keeps only the rows not yet pivots in its column index and pops each
cleared pivot-column entry; the reference intersects a fresh candidate set
per column and recomputes that entry.  Pivot rows, pivot columns and the
reduced rows must be the same.
"""

import random

import pytest

from conftest import ref_d_column, ref_eliminate, triple, wide_q
from gcalg import linalg
from gcalg.models import _unit_images

SMALL = [(1, 0, 1), (-1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 0, 2), (-1, 1, 3)]


def small_or_wide(rng):
    """A triple from a short list, so sums cancel and pivots are often 1,
    or a Gaussian rational with denominators up to 10^6."""
    return rng.choice(SMALL) if rng.random() < 0.7 else triple(wide_q(rng))


def random_table(rng, n, kind):
    """The (mask, triple) terms of d(e_1)..d(e_n): 2-forms, some holding
    e_g itself (d e2 = e1^e2), or 0-forms (a contraction), or none."""
    pairs = [(1 << a) | (1 << b) for a in range(n) for b in range(a + 1, n)]
    table = []
    for g in range(n):
        if kind == "empty" or rng.random() < 0.3:
            table.append([])
        elif kind == "contraction":
            table.append([(0, small_or_wide(rng))])
        else:
            own = [mk for mk in pairs if mk >> g & 1]
            picks = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
            if own and rng.random() < 0.5:
                picks.append(rng.choice(own))
            table.append([(mk, small_or_wide(rng)) for mk in dict.fromkeys(picks)])
    return table


def random_twist(rng, n, kind):
    if kind == "empty" or rng.random() < 0.3:
        return []
    degree = rng.choice([1, 3]) if n >= 3 else 1
    masks = [mk for mk in range(1 << n) if mk.bit_count() == degree]
    return [(mk, small_or_wide(rng)) for mk in rng.sample(masks, min(len(masks), rng.randint(1, 3)))]


def touched(mask, table, h):
    """The keys the reference column of mask adds into, with repeats."""
    keys = []
    for g, terms in enumerate(table):
        if mask >> g & 1:
            rest = mask ^ (1 << g)
            keys += [mg | rest for mg, _ in terms if not mg & rest]
    return keys + [mh | mask for mh, _ in h if not mh & mask]


@pytest.mark.parametrize("kind", ["two-forms", "contraction", "empty"])
def test_unit_images_match_per_mask_columns(kind):
    rng = random.Random("unit-images-%s" % kind)
    seen = {"masks": 0, "own": 0, "sums": 0, "cancelled": 0}
    for n in range(0, 7):
        for _ in range(25):
            table, h = random_table(rng, n, kind), random_twist(rng, n, kind)
            images = _unit_images(n, table, h)
            assert len(images) == 1 << n
            for mask, image in enumerate(images):
                want = ref_d_column(mask, table, h)
                assert list(image.items()) == list(want.items())
                keys = touched(mask, table, h)
                seen["masks"] += 1
                seen["sums"] += len(set(keys)) < len(keys)
                seen["cancelled"] += len(want) < len(set(keys))
            seen["own"] += any(mg >> g & 1 for g, terms in enumerate(table) for mg, _ in terms)
    assert seen["masks"] == 25 * sum(1 << n for n in range(7))
    if kind == "two-forms":
        assert seen["sums"] > 100 and seen["cancelled"] > 10 and seen["own"] > 20
    else:  # a contraction lowers the degree and a twist raises it: no key meets another
        assert seen["sums"] == seen["cancelled"] == seen["own"] == 0
    assert _unit_images(0, [], []) == [{}]


def blocked_rows(rng, shape):
    """Sparse rows of triples, their column count and nondecreasing blocks."""
    if shape == "empty":
        return [], rng.randint(0, 5), []
    if shape == "no-columns":
        count = rng.randint(1, 5)
        return [{} for _ in range(count)], 0, [0] * count
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    density = rng.choice([0.15, 0.3, 0.6])
    zero_cols = set(rng.sample(range(ncols), rng.randint(0, ncols // 3)))
    rows = [{c: small_or_wide(rng) for c in range(ncols)
             if c not in zero_cols and rng.random() < density} for _ in range(nrows)]
    if shape == "dependent":  # combinations of earlier rows cancel to exact zeros
        for _ in range(rng.randint(1, 4)):
            a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
            fa, fb = small_or_wide(rng), small_or_wide(rng)
            combo = {}
            linalg._add_row(combo, fa, rows[a])
            linalg._add_row(combo, fb, rows[b])
            rows.insert(rng.randint(0, len(rows)), combo)
    blocks = sorted(rng.randrange(rng.randint(1, 4)) for _ in rows)
    return rows, ncols, blocks


@pytest.mark.parametrize("shape", ["empty", "no-columns", "sparse", "dependent"])
def test_eliminate_matches_the_per_column_reference(shape):
    rng = random.Random("eliminate-%s" % shape)
    seen = {}
    for _ in range(300):
        rows, ncols, blocks = blocked_rows(rng, shape)
        got_rows, want_rows = [dict(r) for r in rows], [dict(r) for r in rows]
        got = linalg._eliminate(got_rows, ncols, blocks)
        want = ref_eliminate(want_rows, ncols, blocks, seen)
        assert got == want  # pivot rows, then pivot columns
        assert got_rows == want_rows  # the reduced rows, compared as dicts
        assert [list(r) for r in got_rows] == [list(r) for r in want_rows]  # and their key order
    if shape in ("empty", "no-columns"):
        assert seen == {}
    else:
        assert seen["lone"] > 100 and seen["one"] > 50
        assert seen["cancelled"] > (50 if shape == "dependent" else 0)
