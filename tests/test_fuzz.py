"""Fuzz the command line with hostile model files and input budgets.

Random token streams and shipped models with tokens deleted, duplicated or
swapped must end with exit 0, 1 or 2 and exactly one JSON object on stdout;
no exception may escape `main`.  Generator counts 0..12 and truncations
around the column budget must be answered or refused by the stated limits:
more than 8 generators is a parse error, and a truncated complex past 4096
(x-monomial, mask) columns is a domain error naming its column count.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODELS_DIR
from gcalg.cli import main

SHIPPED = {p.name: p.read_text() for p in sorted(MODELS_DIR.glob("*.model"))}

KEYWORDS = (
    "model generators params let d H volume orientation structure action xi mu "
    "alpha connection theta end eqform dh base twist param n k type samples"
).split()
# statement heads that reach the expression parser and the evaluator
HEADS = [
    "let a =", "let c =", "d e3 =", "H =", "volume =", "structure J symplectic",
    "xi 1 =", "mu 1 =", "alpha 1 =", "eqform q for r =", "samples t =",
]
TOKENS = (
    "e1 e2 e3 e4 t s a b x1 x2 i pi exp conj symplectic complex matrix for = "
    "0 1 2 3 16 32 33 99999999999 1/0 + - * / ^ ( ) ,"
).split()
HEADER = "model fuzz\ngenerators e1 e2 e3 e4\nparams t s\nlet b = e1^e2\n"

# whitespace runs are tokens too, so a mutation can join or split lines
_PIECE_RE = re.compile(r"\s+|\w+|.")


def _pieces(text):
    return _PIECE_RE.findall(text)


random_lines = st.builds(
    lambda head, toks: " ".join([head] + toks),
    st.sampled_from(KEYWORDS + HEADS),
    st.lists(st.sampled_from(TOKENS), max_size=10),
)
random_streams = st.builds(
    lambda header, lines: header + "\n".join(lines),
    st.sampled_from(["", HEADER]),
    st.lists(random_lines, max_size=6),
)


@st.composite
def mutated_models(draw):
    pieces = _pieces(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 4))):
        if not pieces:
            break
        at = draw(st.integers(0, len(pieces) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if edit == "delete":
            del pieces[at]
        elif edit == "duplicate":
            pieces.insert(at, pieces[at])
        else:
            other = draw(st.integers(0, len(pieces) - 1))
            pieces[at], pieces[other] = pieces[other], pieces[at]
    return "".join(pieces)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.model"


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert isinstance(payload, dict)
    assert ("error" in payload) == (code != 0)
    return code, payload


@settings(max_examples=150, deadline=2000, derandomize=True)
@given(text=st.one_of(random_streams, mutated_models()))
def test_cli_survives_hostile_model_files(model_path, text):
    model_path.write_text(text)
    run_main(["validate", str(model_path)])


@settings(max_examples=60, deadline=2000, derandomize=True)
@given(count=st.integers(0, 12), command=st.sampled_from(["validate", "cohomology"]),
       twisted=st.booleans())
def test_generator_counts_past_the_budget_are_parse_errors(model_path, count, command, twisted):
    names = " ".join("e%d" % i for i in range(1, count + 1))
    twist = "H = e1^e2^e3\n" if twisted and count >= 3 else ""
    model_path.write_text("model fuzz\ngenerators %s\n%s" % (names, twist))
    code, payload = run_main([command, str(model_path)])
    if count > 8:
        assert code == 2 and payload == {"error": "line 2, col 36: more than 8 generators",
                                         "kind": "parse"}
    else:
        assert code == 0


@settings(max_examples=60, deadline=2000, derandomize=True)
@given(trunc=st.one_of(st.integers(-3, 8), st.integers(256, 5000)))
def test_truncations_past_the_column_budget_are_refused(trunc):
    model = str(MODELS_DIR / "t4_twisted_circle.model")
    code, payload = run_main(["equivariant", model, "--trunc", str(trunc)])
    if trunc < 0:
        assert code == 1 and payload["error"] == "rank and truncation degree must be nonnegative"
    elif trunc >= 256:  # (trunc + 1) x-monomials times 2^4 masks
        assert code == 1 and payload == {
            "error": "truncated complex has %d (x-monomial, mask) columns, beyond 4096"
                     % (16 * (trunc + 1)), "kind": "domain"}
    else:
        assert code == 0 and payload["trunc"] == trunc
