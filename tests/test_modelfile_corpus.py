"""Golden outcomes of `parse_model` over a corpus of model texts.

Each entry of tests/data/modelfile_corpus.json holds a model text and what
`parse_model` made of it: the declared names, or the exception type and
message.  The texts are seeded line mutations of every shipped model (drop a
line, drop an `end`, insert or replace a token, truncate, duplicate or swap
lines, append `1/0`) and hand cases for every block error and every error
raised while the parsed expressions are evaluated.

Re-record (only when an outcome change is intended):
    PYTHONPATH=src python tests/test_modelfile_corpus.py
"""

import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "modelfile_corpus.json"

MUTATIONS_PER_MODEL = 80
KINDS = ("drop", "drop-end", "insert", "replace", "truncate", "duplicate", "swap", "append-1/0")
TOKENS = (
    "e1 e2 e3 e4 t x1 x2 i pi one omega c rho1 exp conj end xi mu alpha theta "
    "for = 0 1 2 -1 1/0 + - * / ^ ( ) ,"
).split()
_PIECE_RE = re.compile(r"\s+|\w+|.")

H = "model hand\ngenerators e1 e2\n"
ROT = "action r\n  xi 1 = 1 0\nend\n"
G = ROT + "eqform g for r = x1\n"  # an eqform named g
DH = "params t\ndh f\n  base = 1\n  twist = e1^e2\n  param = t\n  n = 1\n  k = 1\n%send\n"
HAND_CASES = [
    # blocks: a body line fails before the block's missing 'end'
    H + "structure J matrix\n  0 0 0 -1\n",
    H + "structure J matrix\n  0 0 x -1\n",
    H + "structure J matrix\n  0 0 0 -\n",
    H + "structure J matrix\n  0 0 0 1/\nend\n",
    H + "structure J matrix\nend\n",
    H + "structure J matrix\n  1 0\nend\n",
    H + "structure J matrix\n  0 0 0 1/0\n  0 0 1 0\n  0 -1 0 0\n  1 0 0 0\nend\n",
    H + "action r\n  xi 1 = 1 0\n",
    H + "action r\n  xi 1 = 1 q\n",
    H + "action r\n  xi 1 = 1 x\nend\n",
    H + "action r\n  xi 1 = 1, -1/2\nend\n",
    H + "action r\n  xi 1 = 1 0 = 2\nend\n",
    H + "action r\n  xi 1 = 1/0 0\nend\n",
    H + "action r\n  xi 1 = 1 1/\nend\n",
    H + "action r\n  xi 1 = 1 + \nend\n",
    H + "action r\n  foo\nend\n",
    H + "action r\n  xi a = 1 0\nend\n",
    H + "action r\n  mu a = 1\nend\n",
    H + "action r\n  alpha 1 1\nend\n",
    H + "action r\n  beta 1 = 0\nend\n",
    H + "action r\n  mu 1 = (e1\nend\n",
    H + "action r\n  xi 1 = 1 0\naction s\n  xi 1 = 0 1\nend\n",
    H + "action r s\n  xi 1 = 1 0\nend\n",
    H + ROT + ROT,
    H + "action r\n  xi 1 = 1 0\n  end   # closed\n",
    H + "action r\n  xi 1 = 1 0\nend x\n",
    H + ROT + "connection c for r\n  theta 1 = e1\n",
    H + ROT + "connection c for r\n  phi 1 = e1\nend\n",
    H + ROT + "connection c for r\n  theta 1 =\nend\n",
    H + ROT + "connection c for r\n  theta x = e1\nend\n",
    H + ROT + "connection c for r\n  theta 1 = e1 +\n",
    H + ROT + "connection c r\n  theta 1 = e1\nend\n",
    H + "dh f\n  base = 1\n",
    H + "dh f\n  base\nend\n",
    H + "dh f\n  base 1\n",
    H + "dh f g\n  base = 1\nend\n",
    H + "end\n",
    # deferred expressions, in their order of evaluation
    "generators e1\n",
    H + "let e1 = 1\n",
    H + "let a = 1\nlet a = 2\n",
    H + "params t\nlet t = 1\n",
    H + "eqform g for r = 1\n",
    H + ROT + "eqform g for r = x2\n",
    H + ROT + "eqform g for r = x0*e1\n",
    H + ROT + "eqform g for r = x01\n",
    H + ROT + "eqform g for r = x1 + e1\neqform h for r = 1\n",
    H + G + "let h = g + e1\n",
    H + G + "let h = e1 - g\n",
    H + G + "let h = g * e1\n",
    H + G + "let h = g / 2\n",
    H + G + "let h = e1 / g\n",
    H + "let a = 1/0\n",
    H + "let a = x1\n",
    H + G + "d e2 = g\n",
    H + G + "H = g\n",
    H + G + "volume = g\n",
    H + "volume = e1\n",
    H + "d e2 = e1\nd e1 = e2\n",
    "model hand\ngenerators e1 e2 e3 e4 e5\nd e5 = e1^e2 + e3^e4\nH = e1^e2^e5\n",
    "model hand\ngenerators e1 e2 e3\nstructure J complex\n",
    H + G + "structure J symplectic g\n",
    H + "structure J symplectic e1\n",
    H + "structure J symplectic 0\n",
    H + "action r\n  xi 2 = 1 0\nend\n",
    H + "action r\n  xi 1 = 1\nend\n",
    H + "action r\n  xi 1 = 1 0\n  xi 2 = 0 1\n  xi 3 = 1 1\nend\n",
    H + "action r\n  xi 1 = 1 0\n  mu 1 = g\nend\neqform g for r = x1\n",
    H + "action r\n  xi 1 = 1 0\n  alpha 1 = g\nend\neqform g for r = x1\n",
    H + "action r\n  xi 1 = 1 0\n  mu 1 = e1\nend\n",
    H + "action r\n  xi 1 = 1 0\n  mu 2 = e2\nend\n",
    H + "action r\n  xi 1 = 1 0\n  mu 1 = e2\n  alpha 1 = e1\nend\n",
    H + "connection c for r\n  theta 1 = e1\nend\n",
    H + ROT + "connection c for r\nend\n",
    H + ROT + "connection c for r\n  theta 2 = e1\nend\n",
    H + G + "connection c for r\n  theta 1 = g\nend\n",
    H + ROT + "connection c for r\n  theta 1 = e2\nend\n",
    H + ROT + "connection c for r\n  theta 1 = e1\nend\n" * 2,
    H + "dh f\n  base = 1\nend\n",
    H + "params t\ndh f\n  base = 1\n  twist = 1\n  param = t\n  n = 1\nend\n",
    H + G + DH.replace("base = 1", "base = g") % "",
    H + G + DH.replace("twist = e1^e2", "twist = g") % "",
    H + DH.replace("param = t", "param = 1") % "",
    H + DH.replace("param = t", "param = q") % "",
    H + DH.replace("n = 1", "n = t") % "",
    H + DH.replace("k = 1", "k = 1/2") % "",
    H + DH % "  orientation = 2\n",
    H + DH % "  orientation = -1\n",
    H + DH % "  type = -1\n",
    H + DH % "  type = t\n",
    H + DH % "  type = 2\n",
    H + DH % "  colour = 2\n",
    H + "params t\nsamples s = 1, 2\n",
    H + "params t\nsamples t = 1, 1/0\n",
    H + "params t\nsamples t = 1, -\n",
    H + "params t\nsamples t = 1, e1\n",
    H + "params t\nsamples t = 1/0, x\n",
]


def _code_lines(lines):
    return [i for i, ln in enumerate(lines) if ln.split("#", 1)[0].strip()]


def _mutate(lines, kind, rng):
    lines = list(lines)
    at = rng.choice(_code_lines(lines))
    if kind == "drop-end":
        ends = [i for i, ln in enumerate(lines) if ln.strip() == "end"]
        at = rng.choice(ends) if ends else at
    if kind in ("drop", "drop-end"):
        del lines[at]
    elif kind in ("insert", "replace"):
        pieces = _PIECE_RE.findall(lines[at])
        spots = [i for i, p in enumerate(pieces) if not p.isspace()]
        i = rng.choice(spots)
        token = rng.choice(TOKENS)
        if kind == "insert":
            pieces.insert(i, token + " ")
        else:
            pieces[i] = token
        lines[at] = "".join(pieces)
    elif kind == "truncate":
        lines[at] = lines[at][: rng.randrange(len(lines[at]))]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = rng.choice(_code_lines(lines))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        lines[at] += " 1/0"
    return "\n".join(lines) + "\n"


def texts():
    out = []
    seen = set()
    for path in sorted((ROOT / "models").glob("*.model")):
        lines = path.read_text(encoding="utf-8").splitlines()
        rng = random.Random(path.name)
        for _ in range(MUTATIONS_PER_MODEL):
            text = _mutate(lines, rng.choice(KINDS), rng)
            if text not in seen:
                seen.add(text)
                out.append(text)
    return out + HAND_CASES


def outcome(text):
    from gcalg.modelfile import parse_model

    try:
        mf = parse_model(text)
    except Exception as e:
        return {"error": type(e).__name__, "message": str(e)}
    return {
        "model": mf.name,
        "generators": list(mf.model.names),
        "params": list(mf.params),
        "values": sorted(mf.values),
        "structures": sorted(mf.structures),
        "actions": sorted(mf.actions),
        "connections": sorted(mf.connections),
        "dh": sorted(mf.dh_specs),
        "samples": sorted(mf.samples),
    }


def record():
    entries = [{"text": text, "outcome": outcome(text)} for text in texts()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return entries


def _entries():
    # a missing file fails test_corpus_covers_every_text
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_text():
    assert [e["text"] for e in _entries()] == texts()


def test_parse_outcomes_match_golden():
    changed = [
        (e["text"], e["outcome"], got)
        for e in _entries()
        for got in [outcome(e["text"])]
        if got != e["outcome"]
    ]
    assert changed == []


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    print("recorded %d texts" % len(record()))
