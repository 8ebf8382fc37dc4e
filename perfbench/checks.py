"""Output checks, run after the timed region.

Each check compares a query's exit code and stdout with something computed
without the package under test: the brute-force oracles in tests/oracles.py,
closed formulas, the B-shear symmetry, or digests recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb
from typing import Dict, List, Optional

from gen import NONINTEGRABLE, Query

LOCATED = re.compile(r"^line \d+, col \d+: ")
# only these domain errors are expected outcomes; any other exit 1 is a failure
DOMAIN_PREFIXES = (NONINTEGRABLE,)


def digest(rc: int, out: str) -> str:
    return hashlib.sha256(("%d\n%s" % (rc, out)).encode()).hexdigest()[:16]


def _oracle_input(n, d, h):
    """Convert generator-side forms to the (re, im) pairs the oracle takes."""
    def pairs(f):
        return {idx: (c, 0 * c) for idx, c in f.items()}
    return n, {g: pairs(f) for g, f in d.items()}, pairs(h)


def verdict(q: Query, rc: int, payload: dict):
    """What a closed B-shear must leave unchanged."""
    if q.sub == "ddbar":
        return "non-integrable" if rc == 1 else ("ok" if payload.get("ok") else "fails")
    if q.sub == "grading":
        return (payload.get("half_dim"), json.dumps(payload.get("dims"), sort_keys=True),
                payload.get("canonical_eigenvalue"))
    return None


def _degree(density: str, param: str) -> int:
    degs = [int(p) if p else 1 for p in re.findall(r"\b%s\b(?:\^(\d+))?" % re.escape(param), density)]
    return max(degs, default=0)


def check_one(q: Query, rc: int, out: str, oracle) -> Optional[str]:
    """Return why the output is wrong, or None."""
    if rc not in q.facts.get("exits", (0,)):
        return "exit %d not in %s" % (rc, q.facts.get("exits", (0,)))
    if not out.endswith("\n") or out.count("\n") != 1:
        return "stdout is not one JSON line"
    try:
        payload = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if rc == 1:
        if payload.get("kind") != "domain" or not payload.get("error", "").startswith(DOMAIN_PREFIXES):
            return "unexpected domain error: %s" % payload.get("error")
        return None
    if rc == 2:
        if payload.get("kind") != "parse" or not LOCATED.match(payload.get("error", "")):
            return "parse error without 'line n, col m': %s" % payload.get("error")
        return None
    for key, want in q.facts.get("expect", {}).items():
        if payload.get(key) != want:
            return "%s is %r, expected %r" % (key, payload.get(key), want)
    if q.sub == "grading":
        half = q.n // 2
        dims = {str(k): comb(q.n, half + k) for k in range(-half, half + 1)}
        eig = "-i" if half == 1 else "-%d*i" % half
        if payload.get("dims") != dims or payload.get("canonical_eigenvalue") != eig:
            return "grading levels %s / %s, expected %s / %s" % (
                payload.get("dims"), payload.get("canonical_eigenvalue"), dims, eig)
    if "oracle" in q.facts:
        even, odd = oracle(*_oracle_input(*q.facts["oracle"]))
        got = payload["betti"] if q.sub == "equivariant" else payload
        if (got.get("even"), got.get("odd")) != (even, odd):
            return "Betti ranks %s/%s, oracle %d/%d" % (got.get("even"), got.get("odd"), even, odd)
    if q.sub == "equivariant" and len(payload.get("by_degree", ())) != q.trunc + 1:
        return "by_degree has %d entries for trunc %d" % (len(payload.get("by_degree", ())), q.trunc)
    if q.sub == "dh":
        deg = _degree(payload.get("density", ""), q.facts["param"])
        if deg > payload.get("degree_bound", -1):
            return "density degree %d exceeds the bound %s" % (deg, payload.get("degree_bound"))
    return None


def check_run(records: List[dict], queries: List[Query], oracle,
              expected: Optional[Dict[str, str]]) -> List[str]:
    """Check every record; returns one failure line per failed query and marks
    each record with its failure reason (or None)."""
    failures = []
    base_verdicts = {}
    for rec, q in zip(records, queries):  # references first, so bases come first
        if rec["rc"] is not None and rec["error"] is None:
            rec["error"] = check_one(q, rec["rc"], rec["stdout"], oracle)
        if "base" in q.facts and rec["error"] is None:
            v = verdict(q, rec["rc"], json.loads(rec["stdout"]))
            base_verdicts.setdefault(q.facts["base"], v)
            if base_verdicts[q.facts["base"]] != v:
                rec["error"] = "verdict %r differs from the unsheared base %r" % (
                    v, base_verdicts[q.facts["base"]])
        if expected is not None and rec["error"] is None:
            want = expected.get(rec["id"])
            if want is not None and want != digest(rec["rc"], rec["stdout"]):
                rec["error"] = "output differs from the one recorded at the seed commit"
        if rec["error"] is not None:
            failures.append("%s %s: %s" % (rec["id"], q.sub, rec["error"]))
    return failures
