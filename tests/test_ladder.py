"""tools/ladder.py runs every rung call in a child process and records it."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def test_ladder_records_each_call_of_a_small_rung(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert ladder.main(["here=%s" % ROOT, "--n", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["call"], r["structure"]) for r in rows] == [
        (call, s) for s in ladder.STRUCTURES for call in ladder.CALLS
    ] + [("twisted_cohomology", "-"), ("equivariant_cohomology", "-"),
         ("canonical_extension", "symplectic")]
    for r in rows:
        assert r["n"] == 2 and r["here"]["status"] == "ok", r
        assert r["here"]["wall_s"] >= 0 and r["here"]["maxrss_kb"] > 0


def test_ladder_reports_a_call_past_its_timeout(tmp_path):
    got = ladder.run_child(ROOT, "uk_grading", "complex", 2, timeout=0.001)
    assert got == {"status": "timeout"}


def test_ladder_adds_the_iwasawa_rung_from_n_6():
    flat = [(call, s) for s in ladder.STRUCTURES for call in ladder.CALLS] + [
        ("twisted_cohomology", "-"), ("equivariant_cohomology", "-"),
        ("canonical_extension", "symplectic")]
    iwasawa = [(call, "iwasawa") for call in ladder.IWASAWA_CALLS]
    assert [(c, s, n) for c, s, n in ladder.ladder_cases([4, 8])] == (
        [(c, s, 4) for c, s in flat] + [(c, s, 8) for c, s in flat + iwasawa])
    for call in ladder.IWASAWA_CALLS:
        got = ladder.run_child(ROOT, call, "iwasawa", 6)
        assert got["status"] == "ok" and got["wall_s"] >= 0, got
