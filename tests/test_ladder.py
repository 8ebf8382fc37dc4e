"""tools/ladder.py runs every rung call in a child process and records it."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from gcalg.cartan import MAX_COLUMNS, TorusAction, equivariant_cohomology
from gcalg.forms import Form
from gcalg.modelfile import parse_model
from gcalg.models import torus

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def test_ladder_records_each_call_of_a_small_rung(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ladder, "POWERS", ())  # the scalars and front-end rungs have their own tests
    monkeypatch.setattr(ladder, "PARSE_SIZES", ())
    monkeypatch.setattr(ladder, "MODELS_DIR", tmp_path)
    monkeypatch.setattr(ladder, "STARTUP_MODES", ())
    out = tmp_path / "ladder.json"
    assert ladder.main(["here=%s" % ROOT, "--n", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["call"], r["structure"]) for r in rows] == [
        (call, s) for s in ladder.STRUCTURES for call in ladder.CALLS
    ] + [("lifted_action_matrix", "sheared"), ("twisted_cohomology", "-"),
         ("equivariant_cohomology", "-"), ("canonical_extension", "symplectic")]
    for r in rows:
        assert r["n"] == 2 and r["here"]["status"] == "ok", r
        assert r["here"]["wall_s"] >= 0 and r["here"]["maxrss_kb"] > 0
        assert len(r["here"]["runs_s"]) == ladder.REPEATS == 3
        assert r["here"]["wall_s"] == sorted(r["here"]["runs_s"])[1]


def test_ladder_rows_are_medians_of_alternating_runs(tmp_path, monkeypatch, capsys):
    # three runs per checkout, the first checkout swapping each time; a side
    # whose run fails stops and reports that run
    order = []
    walls = {"a": iter([0.5, 0.1, 0.3]), "b": iter([0.2, 0.9, 0.4])}

    def fake(checkout, call, structure, n):
        name = checkout.name
        order.append(name)
        if name == "c":
            return {"status": "timeout"}
        return {"status": "ok", "wall_s": next(walls[name]), "maxrss_kb": 10 + len(order)}

    monkeypatch.setattr(ladder, "run_child", fake)
    monkeypatch.setattr(ladder, "ladder_cases", lambda sizes: [("uk_grading", "complex", 2)])
    out = tmp_path / "ladder.json"
    args = ["a=%s" % (tmp_path / "a"), "b=%s" % (tmp_path / "b"), "c=%s" % (tmp_path / "c")]
    assert ladder.main(args + ["--out", str(out)]) == 0
    assert order == ["a", "b", "c", "b", "a", "a", "b"]
    row = json.loads(out.read_text())["rows"][0]
    assert row["a"] == {"status": "ok", "wall_s": 0.3, "maxrss_kb": 15, "runs_s": [0.5, 0.1, 0.3]}
    assert row["b"] == {"status": "ok", "wall_s": 0.4, "maxrss_kb": 14, "runs_s": [0.2, 0.9, 0.4]}
    assert row["c"] == {"status": "timeout"}
    # a refused call is timed like an ok one, and keeps its status
    refused = [{"status": "refused", "wall_s": w, "maxrss_kb": 9} for w in (0.3, 0.1, 0.2)]
    assert ladder.median_run(refused) == {"status": "refused", "wall_s": 0.2, "maxrss_kb": 9,
                                          "runs_s": [0.3, 0.1, 0.2]}


def test_ladder_reports_a_call_past_its_timeout(tmp_path):
    got = ladder.run_child(ROOT, "uk_grading", "complex", 2, timeout=0.001)
    assert got == {"status": "timeout"}


def test_ladder_adds_the_iwasawa_rung_from_n_6():
    flat = [(call, s) for s in ladder.STRUCTURES for call in ladder.CALLS] + [
        ("lifted_action_matrix", "sheared"), ("twisted_cohomology", "-"),
        ("equivariant_cohomology", "-"), ("canonical_extension", "symplectic")]
    iwasawa = [(call, "iwasawa") for call in ladder.IWASAWA_CALLS] + [
        (call, "iwasawa-t") for call in ladder.REFUSAL_CALLS] + [
        ("equivariant_cohomology", "iwasawa")]
    two_torus = [("equivariant_cohomology", "2-torus")]
    assert [(c, s, n) for c, s, n in ladder.ladder_cases([4, 8])] == (
        [(c, s, 4) for c, s in flat] + [(c, s, 8) for c, s in flat + iwasawa + two_torus]
        + [("parse_scalar_text", "-", 8), ("parse_scalar_text", "-", 16)] + FRONT_END + STARTUP)
    for call, structure in iwasawa + two_torus:
        got = ladder.run_child(ROOT, call, structure, 6)
        # the refusal rung's t in d(e5) is refused, and timed up to the ValueError
        want = "refused" if structure == "iwasawa-t" else "ok"
        assert got["status"] == want and got["wall_s"] >= 0 and got["maxrss_kb"] > 0, got


def test_ladder_runs_the_equivariant_rung_while_it_fits():
    # trunc 3 for a circle spans 4 x 2^n columns: exactly MAX_COLUMNS at
    # n = 10, and refused from n = 12 on, where the rung is left out; for a
    # 2-torus it spans 10 x 2^n, which fits up to n = 8
    assert ladder.MAX_COLUMNS == MAX_COLUMNS
    assert ("equivariant_cohomology", "2-torus", 8) in ladder.ladder_cases([8])
    assert ("equivariant_cohomology", "2-torus", 10) not in ladder.ladder_cases([10])
    calls = {n: [(c, s) for c, s, m in ladder.ladder_cases([10, 12]) if m == n] for n in (10, 12)}
    equivariant = [("equivariant_cohomology", s) for s in ("-", "iwasawa")]
    assert set(equivariant) <= set(calls[10])
    assert calls[12] == [c for c in calls[10] if c not in equivariant]
    act = TorusAction(torus(12), [[0] * 11 + [1]], alpha=[Form.generator(12, 1)])
    with pytest.raises(ValueError, match="16384 .* columns, beyond 4096"):
        equivariant_cohomology(act, act.h_equivariant(3), 3)


def test_ladder_times_the_annihilator_rung():
    # annihilator(pure_spinor(i_eigenspace(j))) on the complex and the
    # symplectic T^n at every size, after the spinor rung; the child builds
    # the spinor untimed and times the annihilator alone
    cases = [(c, s, n) for c, s, n in ladder.ladder_cases([6, 8, 10, 12]) if c == "annihilator"]
    assert cases == [("annihilator", s, n) for n in (6, 8, 10, 12)
                     for s in ("complex", "symplectic")]
    assert ladder.CALLS[ladder.CALLS.index("pure_spinor") + 1] == "annihilator"
    for structure in ladder.STRUCTURES:
        got = ladder.run_child(ROOT, "annihilator", structure, 6)
        assert got["status"] == "ok" and got["wall_s"] >= 0 and got["maxrss_kb"] > 0, got


def test_ladder_times_the_lift_rung_on_a_sheared_structure():
    # the shear fills the JP block but for its V x V part, so the lift has
    # more than the n weights of the standard structures to visit
    cases = [(c, s, n) for c, s, n in ladder.ladder_cases([6, 8, 10, 12])
             if c == "lifted_action_matrix"]
    assert cases == [("lifted_action_matrix", "sheared", n) for n in (6, 8, 10, 12)]
    got = ladder.run_child(ROOT, "lifted_action_matrix", "sheared", 6)
    assert got["status"] == "ok" and got["wall_s"] >= 0 and got["maxrss_kb"] > 0, got


def test_ladder_times_the_scalars_rung():
    # (t+s+u+1)^k for k = 8 and 16 after every size (the case lists above)
    assert ladder.POWERS == (8, 16)
    got = ladder.run_child(ROOT, "parse_scalar_text", "-", 8)
    assert got["status"] == "ok" and got["wall_s"] >= 0, got


def test_ladder_repeats_a_fast_call_to_fill_its_time(monkeypatch):
    # the untimed first call sets the count: a millisecond call is timed as
    # the mean of about FILL_S / its time repeats, a slower one at least once
    assert ladder.FILL_S == 0.1
    got = ladder.run_child(ROOT, "parse_scalar_text", "-", 8)
    assert got["loops"] >= 5 and 0.03 < got["wall_s"] * got["loops"] < 1, got
    monkeypatch.setattr(ladder, "FILL_S", 1e-9)
    got = ladder.run_child(ROOT, "parse_scalar_text", "-", 8)
    assert got["status"] == "ok" and got["loops"] == 1, got
    # a refusal is timed up to the ValueError, each repeat alike
    monkeypatch.setattr(ladder, "FILL_S", 0.05)
    got = ladder.run_child(ROOT, "twisted_cohomology", "iwasawa-t", 6)
    assert got["status"] == "refused" and got["loops"] >= 2, got


# the front-end rung after the scalars rung: every shipped model file with
# its generator count, then the validate-style file at n = 3, 5 and 7
FRONT_END = [("parse_model", name, n) for name, n in (
    ("iwasawa", 6), ("kodaira_thurston", 4), ("t2_symplectic", 2), ("t3_gamma", 3),
    ("t3_plain", 3), ("t3_twisted", 3), ("t4_h124", 4), ("t4_rho1", 4), ("t4_rho2", 4),
    ("t4_twisted_circle", 4), ("validate", 3), ("validate", 5), ("validate", 7))]
# the startup rung last: the import with bytecode, then from source
STARTUP = [("startup", "bytecode", None), ("startup", "source", None)]


def test_ladder_times_the_front_end_rung(monkeypatch):
    assert list(ladder.ladder_cases([])) == [
        ("parse_scalar_text", "-", 8), ("parse_scalar_text", "-", 16)] + FRONT_END + STARTUP
    assert sorted(p.stem for p in (ROOT / "models").glob("*.model")) == [
        s for _, s, _ in FRONT_END[:-3]]
    for n in ladder.PARSE_SIZES:  # perfbench's validate queries declare the same
        mf = parse_model(ladder.validate_text(n))
        assert mf.model.n == n and mf.params == ("t", "s") and list(mf.dh_specs) == ["f1"]
        assert sorted(mf.values) == ["c", "f", "g", "p", "w"] and list(mf.connections) == ["th"]
    monkeypatch.setattr(ladder, "FILL_S", 0.01)
    for name in ("t3_twisted", "validate"):
        got = ladder.run_child(ROOT, "parse_model", name, 3)
        assert got["status"] == "ok" and 0 < got["wall_s"] < 1, got


def test_ladder_times_the_startup_rung_without_writing_the_checkout(tmp_path, monkeypatch):
    # a copy of src/, so that no earlier run left bytecode in the checkout
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    assert ladder.STARTUP_IMPORTS == 10
    monkeypatch.setattr(ladder, "STARTUP_IMPORTS", 3)
    got = {mode: ladder.run_child(checkout, "startup", mode, None)
           for mode in ladder.STARTUP_MODES}
    for run in got.values():
        assert run["status"] == "ok" and run["loops"] == 3 and run["maxrss_kb"] > 0, run
    # compiling the package from source costs several times reading its bytecode
    assert 0 < 2 * got["bytecode"]["wall_s"] < got["source"]["wall_s"] < 5, got
    assert not list(checkout.rglob("__pycache__")) and not list(checkout.rglob("*.pyc"))
    assert ladder.run_child(checkout, "startup", "bytecode", None, timeout=0.001) == {
        "status": "timeout"}
