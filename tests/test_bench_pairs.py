"""The pair summary of tools/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "queries_per_kref", "unit": "1/kref", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def run(pair, side, workload, qpk, rss, rounds):
    return {"pair": pair, "side": side, "workload": workload, "correct": True,
            "meta": {"rounds": rounds, "workload": workload},
            "metrics": {"queries_per_kref": {"value": qpk, "unit": "1/kref"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_gives_quartiles_wins_and_rounds():
    runs = [
        run(1, "parent", "cli-mix", 60.0, 29.0, 70), run(1, "change", "cli-mix", 80.0, 30.0, 95),
        run(2, "change", "cli-mix", 82.0, 30.5, 98), run(2, "parent", "cli-mix", 62.0, 29.5, 72),
        run(3, "parent", "cli-mix", 61.0, 28.0, 71), run(3, "change", "cli-mix", 58.0, 27.5, 69),
        run(1, "parent", "ddbar", 30.0, 26.0, 50), run(1, "change", "ddbar", 50.0, 26.0, 50),
        run(2, "change", "ddbar", 51.0, 26.0, 50), run(2, "parent", "ddbar", 31.0, 26.0, 50),
    ]
    out = bench_pairs.summarize(runs, SPEC, ["cli-mix", "ddbar"])
    assert set(out) == {"cli-mix", "ddbar"}

    qpk = out["cli-mix"]["queries_per_kref"]
    assert qpk["unit"] == "1/kref" and qpk["pairs"] == 3
    assert qpk["parent"] == {"median": 61.0, "q1": 60.5, "q3": 61.5}
    assert qpk["change"] == {"median": 80.0, "q1": 69.0, "q3": 81.0}
    assert qpk["change_better_pairs"] == 2  # higher is better; pair 3 lost
    assert qpk["parent_runs"] == [60.0, 62.0, 61.0]
    assert qpk["change_runs"] == [80.0, 82.0, 58.0]

    rss = out["cli-mix"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == 1  # lower is better; only pair 3 won
    assert rss["parent"]["median"] == 29.0 and rss["change"]["median"] == 30.0

    # the round counts, per run in pair order and as a median per side
    assert out["cli-mix"]["rounds"] == {
        "parent": {"median": 71, "runs": [70, 72, 71]},
        "change": {"median": 95, "runs": [95, 98, 69]},
    }
    assert out["ddbar"]["rounds"]["parent"] == {"median": 50.0, "runs": [50, 50]}
    # ties count for neither side
    assert out["ddbar"]["peak_rss_mb"]["change_better_pairs"] == 0
    assert out["ddbar"]["queries_per_kref"]["change_better_pairs"] == 2


def test_refuses_checkouts_where_only_one_side_has_bytecode(tmp_path, capsys):
    dirs = {s: tmp_path / s for s in ("parent", "change")}
    for d in dirs.values():
        (d / "src" / "gcalg").mkdir(parents=True)
    assert bench_pairs._bytecode_gap(dirs) == ""
    for side in ("parent", "change"):
        cache = dirs[side] / "src" / "gcalg" / "__pycache__"
        cache.mkdir()
        assert bench_pairs._bytecode_gap(dirs) == side
        with pytest.raises(SystemExit) as err:
            bench_pairs.main([str(dirs["parent"]), str(dirs["change"]), "--out",
                              str(tmp_path / "out.json")])
        assert err.value.code == 2
        assert "only the %s checkout has src/gcalg/__pycache__" % side in capsys.readouterr().err
        cache.rmdir()
    for d in dirs.values():
        (d / "src" / "gcalg" / "__pycache__").mkdir()
    assert bench_pairs._bytecode_gap(dirs) == ""
    assert not (tmp_path / "out.json").exists()
