"""Golden sweep of the command line over every shipped model.

Each entry of tests/data/cli_sweep.json holds an argument vector, the exit
code and the exact stdout.  The vectors cover every subcommand on every
shipped model, over each structure, action, connection, named form and dh
block (both orientations), with `equivariant` at trunc 1..8 (4..8 reach the
truncation edge, where shifted columns drop terms).  The test replays them
and compares exit code and stdout byte for byte.

Replay without pytest, on any interpreter the package supports; the exit
code is 1 on any mismatch:
    python tests/test_cli_sweep.py --check

Re-record (only when an output change is intended):
    PYTHONPATH=src python tests/test_cli_sweep.py
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_sweep.json"


def run(argv):
    from gcalg.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(ROOT / a) if a.endswith(".model") else a for a in argv])
    return code, buf.getvalue()


def invocations():
    from gcalg.modelfile import parse_model

    out = []
    for path in sorted((ROOT / "models").glob("*.model")):
        rel = str(path.relative_to(ROOT))
        mf = parse_model(path.read_text(encoding="utf-8"))
        out.append(["validate", rel])
        out.append(["cohomology", rel])
        for s in sorted(mf.structures):
            for cmd in ("gclinear", "grading", "ddbar"):
                out.append([cmd, rel, "--structure", s])
        for a in sorted(mf.actions):
            for trunc in range(1, 9):
                out.append(["equivariant", rel, "--action", a, "--trunc", str(trunc)])
            for s in sorted(mf.structures):
                for name in sorted(mf.values):
                    out.append(["extension", rel, "--action", a, "--structure", s,
                                "--form", name])
        for c in sorted(mf.connections):
            for name in sorted(mf.values):
                for cmd in ("cartanmap", "kirwan"):
                    out.append([cmd, rel, "--connection", c, "--eqform", name])
        for name, spec in sorted(mf.dh_specs.items()):
            out.append(["dh", rel, "--name", name])
            out.append(["dh", rel, "--name", name, "--orientation", str(-spec.orientation)])
    return out


def record():
    entries = []
    for argv in invocations():
        code, stdout = run(argv)
        entries.append({"argv": argv, "code": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return entries


def _entries():
    # a missing file fails test_sweep_covers_every_invocation
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def check() -> int:
    """Replay the golden file as the tests below do; print each mismatch."""
    entries = _entries()
    covered = [e["argv"] for e in entries] == invocations()
    if not covered:
        print("mismatch: the recorded argument vectors are not today's invocations")
    matched = 0
    for e in entries:
        if run(e["argv"]) == (e["code"], e["stdout"]):
            matched += 1
        else:
            print("mismatch: %s" % " ".join(e["argv"]))
    print("%d of %d entries match on Python %s" % (matched, len(entries), sys.version.split()[0]))
    return 0 if covered and matched == len(entries) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Replay or re-record the golden CLI sweep.")
    p.add_argument("--check", action="store_true",
                   help="replay %s and exit 1 on any mismatch" % GOLDEN.relative_to(ROOT))
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.check:
        return check()
    print("recorded %d invocations" % len(record()))
    return 0


if __name__ == "__main__":  # both modes run without pytest, so it is imported after them
    sys.exit(main())

import pytest  # noqa: E402


def test_sweep_covers_every_invocation():
    assert [e["argv"] for e in _entries()] == invocations()


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(entry):
    assert run(entry["argv"]) == (entry["code"], entry["stdout"])


def test_check_mode_exits_1_on_a_mismatch(monkeypatch, capsys):
    entries = _entries()[:2]
    argvs = [e["argv"] for e in entries]
    monkeypatch.setitem(globals(), "invocations", lambda: argvs)
    monkeypatch.setitem(globals(), "_entries", lambda: entries)
    assert check() == 0
    entries[1] = dict(entries[1], stdout=entries[1]["stdout"] + " ")
    assert check() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["mismatch: %s" % " ".join(entries[1]["argv"]),
                        "1 of 2 entries match on Python %s" % sys.version.split()[0]]
    entries.pop()
    assert check() == 1  # an invocation the file does not hold
