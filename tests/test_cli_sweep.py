"""Golden sweep of the command line over every shipped model.

Each entry of tests/data/cli_sweep.json holds an argument vector, the exit
code and the exact stdout.  The vectors cover every subcommand on every
shipped model, over each structure, action, connection, named form and dh
block (both orientations), with `equivariant` at trunc 1..8 (4..8 reach the
truncation edge, where shifted columns drop terms).  The test replays them
and compares exit code and stdout byte for byte.

Re-record (only when an output change is intended):
    PYTHONPATH=src python tests/test_cli_sweep.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

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


def test_sweep_covers_every_invocation():
    assert [e["argv"] for e in _entries()] == invocations()


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(entry):
    assert run(entry["argv"]) == (entry["code"], entry["stdout"])


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    print("recorded %d invocations" % len(record()))
