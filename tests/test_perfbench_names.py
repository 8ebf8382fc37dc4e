"""The benchmark's per-layer tracing still finds every name it wraps.

`perfbench/layers.py` wraps every public gcalg function and the functions
named by the per-layer metrics, and raises LookupError for a listed name
that is gone; its counting pass reads `linalg.mat_vec`'s matrix as dense Q
rows.  Deleting or renaming a traced function, or changing what `mat_vec`
is handed, breaks `perfbench/run.py --trace 1`.  This test loads the file
read-only, installs the tracer and the counter, runs a `gclinear`, a
`grading`, two `extension` and an `equivariant` query under both (the
second extension query fails its closedness check, so the level grading's
`decompose` hands `mat_vec` its dense inverse; the equivariant query reads
its ranks from the pivot rows and pivot columns of `rank_profiles`, one call
per parity map), and checks that the output is unchanged.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import gcalg.cli  # noqa: F401  (the tracer resolves every gcalg module)
from conftest import MODELS_DIR
from gcalg.cli import main

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
QUERIES = [
    ["gclinear", str(MODELS_DIR / "kodaira_thurston.model")],
    ["grading", str(MODELS_DIR / "kodaira_thurston.model")],
    ["extension", str(MODELS_DIR / "t2_symplectic.model"), "--form", "rho"],
    ["equivariant", str(MODELS_DIR / "t4_twisted_circle.model"), "--trunc", "3"],
]

# a solvable model times T^2 on which phi fails the upper half on its top
# level: the extension names that half through the grading's decompose
UNCLOSED = """\
model solvable_t2
generators e1 e2 e3 e4 e5 e6
d e1 = e1^e2
d e3 = e2^e3

let omega = e1^e3 + e2^e4 + e5^e6
let phi = e1 - i*e1^e2^e4 + i*e1^e5^e6 + e1^e2^e4^e5^e6 + e1^e4 - i*e1^e4^e5^e6

structure Jw symplectic omega

action rot
  xi 1 = 0 0 0 0 0 0
  mu 1 = 0
  alpha 1 = 0
end
"""


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outputs(queries):
    out = []
    for argv in queries:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out.append((code, buf.getvalue()))
    return out


def test_traced_and_counted_queries_match_untraced(tmp_path):
    unclosed = tmp_path / "unclosed.model"
    unclosed.write_text(UNCLOSED)
    queries = QUERIES + [["extension", str(unclosed), "--form", "phi"]]
    layers = load_layers()
    plain = outputs(queries)
    assert [code for code, _ in plain] == [0, 0, 0, 0, 1]
    assert "component is not closed for the upper half" in plain[-1][1]
    tracer, counter = layers.Tracer(), layers.Counter()
    try:
        tracer.install(layers.traced_names())
        counter.install()
        traced = outputs(queries)
    finally:
        counter.disable()
        tracer.disable()
    assert traced == plain
    assert tracer.calls["forms.clifford"] > 0 and tracer.calls["linalg.mat_vec"] > 0
    assert tracer.calls["linalg.echelon"] > 0  # the equivariant ranks
    assert counter.facts["linalg.mat_vec.entries"] > 0
    assert outputs(queries) == plain  # every wrapper is undone
    assert gcalg.cli.main is main
