"""The benchmark's per-layer tracing still finds every name it wraps.

`perfbench/layers.py` wraps every public gcalg function and the functions
named by the per-layer metrics, and raises LookupError for a listed name
that is gone; its counting pass reads `linalg.mat_vec`'s matrix as dense Q
rows.  Deleting or renaming a traced function, or changing what `mat_vec`
is handed, breaks `perfbench/run.py --trace 1`.  This test loads the file
read-only, installs the tracer and the counter, runs a `gclinear`, a
`grading`, an `extension` and an `equivariant` query under both (the
extension query hands `mat_vec` its split halves, the equivariant query
reads its ranks from `pivot_columns`), and checks that the output is
unchanged.
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


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outputs():
    out = []
    for argv in QUERIES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out.append((code, buf.getvalue()))
    return out


def test_traced_and_counted_queries_match_untraced():
    layers = load_layers()
    plain = outputs()
    assert [code for code, _ in plain] == [0, 0, 0, 0]
    tracer, counter = layers.Tracer(), layers.Counter()
    try:
        tracer.install(layers.traced_names())
        counter.install()
        traced = outputs()
    finally:
        counter.disable()
        tracer.disable()
    assert traced == plain
    assert tracer.calls["forms.clifford"] > 0 and tracer.calls["linalg.mat_vec"] > 0
    assert tracer.calls["linalg.pivot_columns"] > 0  # the equivariant ranks
    assert counter.facts["linalg.mat_vec.entries"] > 0
    assert outputs() == plain  # every wrapper is undone
    assert gcalg.cli.main is main
