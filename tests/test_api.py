import importlib
import importlib.util
from pathlib import Path

import pytest

import gcalg
from gcalg import Form, Model, Scalar, torus

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_public_names_resolve():
    for name in gcalg.__all__:
        assert getattr(gcalg, name) is not None


def test_values_are_immutable():
    s = Scalar.rational(2)
    with pytest.raises(AttributeError):
        s.pi_power = 1
    f = Form.generator(2, 1)
    with pytest.raises(AttributeError):
        f.n = 3
    m = torus(2)
    with pytest.raises(AttributeError):
        m.H = f
    act = gcalg.TorusAction(m, [[1, 0]])
    with pytest.raises(AttributeError):
        act.xi = ()
    eq = gcalg.EqForm.of_form(f, 1, 2)
    with pytest.raises(AttributeError):
        eq.trunc = 5


def test_version_string():
    assert gcalg.__version__


def test_benchmark_layer_names_resolve():
    # the benchmark traces these functions by name; deleting or moving one
    # must fail here rather than first in a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module in layers.MODULES:
        importlib.import_module("gcalg." + module)
    assert layers.LISTED
    for name in layers.LISTED:
        assert callable(layers._resolve(name)[2]), name
