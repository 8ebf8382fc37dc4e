"""Each invariant is checked once: counting pins over the command-line sweep.

`TorusAction` admits central fields only, so no Cartan map, Kirwan map or
extension takes a Lie derivative; `gcy_check` stores the Mukai pairing of rho
with its conjugate, which `dh` reads; `canonical_extension` refuses a result
that `generalized_d` does not kill, so `extension` does not apply it again;
`gclinear` solves the eigenspace of the structure its report has validated.
"""

import sys
from collections import Counter

import gcalg.cartan
import gcalg.gcmaps
import gcalg.gcy
from gcalg.forms import reversal
from test_cli_sweep import invocations, run


def _sweep(commands):
    return [argv for argv in invocations() if argv[0] in commands]


def _counted(monkeypatch, name, modules):
    """Count the calls of the function `name` through each of modules."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_cartan_kirwan_and_extension_take_no_lie_derivative(monkeypatch):
    assert not hasattr(gcalg.cartan, "lie_derivative")
    holders = [m for key, m in sys.modules.items()
               if key.split(".")[0] == "gcalg" and hasattr(m, "lie_derivative")]
    calls = _counted(monkeypatch, "lie_derivative", holders)
    codes = Counter((argv[0], run(argv)[0]) for argv in _sweep({"cartanmap", "kirwan", "extension"}))
    assert calls == []
    assert codes[("cartanmap", 0)] and codes[("kirwan", 0)] and codes[("extension", 0)], codes


def test_dh_reads_the_stored_pairing(monkeypatch):
    assert not hasattr(gcalg.gcy, "reversal")
    wedges = _counted(monkeypatch, "wedge", [gcalg.gcy])
    runs = _sweep({"dh"})
    assert runs and all(run(argv)[0] == 0 for argv in runs)
    # one wedge per run: quotient_family's shear exp(-i t c) ^ rho
    assert len(wedges) == len(runs)
    assert not any(a == reversal(b.conjugate()) for a, b in wedges)


def test_extension_applies_generalized_d_once(monkeypatch):
    calls = _counted(monkeypatch, "generalized_d", [gcalg.cartan])
    codes = []
    for argv in _sweep({"extension"}):
        calls.clear()
        code, stdout = run(argv)
        codes.append(code)
        # a refusal comes before the closedness check
        assert len(calls) == (code == 0), (argv, stdout)
        assert code or '"residual_zero":true' in stdout
    assert 0 in codes


def test_each_structure_is_validated_once_per_run(monkeypatch):
    calls = _counted(monkeypatch, "validate", [gcalg.gcmaps])
    commands = {"gclinear", "ddbar", "grading", "extension"}
    counts = Counter()
    for argv in _sweep(commands):
        calls.clear()
        code, stdout = run(argv)
        assert len(calls) == 1, (argv, code, stdout)
        counts[argv[0]] += 1
    assert set(counts) == commands, counts
