"""One refusal for coefficients that are not Gaussian rationals.

Every answer is an exact rank over Q(i), so a parameter or pi coefficient in
d, H, a torus field or a moment one-form alpha is refused before any matrix
is built.  The refusal names the first such coefficient as the model states
it, in the order d(e_1)..d(e_n), H, then per torus factor xi_j and alpha_j:
`cohomology`, `ddbar`, `equivariant` and `extension` print the same error for
each coefficient they read.
"""

import json

import pytest

import gcalg.models
from gcalg.cartan import TorusAction, canonical_extension, equivariant_cohomology
from gcalg.cli import main
from gcalg.forms import Form
from gcalg.gcmaps import UGrading, complex_structure
from gcalg.modelfile import parse_model
from gcalg.models import split_operators
from gcalg.scalars import Scalar

SUBCOMMANDS = {
    "cohomology": [],
    "ddbar": [],
    "equivariant": [],
    "extension": ["--form", "one"],
}


def model_text(slot=None, coefficient="0"):
    """T^4 with the complex structure and a circle along e4, whose h_G is
    closed; the coefficient sits in d(e3), in H or in alpha."""
    lines = ["model coefficients", "generators e1 e2 e3 e4", "params t"]
    if slot == "d":
        lines.append("d e3 = %s*e1^e2" % coefficient)
    if slot == "H":
        lines.append("H = %s*e1^e2^e3" % coefficient)
    lines += ["let one = 1", "structure Jc complex", "action rot", "  xi 1 = 0 0 0 1",
              "  mu 1 = 0", "  alpha 1 = %s*e1" % (coefficient if slot == "alpha" else "0"), "end"]
    return "\n".join(lines) + "\n"


def run(capsys, tmp_path, text, command):
    path = tmp_path / "coefficients.model"
    path.write_text(text)
    code = main([command, str(path)] + SUBCOMMANDS[command])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("coefficient", ["t", "pi"])
@pytest.mark.parametrize("slot", ["d", "H", "alpha"])
def test_each_subcommand_refuses_the_coefficient_as_stated(capsys, tmp_path, slot, coefficient):
    refusal = {"error": "scalar %s is not a plain Gaussian rational" % coefficient,
               "kind": "domain"}
    for command in SUBCOMMANDS:
        assert run(capsys, tmp_path, model_text(), command)[0] == 0, command
        got = run(capsys, tmp_path, model_text(slot, coefficient), command)
        if slot == "alpha" and command in ("cohomology", "ddbar"):
            assert got[0] == 0, command  # they read the model, not its actions
        else:
            assert got == (1, refusal), command


def test_a_field_holds_rationals_in_a_file_and_is_refused_as_stated_in_the_api(capsys, tmp_path):
    text = model_text().replace("xi 1 = 0 0 0 1", "xi 1 = 0 0 0 t")
    for command in SUBCOMMANDS:
        code, payload = run(capsys, tmp_path, text, command)
        assert code == 2 and payload["kind"] == "parse", command
    model = parse_model(model_text()).model
    zero = Form.zero(4)
    for c, text in ((Scalar.parameter("t"), "t"), (-Scalar.pi(), "-pi")):
        act = TorusAction(model, [[0, 0, 0, c]], mu_diff=[zero], alpha=[zero])
        message = "^scalar %s is not a plain Gaussian rational$" % text
        with pytest.raises(ValueError, match=message):
            equivariant_cohomology(act, act.h_equivariant(2), 2)
        with pytest.raises(ValueError, match=message):
            canonical_extension(act, complex_structure(2), Form.unit(4))


def test_a_refused_split_runs_no_per_form_split(monkeypatch):
    calls = []
    for owner, name in ((gcalg.models, "del_delbar_split"), (UGrading, "decompose")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    j = complex_structure(2)
    for slot in ("d", "H"):
        for coefficient in ("t", "pi"):
            model = parse_model(model_text(slot, coefficient)).model
            with pytest.raises(ValueError, match="^scalar %s is not" % coefficient):
                split_operators(model, j)
    assert calls == []
    # the counters do count
    gcalg.models.del_delbar_split(parse_model(model_text()).model, j, Form.unit(4))
    assert calls[0] == "del_delbar_split" and "decompose" in calls
