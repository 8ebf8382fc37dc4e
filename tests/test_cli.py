import json
import time

import pytest

from conftest import MODELS_DIR
from gcalg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_dh_rho1_golden(capsys):
    code, payload = run_cli(capsys, "dh", str(MODELS_DIR / "t4_rho1.model"))
    assert code == 0
    assert payload == {
        "density": "-2*pi*(t+1)",
        "degree_bound": 2,
        "normalization": "-1/2*pi",
    }


def test_dh_rho2_golden(capsys):
    code, payload = run_cli(capsys, "dh", str(MODELS_DIR / "t4_rho2.model"))
    assert code == 0
    assert payload == {
        "density": "-2*pi",
        "degree_bound": 2,
        "normalization": "-1/2*pi",
    }


def test_dh_orientation_override(capsys):
    code, payload = run_cli(
        capsys, "dh", str(MODELS_DIR / "t4_rho1.model"), "--orientation", "-1"
    )
    assert code == 0
    assert payload["density"] == "2*pi*(t+1)"


def test_cohomology_golden(capsys):
    code, payload = run_cli(capsys, "cohomology", str(MODELS_DIR / "t3_twisted.model"))
    assert code == 0
    assert payload == {"even": 3, "odd": 3, "over": "Q(i)"}
    code, payload = run_cli(capsys, "cohomology", str(MODELS_DIR / "t3_plain.model"))
    assert payload == {
        "even": 4, "odd": 4, "over": "Q(i)", "betti_by_degree": [1, 3, 3, 1],
    }


def test_gclinear_and_grading_golden(capsys):
    code, payload = run_cli(capsys, "gclinear", str(MODELS_DIR / "t2_symplectic.model"))
    assert code == 0
    assert payload == {
        "valid": True,
        "failures": [],
        "eigenspace_dim": 2,
        "type": 0,
        "spinor": "1+i*e1^e2",
        "flags": {
            "maximal_isotropic": True,
            "nondegenerate": True,
            "transverse": True,
        },
    }
    code, payload = run_cli(capsys, "grading", str(MODELS_DIR / "t2_symplectic.model"))
    assert payload == {
        "half_dim": 1,
        "dims": {"1": 1, "0": 2, "-1": 1},
        "canonical_eigenvalue": "-i",
        "canonical_line": ["1+i*e1^e2"],
    }


def test_gclinear_solves_the_eigenspace_once(capsys, monkeypatch):
    from gcalg import gcmaps

    calls = {"validate": 0, "i_eigenspace": 0, "_eigenspace": 0}
    for name in calls:
        original = getattr(gcmaps, name)

        def counted(j, _name=name, _original=original):
            calls[_name] += 1
            return _original(j)

        monkeypatch.setattr(gcmaps, name, counted)
    code, payload = run_cli(
        capsys, "gclinear", str(MODELS_DIR / "t2_symplectic.model"), "--structure", "Jw"
    )
    assert code == 0 and payload["type"] == 0
    # validated once, for the report; the eigenspace solve does not check again
    assert calls == {"validate": 1, "i_eigenspace": 0, "_eigenspace": 1}


def test_equivariant_golden(capsys):
    code, payload = run_cli(
        capsys, "equivariant", str(MODELS_DIR / "t4_twisted_circle.model"),
        "--trunc", "2",
    )
    assert code == 0
    assert payload["by_degree"] == [[3, 3], [0, 0], [3, 3]]
    assert payload["totals_stable"] == [3, 3]
    assert payload["free_pattern"] is False


def test_equivariant_refuses_a_complex_past_the_column_budget(capsys, monkeypatch):
    from gcalg import cartan

    model = str(MODELS_DIR / "t4_twisted_circle.model")
    start = time.perf_counter()
    code, payload = run_cli(capsys, "equivariant", model, "--trunc", "1000")
    assert code == 1 and time.perf_counter() - start < 1.0
    # 1001 x-monomials times 2^4 masks
    assert payload == {"error": "truncated complex has 16016 (x-monomial, mask) columns,"
                                " beyond 4096", "kind": "domain"}
    # the budget is checked before any column is built, and the limit itself passes
    built = [0]
    original = cartan._cartan_columns

    def counted(*args):
        built[0] += 1
        return original(*args)

    monkeypatch.setattr(cartan, "_cartan_columns", counted)
    monkeypatch.setattr(cartan, "MAX_COLUMNS", 3 * 16)
    code, payload = run_cli(capsys, "equivariant", model, "--trunc", "3")
    assert (code, payload["error"], built[0]) == (
        1, "truncated complex has 64 (x-monomial, mask) columns, beyond 48", 0)
    code, payload = run_cli(capsys, "equivariant", model, "--trunc", "2")
    assert (code, payload["by_degree"]) == (0, [[3, 3], [0, 0], [3, 3]]) and built[0] > 0


EDGE_ACTIONS = {
    # no xi line: a rank-0 torus, so x-degree 1 has no monomial
    "no_xi": ("generators e1 e2\n\naction rot\nend\n", "1",
              [[2, 2], [0, 0]], [2, 2], (2, 2)),
    # a zero field: d_G = d on T^2 at every x-monomial
    "zero_field": ("generators e1 e2\n\naction rot\n  xi 1 = 0 0\nend\n", "3",
                   [[2, 2], [2, 2], [2, 2], [2, 2]], [6, 6], (2, 2)),
    # no generators: the complex is the constants
    "no_generators": ("generators\n\naction rot\nend\n", "1",
                      [[1, 0], [0, 0]], [1, 0], (1, 0)),
}


@pytest.mark.parametrize("name", sorted(EDGE_ACTIONS))
def test_equivariant_edge_shapes(tmp_path, capsys, name):
    text, trunc, by_degree, totals, betti = EDGE_ACTIONS[name]
    path = tmp_path / ("%s.model" % name)
    path.write_text("model %s\n%s" % (name, text))
    code, payload = run_cli(capsys, "equivariant", str(path), "--trunc", trunc)
    assert code == 0
    assert payload == {"trunc": int(trunc), "by_degree": by_degree,
                       "betti": {"even": betti[0], "odd": betti[1]},
                       "free_pattern": True, "totals_stable": totals}


def test_equivariant_at_trunc_0(capsys):
    code, payload = run_cli(
        capsys, "equivariant", str(MODELS_DIR / "t4_twisted_circle.model"), "--trunc", "0")
    assert code == 0
    assert payload == {"trunc": 0, "by_degree": [[6, 6]], "betti": {"even": 6, "odd": 6},
                       "free_pattern": True, "totals_stable": [0, 0]}


def test_ddbar_golden(capsys):
    code, payload = run_cli(capsys, "ddbar", str(MODELS_DIR / "kodaira_thurston.model"))
    assert code == 0
    assert payload["ok"] is False
    assert payload["witness"] == "e1^e2"


def test_kirwan_and_cartanmap_golden(capsys):
    code, payload = run_cli(
        capsys, "kirwan", str(MODELS_DIR / "t4_twisted_circle.model"),
        "--eqform", "vol3",
    )
    assert code == 0
    assert payload["result"] == "q_e2^q_e3^q_e4"
    code, payload = run_cli(
        capsys, "cartanmap", str(MODELS_DIR / "t4_twisted_circle.model"),
        "--eqform", "xvol",
    )
    assert payload == {"result": "0"}


def test_extension_golden(capsys):
    code, payload = run_cli(
        capsys, "extension", str(MODELS_DIR / "t2_symplectic.model"),
        "--form", "rho",
    )
    assert code == 0
    assert payload == {"extension": "(1+i*e1^e2)", "residual_zero": True}


def test_gamma_model_descends_to_zero(capsys):
    code, payload = run_cli(capsys, "validate", str(MODELS_DIR / "t3_gamma.model"))
    assert code == 0 and payload["ok"]


def test_validate_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(
        "model bad\ngenerators e1 e2 e3 e4 e5\nd e5 = e1^e2 + e3^e4\nH = e1^e2^e5\n"
    )
    code, payload = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "not closed" in payload["error"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "syntax.model"
    bad.write_text("model x\ngenerators e1\nlet a = (e1\n")
    code, payload = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert payload["kind"] == "parse"
    assert "line 3" in payload["error"]


def test_every_shipped_model_loads(capsys):
    for path in sorted(MODELS_DIR.glob("*.model")):
        code, payload = run_cli(capsys, "validate", str(path))
        assert code == 0, (path, payload)
        assert payload["ok"] is True


def test_json_output_is_deterministic(capsys):
    code1 = main(["dh", str(MODELS_DIR / "t4_rho1.model")])
    out1 = capsys.readouterr().out
    code2 = main(["dh", str(MODELS_DIR / "t4_rho1.model")])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_pretty_flag(capsys):
    code = main(["--pretty", "cohomology", str(MODELS_DIR / "t3_twisted.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n")


def test_twisted_structure_model_goldens(capsys):
    code, payload = run_cli(capsys, "cohomology", str(MODELS_DIR / "t4_h124.model"))
    assert code == 0
    assert payload == {"even": 6, "odd": 6, "over": "Q(i)"}
    code, payload = run_cli(capsys, "ddbar", str(MODELS_DIR / "t4_h124.model"))
    assert code == 0
    assert payload["ok"] is False
    code, payload = run_cli(capsys, "gclinear", str(MODELS_DIR / "t4_h124.model"))
    assert payload["type"] == 2
    assert payload["spinor"] == "e1^e3+i*e1^e4+i*e2^e3-e2^e4"


def test_unknown_names_are_domain_errors(capsys):
    code, payload = run_cli(
        capsys, "gclinear", str(MODELS_DIR / "t4_h124.model"), "--structure", "nope"
    )
    assert code == 1 and "unknown" in payload["error"]
    code, payload = run_cli(
        capsys, "dh", str(MODELS_DIR / "t4_h124.model")
    )
    assert code == 1 and "no dh blocks" in payload["error"]
    code, payload = run_cli(
        capsys, "cartanmap", str(MODELS_DIR / "t4_h124.model"), "--eqform", "rho"
    )
    assert code == 1  # no connections declared


@pytest.mark.parametrize(
    "error, message",
    [
        (AssertionError("twisted differential left the subcomplex"),
         "internal check failed: twisted differential left the subcomplex"),
        (RecursionError("maximum recursion depth exceeded"),
         "internal check failed: maximum recursion depth exceeded"),
    ],
    ids=["assertion", "recursion"],
)
def test_internal_check_failure_is_a_domain_error(monkeypatch, capsys, error, message):
    from gcalg import cli

    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_cohomology", failing)
    code = main(["cohomology", str(MODELS_DIR / "t3_twisted.model")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {"error": message, "kind": "domain"}
    assert "Traceback" not in captured.err


def test_one_parser_per_process(monkeypatch, capsys):
    # main builds the parser on its first call and keeps it; a usage error
    # reads the same before and after a good call on the kept parser
    from gcalg import cli

    built = [0]
    original = cli.build_parser

    def counted():
        built[0] += 1
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()

    def usage_error():
        with pytest.raises(SystemExit) as err:
            main(["cohomology"])
        return err.value.code, capsys.readouterr()

    first = usage_error()
    assert main(["cohomology", str(MODELS_DIR / "t3_twisted.model")]) == 0
    assert json.loads(capsys.readouterr().out)["over"] == "Q(i)"
    assert usage_error() == first
    assert built[0] == 1
    assert first[0] == 2 and first[1].out == ""
    assert "the following arguments are required: file" in first[1].err
