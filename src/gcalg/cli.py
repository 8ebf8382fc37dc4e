"""Command-line interface: parse model files, run computations, print JSON.

Exit codes: 0 success, 1 domain error (validation, infeasibility), 2 parse
error.  Output is deterministic: identical inputs give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import cartan, gcy, gcmaps, models
from .cartan import EqForm, ExtensionError, ModelMorphism
from .forms import Form
from .modelfile import ModelFile, ModelFileError, ParseError, parse_model, promote
from .models import IntegrabilityError


class DomainError(Exception):
    pass


def _load(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DomainError("cannot read %s: %s" % (path, e))
    return parse_model(text)


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _form_str(f: Form, mf: ModelFile) -> str:
    return f.to_text(mf.model.names)


def _need(mapping: dict, key: Optional[str], what: str):
    if not mapping:
        raise DomainError("model file declares no %s" % what)
    if key is None:
        if len(mapping) == 1:
            return next(iter(mapping.values()))
        raise DomainError(
            "model file declares several %s (%s); pick one"
            % (what, ", ".join(sorted(mapping)))
        )
    if key not in mapping:
        raise DomainError("unknown %s %r" % (what, key))
    return mapping[key]


def _named(mf: ModelFile, name: str, k: Optional[int] = None):
    """The value named `name`, promoted as `promote` does."""
    if name not in mf.values:
        raise DomainError("unknown form %r" % name)
    return promote(mf.values[name], mf.model.n, k)


def _named_form(mf: ModelFile, name: str) -> Form:
    val = _named(mf, name)
    if not isinstance(val, Form):
        raise DomainError("%r is not a plain form" % name)
    return val


def _named_eqform(mf: ModelFile, name: str, k: int, trunc: int) -> EqForm:
    val = _named(mf, name, k)
    if val.k != k:
        raise DomainError("%r was built for a rank-%d torus" % (name, val.k))
    return EqForm(k, val.n, trunc, val.terms)


# -- subcommands --------------------------------------------------------------------


def cmd_validate(args) -> dict:
    mf = _load(args.file)
    return {
        "ok": True,
        "model": mf.name,
        "generators": list(mf.model.names),
        "params": list(mf.params),
        "structures": sorted(mf.structures),
        "actions": sorted(mf.actions),
        "twist": _form_str(mf.model.H, mf),
    }


def cmd_cohomology(args) -> dict:
    mf = _load(args.file)
    pair = models.twisted_cohomology(mf.model)
    out = {"even": pair.even, "odd": pair.odd, "over": pair.over}
    if mf.model.H.is_zero():
        out["betti_by_degree"] = models.betti_numbers(mf.model)
    return out


def cmd_gclinear(args) -> dict:
    mf = _load(args.file)
    j = _need(mf.structures, args.structure, "structures")
    report = gcmaps.validate(j)
    out = {"valid": report.ok, "failures": list(report.failures)}
    if not report.ok:
        return out
    space = gcmaps._eigenspace(j)  # the report above has validated j
    spinor = gcmaps.pure_spinor(space)
    ann = gcmaps.annihilator(spinor)
    out.update(
        {
            "eigenspace_dim": space.dimension,
            "type": space.type,
            "spinor": _form_str(spinor, mf),
            "flags": {
                "maximal_isotropic": ann.maximal_isotropic,
                "nondegenerate": ann.nondegenerate,
                "transverse": ann.transverse,
            },
        }
    )
    return out


def cmd_grading(args) -> dict:
    mf = _load(args.file)
    j = _need(mf.structures, args.structure, "structures")
    grading = gcmaps.uk_grading(j)
    eig = "-i" if grading.half_dim == 1 else "-%d*i" % grading.half_dim
    return {
        "half_dim": grading.half_dim,
        "dims": {str(k): grading.dimension(k) for k in grading.levels},
        "canonical_eigenvalue": eig,
        "canonical_line": [
            _form_str(b, mf) for b in grading.bases[grading.half_dim]
        ],
    }


def cmd_equivariant(args) -> dict:
    mf = _load(args.file)
    act = _need(mf.actions, args.action, "actions")
    trunc = args.trunc
    h_g = act.h_equivariant(trunc)
    ranks = cartan.equivariant_cohomology(act, h_g, trunc)
    return {
        "trunc": trunc,
        "by_degree": [[e, o] for e, o in ranks.by_degree],
        "betti": {"even": ranks.betti.even, "odd": ranks.betti.odd},
        "free_pattern": ranks.free_pattern,
        "totals_stable": list(ranks.totals_stable()),
    }


def cmd_cartanmap(args) -> dict:
    mf = _load(args.file)
    conn = _need(mf.connections, args.connection, "connections")
    act = conn.action
    eta = _named_eqform(mf, args.eqform, act.k, args.trunc)
    out = cartan.cartan_map(conn, eta)
    return {"result": _form_str(out, mf)}


def cmd_kirwan(args) -> dict:
    mf = _load(args.file)
    conn = _need(mf.connections, args.connection, "connections")
    act = conn.action
    eta = _named_eqform(mf, args.eqform, act.k, args.trunc)
    sub = ModelMorphism.identity(act.model)
    mapped = cartan.kirwan_map(act, conn, sub, eta)
    qm = cartan.quotient_model(conn)
    return {
        "result": mapped.to_text(qm.names),
        "quotient_generators": list(qm.names),
    }


def cmd_dh(args) -> dict:
    mf = _load(args.file)
    spec = _need(mf.dh_specs, args.name, "dh blocks")
    samples = [
        {spec.param: v} for v in mf.samples.get(spec.param, [])
    ]
    fam = gcy.quotient_family(
        mf.model, spec.base, spec.twist, spec.param, samples
    )
    orientation = spec.orientation
    if args.orientation is not None:
        orientation = args.orientation
    result = gcy.dh_density(
        fam, spec.n, spec.k, orientation, spec.constant_type
    )
    out = {
        "density": str(result.density),
        "degree_bound": result.degree_bound,
        "normalization": str(result.normalization),
    }
    if not result.real:
        out["diagnostic"] = "density is not real"
    return out


def cmd_ddbar(args) -> dict:
    mf = _load(args.file)
    j = _need(mf.structures, args.structure, "structures")
    report = models.ddbar_lemma_check(mf.model, j)
    out = {"ok": report.ok}
    if not report.ok:
        out["detail"] = report.detail
        if report.witness is not None:
            out["witness"] = _form_str(report.witness, mf)
    return out


def cmd_extension(args) -> dict:
    mf = _load(args.file)
    act = _need(mf.actions, args.action, "actions")
    j = _need(mf.structures, args.structure, "structures")
    phi = _named_form(mf, args.form)
    ext = cartan.canonical_extension(act, j, phi, trunc=args.trunc)
    # canonical_extension raises unless generalized_d(ext) is zero
    return {"extension": ext.to_text(mf.model.names), "residual_zero": True}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gcalg",
        description="Exact computations on invariant models: twisted and "
        "equivariant cohomology, generalized complex linear algebra, and "
        "push-forward densities.",
    )
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):  # `main` runs cmd_<name>
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="model file")
        return sp

    add("validate", "parse a model file and run all construction checks")
    add("cohomology", "twisted Betti ranks of the model")

    sp = add("gclinear", "validate a structure; type, spinor, flags")
    sp.add_argument("--structure", help="structure name (default: the only one)")

    sp = add("grading", "level decomposition of forms under a structure")
    sp.add_argument("--structure")

    sp = add("equivariant", "truncated equivariant cohomology ranks")
    sp.add_argument("--action")
    sp.add_argument("--trunc", type=int, default=2)

    sp = add("cartanmap", "apply the Cartan map to a named form")
    sp.add_argument("--connection")
    sp.add_argument("--eqform", required=True, help="named form or eqform")
    sp.add_argument("--trunc", type=int, default=4)

    sp = add("kirwan", "Cartan map followed by descent to the quotient")
    sp.add_argument("--connection")
    sp.add_argument("--eqform", required=True)
    sp.add_argument("--trunc", type=int, default=4)

    sp = add("dh", "exact push-forward density for a dh block")
    sp.add_argument("--name", help="dh block name (default: the only one)")
    sp.add_argument(
        "--orientation", type=int, choices=(1, -1),
        help="override the block's orientation",
    )

    sp = add("ddbar", "interchange-law check for a structure")
    sp.add_argument("--structure")

    sp = add("extension", "canonical equivariant extension of a form")
    sp.add_argument("--action")
    sp.add_argument("--structure")
    sp.add_argument("--form", required=True)
    sp.add_argument("--trunc", type=int, default=None)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first `main` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a replaced cmd_* function is the one that runs
        payload = globals()["cmd_" + args.command](args)
    except ParseError as e:
        _emit({"error": str(e), "kind": "parse"}, args.pretty)
        return 2
    except (ModelFileError, DomainError, ExtensionError, IntegrabilityError,
            gcy.GCYError, ValueError) as e:
        _emit({"error": str(e), "kind": "domain"}, args.pretty)
        return 1
    except (AssertionError, RecursionError) as e:
        _emit({"error": "internal check failed: %s" % e, "kind": "domain"}, args.pretty)
        return 1
    _emit(payload, args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
