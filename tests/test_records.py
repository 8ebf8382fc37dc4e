"""The result records are plain classes that behave as the frozen dataclasses
they replace, and importing the command line loads neither `dataclasses`
nor `inspect`.

Each record is compared with a `dataclasses` reference built here from the
fields, defaults and flags the records had as dataclasses: construction by
position and by keyword, defaults, the TypeError of a missing or unknown
field, equality, hash and repr.  Two records were mutable dataclasses
(`ModelFile` and `_RawAction`); every record now refuses assignment.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcalg import linalg
from gcalg.cartan import EquivariantRanks, HamiltonianReport, StableRanks
from gcalg.forms import Form
from gcalg.gcmaps import (
    AnnihilatorReport, IsotropicSubspace, KahlerReport, UGrading, ValidationReport,
    complex_structure, uk_grading,
)
from gcalg.gcy import DHResult, GCYFamily, GCYStructure, LefschetzReport
from gcalg.modelfile import DHSpec, ModelFile, _RawAction
from gcalg.models import BettiPair, DdbarReport, SplitOperators
from gcalg.scalars import Q

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = object()  # a field without a default
FACTORY = object()  # a field whose default is a fresh dict

# (class, fields as (name, default), frozen, fields left out of the hash)
SPECS = [
    (HamiltonianReport, [("ok", REQUIRED), ("spinor_residuals", REQUIRED),
                         ("closure_residual", REQUIRED)], True, ()),
    (EquivariantRanks, [("trunc", REQUIRED), ("k", REQUIRED), ("by_degree", REQUIRED),
                        ("betti", REQUIRED), ("free_pattern", REQUIRED)], True, ()),
    (StableRanks, [("trunc", REQUIRED), ("by_degree", REQUIRED), ("low", REQUIRED),
                   ("high", REQUIRED)], True, ()),
    (ValidationReport, [("ok", REQUIRED), ("failures", ())], True, ()),
    (IsotropicSubspace, [("dim_v", REQUIRED), ("basis", REQUIRED)], True, ()),
    (AnnihilatorReport, [("space", REQUIRED), ("maximal_isotropic", REQUIRED),
                         ("nondegenerate", REQUIRED), ("transverse", REQUIRED)], True, ()),
    (UGrading, [("dim_v", REQUIRED), ("levels", REQUIRED), ("bases", REQUIRED)], True,
     ("bases",)),
    (KahlerReport, [("ok", REQUIRED), ("commute", REQUIRED), ("positive", REQUIRED),
                    ("detail", "")], True, ()),
    (GCYStructure, [("model", REQUIRED), ("rho", REQUIRED), ("half_dim", REQUIRED),
                    ("pairing", REQUIRED), ("samples", ()), ("flags", None)], True, ()),
    (GCYFamily, [("structure", REQUIRED), ("param", REQUIRED), ("base", REQUIRED),
                 ("twist", REQUIRED)], True, ()),
    (DHResult, [("density", REQUIRED), ("n", REQUIRED), ("k", REQUIRED),
                ("degree_bound", REQUIRED), ("normalization", REQUIRED), ("real", REQUIRED)],
     True, ()),
    (LefschetzReport, [("ok", REQUIRED), ("witness", None), ("detail", "")], True, ()),
    (DHSpec, [("name", REQUIRED), ("base", REQUIRED), ("twist", REQUIRED), ("param", REQUIRED),
              ("n", REQUIRED), ("k", REQUIRED), ("orientation", 1), ("constant_type", None)],
     True, ()),
    (ModelFile, [(name, REQUIRED) for name in (
        "name", "model", "params", "values", "structures", "actions", "connections",
        "dh_specs", "samples")], False, ()),
    (_RawAction, [("name", REQUIRED), ("line", REQUIRED), ("xi", FACTORY), ("mu", FACTORY),
                  ("alpha", FACTORY)], False, ()),
    (BettiPair, [("even", REQUIRED), ("odd", REQUIRED), ("over", "Q(i)")], True, ()),
    (SplitOperators, [("model", REQUIRED), ("masks", REQUIRED), ("lower", REQUIRED),
                      ("upper", REQUIRED)], True, ()),
    (DdbarReport, [("ok", REQUIRED), ("witness", None), ("detail", "")], True, ()),
]


def reference(cls, fields, frozen, unhashed):
    """The dataclass `cls` was: same name, fields, defaults and flags."""
    spec = []
    for name, default in fields:
        if default is REQUIRED:
            spec.append((name, object, dataclasses.field(hash=False if name in unhashed else None)))
        elif default is FACTORY:
            spec.append((name, object, dataclasses.field(default_factory=dict)))
        else:
            spec.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen)


def samples(cls, names, alt=False):
    """Field values for cls, a second set with alt; IsotropicSubspace checks its basis."""
    if cls is IsotropicSubspace:  # e1 and its dual e^1 are each isotropic
        return {"dim_v": 1, "basis": ((Q(0), Q(1)),) if alt else ((Q(1), Q(0)),)}
    return {name: ("w%d" if alt else "v%d") % i for i, name in enumerate(names)}


@pytest.mark.parametrize("cls, fields, frozen, unhashed", SPECS,
                         ids=[spec[0].__name__ for spec in SPECS])
def test_records_behave_as_their_dataclasses(cls, fields, frozen, unhashed):
    ref = reference(cls, fields, frozen, unhashed)
    names = [name for name, _ in fields]
    assert list(inspect.signature(cls).parameters) == names
    values, other = samples(cls, names), samples(cls, names, alt=True)
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    want = ref(**values)
    for rec in (by_position, by_keyword):
        assert [getattr(rec, name) for name in names] == [getattr(want, name) for name in names]
        assert repr(rec) == repr(want)
    # defaults, and the TypeError of a missing or an unknown field
    required = {name: values[name] for name, default in fields if default is REQUIRED}
    rec, want = cls(**required), ref(**required)
    assert [getattr(rec, name) for name in names] == [getattr(want, name) for name in names]
    if any(default is FACTORY for _, default in fields):
        assert rec.xi is not cls(**required).xi  # a fresh dict per instance
    for bad in (dict(list(required.items())[:-1]), dict(values, nope=1)):
        with pytest.raises(TypeError):
            ref(**bad)
        with pytest.raises(TypeError):
            cls(**bad)
    # equality with a record of the same class alone
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != cls(**other) and (ref(**values) != ref(**other))
    assert by_position != ref(**values) and by_position != tuple(values.values())
    twin, ref_twin = type(cls.__name__, (cls,), {}), type(ref.__name__, (ref,), {})
    assert twin(**values) != by_position and ref_twin(**values) != ref(**values)
    for name in names:
        changed = dict(values, **{name: other[name]})
        if cls is IsotropicSubspace and name == "dim_v":
            continue  # the basis fixes its dimension
        assert (cls(**changed) == by_position) == (ref(**changed) == ref(**values))
    # hash over the hashed fields, where the dataclass was hashable
    if frozen:
        assert hash(by_position) == hash(by_keyword) == hash(ref(**values))
        if unhashed:
            bases = cls(**dict(values, bases={0: ()}))
            assert hash(bases) == hash(ref(**dict(values, bases={0: ()}))) == hash(by_position)
    # no assignment, no deletion, also on the records that were mutable
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(by_position, name, 1)
    with pytest.raises(AttributeError):
        delattr(by_position, names[0])
    assert [getattr(by_position, name) for name in names] == list(values.values())


def test_betti_pairs_iterate_as_even_odd():
    even, odd = BettiPair(3, 5)
    assert (even, odd) == (3, 5) and list(BettiPair(1, 2, "Q")) == [1, 2]


def test_isotropic_subspace_checks_its_basis_when_built():
    with pytest.raises(ValueError, match="not isotropic"):
        IsotropicSubspace(1, ((Q(1), Q(1)),))  # e1 + e^1 pairs to 1 with itself
    with pytest.raises(ValueError, match="linearly dependent"):
        IsotropicSubspace(2, ((Q(1), Q(0), Q(0), Q(0)), (Q(2), Q(0), Q(0), Q(0))))
    space = IsotropicSubspace(2, ((Q(1), Q(0), Q(0), Q(0)), (Q(0), Q(1), Q(0), Q(0))))
    assert space.dimension == 2 and space.type == 0 and space._rows is space._rows


def test_ugrading_keeps_its_inverse_after_the_first_decompose(monkeypatch):
    grading = uk_grading(complex_structure(1))
    calls = []
    invert = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda m: calls.append(1) or invert(m))
    f = Form.generator(2, 1) + Form.unit(2)
    first = grading.decompose(f)
    assert grading.decompose(f) == first and len(calls) == 1
    assert "_inverse" in vars(grading) and grading == uk_grading(complex_structure(1))


def test_importing_the_cli_loads_no_dataclasses_nor_inspect():
    # compare the module sets around the import, so modules `site` loads do not count
    code = ("import sys; before = set(sys.modules); import gcalg, gcalg.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert "gcalg.cli" in out and "gcalg._record" in out
    assert "dataclasses" not in out and "inspect" not in out
