"""Size ladder of the grading, ddbar and equivariant layers, one child process per call.

    python3 tools/ladder.py parent=PARENT_DIR change=CHANGE_DIR --out LADDER_N.json

Each NAME=DIR is a checkout.  For n = 6, 8, 10, 12 (`--n`) the flat torus T^n is
taken with `complex_structure(n/2)` and with the standard symplectic
structure of sum e_(2a-1)^e_(2a), and each of `uk_grading(j)`,
`pure_spinor(i_eigenspace(j))`, `annihilator` of that spinor (built
untimed), `split_operators(T^n, j)` and `ddbar_lemma_check(T^n, j)` runs
in a fresh child process; so do `lifted_action_matrix` of the symplectic
structure sheared by B = sum over a < b of (a*b mod 5 + 1) e_a^e_b
(structure "sheared"; the standard structures have n nonzero weights, the
shear fills the JP block but for its V x V part), and
`twisted_cohomology(T^n)` and `equivariant_cohomology` at trunc 3 for a
circle along e_n with alpha = e1 and, from n = 4, H = e1^e2^e3, once per n
while its 4 x 2^n columns fit in `cartan.MAX_COLUMNS` (mirrored here as
MAX_COLUMNS; exactly at n = 10, and from n = 12 the call would refuse), and
from n = 6 for a 2-torus along e_(n-1) and e_n with alpha = (e1, 0) and
H = e1^e2^e3 while its 10 x 2^n columns fit (up to n = 8; at n = 4 the
field e3 meets H and h_G is not closed), and `canonical_extension` of
rho = exp(i*omega) on the symplectic T^n for a circle along e1 with
mu = e2 and alpha = 0, as `gcalg extension --form rho` runs it on
models/t2_symplectic.model.  On the flat tori d_H = 0, so the
split and the check time little beyond assembly; from n = 6 they and
`twisted_cohomology` also run on Iwasawa x T^(n-6) (d e5 = e1^e3 - e2^e4,
d e6 = e1^e4 + e2^e3, as in models/iwasawa.model) with the complex
structure, whose halves are nonzero and whose check fails with a witness,
and so does `equivariant_cohomology` for a circle along e6 with
H = e1^e2^e3 and alpha = e1, while it fits, so that d's table, the
contraction and the twist all enter its columns.  The refusal rung follows
from n = 6: `ddbar_lemma_check` and `twisted_cohomology` on Iwasawa x T^(n-6)
with d(e5) scaled by a parameter t (structure "iwasawa-t"), timed until they
raise ValueError, which the child records as "refused" with its wall time.  The scalars rung times
`parse_scalar_text("(t+s+u+1)^k", ["t", "s", "u"])` for k = 8 and 16
(POWERS) after every size, which spends its time in Gaussian-rational and
polynomial arithmetic; its rows carry k as n.  The front-end rung follows:
`parse_model` of each shipped models/*.model file (its rows carry the file's
name and generator count) and of a validate-style file at n = 3, 5 and 7
(PARSE_SIZES; structure "validate"), which declares parameters, builds an
`exp`, an eqform, a connection and a dh block, as perfbench's `validate`
queries do.  The startup rung comes last: `import gcalg, gcalg.cli`, as
every CLI call pays it, timed in STARTUP_IMPORTS fresh interpreters per
child run, whose median the run reports (its rows carry no n).
It runs twice.  With "bytecode", an untimed first import writes the
bytecode of every module it loads to a private `-X pycache_prefix` temp
dir, which the timed imports read, so the checkout is never written.  With
"source", the package's part of that dir is deleted after the first import
and the timed ones run with -B, so gcalg compiles from source each time
while the standard library still reads its bytecode.  The child imports gcalg from DIR/src, builds the inputs
untimed, makes one untimed call, then times as many calls as that one's
wall time fits into FILL_S seconds (at least one) and prints the wall time
per call, the number of timed calls and `ru_maxrss`; a call that raises
ValueError is timed up to the error.  So a row of a millisecond call is a
mean of about a hundred.  A child gets TIMEOUT_S seconds of wall time and an
address-space limit of MEM_MB (RLIMIT_AS, set in the child only); a call
that exceeds one is recorded as "timeout" or "memory", and that side's
row stops there.  Each row runs every call REPEATS times per checkout,
checkouts alternating and the first of them swapping each time, and
records the median wall time and `ru_maxrss` with the wall times of the
runs.  Standard library only, Linux (ru_maxrss in KiB).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CALLS = ("uk_grading", "pure_spinor", "annihilator", "split_operators", "ddbar_lemma_check")
STRUCTURES = ("complex", "symplectic")
IWASAWA_CALLS = ("split_operators", "ddbar_lemma_check", "twisted_cohomology")  # Iwasawa x T^(n-6)
REFUSAL_CALLS = ("ddbar_lemma_check", "twisted_cohomology")  # the same with t in d(e5)
TIMED = ("ok", "refused")  # statuses that carry a wall time
TIMEOUT_S = 300.0
MEM_MB = 3072
REPEATS = 3  # child runs per call and checkout; a row keeps their median
MAX_COLUMNS = 4096  # cartan.MAX_COLUMNS, which the equivariant rungs' 4 (or 10) x 2^n must fit
POWERS = (8, 16)  # powers k of the scalars rung
PARSE_SIZES = (3, 5, 7)  # generator counts of the validate-style file of the front-end rung
FILL_S = 0.1  # wall time a child's timed repeats of a call fill, about
MODELS_DIR = Path(__file__).resolve().parent.parent / "models"  # the shipped files it parses
STARTUP_MODES = ("bytecode", "source")  # the startup rung's two runs
STARTUP_IMPORTS = 10  # fresh interpreters a child run of the startup rung times
STARTUP_CODE = ("import time; t = time.perf_counter(); import gcalg, gcalg.cli; "
                "t = time.perf_counter() - t; import resource; "
                "print(t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")

CHILD = r"""
import json, resource, sys, time
from gcalg.cartan import TorusAction, canonical_extension, equivariant_cohomology
from gcalg.forms import Form, exp_two_form
from gcalg.gcmaps import (annihilator, b_transform, complex_structure, i_eigenspace,
                          lifted_action_matrix, pure_spinor, symplectic_map, uk_grading)
from gcalg.modelfile import parse_model, parse_scalar_text
from gcalg.models import Model, ddbar_lemma_check, split_operators, torus, twisted_cohomology
from gcalg.scalars import I, Scalar

call, structure, n, fill = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
model = torus(n)
if structure == "complex":
    j = complex_structure(n // 2)
elif structure in ("iwasawa", "iwasawa-t"):
    d5 = Form.monomial(n, (1, 3)) - Form.monomial(n, (2, 4))
    if structure == "iwasawa-t":
        d5 = d5.scale(Scalar.parameter("t"))
    d6 = Form.monomial(n, (1, 4)) + Form.monomial(n, (2, 3))
    model = Model(n, [Form.zero(n)] * 4 + [d5, d6] + [Form.zero(n)] * (n - 6))
    j = complex_structure(n // 2)
elif structure in ("symplectic", "sheared"):
    omega = Form.zero(n)
    for a in range(1, n, 2):
        omega = omega + Form.monomial(n, (a, a + 1))
    j = symplectic_map(omega)
    if structure == "sheared":
        b = Form.zero(n)
        for a in range(1, n + 1):
            for c in range(a + 1, n + 1):
                b = b + Form.monomial(n, (a, c), Scalar.rational(a * c % 5 + 1))
        j = b_transform(j, b)
if call == "equivariant_cohomology":
    h = Form.monomial(n, (1, 2, 3)) if n >= 4 else None
    field = [0] * (n - 1) + [1] if structure == "-" else [0] * 5 + [1] + [0] * (n - 6)
    fields, alpha = [field], [Form.generator(n, 1)]
    if structure == "2-torus":
        fields, alpha = [[0] * (n - 2) + [1, 0], [0] * (n - 1) + [1]], alpha + [Form.zero(n)]
    act = TorusAction(model.with_twist(h), fields, alpha=alpha)
if call == "annihilator":
    phi = pure_spinor(i_eigenspace(j))
if call == "canonical_extension":
    act = TorusAction(model, [[1] + [0] * (n - 1)], mu_diff=[Form.generator(n, 2)],
                      alpha=[Form.zero(n)])
    rho = exp_two_form(omega.scale(I))
if call == "parse_model":
    text = sys.argv[5] if structure == "validate" else open("models/%s.model" % structure).read()
run = {
    "uk_grading": lambda: uk_grading(j),
    "lifted_action_matrix": lambda: lifted_action_matrix(j),
    "pure_spinor": lambda: pure_spinor(i_eigenspace(j)),
    "annihilator": lambda: annihilator(phi),
    "split_operators": lambda: split_operators(model, j),
    "ddbar_lemma_check": lambda: ddbar_lemma_check(model, j),
    "twisted_cohomology": lambda: twisted_cohomology(model),
    "equivariant_cohomology": lambda: equivariant_cohomology(act, act.h_equivariant(3), 3),
    "canonical_extension": lambda: canonical_extension(act, j, rho),
    "parse_scalar_text": lambda: parse_scalar_text("(t+s+u+1)^%d" % n, ["t", "s", "u"]),
    "parse_model": lambda: parse_model(text),
}[call]
status = "ok"


def per_call(loops):
    global status
    start = time.perf_counter()
    for _ in range(loops):
        try:
            run()
        except ValueError:
            status = "refused"
    return (time.perf_counter() - start) / loops


try:
    loops = max(1, round(fill / max(per_call(1), 1e-6)))  # the untimed first call
    wall = per_call(loops)
except MemoryError:
    print(json.dumps({"status": "memory"}))
    sys.exit(0)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"status": status, "wall_s": round(wall, 7), "loops": loops, "maxrss_kb": rss}))
"""


def validate_text(n: int) -> str:
    """A validate-style model file on n = 3, 5 or 7 generators: d(e_n) = e1^e2,
    a closed H, parameters t and s, an exp, a circle along e3 with moment
    data, a connection, an eqform, samples and a dh block."""
    gens = " ".join("e%d" % i for i in range(1, n + 1))
    h = "(22/5)*e1^e2^e3" if n == 3 else "(22/5)*e1^e3^e4 + (-7/6)*e2^e3^e4"
    xi = " ".join("1" if i == 3 else "0" for i in range(1, n + 1))
    return (
        "model v%d\ngenerators %s\nparams t s\nd e%d = e1^e2\nH = %s\n" % (n, gens, n, h)
        + "volume = 9\norientation = +1\n"
        + "let c = (-18)*e1^e2\nlet w = t*e3 + (-27/2)*s*e1\n"
        + "let f = exp(-i*(t+27/2)*c) ^ (e2 + i*e3)\nlet p = (t^2 - s)*w ^ c\n"
        + "action rot\n  xi 1 = %s\n  mu 1 = e1\nend\n" % xi
        + "connection th for rot\n  theta 1 = e3\nend\n"
        + "eqform g for rot = x1*c + x1^2*w\nsamples t = 0, 1, -1/2\n"
        + "dh f1\n  base = f\n  twist = c\n  param = t\n  n = %d\n  k = 1\n" % ((n + 1) // 2)
        + "  orientation = +1\nend\n"
    )


def run_child(checkout: Path, call: str, structure: str, n: int,
              timeout: float = TIMEOUT_S, mem_mb: int = MEM_MB) -> dict:
    limit = mem_mb * 1024 * 1024

    def cap():  # runs in the child between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    if call == "startup":
        return run_startup(checkout, structure, STARTUP_IMPORTS, timeout, cap)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-c", CHILD, call, structure, str(n), str(FILL_S)]
    if call == "parse_model" and structure == "validate":
        cmd.append(validate_text(n))
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=cap)
    except subprocess.TimeoutExpired:
        return {"status": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"status": "error", "exit": proc.returncode, "stderr": proc.stderr[-500:]}
    return json.loads(lines[-1])


def run_startup(checkout: Path, mode: str, imports: int, timeout: float = TIMEOUT_S,
                cap=None) -> dict:
    """The median wall time and ru_maxrss of `import gcalg, gcalg.cli` over
    `imports` fresh interpreters, after an untimed one that writes the
    bytecode to a private prefix; in mode "source" the package's bytecode is
    deleted from it and the timed imports write none (-B)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the untimed import writes to the prefix
    runs = []
    with tempfile.TemporaryDirectory() as prefix:
        cmd = [sys.executable, "-X", "pycache_prefix=" + prefix, "-c", STARTUP_CODE]
        for k in range(imports + 1):
            try:
                proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                                      text=True, timeout=timeout, preexec_fn=cap)
            except subprocess.TimeoutExpired:
                return {"status": "timeout"}
            if proc.returncode != 0:
                return {"status": "error", "exit": proc.returncode, "stderr": proc.stderr[-500:]}
            if k:
                wall, rss = proc.stdout.split()
                runs.append((float(wall), int(rss)))
            elif mode == "source":
                shutil.rmtree(Path(prefix, *(checkout / "src").parts[1:]))
                cmd.insert(1, "-B")
    return {"status": "ok", "wall_s": round(statistics.median(w for w, _ in runs), 7),
            "loops": imports, "maxrss_kb": statistics.median(r for _, r in runs)}


def ladder_cases(sizes):
    for n in sizes:
        for structure in STRUCTURES:
            for call in CALLS:
                yield call, structure, n
        yield "lifted_action_matrix", "sheared", n
        yield "twisted_cohomology", "-", n
        if 4 << n <= MAX_COLUMNS:
            yield "equivariant_cohomology", "-", n
        yield "canonical_extension", "symplectic", n
        if n >= 6:
            for call in IWASAWA_CALLS:
                yield call, "iwasawa", n
            for call in REFUSAL_CALLS:
                yield call, "iwasawa-t", n
            if 4 << n <= MAX_COLUMNS:
                yield "equivariant_cohomology", "iwasawa", n
            if 10 << n <= MAX_COLUMNS:
                yield "equivariant_cohomology", "2-torus", n
    for k in POWERS:
        yield "parse_scalar_text", "-", k
    for path in sorted(MODELS_DIR.glob("*.model")):
        names = next(line.split("#")[0].split()[1:] for line in path.read_text().splitlines()
                     if line.startswith("generators"))
        yield "parse_model", path.stem, len(names)
    for n in PARSE_SIZES:
        yield "parse_model", "validate", n
    for mode in STARTUP_MODES:
        yield "startup", mode, None


def median_run(runs) -> dict:
    """The median wall time and ru_maxrss of timed runs, or the first run that is not timed."""
    for run in runs:
        if run["status"] not in TIMED:
            return run
    return {"status": runs[0]["status"], "wall_s": statistics.median(r["wall_s"] for r in runs),
            "maxrss_kb": statistics.median(r["maxrss_kb"] for r in runs),
            "runs_s": [r["wall_s"] for r in runs]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", nargs="+", help="NAME=DIR")
    p.add_argument("--n", type=int, nargs="+", default=[6, 8, 10, 12])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sides = {}
    for item in args.checkout:
        name, sep, path = item.partition("=")
        if not sep or not name:
            p.error("checkout %r is not NAME=DIR" % item)
        sides[name] = Path(path).resolve()
    if any(n < 2 or n % 2 for n in args.n):
        p.error("--n takes even sizes of at least 2")
    rows = []
    for call, structure, n in ladder_cases(args.n):
        runs = {name: [] for name in sides}
        for r in range(REPEATS):
            for name in list(sides)[::-1 if r % 2 else 1]:
                if all(run["status"] in TIMED for run in runs[name]):
                    runs[name].append(run_child(sides[name], call, structure, n))
        row = {"call": call, "structure": structure, "n": n}
        row.update((name, median_run(runs[name])) for name in sides)
        print(json.dumps(row), flush=True)
        rows.append(row)
    out = {
        "what": "median of %d child processes per call and checkout, wall timeout %g s,"
                " RLIMIT_AS %d MB" % (REPEATS, TIMEOUT_S, MEM_MB),
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "checkouts": list(sides),
        "rows": rows,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
