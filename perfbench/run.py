"""Benchmark for the gcalg command line, run from the root of a checkout.

    python3 perfbench/run.py --workload ddbar --seed 1 --seconds 25 --trace 0

One process is one closed-loop client: it calls gcalg.cli.main in-process on
seeded, generated model files, one query after another, in whole rounds until
--seconds of query time have passed.  Query times are reported in kref, units
of a fixed reference computation that runs between the queries (see
ref_stretch).  Outputs are checked after the timed region.  The last line of
stdout is a JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) named in BENCHMARK.json.
Per-query records and run metadata go to .perfbench_runs/.

--workload all runs the three workloads in fresh processes and prints every
metric by name and unit.  --self-check tests the generator; --record-expected
rewrites the outputs expected for the default seed (run it only on a commit
whose outputs are known good).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from math import ceil, gcd
from pathlib import Path
from time import perf_counter

import checks
import gen
from layers import LISTED, MODULES, Counter, Tracer, traced_names

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_runs")  # relative to the checkout root, the working directory
DEFAULT_SEED = 1
EXPECTED = HERE / "expected_seed1.json"

# fixed per workload so that runs of different speed report the same quantile;
# each leaves at least ten queries above it in a run of whole rounds
TAIL_PCT = {"ddbar": 80, "equivariant": 70, "cli-mix": 98}
DEADLINE_S = {"ddbar": 30.0, "equivariant": 60.0, "cli-mix": 10.0}
HOSTILE_DEADLINE_S = 1.0
# the traced and counted replays cover this many leading rounds, whatever
# --seconds is, so per-layer totals compare across commits
TRACE_ROUNDS = {"ddbar": 1, "equivariant": 1, "cli-mix": 8}
# a run has at least MIN_ROUNDS rounds, so that ten queries lie above the tail
# percentile even on a slow host, and at most MAX_ROUNDS, fewer than any slot
# has distinct queries; today's runs stop at --seconds long before
MIN_ROUNDS = {"ddbar": 3, "equivariant": 3, "cli-mix": 17}
MAX_ROUNDS = {"ddbar": 50, "equivariant": 50, "cli-mix": 200}
# fresh-interpreter imports per run, half before and half after the timed
# rounds, so the median spans the run rather than one moment of it
SETUP_RUNS = 12
# the reference computation runs for this share of the query time, and for
# REF_MIN_S at least, so that a short query's kref still rests on several
# chunks
REF_SHARE = 0.1
REF_MIN_S = 0.005
SETUP_CODE = ("import time; t = time.perf_counter(); import gcalg, gcalg.cli; "
              "print(time.perf_counter() - t)")


class Deadline(BaseException):
    """Raised by the per-query alarm; a BaseException so no handler in the
    package can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (root / ".git" / ref).is_file():
        return (root / ".git" / ref).read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def measure_setup(root: Path, count: int) -> list:
    """Import times of gcalg.cli in `count` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            fail("importing gcalg failed:\n%s" % out.stderr)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _q_add(a, b):
    n, d = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    g = gcd(n, d)
    return n // g, d // g


def _q_mul(a, b):
    n, d = a[0] * b[0], a[1] * b[1]
    g = gcd(n, d)
    return n // g, d // g


def ref_chunk():
    """A fixed piece of work, about 1 ms: rational arithmetic on (numerator,
    denominator) pairs of ints, the kind of work the package does, written
    without anything of the package."""
    row = [((i * 7 + 3) % 11 - 5 or 1, i % 5 + 1) for i in range(8)]
    last = {}
    for r in range(60):
        f = row[r % 8]
        row = [_q_add(_q_mul(x, f), (r - 30 or 1, 7)) if x[1] < 10**12 else (x[0] % 97 + 1, 3)
               for x in row]
        last[r % 16] = row[0]
    return last


def ref_stretch(query_s: float):
    """Run ref_chunk for REF_SHARE of `query_s`, REF_MIN_S at least, and
    return (seconds, chunks).

    The host is shared: its speed swings by tens of percent within seconds,
    and the mix of fast and slow stretches changes from one minute to the
    next.  A stretch runs after every query, so each query lies between two
    stretches; a query's kref is the mean time of 1000 chunks over those two.
    A query time divided by it reads the same on a slow or a fast stretch of
    the host.  The cyclic garbage collector is off while the chunks run, so
    the heap the queries leave does not slow them."""
    collect = gc.isenabled()
    gc.disable()
    try:
        spent, chunks = 0.0, 0
        while True:
            start = perf_counter()
            ref_chunk()
            spent += perf_counter() - start
            chunks += 1
            if spent >= max(REF_SHARE * query_s, REF_MIN_S):
                return spent, chunks
    finally:
        if collect:
            gc.enable()


class Client:
    """Runs queries through gcalg.cli.main, each under its own deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.paths = {}

    def write(self, qid, q: gen.Query):
        path = self.paths.setdefault(qid, str(self.workdir / ("%d.model" % len(self.paths))))
        Path(path).write_text(q.text, encoding="utf-8")

    def run(self, qid, q: gen.Query, deadline=None) -> dict:
        cli = sys.modules["gcalg.cli"]  # looked up per call, so a traced main is used
        argv = [q.sub, self.paths[qid], *q.options]
        buf = io.StringIO()
        rc, error = None, None
        signal.setitimer(signal.ITIMER_REAL, deadline or self.deadline)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Deadline:
            error = "missed the %gs deadline" % (deadline or self.deadline)
        except SystemExit as e:
            error = "exited through SystemExit(%r)" % (e.code,)
        except Exception as e:  # an escaping exception is a reported failure
            error = "traceback: %s: %s" % (type(e).__name__, str(e)[:200])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - start
        return {"id": qid, "slot": q.slot, "sub": q.sub, "n": q.n, "k": q.k, "trunc": q.trunc,
                "options": list(q.options), "rc": rc, "seconds": seconds, "error": error,
                "stdout": buf.getvalue()}


def nearest_rank(values, pct):
    s = sorted(values)
    return s[max(0, ceil(pct / 100 * len(s)) - 1)]


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("gcalg_oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.twisted_betti_oracle


def batches(workload, seed):
    """(ids, queries) per round: the references, if the workload has any,
    then round 0, 1, ..."""
    seen = set()
    refs = gen.references(workload, seed, seen)
    if refs:
        yield ["ref/%s" % q.slot for q in refs], refs
    for rnd in itertools.count():
        batch = gen.ROUNDS[workload](seed, rnd, seen)
        yield ["r%d/%s" % (rnd, q.slot) for q in batch], batch


@contextlib.contextmanager
def session(root: Path, tag: str, deadline: float):
    """Import gcalg from this checkout and yield a Client whose model files
    live in a directory that is removed afterwards."""
    sys.path.insert(0, str(root / "src"))
    import gcalg.cli  # the client looks it up in sys.modules
    if not Path(gcalg.cli.__file__).resolve().is_relative_to(root / "src"):
        fail("gcalg was imported from %s, not from this checkout" % gcalg.cli.__file__)
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = OUT_DIR / ("%s-%d" % (tag, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield Client(workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, root: Path, spec: dict) -> dict:
    if not args.trace:
        measure_setup(root, 1)  # may write bytecode; not counted
        setup = measure_setup(root, SETUP_RUNS // 2)
    oracle = load_oracle(root)
    with session(root, "%s-%d" % (args.workload, args.seed), DEADLINE_S[args.workload]) as client:
        plan = batches(args.workload, args.seed)
        queries, records, rounds, elapsed = [], [], [], 0.0
        before = ref_stretch(0.2)
        while ((elapsed < args.seconds or len(rounds) < MIN_ROUNDS[args.workload])
               and len(rounds) < MAX_ROUNDS[args.workload]):
            ids, batch = next(plan)
            for qid, q in zip(ids, batch):
                client.write(qid, q)
            for qid, q in zip(ids, batch):
                rec = client.run(qid, q)
                after = ref_stretch(rec["seconds"])
                rec["kref_s"] = (before[0] + after[0]) * 1000 / (before[1] + after[1])
                before = after
                elapsed += rec["seconds"]
                records.append(rec)
            queries += batch
            rounds.append(ids)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            setup += measure_setup(root, SETUP_RUNS - len(setup))

        layers, trace_failures, trace_dump = None, [], None
        if args.trace:
            n_traced = sum(len(r) for r in rounds[:TRACE_ROUNDS[args.workload]])
            layers, trace_failures, trace_dump = trace_layers(client, queries[:n_traced], records[:n_traced])

        hostile = []
        for q in gen.hostile_queries():
            client.write(q.slot, q)
            rec = client.run(q.slot, q, deadline=HOSTILE_DEADLINE_S)
            rec["error"] = rec["error"] or checks.check_one(q, rec["rc"], rec["stdout"], oracle)
            hostile.append(rec)
            if rec["error"]:
                print("perfbench: known defect, %s: %s" % (q.slot, rec["error"]), file=sys.stderr)

    expected = None
    if args.seed == DEFAULT_SEED and EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text())[args.workload]
    failures = checks.check_run(records, queries, oracle, expected) + trace_failures
    for line in failures[:20]:
        print("perfbench: FAILED %s" % line, file=sys.stderr)

    attempted = len(records)
    failed = len(failures)
    # a failed query counts as slower than the deadline, which no limit allows
    lat_s = [r["seconds"] if r["error"] is None else max(r["seconds"], client.deadline) for r in records]
    lat = [s / r["kref_s"] for s, r in zip(lat_s, records)]
    ok = sum(1 for r in records if r["error"] is None)
    values = {
        "setup_s": statistics.median(setup) if not args.trace else None,
        "queries_per_kref": ok / sum(r["seconds"] / r["kref_s"] for r in records),
        "latency_p50_kref": statistics.median(lat),
        "latency_tail_kref": nearest_rank(lat, TAIL_PCT[args.workload]),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    if layers is not None:
        values = dict(layers, **{"hostile.failed": sum(1 for r in hostile if r["error"])})

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "rounds": len(rounds), "timed_s": elapsed, "tail_percentile": TAIL_PCT[args.workload],
        "kref_s_median": statistics.median(r["kref_s"] for r in records),
        # the same figures in wall seconds, which drift with the host's speed
        "wall": {"queries_per_s": ok / elapsed, "latency_p50_s": statistics.median(lat_s),
                 "latency_tail_s": nearest_rank(lat_s, TAIL_PCT[args.workload])},
        "deadline_s": DEADLINE_S[args.workload], "attempted": attempted, "failed": failed,
        "hostile": [{k: r[k] for k in ("slot", "rc", "seconds", "error")} for r in hostile],
    }
    for r in records:
        r["digest"] = checks.digest(r["rc"] if r["rc"] is not None else -1, r.pop("stdout"))
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if values.get(m["name"]) is None:
            fail("no value for metric %s" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    record_file = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record_file.write_text(json.dumps({"meta": meta, "metrics": metrics, "queries": records,
                                       "trace": trace_dump}, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace_layers(client: Client, queries, untraced):
    """Replay the leading rounds traced, then counted.  Returns the per-layer
    metric values, failures, and the raw counters and spans."""
    failures = []
    tracer = Tracer()
    tracer.install(traced_names())
    tracer.disable()
    # each query runs untraced, then traced, back to back: the machine's
    # speed drifts over seconds, so only paired runs give the overhead
    untraced_s = traced_s = 0.0
    for q, base in zip(queries, untraced):
        untraced_s += client.run(base["id"], q)["seconds"]
        tracer.query_id = base["id"]
        tracer.enable()
        try:
            rec = client.run(base["id"], q)
        finally:
            tracer.disable()
        traced_s += rec["seconds"]
        if (rec["rc"], rec["stdout"]) != (base["rc"], base["stdout"]):
            failures.append("traced %s: output differs from the untraced run" % base["id"])
    counter = Counter()
    counter.install()
    try:
        for q, base in zip(queries, untraced):
            client.run(base["id"], q)
    finally:
        counter.disable()

    main_s = sum(end - start for qid, name, parent, start, end in tracer.spans if name == "cli.main")
    cli_self = sum(v for k, v in tracer.self_s.items() if k.startswith("cli."))
    facts = counter.facts
    # scalar work happens in Q and Scalar methods, which the Counter counts;
    # scalars' only wrapped function formats output
    out = {"%s.self_s" % mod: sum(v for k, v in tracer.self_s.items() if k.split(".")[0] == mod)
           for mod in MODULES if mod != "scalars"}
    for name in LISTED:
        out[name + ".self_s"] = tracer.self_s[name]
        out[name + ".calls"] = tracer.calls[name]
    out.update({k + ".count": v for k, v in counter.counts.items()})
    out.update({
        "modelfile.parse_model.bytes": facts["modelfile.parse_model.bytes"],
        "linalg.rref.cells": facts["linalg.rref.cells"],
        "linalg.rref.pivot_frac": facts["linalg.rref.pivots"] / max(facts["linalg.rref.rows"], 1),
        "linalg.mat_vec.nnz_frac": facts["linalg.mat_vec.nonzeros"] / max(facts["linalg.mat_vec.entries"], 1),
        "cartan.equivariant_cohomology.basis_dim": facts["cartan.equivariant_cohomology.basis_dim"],
        "trace.layer_frac": 1.0 - cli_self / main_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return out, failures, {"calls": tracer.calls, "self_s": tracer.self_s, "spans": tracer.spans}


def run_all(args, spec):
    """Every workload in its own fresh process; print every metric by name."""
    ok = True
    for wl in gen.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%-12s benchmark exited with %d" % (wl, proc.returncode))
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        print("%-12s correct=%s attempted=%d failed=%d" % (wl, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            print("  %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


def self_check(root: Path) -> int:
    """Generator determinism, distinct queries, and every well-formed file
    passing the validate subcommand."""
    problems = []

    def keys(wl, seed):  # the first three rounds
        return [q.key() for _, batch in itertools.islice(batches(wl, seed), 3) for q in batch]

    with session(root, "self-check", 30.0) as client:
        for wl in gen.WORKLOADS:
            first = keys(wl, DEFAULT_SEED)
            if first != keys(wl, DEFAULT_SEED):
                problems.append("%s: the same seed gave different files" % wl)
            if first == keys(wl, DEFAULT_SEED + 1):
                problems.append("%s: different seeds gave the same files" % wl)
            if len(set(first)) != len(first):
                problems.append("%s: a query repeats within a run" % wl)
            for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
                for ids, batch in itertools.islice(batches(wl, seed), 3):
                    for qid, q in zip(ids, batch):
                        v = gen.Query(q.slot, "validate", q.text)
                        client.write(qid, v)
                        rec = client.run(qid, v)
                        want = 2 if q.facts.get("exits") == (2,) else 0
                        if rec["rc"] != want:
                            problems.append("%s seed %d %s: validate gave %s %s" % (
                                wl, seed, qid, rec["rc"], rec["error"] or rec["stdout"].strip()))
    for p in problems:
        print("self-check: %s" % p)
    print("self-check: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def record_expected(root: Path, rounds: dict) -> int:
    """Write digests of (exit code, stdout) for the default seed: the first
    rounds[workload] rounds, the references included."""
    table = {}
    with session(root, "record", 120.0) as client:
        for wl in gen.WORKLOADS:
            table[wl] = {}
            for ids, batch in itertools.islice(batches(wl, DEFAULT_SEED), rounds[wl]):
                for qid, q in zip(ids, batch):
                    client.write(qid, q)
                    rec = client.run(qid, q)
                    if rec["error"]:
                        fail("%s %s: %s" % (wl, qid, rec["error"]))
                    table[wl][qid] = checks.digest(rec["rc"], rec["stdout"])
            print("recorded %d rounds of %s" % (rounds[wl], wl), file=sys.stderr)
    EXPECTED.write_text(json.dumps(table, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=gen.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--record-expected", action="store_true")
    args = p.parse_args()

    root = Path.cwd().resolve()
    for need in ("src/gcalg/cli.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (root / need).is_file():
            fail("%s not found: run from the root of a gcalg checkout" % need)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.self_check:
        return self_check(root)
    if args.record_expected:
        return record_expected(root, {"ddbar": 11, "equivariant": 8, "cli-mix": 60})
    if args.workload == "all":
        return run_all(args, spec)
    print(json.dumps(run_workload(args, root, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
