"""Alternating parent/change pairs of perfbench runs, summarised as BENCH_*.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 5 --out BENCH_8.json \
        --what "perfbench seed 1, ..."

PARENT_DIR and CHANGE_DIR are two checkouts.  Pair i runs each workload in
both, parent first on odd i and change first on even i, so drift of the
host's speed falls on both sides alike.  Each run is
`python3 perfbench/run.py --workload W --seed S` in its checkout; the record
keeps the `meta` and `metrics` objects of its
`.perfbench_runs/<W>-seed<S>-trace0.json`, without the per-query lists.  The
summary gives, per workload and end-to-end metric of BENCHMARK.json, the
median and quartiles of each side and the number of pairs in which the
change was better, and per workload each side's `meta.rounds`, per run and
as a median.  Two checkouts of which only one has src/gcalg/__pycache__
are refused with exit 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ddbar", "equivariant", "cli-mix")


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s in %s failed (exit %d):\n%s" % (workload, checkout, proc.returncode,
                                                             proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    record = json.loads((checkout / ".perfbench_runs" /
                         ("%s-seed%d-trace0.json" % (workload, seed))).read_text())
    return {"correct": result["correct"], "meta": record["meta"], "metrics": record["metrics"]}


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs, spec, workloads) -> dict:
    out = {}
    for w in workloads:
        # a run's peak RSS grows with its round count, so each side's rounds
        # sit beside the metrics they explain
        out[w] = {"rounds": {}}
        for s in ("parent", "change"):
            rounds = [r["meta"]["rounds"] for r in runs if r["workload"] == w and r["side"] == s]
            out[w]["rounds"][s] = {"median": statistics.median(rounds), "runs": rounds}
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def side(s):
                return {r["pair"]: r["metrics"][name]["value"]
                        for r in runs if r["workload"] == w and r["side"] == s}

            parent, change = side("parent"), side("change")
            sign = 1 if metric["better"] == "higher" else -1
            out[w][name] = {
                "unit": metric["unit"],
                "parent": quartiles(list(parent.values())),
                "change": quartiles(list(change.values())),
                "change_better_pairs": sum(1 for p in parent if sign * (change[p] - parent[p]) > 0),
                "pairs": len(parent),
                "parent_runs": list(parent.values()),
                "change_runs": list(change.values()),
            }
    return out


def _bytecode_gap(dirs) -> str:
    """The side whose checkout alone has src/gcalg/__pycache__, or "" when
    both or neither have it: bytecode on one side alone moves setup_s and
    peak RSS."""
    cached = [s for s, d in dirs.items() if (d / "src" / "gcalg" / "__pycache__").is_dir()]
    return cached[0] if len(cached) == 1 else ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeat for several; default: all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--what", default="")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("need at least two pairs for quartiles")
    workloads = args.workload or list(WORKLOADS)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    side = _bytecode_gap(dirs)
    if side:
        p.error("only the %s checkout has src/gcalg/__pycache__; remove it or "
                "compile both sides" % side)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for w in workloads:
            for s in order:
                rec = run_once(dirs[s], w, args.seed, args.seconds)
                runs.append(dict(pair=pair, side=s, workload=w, **rec))
                print("pair %d %-7s %-11s correct=%s %s" % (
                    pair, s, w, rec["correct"],
                    {k: round(v["value"], 4) for k, v in rec["metrics"].items()}), flush=True)
    out = {"what": args.what, "summary": summarize(runs, spec, workloads), "runs": runs}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
