"""Run alternating parent/change pairs of the benchmark and write them as a schema-1 BENCH file.

Usage:

    python3 tools/pairs.py <parent root> <change root> --workload W [--workload W2 ...]
        --pairs N [--claim METRIC] [--seconds S] [--tiny] [--seed S0] [--out BENCH.json]
        [--description TEXT]

For each workload, pair k runs ``python3 perfbench/run.py --workload W --seed S0+k --trace 0``
once in each checkout, the parent first when k is even and the change first when it is odd.
Each side runs its own ``perfbench/run.py`` against its own ``src/``, from a copy of the two
directories (and ``BENCHMARK.json``) in a temporary directory, with bytecode writing off, so
nothing is written into either checkout. ``--seconds`` and ``--tiny`` are passed through.

Per metric of ``BENCHMARK.json``'s ``end_to_end`` list the file records both sides' runs in pair
order, each side's median, q1 and q3 (``statistics.quantiles(n=4, method="inclusive")``),
``change_over_parent`` = change median / parent median - 1, and ``change_wins`` and ``ties``:
a pair is won when the change's value is better by the metric's ``better`` direction, and a tie
counts for neither. ``--claim METRIC`` names the claimed metric on the first ``--workload``;
the claim is met when the change wins at least 9/10 of the pairs and its median gain exceeds
the parent's q3 - q1. Standard library only.

The tool prints every metric's move against its ``BENCHMARK.json`` bound, marking a move worse
than the bound, and each side's failed operations. ``--out`` writes the JSON there; without it
nothing is written.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA = 1
CLAIM_RULE = "change wins >= 9/10 pairs and median gain > parent q3 - q1"
PAIR_ORDER = "pair k runs parent first when k is even (0-based), change first when odd"
STATISTICS = ("median and quartiles over the runs of one side, quartiles from Python's "
              "statistics.quantiles(n=4, method='inclusive'); change_over_parent = change median "
              "/ parent median - 1; a pair is won when the change's value is better, ties count "
              "for neither")
SIDES = ("parent", "change")
# the environment fields of a run that belong to the file, not to one run
ENV_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc", "cpu_count", "bench_rev")


def side_stats(runs):
    """median, q1 and q3 of one side's runs."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def metric_record(parent_runs, change_runs, better, unit):
    """The schema-1 record of one metric from both sides' runs, in pair order."""
    if len(parent_runs) != len(change_runs):
        raise ValueError("both sides need one run per pair")
    sign = 1.0 if better == "higher" else -1.0
    moves = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    parent, change = side_stats(parent_runs), side_stats(change_runs)
    return {
        "unit": unit, "better": better, "parent": parent, "change": change,
        "change_over_parent": change["median"] / parent["median"] - 1.0,
        "pairs": len(moves),
        "change_wins": sum(m > 0 for m in moves),
        "ties": sum(m == 0 for m in moves),
        "parent_runs": list(parent_runs), "change_runs": list(change_runs),
    }


def claim_met(record):
    """Whether a metric record meets the claim rule, ``CLAIM_RULE``."""
    sign = 1.0 if record["better"] == "higher" else -1.0
    gain = sign * (record["change"]["median"] - record["parent"]["median"])
    spread = record["parent"]["q3"] - record["parent"]["q1"]
    return 10 * record["change_wins"] >= 9 * record["pairs"] and gain > spread


def beyond_bound(record, bound):
    """Whether the change's median is worse than the parent's by more than ``bound``."""
    move = record["change_over_parent"]
    return move < -bound if record["better"] == "higher" else move > bound


def _copy(root, into):
    """The directories a benchmark run reads, copied from ``root`` into ``into``."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, into / part, ignore=skip)
    shutil.copy2(root / "BENCHMARK.json", into / "BENCHMARK.json")
    return into


def run_once(copy, workload, seed, seconds, tiny):
    """(env, result) of one timed benchmark run in a copied checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {copy} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    run_env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return run_env, json.loads(lines[-1])


def _rev(root):
    """The checkout's short git commit, or its directory name where it is not a git checkout."""
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short=7", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else root.name


def run_pairs(roots, workloads, pairs, seconds, tiny, first_seed, bench):
    """(env, {workload: schema-1 workload record}) of alternating pairs."""
    env, records = None, {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        copies = {side: _copy(root, Path(tmp) / side) for side, root in zip(SIDES, roots)}
        for workload in workloads:
            seeds = [first_seed + k for k in range(pairs)]
            runs = {side: [] for side in SIDES}
            for k, seed in enumerate(seeds):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    run_env, result = run_once(copies[side], workload, seed, seconds, tiny)
                    runs[side].append((run_env, result))
                    print(f"{workload} pair {k} seed {seed} {side}: "
                          f"{result['failed']} of {result['attempted']} failed", flush=True)
            env = env or {key: runs["parent"][0][0][key] for key in ENV_KEYS}
            records[workload] = {
                "seeds": seeds,
                "program_rev": {side: runs[side][0][0]["program_rev"] for side in SIDES},
                "failed": {side: sum(r["failed"] for _, r in runs[side]) for side in SIDES},
                "attempted": {side: sum(r["attempted"] for _, r in runs[side]) for side in SIDES},
                "metrics": {m["name"]: metric_record(
                    *([r["metrics"][m["name"]]["value"] for _, r in runs[side]] for side in SIDES),
                    m["better"], m["unit"]) for m in bench["end_to_end"]},
            }
            revs = {run_env["bench_rev"] for side in SIDES for run_env, _ in runs[side]}
            if len(revs) > 1:
                print(f"warning: the two sides run different benchmarks ({', '.join(revs)})")
    return env, records


def report(records, bench, claim):
    """Each metric's move against its bound, and each side's failed operations."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, rec in records.items():
        f, a = rec["failed"], rec["attempted"]
        print(f"{workload}: failed parent {f['parent']} of {a['parent']}, "
              f"change {f['change']} of {a['change']}")
        if f["change"] * a["parent"] > f["parent"] * a["change"]:
            print("  MORE FAILED: the change fails a larger share of operations")
        for name, m in rec["metrics"].items():
            mark = "BEYOND BOUND" if beyond_bound(m, bounds[name]) else "within bound"
            print(f"  {name:14s} parent {m['parent']['median']:.6g} change "
                  f"{m['change']['median']:.6g} ({m['change_over_parent']:+.2%}, bound "
                  f"{bounds[name]:.0%}, {m['better']} is better)  wins {m['change_wins']}/"
                  f"{m['pairs']} ties {m['ties']}  {mark}")
    if claim:
        print(f"claim {claim['workload']} {claim['metric']}: "
              f"{'met' if claim['met'] else 'not met'} ({CLAIM_RULE})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to pair; repeat for more, the claim is on the first")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--claim", help="the claimed end-to-end metric on the first workload")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--seed", type=int, default=1, help="the seed of pair 0")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    roots = [args.parent.resolve(), args.change.resolve()]
    bench = json.loads((roots[0] / "BENCHMARK.json").read_text())
    if args.claim and args.claim not in {m["name"] for m in bench["end_to_end"]}:
        parser.error(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")
    env, records = run_pairs(roots, args.workload, args.pairs, args.seconds, args.tiny,
                             args.seed, bench)
    claim = None
    if args.claim:
        first = args.workload[0]
        claim = {"workload": first, "metric": args.claim, "rule": CLAIM_RULE,
                 "met": claim_met(records[first]["metrics"][args.claim])}
    report(records, bench, claim)
    if args.out:
        doc = {
            "schema": SCHEMA, "description": args.description,
            "command": "python3 perfbench/run.py --workload W --seed S --trace 0"
                       + (" --tiny" if args.tiny else ""),
            "run_seconds": args.seconds, "parent": _rev(roots[0]), "env": env,
            "pair_order": PAIR_ORDER, "statistics": STATISTICS, "claim": claim,
            "workloads": records,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
