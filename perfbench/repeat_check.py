"""Check that a workload's counts repeat exactly for the same seed.

Usage (from the repository root):

    python3 perfbench/repeat_check.py --workload mm-small --seed 1 [--tiny]

Runs the traced benchmark twice with the same seed and compares every
metric whose unit is ``count`` (iterations per solve, eigendecompositions
and matrices per iteration, status counts, ...). Exits 1 and names each
difference if any count differs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload, seed, tiny):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--trace", "1"] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"repeat_check: {workload} seed {seed} failed its correctness gate:\n{out.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    a = counts(args.workload, args.seed, args.tiny)
    b = counts(args.workload, args.seed, args.tiny)
    diffs = [f"{k}: {a[k]!r} then {b.get(k)!r}" for k in a if a[k] != b.get(k)]
    if diffs or set(a) != set(b):
        print(f"COUNTS DIFFER between two runs of {args.workload} seed {args.seed}:",
              *diffs, sep="\n  ", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {len(a)} counts repeat exactly")
    for k, v in a.items():
        print(f"  {k:36s} {v:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
