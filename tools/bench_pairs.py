"""Paired benchmark runs of two checkouts, summarized in one BENCH_<name>.json.

    python3 tools/bench_pairs.py BASE_ROOT CHANGE_ROOT --workload cone2d \\
        --pairs 10 --seconds 30 --seed 1 --name cone2d-example

Each pair runs ``bench/run.py`` of both repository roots once, each root
with its own benchmark, from its own directory and with the same seed; the
order alternates (base first in even pairs, change first in odd ones), so
a slow spell of the machine does not fall on one side only. Pair i uses
seed ``--seed + i``. The last JSON line of every run is kept.

The output holds, per metric, the median and the quartiles of each side
and the number of pairs that each side won (by the metric's ``better``
direction in the change root's ``BENCHMARK.json``), plus every run's raw
metrics, ``correct`` and ``failed``. Runs are untraced (``--trace 0``).
Only the standard library is used. The wrapper itself writes only
BENCH_<name>.json; each ``bench/run.py`` it starts leaves its usual files
under its own checkout's ``bench/.runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("base", "change")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="repository root of the reference checkout")
    p.add_argument("change", help="repository root of the checkout under test")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--name", help="output BENCH_<name>.json (default: the workload)")
    p.add_argument("--out-dir", default=".", help="directory of the output file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def _commit(root: str) -> str | None:
    """HEAD of the checkout, with '+dirty' when tracked files differ."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=root, check=True, capture_output=True,
                               text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py process of a checkout; its last JSON line."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs each
    side won (ties count for neither)."""
    out = {}
    for name in runs[0]["base"]["metrics"]:
        vals = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = {side: 0 for side in SIDES}
        for b, c in zip(vals["base"], vals["change"]):
            if sign * (c - b) > 0.0:
                wins["change"] += 1
            elif sign * (b - c) > 0.0:
                wins["base"] += 1
        out[name] = {"unit": runs[0]["base"]["metrics"][name]["unit"],
                     "better": better.get(name, "lower"),
                     **{side: _quartiles(vals[side]) for side in SIDES},
                     "pairs_won": wins}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    roots = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        record = {"pair": i, "seed": seed, "order": list(order)}
        for side in order:
            start = time.perf_counter()
            record[side] = run_once(roots[side], args.workload, seed, args.seconds)
            record[side]["process_s"] = time.perf_counter() - start
        runs.append(record)
        print(f"pair {i} (seed {seed}): " + ", ".join(
            f"{side} {record[side]['metrics'].get('wall_s', {}).get('value', float('nan')):.4g}"
            for side in SIDES), file=sys.stderr)
    result = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [r["seed"] for r in runs],
        "commits": {side: _commit(roots[side]) for side in SIDES},
        "correct": {side: all(r[side]["correct"] for r in runs) for side in SIDES},
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
        "metrics": summarize(runs, better),
        "runs": runs,
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.name or args.workload}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
