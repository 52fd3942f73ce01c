"""Benchmark entry point: one workload, one run, one JSON line on stdout.

    python3 bench/run.py --workload tails2d --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. Each run
is one single-threaded process (BLAS/OpenMP pinned to one thread, the
package's worker cap at 1):

  --trace 0  runs one untimed warm-up round, then timed rounds until they
             add up to --seconds and at least MIN_ROUNDS were timed, and
             reports wall_s (median round), setup_s (median of
             SETUP_PROBES fresh interpreters, spread over the run) and
             peak_rss_mb.
  --trace 1  runs the warm-up, one untraced round, then traced rounds
             until the two timed rounds add up to --seconds (at least one
             traced), and reports the per-layer metrics as per-round means.

Every round's outputs are checked (checks.py); each check is one operation
in ``attempted``, and a failed check or a round that raised counts in
``failed``. ``correct`` is false when an operation other than the known
failing one fails, or when a check itself set the process's peak memory.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH, ".runs")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 120
CHECK_RSS_SLACK_KB = 4096   # the most the checks may raise the peak RSS


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_imports() -> None:
    """Pin threads before NumPy loads and import the package from ./src."""
    if not os.path.isfile(os.path.join(SRC, "fracfree", "__init__.py")):
        raise SystemExit(f"error: no package source under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import fracfree
    if not os.path.abspath(fracfree.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: fracfree imported from {fracfree.__file__}")


def _setup_time(workload: str, seed: int, out_dir: str) -> float:
    """One setup_s sample, from a fresh interpreter (setup_probe.py)."""
    cmd = [sys.executable, os.path.join(BENCH, "setup_probe.py"),
           workload, str(seed), out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Runner:
    """Runs and checks rounds of one workload, counting operations."""

    def __init__(self, workload: str, inputs, out_dir: str):
        # these import fracfree, so they follow prepare_imports
        import checks
        import tracing
        import workloads

        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.round_fn = workloads.WORKLOADS[workload][1]
        self.check_fn = getattr(checks, f"check_{workload}")
        self.op_names = None        # from the first round that was checked
        self.known_failing = {op for w, op in checks.KNOWN_FAILING if w == workload}
        self.extensions = []
        tracing.install_capture(self.extensions)
        self.recorder = None        # a tracing.Recorder in traced rounds
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.check_rss_kb = 0

    def round(self) -> dict:
        """One round: timed program calls, then untimed checks."""
        self.extensions.clear()
        rec = self.recorder
        if rec is not None:
            rec.reset()
            rec.active = True
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            out = self.round_fn(self.inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        elapsed = time.perf_counter() - start
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if rec is not None:
            rec.active = False
        rss_before = _maxrss_kb()
        ops = None
        if out is not None:
            try:
                ops = self.check_fn(self.inputs, out, self.extensions)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if ops is None:
            # a round or a check that raised fails all of the round's operations
            ops = [(name, False, {}) for name in self.op_names or ["round"]]
        elif self.op_names is None:
            self.op_names = [name for name, _, _ in ops]
        self.check_rss_kb = max(self.check_rss_kb, _maxrss_kb() - rss_before)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        accuracy = {}
        for name, ok, acc in ops:
            self.attempted += 1
            accuracy.update(acc)
            if not ok:
                self.failed += 1
                if name not in self.known_failing:
                    self.unexpected.append(name)
        print(f"{self.workload}: round {elapsed:.3f} s, "
              f"{sum(not ok for _, ok, _ in ops)}/{len(ops)} ops failed",
              file=sys.stderr)
        return {"elapsed": elapsed, "accuracy": accuracy,
                "layers": {} if rec is None else rec.snapshot(),
                "sys_s": ru1.ru_stime - ru0.ru_stime,
                "minor_faults": ru1.ru_minflt - ru0.ru_minflt}

    @property
    def correct(self) -> bool:
        return not self.unexpected and self.check_rss_kb <= CHECK_RSS_SLACK_KB


def _timed_rounds(runner: Runner, seconds: float, minimum: int,
                  between=None) -> list:
    """Rounds until their summed time reaches seconds (at least minimum);
    between() runs after each round, outside the measured time."""
    rounds = []
    measured = 0.0
    while len(rounds) < minimum or measured < seconds:
        rounds.append(runner.round())
        measured += rounds[-1]["elapsed"]
        if between is not None:
            between()
    return rounds


def _end_to_end(runner: Runner, args, out_dir: str) -> dict:
    # set-up samples are spread over the run (one before the warm-up, then
    # one after each timed round) so that they do not all fall in one slow
    # spell of the shared machine
    setup = [_setup_time(args.workload, args.seed, out_dir)]

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(_setup_time(args.workload, args.seed, out_dir))

    runner.round()                                         # warm-up
    rounds = _timed_rounds(runner, args.seconds, MIN_ROUNDS, probe)
    while len(setup) < SETUP_PROBES:
        probe()
    return {
        "wall_s": statistics.median(r["elapsed"] for r in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _maxrss_kb() / 1024.0,
    }


def _per_layer(runner: Runner, args, names) -> dict:
    import tracing

    runner.round()                                         # warm-up
    untraced = runner.round()["elapsed"]
    runner.recorder = tracing.Recorder()
    tracing.install_trace(runner.recorder)
    rounds = _timed_rounds(runner, max(args.seconds - untraced, 0.0), 1)
    per_round = []
    for rnd in rounds:
        values = dict(rnd["layers"])
        values.update(rnd["accuracy"])
        values["process.sys_s"] = rnd["sys_s"]
        values["process.minor_faults"] = rnd["minor_faults"]
        attributed = sum(v for k, v in rnd["layers"].items() if k.endswith("_s"))
        values["layer.unattributed_s"] = rnd["elapsed"] - attributed
        values["trace.overhead_s"] = rnd["elapsed"] - untraced
        per_round.append(values)
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "untraced_round_s": untraced, "rounds": per_round}, fh,
                  indent=1, sort_keys=True)
    return {name: statistics.fmean(r.get(name, 0.0) for r in per_round)
            for name in names}


def main(argv=None) -> int:
    args = _parse(argv)
    prepare_imports()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    import workloads
    from fracfree import numerics

    numerics.set_worker_cap(1)
    out_dir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    try:
        inputs = workloads.WORKLOADS[args.workload][0](args.seed, out_dir)
        runner = Runner(args.workload, inputs, out_dir)
        if args.trace:
            values = _per_layer(runner, args, [m["name"] for m in metrics])
        else:
            values = _end_to_end(runner, args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if runner.unexpected:
        print(f"unexpected failures: {sorted(set(runner.unexpected))}", file=sys.stderr)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
