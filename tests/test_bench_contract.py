"""The benchmark in bench/ patches package names and checks their outputs.

One round of every workload, traced, in a fresh interpreter (the tracer
rebinds module attributes for the life of the process), so that a change
which breaks a name the benchmark patches or calls fails here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "bench"))
import checks, tracing, workloads

extensions = []
tracing.install_capture(extensions)
rec = tracing.Recorder()
tracing.install_trace(rec)
failed = []
for name, (setup, run_round) in workloads.WORKLOADS.items():
    extensions.clear()
    inputs = setup(1, os.path.join(sys.argv[2], name))
    rec.active = True
    outputs = run_round(inputs)
    rec.active = False
    for op, ok, _ in getattr(checks, "check_" + name)(inputs, outputs, extensions):
        if not ok and (name, op) not in checks.KNOWN_FAILING:
            failed.append([name, op])
print(json.dumps({"failed": failed, "layers": rec.snapshot()}))
"""


def test_one_traced_round_of_each_workload_passes_its_checks(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == []
    layers = result["layers"]
    assert layers.get("solver.qp_solves", 0) > 0
    assert layers.get("energy.perimeter_form_calls", 0) > 0
