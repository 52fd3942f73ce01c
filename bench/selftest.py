"""Self-test of the output checks: today's output passes, a perturbed copy fails.

    python3 bench/selftest.py

Runs one round of each workload on seed SEED (about 15 s for all three) and
gives the workload's ``checks.check_<workload>``, the check run.py applies,
first the round's output and then, for every operation, a copy perturbed
just past that operation's tolerance. Exits 1 unless every operation passes
on the output and fails on its copy. The known failing operation is turned
round: it must fail on the output and pass on a copy that carries the
closed-form tails.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import os
import shutil
import sys

import run

run.prepare_imports()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fracfree import model  # noqa: E402

SEED = 1


def _with_csv_column(report, filename, column, change, run_dir):
    """A copy of report whose run_dir holds filename with change(column)."""
    shutil.copytree(report.run_dir, run_dir)
    path = os.path.join(run_dir, filename)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = change(np.array([float(row[column]) for row in rows]))
    for row, value in zip(rows, values):
        row[column] = repr(float(value))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return dataclasses.replace(report, run_dir=run_dir)


def _bump_extension(extensions, index):
    """A copy of extensions whose index-th field is off by 1e-8 at one node."""
    (key, field) = extensions[index]
    bumped = copy.copy(field)
    bumped.values = field.values.copy()
    bumped.values[1].flat[field.values[1].size // 2] += 1e-8
    return extensions[:index] + [(key, bumped)] + extensions[index + 1:]


# Each returns (operation, outputs, extensions) copies, one or more per
# operation, each of which must flip that operation's outcome.

def _tails2d(inp, out, extensions, scratch):
    grid, table = inp["grid"], out["table"]
    t_pos, t_neg = out["tails"]
    expected = checks.halfplane_tails_expected(grid.centers, grid.h,
                                               table.alpha, table.dense_matrix())
    left = grid.centers[:, 0] < 0.0
    exact = (np.where(left, expected, t_pos), np.where(left, t_neg, expected))
    scale = 1.0 + 2.0 * checks.TAIL_TOL
    b = out["breakdown"]
    return [
        ("energy_identity", dict(out, breakdown=dataclasses.replace(
            b, perimeter=b.perimeter * (1.0 + 1e-9))), extensions),
        ("tails_closed_form", dict(out, tails=(scale * t_pos, scale * t_neg)),
         extensions),
        ("tails_declared_tol", dict(out, tails=exact), extensions),
    ]


def _oracle1d(inp, out, extensions, scratch):
    inside = inp["grid"].in_omega
    copies = []
    for k, (oracle, alternate) in enumerate(out["results"]):
        pair = oracle.pair
        signs = pair.phases.indicator
        moved = copy.copy(oracle)
        moved.pair = model.make_pair(pair.u.with_values(
            pair.u.values + 1e-3 * np.where(inside, signs, 0.0)), pair.phases)
        raised = copy.copy(oracle)
        gap = alternate.trace[-1].total - float(oracle.landscape.min())
        raised.landscape = oracle.landscape + gap + 1e-6
        for op, changed in ((f"oracle_qp_value_{k}", moved),
                            (f"alternate_dominance_{k}", raised)):
            results = list(out["results"])
            results[k] = (changed, alternate)
            copies.append((op, dict(out, results=results), extensions))
    return copies


def _cone2d(inp, out, extensions, scratch):
    def negative(d):
        return np.concatenate([d[:-1], -d[-1:]])

    def growing(d):
        return np.concatenate([d[:-1], 2.0 * d[-2:-1]])

    return [
        ("defect_decay", dict(out, report=_with_csv_column(
            out["report"], "defect.csv", "defect", negative,
            os.path.join(scratch, "negative"))), extensions),
        ("defect_decay", dict(out, report=_with_csv_column(
            out["report"], "defect.csv", "defect", growing,
            os.path.join(scratch, "growing"))), extensions),
        ("set_extension", out, _bump_extension(extensions, 0)),
    ]


PERTURB = {"tails2d": _tails2d, "oracle1d": _oracle1d, "cone2d": _cone2d}


def _selftest(name, extensions) -> int:
    """Checks one round of one workload; returns the number of misbehaviours."""
    setup, round_fn = workloads.WORKLOADS[name]
    check = getattr(checks, f"check_{name}")
    known = {op for w, op in checks.KNOWN_FAILING if w == name}
    base = os.path.join(run.RUNS_DIR, f"selftest-{name}-{os.getpid()}")
    try:
        inp = setup(SEED, os.path.join(base, "out"))
        extensions.clear()
        out = round_fn(inp)
        captured = list(extensions)
        today = {op: ok for op, ok, _ in check(inp, out, captured)}
        copies = PERTURB[name](inp, out, captured, os.path.join(base, "copy"))
        flipped = {}
        for op, p_out, p_ext in copies:
            ok = dict((o, k) for o, k, _ in check(inp, p_out, p_ext))[op]
            flipped.setdefault(op, []).append(ok != today[op])
    finally:
        shutil.rmtree(base, ignore_errors=True)
    bad = 0
    for op, ok in today.items():
        flips = flipped.get(op, [])
        good = ok != (op in known) and bool(flips) and all(flips)
        bad += not good
        print(f"{'ok  ' if good else 'BAD '} {name}: {op}: output "
              f"{'passes' if ok else 'fails'}"
              f"{' (known failing)' if op in known else ''}; "
              f"{sum(flips)} of {len(flips)} perturbed copies flip it")
    return bad


def main() -> int:
    extensions = []
    tracing.install_capture(extensions)
    bad = sum(_selftest(name, extensions) for name in PERTURB)
    print(f"{bad} operation(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
