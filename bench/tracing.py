"""Spans around the package's public functions, recorded from outside it.

The benchmark patches the module attributes and class methods that callers
look up, so no program file changes. Each wrapper keeps a stack of child
time, so every layer is charged its self time: the span's duration minus
the spans it caused. Self times add up to the covered part of a round;
the rest of the round is reported as ``layer.unattributed_s``.

Only aggregates (self seconds and counts per layer) are kept, in memory:
the oracle workload makes about 80,000 solver calls a round.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from fracfree import cli, energy, extension, quadrature, solver


class Recorder:
    """Per-layer self time and counts, recorded while ``active``."""

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.max_kkt = 0.0
        self._stack = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.max_kkt = 0.0

    def span(self, layer, fn, count=None, on_result=None):
        """Wrap fn, charging its self time to the metric named layer."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                rec.self_s[layer] += elapsed - rec._stack.pop()
                if rec._stack:
                    rec._stack[-1] += elapsed
                if count is not None:
                    rec.counts[count] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Self seconds, counts and the largest QP KKT residual so far."""
        snap = dict(self.self_s)
        snap.update(self.counts)
        snap["solver.max_kkt"] = self.max_kkt
        return snap

    def _qp_result(self, result) -> None:
        self.counts["solver.qp_iterations"] += result.iterations
        self.max_kkt = max(self.max_kkt, result.kkt_residual)


def _replace_function(original, replacement) -> None:
    """Point every package module's reference to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name != "fracfree" and not name.startswith("fracfree."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_capture(extensions: list) -> None:
    """Append ((phases, half_grid, sigma), field) for every extend_set call.

    Installed in traced and untraced runs alike: the set-extension checks
    need the fields that cone_defect builds internally.
    """
    original = extension.extend_set

    @functools.wraps(original)
    def capture(phases, hg, sigma):
        field = original(phases, hg, sigma)
        extensions.append(((phases, hg, sigma), field))
        return field

    _replace_function(original, capture)


def install_trace(rec: Recorder) -> None:
    """Wrap every measured layer; install_capture must come first."""
    functions = [
        (quadrature.assemble_table, "quadrature.assemble_table_s", None),
        (energy.total_energy, "energy.assembly_s", None),
        (energy.gagliardo_energy, "energy.assembly_s", None),
        (energy.frac_perimeter, "energy.assembly_s", None),
        (solver.alternate_minimize, "solver.alternate_self_s", None),
        (solver.brute_force_minimize, "solver.brute_force_self_s", None),
        # cone2d is the only workload that extends, on 2D half grids
        (extension.extend_scalar, "extension.extend_2d_s", "extension.extend_calls"),
        (extension.extend_set, "extension.extend_2d_s", "extension.extend_calls"),
        (extension.weighted_dirichlet, "extension.dirichlet_s", None),
        (extension.shell_average, "extension.dirichlet_s", None),
        (extension.cone_defect, "extension.cone_defect_self_s", None),
        (cli.run_experiment, "cli.run_experiment_self_s", None),
    ]
    for fn, layer, count in functions:
        _replace_function(fn, rec.span(layer, fn, count))
    methods = [
        (quadrature.KernelTable, "region_tails", "quadrature.region_tails_s",
         "quadrature.region_tails_calls", None),
        (energy.PerimeterForm, "__init__", "energy.perimeter_form_s",
         "energy.perimeter_form_calls", None),
        (energy.PerimeterForm, "value", "energy.perimeter_form_s",
         "energy.perimeter_form_calls", None),
        (energy.PerimeterForm, "flip_delta", "energy.perimeter_form_s",
         "energy.perimeter_form_calls", None),
        (solver.GagliardoQP, "__init__", "solver.qp_build_s", None, None),
        (solver.GagliardoQP, "solve", "solver.qp_solve_s", "solver.qp_solves",
         rec._qp_result),
        (solver.GagliardoQP, "kkt_residual", "solver.kkt_residual_s", None, None),
    ]
    for cls, attr, layer, count, on_result in methods:
        setattr(cls, attr, rec.span(layer, getattr(cls, attr), count, on_result))
