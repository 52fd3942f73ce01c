"""Experiment orchestration: named pipelines, JSON configs, CSV reports.

Usage: fracfree <experiment> --config <path> [--outdir DIR] [--threads N]
                             [--seed N]

An experiment's options are declared with their defaults in
EXPERIMENT_PARAMS and checked by validate_config with the rest of the
config. Each run creates <outdir>/<experiment>-<timestamp>/ containing
config.json (the fully defaulted echo), schema.json, summary.json and the
experiment's CSV profiles. Exit codes: 0 success; 2 invalid config (a bad
value, a mistyped one, an unknown key or an option its experiment cannot
run with), or an output that cannot be written (an OSError); 3 solver did
not converge; 4 internal failure (a failed assertion, a package error, a
ValueError such as LinAlgError, or a MemoryError). Every nonzero code
prints one error: line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import numerics
from .energy import frac_perimeter, gagliardo_energy, total_energy
from .errors import (
    ConfigError,
    FracfreeError,
    NonConvergenceError,
    OutOfRangeError,
)
from .extension import (
    PULLBACK_MARGIN,
    check_half_grid_options,
    check_reach,
    cone_defect,
    make_half_grid,
    weiss_profile,
)
from .model import (
    ConeF,
    ConstantF,
    DiscreteFunction,
    ExteriorDatum,
    FractionalParams,
    FullSet,
    GridSpec,
    HalfspaceSet,
    InvalidSpecError,
    PhaseSet,
    ball_datum,
    build_grid,
    cone_datum,
    constant_datum,
    halfspace_datum,
    make_pair,
    rescale_pair,
    sample_datum,
    tabulated_datum,
)
from .operators import frac_laplacian
from .quadrature import assemble_table
from .solver import (
    SolverParams,
    _zero_threshold,
    alternate_minimize,
    brute_force_minimize,
)

# each experiment's options with their defaults; a null radii for
# weiss-scan means nine radii from 0.25 to 0.95 of the domain radius
EXPERIMENT_PARAMS = {
    "energy": {},
    "minimize": {},
    "oracle": {},
    "comparison": {"bound": None, "side": "above"},
    "remark-r": {},
    "plateau": {},
    "weiss-scan": {"radii": None},
    "blowup": {"scales": [1, 2], "radii": [0.5, 0.75, 1.0]},
    "cone2d": {"radii": [4.0, 8.0, 16.0]},
    "dyda": {"cells": [64, 128, 256], "window": [0.25, 0.75]},
    "energy-bound": {"instances": 5, "low": -1.0, "high": 1.0},
}
EXPERIMENTS = tuple(EXPERIMENT_PARAMS)

CONFIG_SCHEMA = {
    "experiment": "one of " + ", ".join(EXPERIMENTS),
    "grid": {
        "dimension": 1,
        "half_width": 2.0,
        "cells_per_side": 64,
        "truncation_radius": 128.0,
        "domain_radius": 1.0,
    },
    "fractional": {"s": 0.3, "sigma": 0.5, "c_ratio": 1.0},
    "datum": {
        "kind": "halfspace | ball | constant | cone | tabulated",
        "halfspace": {"normal": [1.0], "offset": 0.0},
        "ball": {"center": [0.0], "radius": 0.5, "inside_sign": 1},
        "constant": {"value": 2.0},
        "cone": {"degree": 0.5, "profile": [1.0, -1.0]},
        "tabulated": {
            "edges": [2.0, 4.0, 8.0],
            "right": [1.0, 1.0],
            "left": [-1.0, -1.0],
            "far_value": 0.0,
            "set": {"kind": "halfspace | full | empty", "normal": [1.0], "offset": 0.0},
        },
    },
    "solver": {k: v for k, v in asdict(SolverParams()).items() if k != "seed"},
    "extension": {
        "ratio": 1.15,
        "z_first": None,
        "levels": None,
        "top": None,
        "pad_cells": 0,
    },
    "experiment_params": EXPERIMENT_PARAMS,
    "output_dir": "runs",
    "seed": 0,
    "threads": None,
}

# what a null default stands for where it is not a number, and the values
# of the one string option
_NULL_TYPES = {"radii": [1.0]}
_CHOICES = {"side": ("above", "below")}


@dataclass
class ExperimentConfig:
    experiment: str
    grid_spec: GridSpec
    fractional: FractionalParams
    datum: ExteriorDatum
    solver: SolverParams
    extension: dict
    experiment_params: dict
    output_dir: str
    seed: int
    threads: int | None
    echo: dict


@dataclass
class ExperimentReport:
    config: dict
    run_dir: str
    scalars: dict
    verdicts: dict
    files: list
    timings: dict

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _reject_unknown(section: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys under {path}: {', '.join(unknown)}")


def _section(raw: dict, key: str, default: dict) -> dict:
    value = raw.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object, got {value!r}")
    return dict(value)


def _type_rule(default, key: str):
    """The test a value passes where the schema default is ``default``, and
    its wording; a null default admits null or a number, or null or the
    type that _NULL_TYPES gives for its key."""
    if default is None:
        test, rule = _type_rule(_NULL_TYPES.get(key, 0.0), key)
        return (lambda v: v is None or test(v)), rule + " or null"
    if isinstance(default, str):
        choices = _CHOICES[key]
        return (lambda v: v in choices), "one of " + ", ".join(choices)
    if isinstance(default, list):
        test, rule = _type_rule(default[0], key)
        return ((lambda v: isinstance(v, list) and all(map(test, v))),
                f"a list of {rule.split()[-1]}s")
    if numerics.is_integer(default):
        return numerics.is_integer, "an integer"
    return numerics.is_number, "a number"


def _check_types(doc: dict, defaults: dict, path: str) -> None:
    """Each value takes the type of its schema default (see _type_rule)."""
    for key, default in defaults.items():
        test, rule = _type_rule(default, key)
        if not test(doc[key]):
            raise ConfigError(f"{path}.{key}: must be {rule}, got {doc[key]!r}")


def _increasing(radii) -> bool:
    """Nonempty, positive and strictly increasing."""
    return bool(radii) and radii[0] > 0.0 and all(b > a for a, b in zip(radii, radii[1:]))


def _window_cells(g, window) -> np.ndarray:
    """The cells of a dyda grid whose center lies in the window."""
    x = g.centers[:, 0]
    return np.flatnonzero((x >= window[0]) & (x <= window[1]))


def _weiss_radii(radii, grid_spec: GridSpec):
    """weiss-scan's radii: the given ones, or nine from 0.25 to 0.95 of the
    domain radius."""
    if radii is not None:
        return radii
    r_max = 0.95 * grid_spec.domain_radius
    return np.linspace(0.25 * r_max / 0.95, r_max, 9)


def _blowup_levels(extension: dict, h: float, ts) -> int:
    """blowup's level count: the configured one, or enough for 1.05 max(ts)."""
    if extension["levels"] is not None:
        return extension["levels"]
    z1 = extension["z_first"] or 0.5 * h
    return 2 + int(math.ceil(math.log(1.05 * max(ts) / z1) / math.log(extension["ratio"])))


def _check_experiment(experiment: str, p: dict, grid_spec: GridSpec,
                      fractional: FractionalParams, extension: dict) -> None:
    """The preconditions of one experiment's run, on its typed options."""
    def need(ok, where, why):
        if not ok:
            raise ConfigError(f"{where}: {why}")

    def reach(radii, margin=0.0, **overrides):
        """Refuse radii beyond the reach of the run's half grid."""
        hg = make_half_grid(build_grid(grid_spec), **{**extension, **overrides})
        try:
            check_reach(hg, radii, margin)
        except OutOfRangeError as exc:
            raise ConfigError(f"experiment_params.radii: {exc}") from exc

    dimension, radii = grid_spec.dimension, p.get("radii")
    if experiment == "comparison":
        need(p["bound"] is not None, "experiment_params.bound",
             "required for comparison runs")
    elif experiment == "remark-r":
        need(abs(fractional.sigma - 2.0 * fractional.s) <= 1e-12, "fractional",
             "remark-r requires sigma = 2 s")
    elif experiment == "cone2d":
        need(dimension == 2, "grid.dimension", "cone2d needs a 2D base grid")
        need(len(radii) >= 2 and _increasing(radii), "experiment_params.radii",
             f"cone2d needs at least two positive, strictly increasing radii, got {radii}")
        reach(radii, PULLBACK_MARGIN)
    elif experiment in ("weiss-scan", "blowup"):
        need(radii is None or _increasing(radii), "experiment_params.radii",
             f"must be nonempty, positive and strictly increasing, got {radii}")
        need(experiment == "weiss-scan" or p["scales"], "experiment_params.scales",
             "must not be empty")
        if experiment == "weiss-scan":
            reach(_weiss_radii(radii, grid_spec))
        else:
            # the profiles at t and r t on the half grid, and at t on its
            # copy rescaled by 1/r, whose reach is 1/r times as large
            reach([2.0**-k * t for k in [0] + p["scales"] for t in radii],
                  levels=_blowup_levels(extension, grid_spec.cell_width, radii))
    elif experiment == "dyda":
        cells, window = p["cells"], p["window"]
        need(cells and min(cells) >= 2, "experiment_params.cells",
             f"must be integers >= 2, got {cells}")
        need(len(window) == 2 and window[0] < window[1], "experiment_params.window",
             f"must be [lo, hi] with lo < hi, got {window}")
        for m in cells:
            g = build_grid(replace(grid_spec, cells_per_side=m))
            sel = _window_cells(g, window)
            need(sel.size, "experiment_params.window",
                 f"{window} holds no cell center of the {m}-cell grid")
            need(g.strict_interior[sel].all(), "experiment_params.window",
                 f"{window} reaches a cell touching the box boundary of the {m}-cell grid")
    elif experiment == "energy-bound":
        need(dimension == 1, "grid.dimension", "energy-bound runs are 1D")
        need(p["instances"] >= 1, "experiment_params.instances", "must be at least 1")


def _build_datum(spec: dict, dimension: int) -> ExteriorDatum:
    kind = spec.get("kind")
    try:
        if kind == "halfspace":
            _reject_unknown(spec, {"kind", "normal", "offset"}, "datum")
            return halfspace_datum(spec.get("normal", [1.0] + [0.0] * (dimension - 1)),
                                   spec.get("offset", 0.0))
        if kind == "ball":
            _reject_unknown(spec, {"kind", "center", "radius", "inside_sign"}, "datum")
            return ball_datum(spec.get("center", [0.0] * dimension),
                              spec["radius"], spec.get("inside_sign", 1))
        if kind == "constant":
            _reject_unknown(spec, {"kind", "value"}, "datum")
            return constant_datum(spec["value"])
        if kind == "cone":
            _reject_unknown(spec, {"kind", "degree", "profile"}, "datum")
            return cone_datum(spec["degree"], tuple(spec["profile"]), dimension)
        if kind == "tabulated":
            _reject_unknown(
                spec, {"kind", "edges", "right", "left", "far_value", "set"}, "datum"
            )
            set_spec = spec.get("set", {"kind": "full"})
            skind = set_spec.get("kind", "full")
            if skind == "halfspace":
                sset = HalfspaceSet(tuple(set_spec.get("normal", [1.0])),
                                    set_spec.get("offset", 0.0))
            elif skind == "full":
                sset = FullSet(1)
            elif skind == "empty":
                sset = FullSet(-1)
            else:
                raise ConfigError(f"datum.set.kind: unknown kind {skind!r}")
            return tabulated_datum(spec["edges"], spec["right"], spec["left"],
                                   spec.get("far_value"), sset)
    except KeyError as exc:
        raise ConfigError(f"datum.{exc.args[0]}: required for kind {kind!r}") from exc
    except (TypeError, ValueError, InvalidSpecError) as exc:
        raise ConfigError(f"datum: {exc}") from exc
    raise ConfigError(
        f"datum.kind: unknown kind {kind!r} "
        "(expected halfspace, ball, constant, cone or tabulated)"
    )


def validate_config(source) -> ExperimentConfig:
    """Parse, default-fill and check a config (path, dict or file): each
    section with schema defaults, the experiment's options included, refuses
    unknown keys and checks types; range checks and the experiment's
    preconditions follow."""
    if isinstance(source, dict):
        raw = dict(source)
    else:
        with open(source) as fh:
            raw = json.load(fh)
    _reject_unknown(raw, set(CONFIG_SCHEMA), "top level")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: unknown name {experiment!r}; valid names: "
            + ", ".join(EXPERIMENTS)
        )
    docs = {}
    for key in ("grid", "fractional", "solver", "extension", "experiment_params"):
        defaults = CONFIG_SCHEMA[key]
        if key == "experiment_params":
            defaults = defaults[experiment]
        given = _section(raw, key, {})
        _reject_unknown(given, set(defaults), key)
        docs[key] = {**defaults, **given}
        _check_types(docs[key], defaults, key)
    try:
        grid_spec = GridSpec(**docs["grid"])
    except InvalidSpecError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    frac_doc = docs["fractional"]
    for key, lo, hi in (("s", 0.0, 1.0), ("sigma", 0.0, 1.0)):
        v = frac_doc[key]
        if not (lo < v < hi):
            raise ConfigError(f"fractional.{key}: {key} must lie in (0,1), got {v}")
    if frac_doc["c_ratio"] <= 0:
        raise ConfigError("fractional.c_ratio: must be positive")
    fractional = FractionalParams(**frac_doc)
    datum_doc = _section(raw, "datum", {"kind": "halfspace"})
    datum = _build_datum(datum_doc, grid_spec.dimension)
    seed = raw.get("seed", CONFIG_SCHEMA["seed"])
    if not numerics.is_integer(seed):
        raise ConfigError(f"seed: must be an integer, got {seed!r}")
    seed = int(seed)
    threads = raw.get("threads")
    if not (threads is None or numerics.is_integer(threads) and threads >= 1):
        raise ConfigError(f"threads: must be an integer >= 1 or null, got {threads!r}")
    output_dir = raw.get("output_dir", CONFIG_SCHEMA["output_dir"])
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: must be a string, got {output_dir!r}")
    try:
        solver = SolverParams(seed=seed, **docs["solver"])
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    try:
        check_half_grid_options(**docs["extension"])
    except InvalidSpecError as exc:
        raise ConfigError(f"extension.{exc}") from exc
    _check_experiment(experiment, docs["experiment_params"], grid_spec, fractional,
                      docs["extension"])
    echo = {"experiment": experiment, **docs, "datum": datum_doc,
            "output_dir": output_dir, "seed": seed}
    return ExperimentConfig(
        experiment=experiment,
        grid_spec=grid_spec,
        fractional=fractional,
        datum=datum,
        solver=solver,
        extension=docs["extension"],
        experiment_params=docs["experiment_params"],
        output_dir=output_dir,
        seed=seed,
        threads=threads,
        echo=echo,
    )


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _tables(cfg: ExperimentConfig, grid=None):
    g = build_grid(cfg.grid_spec) if grid is None else grid
    tg = assemble_table(g, 2.0 * cfg.fractional.s)
    tp = assemble_table(g, cfg.fractional.sigma)
    return g, tg, tp


def _half_grid(cfg: ExperimentConfig, grid, **overrides):
    return make_half_grid(grid, **{**cfg.extension, **overrides})


def _minimize(cfg: ExperimentConfig):
    """The minimization report and the compensated energy of its pair (the
    trace holds the expanded quadratic, which can dip below zero at
    roundoff)."""
    g, tg, tp = _tables(cfg)
    pair0 = make_pair(*sample_datum(cfg.datum, g))
    report = alternate_minimize(pair0, cfg.solver, tg, tp)
    return g, tg, report, total_energy(report.pair, cfg.fractional, tg, tp)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _trace_rows(trace):
    return [
        (k, b.gagliardo, b.perimeter, b.total) for k, b in enumerate(trace)
    ]


# ---------------------------------------------------------------------------
# experiment pipelines (each returns scalars, verdicts, csv files)

def _run_energy(cfg, run_dir):
    g, tg, tp = _tables(cfg)
    pair = make_pair(*sample_datum(cfg.datum, g))
    b = total_energy(pair, cfg.fractional, tg, tp)
    scalars = {
        "gagliardo": b.gagliardo,
        "perimeter": b.perimeter,
        "total": b.total,
        "gagliardo_tail": b.gagliardo_tail,
        "perimeter_tail": b.perimeter_tail,
    }
    verdicts = {
        "breakdown_sums": b.total == b.gagliardo + b.perimeter,
        "nonnegative": b.gagliardo >= 0.0 and b.perimeter >= 0.0,
    }
    path = os.path.join(run_dir, "breakdown.csv")
    _write_csv(path, ["gagliardo", "perimeter", "total"],
               [(b.gagliardo, b.perimeter, b.total)])
    return scalars, verdicts, [path]


def _run_minimize(cfg, run_dir):
    g, _, report, final = _minimize(cfg)
    scalars = {
        "gagliardo": final.gagliardo,
        "perimeter": final.perimeter,
        "total": final.total,
        "termination": report.termination,
        "outer_iterations": report.outer_iterations,
        "qp_kkt": report.qp_kkt,
        "min_u": float(report.pair.u.values[g.in_omega].min()),
        "max_u": float(report.pair.u.values[g.in_omega].max()),
    }
    totals = [b.total for b in report.trace]
    verdicts = {
        "trace_nonincreasing": all(
            b <= a + report.trace_slack for a, b in zip(totals[:-1], totals[1:])
        ),
        "converged": report.termination in ("stalled", "exhaustive"),
    }
    path = os.path.join(run_dir, "trace.csv")
    _write_csv(path, ["iter", "gagliardo", "perimeter", "total"],
               _trace_rows(report.trace))
    return scalars, verdicts, [path]


def _run_oracle(cfg, run_dir):
    g, tg, tp = _tables(cfg)
    oracle = brute_force_minimize(g, cfg.datum, tg, tp, cfg.solver)
    pair0 = make_pair(*sample_datum(cfg.datum, g))
    report = alternate_minimize(pair0, cfg.solver, tg, tp)
    e_alt = report.trace[-1].total
    e_orc = float(oracle.landscape.min())
    scalars = {
        "alternate_total": e_alt,
        "oracle_total": e_orc,
        "gap": e_alt - e_orc,
        "patterns": int(oracle.landscape.size),
        "polish_fallbacks": oracle.polish_fallbacks,
    }
    verdicts = {
        "oracle_dominance": e_alt >= e_orc - 1e-9,
        "oracle_hit": e_alt <= e_orc + 1e-6,
    }
    path = os.path.join(run_dir, "landscape.csv")
    _write_csv(path, ["pattern", "total"],
               list(enumerate(oracle.landscape.tolist())))
    return scalars, verdicts, [path]


def _run_comparison(cfg, run_dir):
    bound, side = cfg.experiment_params["bound"], cfg.experiment_params["side"]
    g, _, report, final = _minimize(cfg)
    u_in = report.pair.u.values[g.in_omega]
    scalars = {
        "bound": bound,
        "side": side,
        "min_u": float(u_in.min()),
        "max_u": float(u_in.max()),
        "total": final.total,
    }
    if side == "above":
        verdicts = {"comparison": u_in.min() >= bound - 1e-6}
    else:
        verdicts = {"comparison": u_in.max() <= bound + 1e-6}
    path = os.path.join(run_dir, "trace.csv")
    _write_csv(path, ["iter", "gagliardo", "perimeter", "total"],
               _trace_rows(report.trace))
    return scalars, verdicts, [path]


def _run_remark_r(cfg, run_dir):
    g, _, report, final = _minimize(cfg)
    u_in = report.pair.u.values[g.in_omega]
    e_in = report.pair.phases.indicator[g.in_omega]
    both = bool((e_in == 1).any() and (e_in == -1).any())
    min_abs = float(np.abs(u_in).min())
    scalars = {
        "min_abs_u": min_abs,
        "phase_plus_cells": int((e_in == 1).sum()),
        "phase_minus_cells": int((e_in == -1).sum()),
        "total": final.total,
    }
    verdicts = {
        "both_phases_nonempty": both,
        "not_pure_indicator": both and min_abs <= 0.5,
    }
    path = os.path.join(run_dir, "solution.csv")
    _write_csv(path, ["x", "u", "phase"],
               [(float(x), float(v), int(e)) for x, v, e in zip(
                   g.centers[g.in_omega, 0], u_in, e_in)])
    return scalars, verdicts, [path]


def _run_plateau(cfg, run_dir):
    g, tg, report, final = _minimize(cfg)
    pair = report.pair
    u_in = pair.u.values[g.in_omega]
    delta = _zero_threshold(u_in)
    zero_cells = np.flatnonzero(g.in_omega & (np.abs(pair.u.values) <= delta))
    h_n = g.h**g.dimension
    kkt_bound = max(report.qp_kkt, cfg.solver.qp_tolerance) / (2.0 * h_n)
    residual = None
    if zero_cells.size == 1 and g.strict_interior[zero_cells[0]]:
        residual = frac_laplacian(pair.u, int(zero_cells[0]), tg)
    single_and_bad = (
        zero_cells.size == 1
        and residual is not None
        and abs(residual) > 10.0 * kkt_bound
    )
    scalars = {
        "zero_cells": int(zero_cells.size),
        "zero_threshold": delta,
        "kkt_bound": kkt_bound,
        "residual_at_single_zero": residual,
        "total": final.total,
    }
    verdicts = {"no_isolated_nonharmonic_zero": not single_and_bad}
    path = os.path.join(run_dir, "solution.csv")
    _write_csv(path, ["x", "u", "phase"],
               [(float(x), float(v), int(e)) for x, v, e in zip(
                   g.centers[g.in_omega, 0], u_in,
                   pair.phases.indicator[g.in_omega])])
    return scalars, verdicts, [path]


def _run_weiss_scan(cfg, run_dir):
    synthetic = isinstance(cfg.datum.func, ConeF)
    g = build_grid(cfg.grid_spec)
    pair = make_pair(*sample_datum(cfg.datum, g))
    kkt = 0.0
    if not synthetic:
        _, tg, tp = _tables(cfg, g)
        report = alternate_minimize(pair, cfg.solver, tg, tp)
        pair, kkt = report.pair, report.qp_kkt
    hg = _half_grid(cfg, g)
    radii = _weiss_radii(cfg.experiment_params["radii"], g.spec)
    prof = weiss_profile(pair, radii, cfg.fractional, hg)
    scale = float(np.abs(prof.phi).max())
    slack = 1e-3 * scale
    monotone = bool(np.all(np.diff(prof.phi) >= -slack))
    spread = float((prof.phi.max() - prof.phi.min()) / scale) if scale else 0.0
    scalars = {
        "phi_first": float(prof.phi[0]),
        "phi_last": float(prof.phi[-1]),
        "phi_spread_rel": spread,
        "monotone_slack": slack,
        "qp_kkt": kkt,
        "synthetic": synthetic,
    }
    verdicts = {"phi_monotone": monotone}
    if synthetic:
        verdicts["phi_constant"] = spread <= 0.02
    path = os.path.join(run_dir, "profile.csv")
    _write_csv(path, ["r", "G", "H", "Phi"],
               [(float(r), float(gv), float(hv), float(pv)) for r, gv, hv, pv in
                zip(prof.radii, prof.g_values, prof.h_values, prof.phi)])
    return scalars, verdicts, [path]


def _run_blowup(cfg, run_dir):
    g = build_grid(cfg.grid_spec)
    pair = make_pair(*sample_datum(cfg.datum, g))
    scales = cfg.experiment_params["scales"]
    ts = np.asarray(cfg.experiment_params["radii"], dtype=float)
    levels = _blowup_levels(cfg.extension, g.h, ts)
    hg = _half_grid(cfg, g, levels=levels)
    rows = []
    worst = 0.0
    base = weiss_profile(pair, ts, cfg.fractional, hg)
    for k in scales:
        r = 2.0 ** (-k)
        scaled = rescale_pair(pair, r, cfg.fractional)
        hg_r = _half_grid(cfg, scaled.grid, levels=levels,
                          z_first=(cfg.extension["z_first"] or 0.5 * g.h) / r)
        prof_r = weiss_profile(scaled, ts, cfg.fractional, hg_r)
        prof_o = weiss_profile(pair, r * ts, cfg.fractional, hg)
        err = float(np.max(np.abs(prof_r.phi - prof_o.phi)
                           / np.maximum(np.abs(prof_o.phi), 1e-30)))
        worst = max(worst, err)
        for t, phi_r, phi_o in zip(ts, prof_r.phi, prof_o.phi):
            rows.append((k, r, float(t), float(phi_r), float(phi_o)))
    scalars = {
        "identity_max_rel_err": worst,
        "phi_at_unit": [float(v) for v in base.phi],
    }
    verdicts = {"scaling_identity": worst <= 1e-10}
    path = os.path.join(run_dir, "blowup.csv")
    _write_csv(path, ["k", "r", "t", "phi_rescaled", "phi_original"], rows)
    return scalars, verdicts, [path]


def _run_cone2d(cfg, run_dir):
    radii = cfg.experiment_params["radii"]
    g = build_grid(cfg.grid_spec)
    set_spec = HalfspaceSet((1.0, 0.0), 0.0)
    datum = ExteriorDatum(ConstantF(0.0), set_spec)
    u = DiscreteFunction(g, np.zeros(g.n_cells), datum)
    phases = PhaseSet(g, set_spec.membership(g.centers), datum)
    pair = make_pair(u, phases)
    hg = _half_grid(cfg, g)
    defects = cone_defect(pair, radii, hg, cfg.fractional)
    rates = [
        math.log2(abs(d2) / abs(d1)) if d1 != 0.0 else float("nan")
        for d1, d2 in zip(defects[:-1], defects[1:])
    ]
    bound = -cfg.fractional.sigma + 0.6
    scalars = {
        "radii": radii,
        "defects": [float(d) for d in defects],
        "rates_log2": [float(r) for r in rates],
        "rate_bound": bound,
    }
    verdicts = {
        "defect_positive": all(d > -1e-8 for d in defects),
        "defect_decay": all(r <= bound for r in rates),
    }
    path = os.path.join(run_dir, "defect.csv")
    _write_csv(path, ["R", "defect"], list(zip(radii, defects)))
    return scalars, verdicts, [path]


def _run_dyda(cfg, run_dir):
    cells, window = cfg.experiment_params["cells"], cfg.experiment_params["window"]
    s = cfg.fractional.s
    datum = cone_datum(s, (1.0, 0.0))
    rows, maxima = [], []
    for m in cells:
        spec = replace(cfg.grid_spec, cells_per_side=m)
        g = build_grid(spec)
        table = assemble_table(g, 2.0 * s)
        u, _ = sample_datum(datum, g)
        residuals = [abs(frac_laplacian(u, int(c), table)) for c in _window_cells(g, window)]
        worst = float(max(residuals))
        maxima.append(worst)
        rows.append((m, g.h, worst))
    decreasing = all(b < a for a, b in zip(maxima[:-1], maxima[1:]))
    scalars = {"cells": cells, "max_residuals": maxima}
    verdicts = {
        "residual_strictly_decreasing": decreasing,
        "finest_below_bound": maxima[-1] <= 0.05,
    }
    path = os.path.join(run_dir, "residuals.csv")
    _write_csv(path, ["m", "h", "max_residual"], rows)
    return scalars, verdicts, [path]


def _weighted_l2(u: DiscreteFunction, s: float) -> float:
    """Approximate integral of u^2 / (1 + |y|^(n+2s)) over the line."""
    from scipy.integrate import quad

    g = u.grid
    w = 1.0 / (1.0 + np.abs(g.centers[:, 0]) ** (1.0 + 2.0 * s))
    box = float(np.sum(u.values**2 * w) * g.h)
    L = g.spec.half_width
    func = u.datum.func

    def tail_integrand(t):
        vals = func.evaluate(np.array([[t], [-t]]))
        return float((vals**2).sum()) / (1.0 + t ** (1.0 + 2.0 * s))

    tail = quad(tail_integrand, L, np.inf, epsabs=0.0, epsrel=1e-8,
                limit=200, full_output=1)[0]
    return box + tail


def _run_energy_bound(cfg, run_dir):
    p = cfg.experiment_params
    instances, lo, hi = p["instances"], p["low"], p["high"]
    g, tg, tp = _tables(cfg)
    eval_mask = np.linalg.norm(g.centers, axis=1) < min(
        1.0, g.spec.domain_radius
    )
    rng = np.random.RandomState(cfg.seed)
    rows = []
    ratios = []
    for k in range(instances):
        edges = tuple(float(g.spec.half_width * 2.0**j) for j in range(7))
        right = tuple(float(abs(v)) for v in rng.uniform(lo, hi, 6))
        left = tuple(-float(abs(v)) for v in rng.uniform(lo, hi, 6))
        datum = tabulated_datum(edges, right, left,
                                float(abs(rng.uniform(lo, hi))),
                                HalfspaceSet((1.0,), 0.0))
        pair0 = make_pair(*sample_datum(datum, g))
        report = alternate_minimize(pair0, cfg.solver, tg, tp)
        pair = report.pair
        energy = gagliardo_energy(pair.u, tg, omega_mask=eval_mask) + frac_perimeter(
            pair.phases, tp, omega_mask=eval_mask
        )
        denom = 1.0 + _weighted_l2(pair.u, cfg.fractional.s)
        ratios.append(energy / denom)
        rows.append((k, energy, denom, energy / denom))
    scalars = {"ratios": [float(r) for r in ratios]}
    verdicts = {"ratios_finite": all(math.isfinite(r) for r in ratios)}
    path = os.path.join(run_dir, "ratios.csv")
    _write_csv(path, ["instance", "energy_b1", "denominator", "ratio"], rows)
    return scalars, verdicts, [path]


_RUNNERS = {
    "energy": _run_energy,
    "minimize": _run_minimize,
    "oracle": _run_oracle,
    "comparison": _run_comparison,
    "remark-r": _run_remark_r,
    "plateau": _run_plateau,
    "weiss-scan": _run_weiss_scan,
    "blowup": _run_blowup,
    "cone2d": _run_cone2d,
    "dyda": _run_dyda,
    "energy-bound": _run_energy_bound,
}


def _jsonify(obj):
    """Plain-Python copy of a summary structure (numpy scalars included)."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the named pipeline; writes config echo, CSVs and summary.json.

    ``config.threads`` caps the workers for this run only; the previous
    cap is restored when the run ends, whether or not it raised.
    """
    previous = numerics.worker_cap()
    if config.threads:
        numerics.set_worker_cap(config.threads)
    try:
        return _run_and_record(config)
    finally:
        numerics.set_worker_cap(previous)


def _run_and_record(config: ExperimentConfig) -> ExperimentReport:
    started = time.time()
    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}-{started:.0f}"
    run_dir = os.path.join(config.output_dir, f"{config.experiment}-{stamp}")
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        json.dump(config.echo, fh, indent=2, sort_keys=True)
    with open(os.path.join(run_dir, "schema.json"), "w") as fh:
        json.dump(CONFIG_SCHEMA, fh, indent=2, sort_keys=True)
    try:
        scalars, verdicts, files = _RUNNERS[config.experiment](config, run_dir)
    except NonConvergenceError as exc:
        partial = {
            "experiment": config.experiment,
            "seed": config.seed,
            "error": str(exc),
            "verdicts": {"converged": False},
            "timings": {"wall_s": time.time() - started},
        }
        with open(os.path.join(run_dir, "summary.json"), "w") as fh:
            json.dump(partial, fh, indent=2, sort_keys=True)
        raise
    scalars = _jsonify(scalars)
    verdicts = _jsonify(verdicts)
    timings = {"wall_s": time.time() - started, "threads": config.threads}
    summary = {
        "experiment": config.experiment,
        "seed": config.seed,
        "scalars": scalars,
        "verdicts": verdicts,
        "files": [os.path.basename(f) for f in files],
        "timings": timings,
    }
    summary_path = os.path.join(run_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    files = files + [
        os.path.join(run_dir, "config.json"),
        os.path.join(run_dir, "schema.json"),
        summary_path,
    ]
    for f in files:
        assert os.path.exists(f), f"manifest file missing: {f}"
    return ExperimentReport(
        config=config.echo,
        run_dir=run_dir,
        scalars=scalars,
        verdicts=verdicts,
        files=files,
        timings=timings,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracfree",
        description="desk-scale experiments for the nonlocal free-boundary energy",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--outdir", default=None, help="output root directory")
    parser.add_argument("--threads", type=int, default=None, help="worker cap")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    raw.setdefault("experiment", args.experiment)
    if raw["experiment"] != args.experiment:
        print(
            f"error: config names experiment {raw['experiment']!r}, "
            f"command line says {args.experiment!r}",
            file=sys.stderr,
        )
        return 2
    if args.outdir is not None:
        raw["output_dir"] = args.outdir
    if args.threads is not None:
        raw["threads"] = args.threads
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        config = validate_config(raw)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except NonConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, FracfreeError, ValueError, MemoryError) as exc:
        # ValueError covers numpy.linalg.LinAlgError
        print(f"error: internal failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    status = "pass" if report.passed else "FAIL"
    for name, ok in report.verdicts.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(f"{report.run_dir}: {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
