import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fracfree import ConfigError
from fracfree.cli import (
    CONFIG_SCHEMA,
    main,
    run_experiment,
    validate_config,
)
from fracfree.solver import SolverParams

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "docs", "examples")


def minimal_config(outdir, **overrides):
    cfg = {
        "experiment": "energy",
        "grid": {
            "dimension": 1,
            "half_width": 2.0,
            "cells_per_side": 16,
            "truncation_radius": 128.0,
            "domain_radius": 1.0,
        },
        "fractional": {"s": 0.25, "sigma": 0.5},
        "datum": {"kind": "halfspace", "normal": [1.0], "offset": 0.0},
        "output_dir": str(outdir),
    }
    cfg.update(overrides)
    return cfg


def test_validate_fills_defaults(tmp_path):
    cfg = validate_config(minimal_config(tmp_path))
    assert cfg.echo["solver"]["max_outer_iters"] == 30
    assert cfg.echo["fractional"]["c_ratio"] == 1.0
    assert cfg.echo["extension"]["ratio"] == 1.15
    assert cfg.seed == 0
    # an experiment's options are filled too, and echoed as its runner reads them
    cmp = validate_config(minimal_config(tmp_path, experiment="comparison",
                                         experiment_params={"bound": 1.0}))
    assert cmp.echo["experiment_params"] == cmp.experiment_params == {
        "bound": 1.0, "side": "above"}


@pytest.mark.parametrize("name", sorted(os.listdir(EXAMPLES)))
def test_example_configs_validate_and_echo_their_options(name):
    with open(os.path.join(EXAMPLES, name)) as fh:
        raw = json.load(fh)
    cfg = validate_config(raw)
    defaults = CONFIG_SCHEMA["experiment_params"][raw["experiment"]]
    assert cfg.echo["experiment_params"] == {**defaults, **raw.get("experiment_params", {})}


def test_solver_schema_defaults_are_the_solver_params_defaults(tmp_path):
    defaults = {f.name: f.default for f in dataclasses.fields(SolverParams)
                if f.name != "seed"}
    assert CONFIG_SCHEMA["solver"] == defaults
    cfg = validate_config(minimal_config(tmp_path))
    assert cfg.echo["solver"] == defaults
    assert cfg.solver == SolverParams()


def test_validate_rejects_out_of_range_s(tmp_path):
    bad = minimal_config(tmp_path)
    bad["fractional"] = {"s": 1.5, "sigma": 0.5}
    with pytest.raises(ConfigError, match=r"s must lie in \(0,1\)"):
        validate_config(bad)


def test_validate_rejects_unknown_experiment(tmp_path):
    bad = minimal_config(tmp_path)
    bad["experiment"] = "frobnicate"
    with pytest.raises(ConfigError, match="valid names"):
        validate_config(bad)


def test_validate_rejects_unknown_keys(tmp_path):
    bad = minimal_config(tmp_path)
    bad["grid"]["cells"] = 3
    with pytest.raises(ConfigError, match="grid: .*cells"):
        validate_config(bad)
    bad2 = minimal_config(tmp_path)
    bad2["frobs"] = 1
    with pytest.raises(ConfigError, match="top level: frobs"):
        validate_config(bad2)
    # the phase step has no size switch left to set
    bad3 = minimal_config(tmp_path)
    bad3["solver"] = {"exhaustive_cap": 12}
    with pytest.raises(ConfigError, match="solver: .*exhaustive_cap"):
        validate_config(bad3)
    bad3_path = tmp_path / "bad3.json"
    bad3_path.write_text(json.dumps(bad3))
    assert main(["energy", "--config", str(bad3_path)]) == 2


def test_run_writes_manifest_and_echo(tmp_path):
    report = run_experiment(validate_config(minimal_config(tmp_path)))
    for f in report.files:
        assert os.path.exists(f)
    names = {os.path.basename(f) for f in report.files}
    assert {"config.json", "summary.json", "schema.json", "breakdown.csv"} <= names
    echo = json.load(open(os.path.join(report.run_dir, "config.json")))
    assert echo["experiment"] == "energy"
    assert echo["solver"]["qp_tolerance"] == CONFIG_SCHEMA["solver"]["qp_tolerance"]
    schema = json.load(open(os.path.join(report.run_dir, "schema.json")))
    assert schema["experiment_params"] == CONFIG_SCHEMA["experiment_params"]
    assert schema["experiment_params"]["dyda"] == {"cells": [64, 128, 256],
                                                   "window": [0.25, 0.75]}


def test_worker_cap_is_scoped_to_the_run(tmp_path):
    from fracfree import numerics

    outer = numerics.worker_cap()
    numerics.set_worker_cap(3)
    try:
        run_experiment(validate_config(minimal_config(tmp_path, threads=8)))
        assert numerics.worker_cap() == 3
    finally:
        numerics.set_worker_cap(outer)


def test_summary_values_recomputable_from_csv(tmp_path):
    report = run_experiment(validate_config(minimal_config(tmp_path)))
    rows = list(csv.reader(open(os.path.join(report.run_dir, "breakdown.csv"))))
    assert rows[0] == ["gagliardo", "perimeter", "total"]
    gag, per, tot = (float(v) for v in rows[1])
    assert tot == gag + per
    assert report.scalars["total"] == tot


def test_minimize_reports_the_compensated_energy(tmp_path):
    # the constant datum's minimizer is the constant: its expanded quadratic
    # ends at about -1.4e-14, the compensated Gagliardo sum is nonnegative
    cfg = minimal_config(
        tmp_path,
        experiment="minimize",
        grid={"dimension": 2, "half_width": 0.75, "cells_per_side": 12,
              "truncation_radius": 48.0, "domain_radius": 0.75},
        fractional={"s": 0.3, "sigma": 0.6},
        datum={"kind": "constant", "value": 1.0},
    )
    report = run_experiment(validate_config(cfg))
    assert report.scalars["gagliardo"] >= 0.0
    assert report.scalars["perimeter"] == 0.0
    assert report.scalars["total"] == report.scalars["gagliardo"]


def test_comparison_constant_datum(tmp_path):
    cfg = minimal_config(
        tmp_path,
        experiment="comparison",
        datum={"kind": "constant", "value": 2.0},
        experiment_params={"bound": 2.0, "side": "above"},
    )
    report = run_experiment(validate_config(cfg))
    assert report.verdicts["comparison"]
    assert report.scalars["min_u"] == pytest.approx(2.0, abs=1e-6)


def test_rerun_is_bit_identical_modulo_timings(tmp_path):
    cfg = minimal_config(
        tmp_path,
        experiment="minimize",
        solver={"multistart_random": 2},
        seed=11,
    )
    dumps = []
    for threads in (1, 4):
        c = dict(cfg)
        c["threads"] = threads
        report = run_experiment(validate_config(c))
        summary = json.load(open(os.path.join(report.run_dir, "summary.json")))
        summary.pop("timings")
        dumps.append(json.dumps(summary, sort_keys=True))
    assert dumps[0] == dumps[1]


def test_oracle_reports_its_polish_fallbacks(tmp_path):
    grid = {"dimension": 1, "half_width": 1.0, "cells_per_side": 8,
            "truncation_radius": 64.0, "domain_radius": 1.0}
    dumps = []
    for threads in (1, 2):
        cfg = minimal_config(tmp_path, experiment="oracle", grid=grid,
                             solver={"multistart_random": 2}, threads=threads)
        report = run_experiment(validate_config(cfg))
        assert report.scalars["patterns"] == 2**8
        assert report.scalars["polish_fallbacks"] == 0
        summary = json.load(open(os.path.join(report.run_dir, "summary.json")))
        summary.pop("timings")
        dumps.append(json.dumps(summary, sort_keys=True))
    assert dumps[0] == dumps[1]


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(tmp_path / "runs")))
    assert main(["energy", "--config", str(cfg_path)]) == 0
    # mismatched experiment name
    assert main(["minimize", "--config", str(cfg_path)]) == 2
    # unreadable config
    assert main(["energy", "--config", str(tmp_path / "missing.json")]) == 2
    # constraint violation
    bad = minimal_config(tmp_path / "runs")
    bad["fractional"]["s"] = 1.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["energy", "--config", str(bad_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [
    ("ratio", 1.0), ("ratio", 0.5), ("z_first", -0.5), ("top", 0.0),
    ("levels", 0), ("levels", 2.5), ("pad_cells", -2), ("pad_cells", 1.5),
])
def test_main_exit_code_2_on_invalid_extension(tmp_path, capsys, key, value):
    # each of these used to reach make_half_grid and die with exit 1 or 4
    cfg = minimal_config(tmp_path / "runs", experiment="cone2d",
                         extension={key: value}, experiment_params={"radii": [1.0]})
    cfg["grid"].update(dimension=2, cells_per_side=8)
    cfg["datum"]["normal"] = [1.0, 0.0]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cone2d", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: invalid config: extension.{key}: ")


@pytest.mark.parametrize("path, value, named", [
    ("seed", "abc", "seed: "),
    ("grid.half_width", "2", "grid.half_width: "),
    ("solver.max_outer_iters", "5", "solver.max_outer_iters: "),
    ("fractional.s", "0.3", "fractional.s: "),
    ("experiment_params", [1], "experiment_params: "),
    ("datum.offset", "x", "datum: "),
    ("threads", "x", "threads: "),
    ("threads", -3, "threads: "),
    ("threads", 0, "threads: "),
    ("cache_dir", "cache", "unknown keys under top level: cache_dir"),
    ("solver.seed", 3, "unknown keys under solver: seed"),
])
def test_main_exit_code_2_on_mistyped_config(tmp_path, capsys, path, value, named):
    # a value of the wrong type, a worker count below one and a key that
    # sets nothing are config errors, each named in the one error line
    cfg = minimal_config(tmp_path / "runs")
    section, _, key = path.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["energy", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid config: " + named)


@pytest.mark.parametrize("radii", [[], [0.0], [-1.0], [1.0, 1.0], [1.0]])
def test_main_exit_code_2_on_invalid_cone2d_radii(tmp_path, capsys, radii):
    # the first four passed both verdicts vacuously with exit 0
    cfg = minimal_config(tmp_path / "runs", experiment="cone2d",
                         experiment_params={"radii": radii})
    cfg["grid"].update(dimension=2, cells_per_side=8)
    cfg["datum"]["normal"] = [1.0, 0.0]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cone2d", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: invalid config: experiment_params.radii: ")


@pytest.mark.parametrize("experiment, change, named", [
    ("comparison", {"experiment_params": {"bound": "x"}}, "experiment_params.bound: "),
    ("comparison", {"experiment_params": {"bound": 0.0, "side": "Above"}},
     "experiment_params.side: "),
    ("comparison", {"experiment_params": {"bound": 0.0, "sidee": "below"}},
     "unknown keys under experiment_params: sidee"),
    ("cone2d", {"experiment_params": {"decay_slack": 0.5}},
     "unknown keys under experiment_params: decay_slack"),
    ("energy-bound", {"grid": {"dimension": 2}}, "grid.dimension: "),
    ("weiss-scan", {"experiment_params": {"radii": [0.5, 0.5]}},
     "experiment_params.radii: "),
    ("dyda", {"experiment_params": {"window": [0.75, 0.25]}},
     "experiment_params.window: "),
    ("blowup", {"experiment_params": {"scales": []}}, "experiment_params.scales: "),
    ("energy-bound", {"experiment_params": {"instances": 0}},
     "experiment_params.instances: "),
    ("dyda", {"grid": {"half_width": 1.0},
              "experiment_params": {"cells": [32, 64], "window": [0.99, 0.995]}},
     "experiment_params.window: "),     # no cell center in the window
    ("dyda", {"grid": {"half_width": 1.0},
              "experiment_params": {"cells": [32, 64], "window": [0.9, 0.999]}},
     "experiment_params.window: "),     # the last cell touches the box
])
def test_main_exit_code_2_on_invalid_experiment_params(tmp_path, capsys, experiment,
                                                       change, named):
    # each of these ran to exit 0 (a silent default, the wrong branch or a
    # vacuous verdict) or died with exit 4 inside its runner
    cfg = minimal_config(tmp_path / "runs", experiment=experiment,
                         experiment_params=change.get("experiment_params", {}))
    if experiment == "cone2d":
        cfg["grid"].update(dimension=2, cells_per_side=8)
        cfg["datum"]["normal"] = [1.0, 0.0]
    cfg["grid"].update(change.get("grid", {}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([experiment, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid config: " + named)


def test_nonconvergence_writes_partial_report(tmp_path, monkeypatch):
    from fracfree.cli import _RUNNERS
    from fracfree.errors import NonConvergenceError

    def exploding(cfg, run_dir):
        raise NonConvergenceError("synthetic stall for the exit-code path")

    monkeypatch.setitem(_RUNNERS, "energy", exploding)
    cfg = validate_config(minimal_config(tmp_path))
    with pytest.raises(NonConvergenceError):
        run_experiment(cfg)
    runs = list(tmp_path.glob("energy-*"))
    assert len(runs) == 1
    partial = json.loads((runs[0] / "summary.json").read_text())
    assert partial["verdicts"] == {"converged": False}
    assert "stall" in partial["error"]


def test_main_exit_code_3_on_nonconvergence(tmp_path, monkeypatch, capsys):
    from fracfree import cli as cli_mod
    from fracfree.errors import NonConvergenceError

    def exploding(cfg, run_dir):
        raise NonConvergenceError("synthetic stall")

    monkeypatch.setitem(cli_mod._RUNNERS, "energy", exploding)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(tmp_path / "runs")))
    assert main(["energy", "--config", str(cfg_path)]) == 3
    capsys.readouterr()


def test_main_exit_code_4_on_internal_failure(tmp_path, monkeypatch, capsys):
    from fracfree import cli as cli_mod
    from fracfree.errors import FreeBoundaryError

    def exploding(cfg, run_dir):
        raise FreeBoundaryError("origin off the boundary")

    monkeypatch.setitem(cli_mod._RUNNERS, "energy", exploding)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(tmp_path / "runs")))
    assert main(["energy", "--config", str(cfg_path)]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("exc", [
    np.linalg.LinAlgError("Singular matrix"),
    ValueError("operands could not be broadcast together"),
    MemoryError(),
])
def test_main_exit_code_4_on_numerical_failure(tmp_path, monkeypatch, capsys, exc):
    from fracfree import cli as cli_mod

    def exploding(cfg, run_dir):
        raise exc

    monkeypatch.setitem(cli_mod._RUNNERS, "energy", exploding)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(tmp_path / "runs")))
    assert main(["energy", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal failure:")
    assert type(exc).__name__ in err


def test_main_exit_code_2_on_unwritable_output(tmp_path, monkeypatch, capsys):
    import errno

    from fracfree import cli as cli_mod

    def disk_full(cfg, run_dir):
        raise OSError(errno.ENOSPC, "No space left on device",
                      os.path.join(run_dir, "trace.csv"))

    monkeypatch.setitem(cli_mod._RUNNERS, "energy", disk_full)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(tmp_path / "runs")))
    assert main(["energy", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs:")
    assert "trace.csv" in err


def test_dyda_experiment_smoke(tmp_path):
    cfg = minimal_config(
        tmp_path,
        experiment="dyda",
        grid={"dimension": 1, "half_width": 1.0, "cells_per_side": 32,
              "truncation_radius": 64.0, "domain_radius": 1.0},
        fractional={"s": 0.5, "sigma": 0.5},
        datum={"kind": "cone", "degree": 0.5, "profile": [1.0, 0.0]},
        experiment_params={"cells": [32, 64], "window": [0.25, 0.75]},
    )
    report = run_experiment(validate_config(cfg))
    assert report.verdicts["residual_strictly_decreasing"]
    rows = list(csv.reader(open(os.path.join(report.run_dir, "residuals.csv"))))
    assert rows[0] == ["m", "h", "max_residual"]
    assert len(rows) == 3


def test_energy_bound_experiment_smoke(tmp_path):
    cfg = minimal_config(
        tmp_path,
        experiment="energy-bound",
        grid={"dimension": 1, "half_width": 1.0, "cells_per_side": 10,
              "truncation_radius": 64.0, "domain_radius": 1.0},
        fractional={"s": 0.3, "sigma": 0.5},
        solver={"multistart_random": 1},
        experiment_params={"instances": 2},
    )
    report = run_experiment(validate_config(cfg))
    assert report.verdicts["ratios_finite"]
    assert len(report.scalars["ratios"]) == 2


def _blowup_config(outdir):
    return minimal_config(
        outdir,
        experiment="blowup",
        grid={"dimension": 1, "half_width": 1.25, "cells_per_side": 64,
              "truncation_radius": 80.0, "domain_radius": 1.0},
        fractional={"s": 0.625, "sigma": 0.25},
        datum={"kind": "cone", "degree": 0.5, "profile": [1.0, -1.0]},
        extension={"ratio": 1.15},
        experiment_params={"scales": [1], "radii": [0.5, 1.0]},
    )


def test_blowup_experiment_smoke(tmp_path):
    report = run_experiment(validate_config(_blowup_config(tmp_path)))
    assert report.verdicts["scaling_identity"]
    assert report.scalars["identity_max_rel_err"] <= 1e-10


def test_cone_datum_runs_build_no_kernel_table(tmp_path, monkeypatch):
    # blowup and a weiss-scan of a homogeneous datum read only the Poisson
    # extension, so neither may pay for a kernel table
    from fracfree import cli as cli_mod

    def no_table(*args, **kwargs):
        raise AssertionError("kernel table built")

    monkeypatch.setattr(cli_mod, "assemble_table", no_table)
    report = run_experiment(validate_config(_blowup_config(tmp_path)))
    assert report.verdicts["scaling_identity"]
    scan = dict(_blowup_config(tmp_path), experiment="weiss-scan",
                experiment_params={"radii": [0.5, 1.0]})
    report = run_experiment(validate_config(scan))
    assert report.scalars["synthetic"]


def test_main_seed_and_outdir_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(tmp_path / "a")))
    rc = main([
        "energy", "--config", str(cfg_path),
        "--outdir", str(tmp_path / "b"), "--seed", "42", "--threads", "2",
    ])
    assert rc == 0
    runs = list((tmp_path / "b").glob("energy-*"))
    assert len(runs) == 1
    echo = json.loads((runs[0] / "config.json").read_text())
    assert echo["seed"] == 42
    capsys.readouterr()


_SCIPY_FREE_RUN = """
import sys
from fracfree import cli, energy, model, quadrature, solver  # with cli: every module

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(scipy_modules())
grid = model.build_grid(model.GridSpec(1, 1.0, 6, 64.0, 1.0))
datum = model.halfspace_datum([1.0], 0.0)
tg = quadrature.assemble_table(grid, 0.6)
tp = quadrature.assemble_table(grid, 0.5)
params = solver.SolverParams(qp_tolerance=1e-10, multistart_random=2, seed=0)
solver.brute_force_minimize(grid, datum, tg, tp, params)
solver.alternate_minimize(model.make_pair(*model.sample_datum(datum, grid)),
                          params, tg, tp)
print(scipy_modules())
grid = model.build_grid(model.GridSpec(2, 1.0, 2, 64.0, 1.0))
datum = model.halfspace_datum([1.0, 0.0], 0.0)
table = quadrature.assemble_table(grid, 0.5)
u, phases = model.sample_datum(datum, grid)
energy.total_energy(model.make_pair(u, phases), model.FractionalParams(0.25, 0.5),
                    table, table)
print(scipy_modules())
"""


def test_package_runs_without_loading_scipy():
    # SciPy is imported only where it is used (the Poisson-kernel CDF and
    # energy-bound's quad), so neither the import nor a 1D oracle nor a 2D
    # energy loads any part of it
    import fracfree

    src = os.path.dirname(os.path.dirname(os.path.abspath(fracfree.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == ["[]"] * 3
