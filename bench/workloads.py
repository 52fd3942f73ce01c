"""The three benchmark workloads: seeded inputs and one round of program calls.

Each workload has ``setup(seed, out_dir)``, which builds the inputs the
program receives, and ``run_round(inputs)``, which makes the round's calls
into the package and returns their outputs for the checks. Calls go through
module attributes (``quadrature.assemble_table``, ``solver.GagliardoQP``...)
so the tracer in ``tracing.py`` sees them once it patches those attributes.

This module imports only NumPy and the package, so that ``setup_probe.py``
times the package import and the input build and nothing of the checks.
"""

from __future__ import annotations

import json
import os

import numpy as np

from fracfree import cli, energy, model, quadrature, solver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "docs", "examples")

# tails2d: one table serves both terms, alpha = 2s = sigma = 0.5
TAILS_ALPHA = 0.5
TAILS_GRID = model.GridSpec(2, 1.0, 2, 64.0, 1.0)    # 2x2 cells, all in the ball

# oracle1d: criterion 06's grid and exponents
ORACLE_GRID = model.GridSpec(1, 1.0, 10, 64.0, 1.0)
ORACLE_ALPHAS = (0.6, 0.5)                           # 2s, sigma
ORACLE_INSTANCES = 1                                 # short rounds: many per run

# cone2d: docs/examples/cone2d.json on 32x32 cells of the same width (0.75),
# with the same extension levels and padding and the radii halved. The full
# example's 14 s round left room for only two rounds a run; this one takes
# about 3 s and builds the same set extension once per radius.
CONE_GRID = {"cells_per_side": 32, "half_width": 12.0,
             "truncation_radius": 768.0, "domain_radius": 11.0}
CONE_RADII = [2.0, 4.0, 8.0]


# ---------------------------------------------------------------------------
# tails2d

def tails2d_setup(seed: int, out_dir: str) -> dict:
    grid = model.build_grid(TAILS_GRID)
    datum = model.halfspace_datum([1.0, 0.0], 0.0)
    rng = np.random.RandomState(seed)
    ind = datum.set_spec.membership(grid.centers).copy()
    ind[grid.in_omega] = rng.choice([-1, 1], size=int(grid.in_omega.sum()))
    phases = model.PhaseSet(grid, ind, datum)
    u = model.DiscreteFunction(grid, phases.indicator.astype(float), datum)
    params = model.FractionalParams(0.5 * TAILS_ALPHA, TAILS_ALPHA)
    return {"grid": grid, "datum": datum, "pair": model.make_pair(u, phases),
            "params": params}


def tails2d_round(inp: dict) -> dict:
    # a fresh table each round: no tails carried over, as in a fresh CLI run
    table = quadrature.assemble_table(inp["grid"], TAILS_ALPHA)
    breakdown = energy.total_energy(inp["pair"], inp["params"], table, table)
    # the tails total_energy used, served from the table's memo
    tails = table.set_tails(inp["datum"].set_spec)
    return {"table": table, "breakdown": breakdown, "tails": tails}


# ---------------------------------------------------------------------------
# oracle1d

def _signed_shell_datum(rng, half_width: float):
    """Criterion 06's sign-compatible shell data: positive right, negative left."""
    edges = tuple(half_width * 2.0**k for k in range(7))
    right = tuple(float(abs(v)) for v in rng.uniform(-1.0, 1.0, 6))
    left = tuple(-float(abs(v)) for v in rng.uniform(-1.0, 1.0, 6))
    far = float(abs(rng.uniform(-1.0, 1.0)))
    return model.tabulated_datum(edges, right, left, far,
                                 model.HalfspaceSet((1.0,), 0.0))


def oracle1d_setup(seed: int, out_dir: str) -> dict:
    grid = model.build_grid(ORACLE_GRID)
    tg = quadrature.assemble_table(grid, ORACLE_ALPHAS[0])
    tp = quadrature.assemble_table(grid, ORACLE_ALPHAS[1])
    rng = np.random.RandomState(seed)
    instances = [
        (_signed_shell_datum(rng, ORACLE_GRID.half_width),
         solver.SolverParams(qp_tolerance=1e-10, multistart_random=5, seed=k))
        for k in range(ORACLE_INSTANCES)
    ]
    return {"grid": grid, "tg": tg, "tp": tp, "instances": instances}


def oracle1d_round(inp: dict) -> dict:
    grid, tg, tp = inp["grid"], inp["tg"], inp["tp"]
    results = []
    for datum, params in inp["instances"]:
        oracle = solver.brute_force_minimize(grid, datum, tg, tp, params)
        pair0 = model.make_pair(*model.sample_datum(datum, grid))
        alternate = solver.alternate_minimize(pair0, params, tg, tp)
        results.append((oracle, alternate))
    return {"results": results}


# ---------------------------------------------------------------------------
# cone2d

def cone2d_setup(seed: int, out_dir: str) -> dict:
    """The scaled example config, validated as the CLI would with --threads 1."""
    with open(os.path.join(EXAMPLES, "cone2d.json")) as fh:
        raw = json.load(fh)
    raw["grid"].update(CONE_GRID)
    raw["experiment_params"]["radii"] = CONE_RADII
    raw.update(output_dir=out_dir, seed=seed, threads=1)
    return {"config": cli.validate_config(raw)}


def cone2d_round(inp: dict) -> dict:
    return {"report": cli.run_experiment(inp["config"])}


WORKLOADS = {
    "tails2d": (tails2d_setup, tails2d_round),
    "oracle1d": (oracle1d_setup, oracle1d_round),
    "cone2d": (cone2d_setup, cone2d_round),
}
