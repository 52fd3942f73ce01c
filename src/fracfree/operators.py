"""Discrete fractional Laplacian and harmonicity diagnostics.

The operator shares the kernel normalization of the energy tables: its
value at a cell is the energy gradient divided by twice the cell volume,
so zero-residual statements are free of any dimensional constant. Near
field terms are grouped with their mirror image (a second-difference
form) to cancel the odd part of the singular sum exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OutOfStencilError
from .model import AdmissiblePair, DiscreteFunction
from .numerics import ordered_sum
from .quadrature import KernelTable


def frac_laplacian(u: DiscreteFunction, cell: int, table: KernelTable) -> float:
    """Unnormalized (-Delta)^(alpha/2) u at one cell center.

    Principal-value sum 2 * [sum_j (u_c - u_j) W_cj + u_c T0_c - M1_c]
    per unit cell volume, with W the pair weights, T0/M1 the exterior
    kernel moments of the datum, and mirror-paired near-field terms.
    """
    grid = u.grid
    if not grid.strict_interior[cell]:
        raise OutOfStencilError(f"cell {cell} touches the box boundary")
    m = grid.spec.cells_per_side
    n = grid.dimension
    vals = u.values
    row = table.dense_matrix()[cell]
    uc = vals[cell]

    shape = (m,) * n
    mi = np.array(np.unravel_index(cell, shape))
    all_multi = np.stack(np.unravel_index(np.arange(grid.n_cells), shape))
    mirror_multi = 2 * mi[:, None] - all_multi
    valid = ((mirror_multi >= 0) & (mirror_multi < m)).all(axis=0)
    mirror_flat = np.full(grid.n_cells, -1)
    mirror_flat[valid] = np.ravel_multi_index(
        tuple(mirror_multi[:, valid]), shape
    )

    idx = np.arange(grid.n_cells)
    paired = valid & (idx < mirror_flat)
    singles = (~valid) & (idx != cell)
    pair_terms = (2.0 * uc - vals[paired] - vals[mirror_flat[paired]]) * row[paired]
    single_terms = (uc - vals[singles]) * row[singles]

    t0, m1, _ = table.function_tails(u.datum.func, need_m2=False)
    tail = uc * t0[cell] - m1[cell]
    interior = ordered_sum(pair_terms) + ordered_sum(single_terms)
    return 2.0 * (interior + tail) / grid.h**n


@dataclass(frozen=True)
class ResidualField:
    """Per-cell operator residuals with the mask where they are meaningful."""

    values: np.ndarray          # NaN where not computed
    computed: np.ndarray        # cells with a full stencil inside the ball
    mask: np.ndarray            # computed & |u| > delta
    delta: float

    @property
    def max_masked(self) -> float:
        if not self.mask.any():
            return float("nan")
        return float(np.max(np.abs(self.values[self.mask])))


def harmonicity_residual(pair: AdmissiblePair, table: KernelTable,
                         delta: float | None = None) -> ResidualField:
    """Operator residuals on ball cells where |u| clears the threshold.

    delta defaults to 0.05 * max|u| over the ball (one-cell clearance from
    the discrete free boundary). An empty mask is a warning, not an error.
    """
    u = pair.u
    grid = pair.grid
    inside = grid.in_omega
    if delta is None:
        scale = float(np.max(np.abs(u.values[inside]))) if inside.any() else 0.0
        delta = 0.05 * scale
    computed = inside & grid.strict_interior
    values = np.full(grid.n_cells, np.nan)
    for c in np.flatnonzero(computed):
        values[c] = frac_laplacian(u, int(c), table)
    mask = computed & (np.abs(u.values) > delta)
    if not mask.any():
        warnings.warn("harmonicity residual mask is empty", RuntimeWarning)
    return ResidualField(values=values, computed=computed, mask=mask, delta=delta)
