"""Assembly of the nonlocal energies from kernel tables.

Two quantities: the fractional perimeter of a phase set relative to the
minimization ball, and the Gagliardo energy of a function over all pairs
meeting the ball.
Every exterior contribution reduces to per-cell tail weights or datum
moment triples served by the kernel table.

Each energy term is one form object, GagliardoForm (a quadratic in the
in-ball values) and PerimeterForm (a quadratic in the in-ball phase
signs), built from the same split of the table by a cell mask. A form
serves the expanded quadratic (the solver's fast path, for one vector or
a stack of rows), its exterior tail term, and a compensated pair-by-pair
sum of the same value, which gagliardo_energy, frac_perimeter and
total_energy report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import AdmissiblePair, DiscreteFunction, FractionalParams, PhaseSet
from .numerics import ordered_sum
from .quadrature import KernelTable


@dataclass(frozen=True)
class EnergyBreakdown:
    """Gagliardo + perimeter split; total is their exact float sum."""

    gagliardo: float
    perimeter: float
    gagliardo_tail: float
    perimeter_tail: float

    @property
    def total(self) -> float:
        return self.gagliardo + self.perimeter


def _check_exponent(table: KernelTable, expected: float, label: str) -> None:
    if abs(table.alpha - expected) > 1e-12:
        raise ParameterError(
            f"{label} table has exponent {table.alpha}, expected {expected}"
        )


def _rows(x: np.ndarray) -> np.ndarray:
    """x as a (P, 1, n) stack of float rows; a 1-D x is one row.

    Products of such stacks run one vector-matrix product and one dot per
    row, the kernels of a lone 1-D ``x @ M @ x``, so each row's value is
    bit-identical to that of the row alone ((P, n) GEMMs are not).
    """
    return np.asarray(x, dtype=float).reshape(-1, 1, np.shape(x)[-1])


def _per_row(x: np.ndarray, values: np.ndarray):
    """(P, 1, 1) values as a float for a 1-D x, else as a (P,) array."""
    return float(values[0, 0, 0]) if np.ndim(x) == 1 else values[:, 0, 0]


class _MaskedForm:
    """One energy term split by a cell mask (default: the minimization ball).

    The only reader of the dense table: w_in pairs the in-mask cells,
    w_cross pairs them with the rest of the box, and row_sums is the
    kernel mass of each in-mask cell against the whole box. Subclasses fold
    the rest-of-box values and the exterior tails into lin and const.
    """

    def __init__(self, field, table: KernelTable, mask: np.ndarray | None):
        grid = field.grid
        if table.grid is not grid:
            raise ParameterError("table was assembled on a different grid")
        inside = grid.in_omega if mask is None else mask
        self.idx_in = np.flatnonzero(inside)
        self.idx_rest = np.flatnonzero(~inside)
        dense = table.dense_matrix()
        self.row_sums = dense[self.idx_in].sum(axis=1)
        self.w_in = dense[np.ix_(self.idx_in, self.idx_in)]
        self.w_cross = dense[np.ix_(self.idx_in, self.idx_rest)]


class GagliardoForm(_MaskedForm):
    """The Gagliardo energy as a quadratic form in the in-mask values.

    energy(x) = x H x / 2 + lin . x + const over all ordered pairs with at
    least one cell in the mask, with the rest-of-box values of u and the
    datum moments (T0, M1, M2) of the box exterior folded in.
    """

    def __init__(self, u: DiscreteFunction, table: KernelTable,
                 mask: np.ndarray | None = None):
        super().__init__(u, table, mask)
        self.rest = u.values[self.idx_rest]
        t0, m1, m2 = table.function_tails(u.datum.func)
        self.t0, self.m1, self.m2 = t0[self.idx_in], m1[self.idx_in], m2[self.idx_in]
        self.hess = -4.0 * self.w_in
        self.hess[np.diag_indices_from(self.hess)] = 4.0 * (self.row_sums + self.t0)
        self.lin = -4.0 * (self.w_cross @ self.rest + self.m1)
        self.const = ordered_sum([2.0 * ordered_sum(self.w_cross * self.rest**2),
                                  2.0 * ordered_sum(self.m2)])

    def energy(self, x: np.ndarray):
        """energy of x, or of every row of a (P, n) stack."""
        rows = _rows(x)
        return _per_row(x, 0.5 * rows @ self.hess @ rows.mT
                        + rows @ self.lin[:, None] + self.const)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """H x + lin for x or for every row of a (P, n) stack."""
        return (self.hess @ np.asarray(x)[..., None])[..., 0] + self.lin

    def tail(self, x: np.ndarray) -> float:
        """Pairs with the box exterior: 2 sum (x^2 T0 - 2 x M1 + M2)."""
        return 2.0 * ordered_sum(x**2 * self.t0 - 2.0 * x * self.m1 + self.m2)

    def pairwise(self, x: np.ndarray) -> float:
        """energy(x) summed pair by pair with compensation, so that a
        constant u with a constant datum gives exactly 0."""
        inner = (x[:, None] - x[None, :]) ** 2 * self.w_in
        cross = (x[:, None] - self.rest[None, :]) ** 2 * self.w_cross
        both = ordered_sum(np.concatenate([inner, cross], axis=1))
        return ordered_sum([both, ordered_sum(cross), self.tail(x)])


class PerimeterForm(_MaskedForm):
    """The perimeter as a quadratic form in the in-mask phase signs.

    Per(e) = const + lin . e - e^T W_in e / 4, with the rest-of-box signs
    and the symbolic exterior (T+, T-) folded into const and lin. This is
    the fast path used by phase updates and the exhaustive oracle.
    """

    def __init__(self, phases: PhaseSet, table: KernelTable,
                 mask: np.ndarray | None = None):
        super().__init__(phases, table, mask)
        self.rest = phases.indicator[self.idx_rest].astype(float)
        tp, tn = table.set_tails(phases.datum.set_spec)
        self.tp, self.tn = tp[self.idx_in], tn[self.idx_in]
        self.const = (0.25 * float(self.w_in.sum()) + 0.5 * float(self.w_cross.sum())
                      + 0.5 * float((self.tp + self.tn).sum()))
        self.lin = -0.5 * (self.w_cross @ self.rest) + 0.5 * (self.tn - self.tp)

    def value(self, e_in: np.ndarray):
        """Per(e) of one sign vector, or of every row of a (P, n) stack."""
        rows = _rows(e_in)
        return _per_row(e_in, self.const + rows @ self.lin[:, None]
                        - 0.25 * (rows @ self.w_in @ rows.mT))

    def flip_delta(self, e_in: np.ndarray, k: int) -> float:
        """Perimeter change from flipping the sign of in-mask cell k."""
        e = e_in.astype(float)
        return -2.0 * e[k] * float(self.lin[k]) + e[k] * float(self.w_in[k] @ e)

    def tail(self, e_in: np.ndarray) -> float:
        """Pairs with the box exterior: the set tail opposite each sign."""
        e = e_in.astype(float)
        return ordered_sum(0.5 * ((1.0 + e) * self.tn + (1.0 - e) * self.tp))

    def pairwise(self, e_in: np.ndarray) -> float:
        """value(e) summed pair by pair with compensation, so that a phase
        with no boundary gives exactly 0."""
        e = e_in.astype(float)
        inner = 0.25 * ordered_sum(self.w_in * (1.0 - np.outer(e, e)))
        cross = 0.5 * ordered_sum(self.w_cross * (1.0 - np.outer(e, self.rest)))
        return ordered_sum([inner, cross, self.tail(e)])


def frac_perimeter(phases: PhaseSet, table: KernelTable,
                   sigma: float | None = None,
                   omega_mask: np.ndarray | None = None) -> float:
    """Fractional perimeter of the phase set relative to the ball.

    Three interaction terms: in-ball against in-ball complement, in-ball
    against exterior complement, and in-ball complement against exterior
    set, including the symbolic tails beyond the box. omega_mask overrides
    the grid's ball (evaluation on a smaller domain).
    """
    if sigma is not None:
        _check_exponent(table, sigma, "perimeter")
    form = PerimeterForm(phases, table, omega_mask)
    return form.pairwise(phases.indicator[form.idx_in])


def gagliardo_energy(u: DiscreteFunction, table: KernelTable,
                     s: float | None = None,
                     omega_mask: np.ndarray | None = None) -> float:
    """Gagliardo energy over all ordered pairs with at least one point
    in the minimization ball, plus exterior-datum tail terms. omega_mask
    overrides the ball."""
    if s is not None:
        _check_exponent(table, 2.0 * s, "gagliardo")
    form = GagliardoForm(u, table, omega_mask)
    return form.pairwise(u.values[form.idx_in])


def total_energy(pair: AdmissiblePair, params: FractionalParams,
                 table_gagliardo: KernelTable,
                 table_perimeter: KernelTable) -> EnergyBreakdown:
    """Full functional value of an admissible pair, with the term split."""
    _check_exponent(table_gagliardo, 2.0 * params.s, "gagliardo")
    _check_exponent(table_perimeter, params.sigma, "perimeter")
    gag = GagliardoForm(pair.u, table_gagliardo)
    per = PerimeterForm(pair.phases, table_perimeter)
    u_in = pair.u.values[gag.idx_in]
    e_in = pair.phases.indicator[per.idx_in]
    return EnergyBreakdown(
        gagliardo=gag.pairwise(u_in),
        perimeter=per.pairwise(e_in),
        gagliardo_tail=gag.tail(u_in),
        perimeter_tail=per.tail(e_in),
    )
