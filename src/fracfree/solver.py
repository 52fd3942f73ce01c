"""Minimization of the coupled functional over admissible pairs.

The function solve is a sign-constrained convex quadratic program on
energy.GagliardoForm (strictly positive definite thanks to the exterior
tails); the phase solve, on energy.PerimeterForm, flips cells of the
discrete zero set while the perimeter strictly decreases. Trace entries
take every term and tail from those two forms. Alternating the two from
several starts gives the local solver; exhaustive enumeration of all
phase patterns on tiny grids gives the global oracle it is calibrated
against. Every QP, one pattern or the oracle's 2^N in lockstep, starts
from a warm start or the unconstrained minimizer projected onto its signs
and is refined by one row-batched active-set polish; projected gradient is
the fallback for a pattern the polish does not finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .energy import EnergyBreakdown, GagliardoForm, PerimeterForm
from .errors import NonConvergenceError, TooLargeError
from .model import (
    AdmissiblePair,
    DiscreteFunction,
    ExteriorDatum,
    Grid,
    PhaseSet,
    sample_datum,
)
from .quadrature import KernelTable


@dataclass(frozen=True)
class SolverParams:
    max_outer_iters: int = 30
    qp_tolerance: float = 1e-9
    zero_threshold: float | None = None     # default 1e-7 * value scale
    exhaustive_cap: int = 12
    multistart_random: int = 5
    energy_stall_tolerance: float = 1e-10
    seed: int = 0
    qp_max_iters: int = 5000

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.qp_tolerance <= 0 or self.energy_stall_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class QPResult:
    values: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool


@dataclass
class SolveReport:
    pair: AdmissiblePair
    trace: list
    termination: str
    outer_iterations: int
    qp_kkt: float
    start_energies: list = field(default_factory=list)
    landscape: np.ndarray | None = None
    trace_slack: float = 1e-9
    polish_fallbacks: int = 0

    def __post_init__(self):
        # phase flips on the zero set may move clamped values by up to the
        # zero threshold, so descent holds within the declared slack
        totals = [b.total for b in self.trace]
        for a, b in zip(totals[:-1], totals[1:]):
            if b > a + self.trace_slack:
                raise NonConvergenceError(
                    f"energy trace increased by {b - a:g} "
                    f"(slack {self.trace_slack:g})",
                    best=self.pair,
                )


def _kkt_from_gradient(u: np.ndarray, g: np.ndarray, signs: np.ndarray):
    """KKT residual of the sign-constrained QP at u, given its gradient g;
    one residual per row of a (P, n) stack."""
    at_zero = u == 0.0
    res = np.abs(np.where(at_zero, 0.0, g))
    lower = at_zero & (signs > 0)      # u >= 0 active: need g >= 0
    upper = at_zero & (signs < 0)      # u <= 0 active: need g <= 0
    res = np.maximum(res, np.where(lower, np.maximum(-g, 0.0), 0.0))
    res = np.maximum(res, np.where(upper, np.maximum(g, 0.0), 0.0))
    return res.max(axis=-1, initial=0.0)


class GagliardoQP(GagliardoForm):
    """The Gagliardo form over the ball, with the datum outside it, and its
    sign-constrained minimization; the sign pattern only changes the
    feasible box."""

    def __init__(self, grid: Grid, datum: ExteriorDatum, table: KernelTable):
        super().__init__(DiscreteFunction(grid, np.zeros(grid.n_cells), datum), table)
        self._lip = float(np.linalg.norm(self.hess, np.inf))

    @cached_property
    def free_minimizer(self) -> np.ndarray:
        """The unconstrained minimizer, solve(H, -lin), read-only."""
        u = np.linalg.solve(self.hess, -self.lin)
        u.flags.writeable = False
        return u

    def kkt_residual(self, u_free: np.ndarray, signs: np.ndarray):
        """KKT residual at u_free, or one per row of a (P, n) stack."""
        res = _kkt_from_gradient(u_free, self.gradient(u_free), signs)
        return float(res) if np.ndim(u_free) == 1 else res

    def _project(self, u: np.ndarray, signs: np.ndarray) -> np.ndarray:
        u = u.copy()
        pos = signs > 0
        u[pos] = np.maximum(u[pos], 0.0)
        u[~pos] = np.minimum(u[~pos], 0.0)
        return u

    def solve(self, signs: np.ndarray, x0: np.ndarray | None = None,
              tol: float = 1e-9, max_iters: int = 5000) -> QPResult:
        """The QP at one sign pattern: solve_patterns on a single row, from
        ``x0`` (default: the unconstrained minimizer) projected onto the
        signs. ``iterations`` is 0 when the polish finishes, and otherwise
        counts the steps of the projected-gradient fallback."""
        values, kkt, fallbacks = self.solve_patterns(np.asarray(signs)[None], tol,
                                                     max_iters, x0)
        return fallbacks.get(0) or QPResult(values=values[0], kkt_residual=float(kkt[0]),
                                            iterations=0, converged=True)

    def solve_patterns(self, patterns: np.ndarray, tol: float = 1e-9,
                       max_iters: int = 5000, x0: np.ndarray | None = None):
        """The one solve path, for every row of a (P, n) stack of sign patterns.

        Every row starts from ``x0`` (default: the unconstrained minimizer)
        projected onto its signs, and one lockstep polish refines them all.
        A row it does not finish, or leaves above KKT ``10 * tol``, falls
        back to ``_descend`` from the same start. Returns the (P, n) values,
        their KKT residuals and the fallback's ``QPResult`` by row.
        """
        u0 = self.free_minimizer if x0 is None else np.asarray(x0, float)
        start = self._project(np.broadcast_to(u0, patterns.shape), patterns)
        values, finished = self._polish(start, patterns, tol)
        kkt = self.kkt_residual(values, patterns)
        fallbacks = {}
        for i in np.flatnonzero(~finished | (kkt > 10.0 * tol)):
            res = fallbacks[int(i)] = self._descend(start[i], patterns[i], tol, max_iters)
            values[i], kkt[i] = res.values, res.kkt_residual
        return values, kkt, fallbacks

    def _descend(self, u: np.ndarray, signs: np.ndarray, tol: float,
                 max_iters: int) -> QPResult:
        """The fallback for one row: projected gradient with BB steps from
        the feasible point u, then the polish."""
        g = self.gradient(u)
        tau = 1.0 / max(self._lip, 1e-300)
        iters = 0
        for iters in range(1, max_iters + 1):
            u_new = self._project(u - tau * g, signs)
            if np.max(np.abs(u_new - u)) <= 1e-14 * max(1.0, np.max(np.abs(u))):
                u = u_new
                break
            g_new = self.gradient(u_new)
            du = u_new - u
            dg = g_new - g
            denom = float(du @ dg)
            tau = float(du @ du) / denom if denom > 0.0 else 1.0 / self._lip
            tau = min(max(tau, 1e-6 / self._lip), 1e6 / self._lip)
            u, g = u_new, g_new
            if _kkt_from_gradient(u, g, signs) <= tol:
                break
        (u,), (polished,) = self._polish(u[None], signs[None], tol)
        kkt = self.kkt_residual(u, signs)
        return QPResult(values=u, kkt_residual=kkt, iterations=iters,
                        converged=kkt <= 10.0 * tol or bool(polished))

    def _polish(self, u: np.ndarray, signs: np.ndarray, tol: float):
        """Primal active-set refinement to machine-accurate KKT, row by row
        over a (P, n) stack of points and sign patterns, in lockstep.

        Each pass solves the inactive system of every unfinished row; a row
        with sign violators adds them to its active set, a feasible row
        releases its worst gradient violator or finishes. Returns the
        points, with unfinished rows as given, and which rows finished.
        """
        p, n = u.shape
        out, finished = u.copy(), np.zeros(p, dtype=bool)
        active = u == 0.0
        todo = np.arange(p)
        for _ in range(2 * n + 20):
            if not todo.size:
                break
            act, sg = active[todo], signs[todo]
            u_try = self._solve_inactive(~act)
            viol = ~act & (((sg > 0) & (u_try < 0.0)) | ((sg < 0) & (u_try > 0.0)))
            act |= viol
            g = self.gradient(u_try)
            bad = act & (((sg > 0) & (g < -tol)) | ((sg < 0) & (g > tol)))
            feasible = ~viol.any(axis=1)
            release = feasible & bad.any(axis=1)
            if release.any():
                worst = np.argmax(np.where(bad[release], np.abs(g[release]), -np.inf),
                                  axis=1)
                act[release, worst] = False
            active[todo] = act
            done = feasible & ~release
            out[todo[done]] = u_try[done]
            finished[todo[done]] = True
            todo = todo[~done]
        return out, finished

    def _solve_inactive(self, inactive: np.ndarray) -> np.ndarray:
        """Minimizers of the form with each row's active entries held at
        exactly 0, for a (P, n) stack of inactive masks.

        Rows with the same inactive count k share one stacked solve of
        their k x k blocks H[I, I] (I ascending): the systems, and so the
        bits, that each row alone would give.
        """
        u = np.zeros(inactive.shape)
        counts = inactive.sum(axis=1)
        for k in np.unique(counts[counts > 0]):
            rows = np.flatnonzero(counts == k)
            cols = inactive[rows].nonzero()[1].reshape(rows.size, k)
            sub = self.hess[cols[:, :, None], cols[:, None, :]]
            rhs = -self.lin[cols][..., None]
            u[rows[:, None], cols] = np.linalg.solve(sub, rhs)[..., 0]
        return u


def solve_u_given_phase(phases: PhaseSet, datum: ExteriorDatum,
                        table: KernelTable, params: SolverParams,
                        qp: GagliardoQP | None = None,
                        warm: np.ndarray | None = None):
    """Minimize the Gagliardo quadratic at fixed phase; returns the
    function and the QP result (with its KKT residual)."""
    grid = phases.grid
    qp = GagliardoQP(grid, datum, table) if qp is None else qp
    signs = phases.indicator[grid.in_omega]
    result = qp.solve(signs, x0=warm, tol=params.qp_tolerance,
                      max_iters=params.qp_max_iters)
    if not result.converged:
        raise NonConvergenceError(
            f"QP stalled at KKT residual {result.kkt_residual:g}",
            best=result,
        )
    values = np.zeros(grid.n_cells)
    values[grid.in_omega] = result.values
    u = DiscreteFunction(grid, values, datum)
    return u, result


def _zero_threshold(params: SolverParams, u_vals: np.ndarray) -> float:
    if params.zero_threshold is not None:
        return params.zero_threshold
    scale = float(np.max(np.abs(u_vals))) if u_vals.size else 1.0
    return 1e-7 * max(1.0, scale)


def _greedy_flips(form: PerimeterForm, e_in: np.ndarray,
                  zero_set: np.ndarray) -> list:
    """Flip, in place, the zero-set cell of steepest perimeter descent
    until no flip decreases it by more than the 1e-13 relative tie
    threshold; returns the flipped cells in order.

    All flip deltas -2 e_k lin_k + e_k (W e)_k come from one matvec, kept
    current by a rank-1 update after each flip.
    """
    e = e_in.astype(float)
    w_e = form.w_in @ e
    flips = []
    while True:
        e_z = e[zero_set]
        deltas = -2.0 * e_z * form.lin[zero_set] + e_z * w_e[zero_set]
        k_best = int(np.argmin(deltas))
        value = form.const + float(form.lin @ e) - 0.25 * float(e @ w_e)
        if deltas[k_best] >= -1e-13 * max(1.0, abs(value)):
            return flips
        k = int(zero_set[k_best])
        w_e -= 2.0 * e[k] * form.w_in[:, k]
        e[k] = -e[k]
        e_in[k] = -e_in[k]
        flips.append(k)


# most floats per stacked PerimeterForm.value call in the exhaustive phase
# update: 2^12 candidates on a 2D ball of thousands of cells would
# otherwise stack hundreds of MiB
_VALUE_ROWS_ELEMENTS = 1 << 20


def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) booleans, row i holding the bits of i (column j: bit j)."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


def update_phase(u: DiscreteFunction, phases: PhaseSet, table: KernelTable,
                 params: SolverParams,
                 form: PerimeterForm | None = None) -> PhaseSet:
    """Force signs where |u| clears the threshold; on the zero set flip
    cells while the perimeter strictly decreases (exhaustively when the
    zero set has at most exhaustive_cap cells, else greedily). Ties keep the
    incumbent phase."""
    grid = u.grid
    inside = grid.in_omega
    form = PerimeterForm(phases, table) if form is None else form
    delta = _zero_threshold(params, u.values[inside])
    e_in = phases.indicator[inside].astype(np.int8).copy()
    uu = u.values[inside]
    e_in[uu > delta] = 1
    e_in[uu < -delta] = -1
    zero_set = np.flatnonzero(np.abs(uu) <= delta)
    if 0 < zero_set.size <= params.exhaustive_cap:
        flipped = _bit_table(zero_set.size)
        cands = np.repeat(e_in[None], flipped.shape[0], axis=0)
        cands[:, zero_set] = np.where(flipped, -e_in[zero_set], e_in[zero_set])
        step = max(1, _VALUE_ROWS_ELEMENTS // e_in.size)
        values = np.concatenate([form.value(cands[lo:lo + step])
                                 for lo in range(0, len(cands), step)]).tolist()
        best_i, best = 0, values[0]
        for i, val in enumerate(values):
            if val < best - 1e-15 * max(1.0, abs(best)):
                best_i, best = i, val
        e_in = cands[best_i]
    elif zero_set.size:
        _greedy_flips(form, e_in, zero_set)
    ind = phases.indicator.copy()
    ind[inside] = e_in
    return phases.with_indicator(ind)


def _start_phases(init: AdmissiblePair, qp: GagliardoQP, params: SolverParams):
    """Deterministic seeds plus seeded random phase patterns."""
    grid = init.grid
    inside = grid.in_omega
    starts = [("incumbent", init.phases.indicator[inside].astype(np.int8))]
    datum_pair = sample_datum(init.u.datum, grid)
    starts.append(("datum", datum_pair[1].indicator[inside].astype(np.int8)))
    free = qp.free_minimizer
    starts.append(("unconstrained-sign",
                   np.where(free >= 0.0, 1, -1).astype(np.int8)))
    rng = np.random.RandomState(params.seed)
    for k in range(params.multistart_random):
        starts.append((f"random-{k}", rng.choice(
            np.array([-1, 1], dtype=np.int8), size=int(inside.sum()))))
    return starts


def alternate_minimize(init: AdmissiblePair, params: SolverParams,
                       table_gagliardo: KernelTable,
                       table_perimeter: KernelTable) -> SolveReport:
    """Alternate the function solve and the phase solve from every start;
    return the best final pair with its (nonincreasing) energy trace."""
    grid = init.grid
    inside = grid.in_omega
    datum = init.u.datum
    qp = GagliardoQP(grid, datum, table_gagliardo)
    template = init.phases
    form = PerimeterForm(template, table_perimeter)
    best = None
    start_energies = []
    for label, e0 in _start_phases(init, qp, params):
        ind = template.indicator.copy()
        ind[inside] = e0
        phases = template.with_indicator(ind)
        trace = []
        u, qp_res = solve_u_given_phase(phases, datum, table_gagliardo, params, qp=qp)
        kkt = qp_res.kkt_residual
        trace.append(_breakdown(u, phases, qp, form))
        total = trace[-1].total
        termination = "max_iters"
        outer = 0
        for outer in range(1, params.max_outer_iters + 1):
            new_phases = update_phase(u, phases, table_perimeter, params, form=form)
            if np.array_equal(new_phases.indicator, phases.indicator):
                termination = "stalled"
                break
            phases = new_phases
            u, qp_res = solve_u_given_phase(
                phases, datum, table_gagliardo, params, qp=qp,
                warm=qp_res.values,
            )
            kkt = max(kkt, qp_res.kkt_residual)
            trace.append(_breakdown(u, phases, qp, form))
            new_total = trace[-1].total
            if total - new_total <= params.energy_stall_tolerance:
                total = min(total, new_total)
                termination = "stalled"
                break
            total = new_total
        start_energies.append((label, total))
        if best is None or total < best[0]:
            best = (total, u, phases, trace, termination, outer, kkt)
    total, u, phases, trace, termination, outer, kkt = best
    pair = AdmissiblePair(u, phases)
    slack = max(params.energy_stall_tolerance, 1e-6 * (1.0 + abs(total)))
    return SolveReport(pair=pair, trace=trace, termination=termination,
                       outer_iterations=outer, qp_kkt=kkt,
                       start_energies=start_energies, trace_slack=slack)


def _breakdown(u, phases, qp: GagliardoQP, form: PerimeterForm) -> EnergyBreakdown:
    u_in = u.values[qp.idx_in]
    e_in = phases.indicator[form.idx_in]
    return EnergyBreakdown(qp.energy(u_in), form.value(e_in), qp.tail(u_in),
                           form.tail(e_in))


def brute_force_minimize(grid: Grid, datum: ExteriorDatum,
                         table_gagliardo: KernelTable,
                         table_perimeter: KernelTable,
                         params: SolverParams,
                         n_max: int = 12) -> SolveReport:
    """Global minimum by enumerating every phase pattern on the ball.

    Solves the inner QP for each of the 2^N patterns and returns the best
    pair together with the full energy landscape, indexed by pattern (bit
    j set: cell j positive); ties go to the lowest pattern index. All
    patterns share one ``GagliardoQP.solve_patterns`` call; the patterns
    it sends to projected gradient are counted in ``polish_fallbacks``.
    """
    inside = grid.in_omega
    n = int(inside.sum())
    if n > n_max:
        raise TooLargeError(f"{n} ball cells exceed the exhaustive cap {n_max}")
    qp = GagliardoQP(grid, datum, table_gagliardo)
    _, template = sample_datum(datum, grid)
    form = PerimeterForm(template, table_perimeter)
    patterns = np.where(_bit_table(n), 1, -1).astype(np.int8)
    solutions, kkt, fallbacks = qp.solve_patterns(patterns, params.qp_tolerance,
                                                  params.qp_max_iters)
    landscape = qp.energy(solutions) + form.value(patterns)
    best = int(np.argmin(landscape))
    values = np.zeros(grid.n_cells)
    values[inside] = solutions[best]
    u = DiscreteFunction(grid, values, datum)
    ind = template.indicator.copy()
    ind[inside] = patterns[best]
    phases = template.with_indicator(ind)
    pair = AdmissiblePair(u, phases)
    trace = [_breakdown(u, phases, qp, form)]
    return SolveReport(pair=pair, trace=trace, termination="exhaustive",
                       outer_iterations=1, qp_kkt=float(kkt.max()),
                       landscape=landscape, polish_fallbacks=len(fallbacks))
