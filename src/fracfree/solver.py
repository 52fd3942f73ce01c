"""Minimization of the coupled functional over admissible pairs.

The function solve is a sign-constrained convex quadratic program on
energy.GagliardoForm (strictly positive definite thanks to the exterior
tails); the phase solve, on energy.PerimeterForm, sets the discrete zero
set to an exact perimeter minimizer by one minimum s-t cut. Trace entries
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

# an alternation stops once a phase step lowers the energy by no more
_ENERGY_STALL_TOL = 1e-10


@dataclass(frozen=True)
class SolverParams:
    max_outer_iters: int = 30
    qp_tolerance: float = 1e-9
    multistart_random: int = 5
    seed: int = 0
    qp_max_iters: int = 5000

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.qp_tolerance <= 0:
            raise ValueError("qp_tolerance must be positive")


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


def _zero_threshold(u_vals: np.ndarray) -> float:
    """|u| at or below which a ball cell is in the zero set: 1e-7 of the
    value scale, or 1e-7 if the values are smaller than one."""
    scale = float(np.max(np.abs(u_vals))) if u_vals.size else 1.0
    return 1e-7 * max(1.0, scale)


def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) booleans, row i holding the bits of i (column j: bit j)."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


def _min_cut(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The x in {0,1}^z minimizing c . x + sum_{k<l} w_kl [x_k != x_l]
    (w symmetric, >= 0): the sink side of a minimum cut with s -> k of
    capacity max(c_k, 0), k -> t of max(-c_k, 0) and k <-> l of w_kl.
    Edmonds-Karp on the dense residual, each breadth-first pass augmenting
    every shortest path of its tree; residuals up to 1e-14 of the largest
    capacity count as saturated, so roundoff opens no path."""
    z = len(c)
    s, t = z, z + 1
    res = [row + [0.0, max(-ck, 0.0)] for row, ck in zip(w.tolist(), c.tolist())]
    res += [[max(ck, 0.0) for ck in c.tolist()] + [0.0, 0.0], [0.0] * (z + 2)]
    eps = 1e-14 * max(map(max, res))
    while True:
        parent, level = [-1] * z + [s, -1], [s]     # s is its own parent
        while level and parent[t] < 0:
            last, level = level, []
            for a in last:
                for b, r in enumerate(res[a]):
                    if r > eps and parent[b] < 0:
                        parent[b] = a
                        level.append(b)
        if parent[t] < 0:
            return np.array(parent[:z]) < 0
        for v in last:
            path = [t, v]
            while path[-1] != s:
                path.append(parent[path[-1]])
            flow = min(res[a][b] for a, b in zip(path[1:], path))
            if flow > eps:
                for a, b in zip(path[1:], path):
                    res[a][b] -= flow
                    res[b][a] += flow


def update_phase(u: DiscreteFunction, phases: PhaseSet, table: KernelTable,
                 form: PerimeterForm | None = None) -> PhaseSet:
    """Force signs where |u| clears the threshold, then give the zero set Z
    its least-perimeter signs: with the other signs fixed and e = 2x - 1,
    Per is sum_k 2 a_k x_k + sum_{k<l in Z} W_kl [x_k != x_l] plus a constant,
    a = lin_Z - W_in[Z, rest] e_rest / 2, and one _min_cut minimizes it. The
    cut's signs replace the incumbent's only when lower by more than 1e-15
    relative: ties keep the incumbent phase."""
    grid = u.grid
    inside = grid.in_omega
    form = PerimeterForm(phases, table) if form is None else form
    delta = _zero_threshold(u.values[inside])
    e_in = phases.indicator[inside].astype(np.int8).copy()
    uu = u.values[inside]
    e_in[uu > delta] = 1
    e_in[uu < -delta] = -1
    zero = np.abs(uu) <= delta
    zero_set = np.flatnonzero(zero)
    if zero_set.size:
        w_z = form.w_in[zero_set]
        c = 2.0 * form.lin[zero_set] - w_z @ np.where(zero, 0, e_in)
        cut = e_in.copy()
        cut[zero_set] = np.where(_min_cut(w_z[:, zero_set], c), 1, -1)
        old, new = form.value(np.stack([e_in, cut])).tolist()
        if new < old - 1e-15 * max(1.0, abs(old)):
            e_in = cut
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
            new_phases = update_phase(u, phases, table_perimeter, form=form)
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
            if total - new_total <= _ENERGY_STALL_TOL:
                total = min(total, new_total)
                termination = "stalled"
                break
            total = new_total
        start_energies.append((label, total))
        if best is None or total < best[0]:
            best = (total, u, phases, trace, termination, outer, kkt)
    total, u, phases, trace, termination, outer, kkt = best
    pair = AdmissiblePair(u, phases)
    slack = 1e-6 * (1.0 + abs(total))
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
