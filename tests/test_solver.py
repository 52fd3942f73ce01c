import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fracfree import (
    FractionalParams,
    GridSpec,
    TooLargeError,
    assemble_table,
    build_grid,
    constant_datum,
    halfspace_datum,
    ball_datum,
    make_pair,
    sample_datum,
    tabulated_datum,
)
from fracfree.energy import PerimeterForm, frac_perimeter, gagliardo_energy, total_energy
from fracfree.model import DiscreteFunction, FullSet, HalfspaceSet
from fracfree.solver import (
    GagliardoQP,
    SolverParams,
    _bit_table,
    _min_cut,
    alternate_minimize,
    brute_force_minimize,
    solve_u_given_phase,
    update_phase,
)

PARAMS = SolverParams(qp_tolerance=1e-10, multistart_random=4, seed=3)


def small_setup(m=10, s=0.3, sigma=0.5):
    # ball radius = box half-width: every box cell is a free cell
    g = build_grid(GridSpec(1, 1.0, m, 64.0, 1.0))
    tg = assemble_table(g, 2.0 * s)
    tp = assemble_table(g, sigma)
    return g, tg, tp


def random_tabulated_datum(rng, low, high, g):
    """Shell values in [low, high] beyond the box with a compatible set."""
    edges = tuple(float(g.spec.half_width * 2.0**k) for k in range(7))
    right = tuple(float(v) for v in rng.uniform(low, high, 6))
    left = tuple(float(v) for v in rng.uniform(low, high, 6))
    far = float(rng.uniform(low, high))
    if low >= 0.0:
        return tabulated_datum(edges, right, left, far, FullSet(1))
    if high <= 0.0:
        return tabulated_datum(edges, right, left, far, FullSet(-1))
    # sign-compatible: positive on the right, negative on the left
    right = tuple(abs(v) for v in right)
    left = tuple(-abs(v) for v in left)
    return tabulated_datum(edges, right, left, abs(far),
                           HalfspaceSet((1.0,), 0.0))


def test_constant_datum_solves_to_constant():
    g, tg, tp = small_setup()
    datum = constant_datum(2.0)
    _, phases = sample_datum(datum, g)
    u, res = solve_u_given_phase(phases, datum, tg, PARAMS)
    assert np.allclose(u.values, 2.0, atol=1e-8)
    assert res.kkt_residual <= 1e-8


def test_qp_matches_scipy_oracle():
    # independent oracle: SLSQP on the same quadratic with sign bounds
    from scipy.optimize import minimize

    g, tg, tp = small_setup(m=8)
    rng = np.random.RandomState(1)
    datum = random_tabulated_datum(rng, -1.0, 1.0, g)
    qp = GagliardoQP(g, datum, tg)
    signs = np.array([1, 1, -1, 1, -1, -1, 1, -1], dtype=np.int8)
    res = qp.solve(signs, tol=1e-12)
    bounds = [(0.0, None) if s > 0 else (None, 0.0) for s in signs]
    x0 = np.zeros(8)
    oracle = minimize(
        lambda u: qp.energy(u),
        x0,
        jac=lambda u: qp.gradient(u),
        bounds=bounds,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert qp.energy(res.values) <= oracle.fun + 1e-9
    assert np.allclose(res.values, oracle.x, atol=1e-5)


def test_qp_output_beats_feasible_perturbations():
    g, tg, tp = small_setup()
    datum = halfspace_datum([1.0], 0.0)
    _, phases = sample_datum(datum, g)
    u, res = solve_u_given_phase(phases, datum, tg, PARAMS)
    qp = GagliardoQP(g, datum, tg)
    signs = phases.indicator[g.in_omega]
    base = qp.energy(u.values[g.in_omega])
    rng = np.random.RandomState(7)
    for _ in range(10):
        pert = u.values[g.in_omega] + 0.05 * rng.randn(int(g.in_omega.sum()))
        pert = np.where(signs > 0, np.maximum(pert, 0.0), np.minimum(pert, 0.0))
        assert qp.energy(pert) >= base - 1e-12


def test_update_phase_forced_cells_only():
    g, tg, tp = small_setup()
    datum = halfspace_datum([1.0], 0.0)
    u, phases = sample_datum(datum, g)
    out = update_phase(u, phases, tp)
    # u = +-1 has an empty zero set: phase follows sign of u
    assert np.array_equal(
        out.indicator[g.in_omega],
        np.where(u.values[g.in_omega] > 0, 1, -1),
    )


def test_update_phase_perimeter_never_increases():
    g, tg, tp = small_setup()
    datum = halfspace_datum([1.0], 0.0)
    _, phases = sample_datum(datum, g)
    rng = np.random.RandomState(5)
    ind = phases.indicator.copy()
    ind[g.in_omega] = rng.choice([-1, 1], size=int(g.in_omega.sum()))
    scrambled = phases.with_indicator(ind)
    u0 = DiscreteFunction(g, np.zeros(g.n_cells), datum)
    out = update_phase(u0, scrambled, tp)
    assert frac_perimeter(out, tp) <= frac_perimeter(scrambled, tp) + 1e-12


def test_update_phase_exhaustive_finds_minimal_pattern():
    # u = 0 everywhere: the whole ball is zero set; the phase step must
    # return the global perimeter minimizer among phase patterns
    g, tg, tp = small_setup(m=8)
    datum = halfspace_datum([1.0], 0.0)
    _, phases = sample_datum(datum, g)
    u0 = DiscreteFunction(g, np.zeros(g.n_cells), datum)
    out = update_phase(u0, phases, tp)
    form = PerimeterForm(phases, tp)
    best = np.inf
    n = int(g.in_omega.sum())
    for bits in range(1 << n):
        e = np.where((bits >> np.arange(n)) & 1, 1, -1).astype(np.int8)
        best = min(best, form.value(e))
    assert form.value(out.indicator[g.in_omega]) == pytest.approx(best, rel=1e-12)


def test_brute_force_counts_and_energy_consistency():
    g, tg, tp = small_setup(m=8)
    datum = halfspace_datum([1.0], 0.0)
    report = brute_force_minimize(g, datum, tg, tp, PARAMS)
    assert report.landscape.shape == (2**8,)
    params = FractionalParams(0.3, 0.5)
    honest = total_energy(report.pair, params, tg, tp)
    assert report.landscape.min() == pytest.approx(honest.total, rel=1e-9)


def test_brute_force_too_large():
    g, tg, tp = small_setup(m=16)
    with pytest.raises(TooLargeError):
        brute_force_minimize(g, halfspace_datum([1.0], 0.0), tg, tp, PARAMS, n_max=12)


def test_brute_force_positive_datum_gives_full_phase():
    g, tg, tp = small_setup(m=8)
    datum = constant_datum(2.0)
    report = brute_force_minimize(g, datum, tg, tp, PARAMS)
    assert np.all(report.pair.phases.indicator == 1)
    assert frac_perimeter(report.pair.phases, tp) == pytest.approx(0.0, abs=1e-12)
    assert np.all(report.pair.u.values >= 2.0 - 1e-8)


def test_mirror_symmetric_datum_energy():
    g, tg, tp = small_setup(m=8)
    datum = ball_datum([0.0], 0.5)
    report = brute_force_minimize(g, datum, tg, tp, PARAMS)
    u = report.pair.u.values
    e = report.pair.phases.indicator
    mirrored_u = DiscreteFunction(g, u[::-1].copy(), datum)
    mirrored_e = report.pair.phases.with_indicator(e[::-1].copy())
    params = FractionalParams(0.3, 0.5)
    a = total_energy(report.pair, params, tg, tp)
    b = (
        gagliardo_energy(mirrored_u, tg)
        + frac_perimeter(mirrored_e, tp)
    )
    assert a.total == pytest.approx(b, rel=1e-10)


def test_alternate_reaches_oracle_on_random_instances():
    g, tg, tp = small_setup(m=10)
    rng = np.random.RandomState(2024)
    hits = 0
    for trial in range(6):
        datum = random_tabulated_datum(rng, -1.0, 1.0, g)
        params = SolverParams(qp_tolerance=1e-10, multistart_random=4, seed=trial)
        oracle = brute_force_minimize(g, datum, tg, tp, params)
        pair0 = make_pair(*sample_datum(datum, g))
        report = alternate_minimize(pair0, params, tg, tp)
        e_alt = report.trace[-1].total
        e_orc = oracle.landscape.min()
        assert e_alt >= e_orc - 1e-9  # oracle dominance
        if e_alt <= e_orc + 1e-6:
            hits += 1
    assert hits >= 5


def test_comparison_principle_seeded():
    g, tg, tp = small_setup(m=10)
    rng = np.random.RandomState(77)
    for bound in (2.0, 0.5):
        datum = random_tabulated_datum(rng, bound, bound + 1.0, g)
        params = SolverParams(qp_tolerance=1e-10, multistart_random=2, seed=9)
        pair0 = make_pair(*sample_datum(datum, g))
        report = alternate_minimize(pair0, params, tg, tp)
        assert report.pair.u.values[g.in_omega].min() >= bound - 1e-6
    # mirrored side: data below a negative ceiling
    datum = random_tabulated_datum(rng, -2.0, -1.0, g)
    # all-negative values pair with the empty set
    params = SolverParams(qp_tolerance=1e-10, multistart_random=2, seed=9)
    pair0 = make_pair(*sample_datum(datum, g))
    report = alternate_minimize(pair0, params, tg, tp)
    assert report.pair.u.values[g.in_omega].max() <= -1.0 + 1e-6


def test_trace_is_nonincreasing_and_pair_admissible():
    g, tg, tp = small_setup(m=12)
    rng = np.random.RandomState(4)
    datum = random_tabulated_datum(rng, -1.0, 1.0, g)
    pair0 = make_pair(*sample_datum(datum, g))
    report = alternate_minimize(pair0, PARAMS, tg, tp)
    totals = [b.total for b in report.trace]
    for a, b in zip(totals[:-1], totals[1:]):
        assert b <= a + report.trace_slack
    # returned pair satisfies the admissibility invariants by construction
    assert report.pair.sign_tol <= 1e-8


def _cold_oracle_reference(g, datum, tg, tp, params):
    """One cold QP per pattern in binary order, first minimum wins."""
    qp = GagliardoQP(g, datum, tg)
    _, template = sample_datum(datum, g)
    form = PerimeterForm(template, tp)
    n = int(g.in_omega.sum())
    landscape = np.empty(1 << n)
    best = None
    for bits in range(1 << n):
        signs = np.where((bits >> np.arange(n)) & 1, 1, -1).astype(np.int8)
        res = qp.solve(signs, tol=params.qp_tolerance, max_iters=params.qp_max_iters)
        landscape[bits] = qp.energy(res.values) + form.value(signs)
        if best is None or landscape[bits] < best[0]:
            best = (landscape[bits], res.values, signs)
    return landscape, best[1], best[2]


@pytest.mark.parametrize("m, seed", [(8, 11), (10, 12)])
def test_batched_oracle_matches_cold_binary_enumeration(m, seed):
    g, tg, tp = small_setup(m=m, s=0.3, sigma=0.5)
    datum = random_tabulated_datum(np.random.RandomState(seed), -1.0, 1.0, g)
    report = brute_force_minimize(g, datum, tg, tp, PARAMS)
    landscape, u_free, signs = _cold_oracle_reference(g, datum, tg, tp, PARAMS)
    assert report.landscape.tobytes() == landscape.tobytes()
    assert report.pair.u.values[g.in_omega].tobytes() == u_free.tobytes()
    assert np.array_equal(report.pair.phases.indicator[g.in_omega], signs)


def test_oracle_sends_unfinished_patterns_to_cold_solves(monkeypatch):
    g, tg, tp = small_setup(m=8)
    datum = random_tabulated_datum(np.random.RandomState(13), -1.0, 1.0, g)
    expected = brute_force_minimize(g, datum, tg, tp, PARAMS)
    assert expected.polish_fallbacks == 0
    chosen = [0, 5, 77, 200, 255]
    descend, polish = GagliardoQP._descend, GagliardoQP._polish
    cold = []

    def tracked_descend(self, u, signs, tol, max_iters):
        res = descend(self, u, signs, tol, max_iters)
        bits = int(((signs > 0) << np.arange(signs.size)).sum())
        from_cold_start = np.array_equal(u, self._project(self.free_minimizer, signs))
        cold.append((bits, from_cold_start, res.converged))
        return res

    def unfinished_polish(self, u, signs, tol):
        out, finished = polish(self, u, signs, tol)
        if len(u) == 2**8:      # the oracle's batch, not a fallback's own
            out[chosen], finished[chosen] = u[chosen], False
        return out, finished

    monkeypatch.setattr(GagliardoQP, "_descend", tracked_descend)
    monkeypatch.setattr(GagliardoQP, "_polish", unfinished_polish)
    report = brute_force_minimize(g, datum, tg, tp, PARAMS)
    assert [bits for bits, _, _ in cold] == chosen
    assert all(is_cold and converged for _, is_cold, converged in cold)
    assert report.polish_fallbacks == len(chosen)
    assert np.max(np.abs(report.landscape - expected.landscape)) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cold_solve_is_the_polished_projected_minimizer(seed):
    # the polish from the projected unconstrained minimizer lands on the
    # active set of the projected-gradient fallback from zero, so on the
    # same k x k solve
    g, tg, tp = small_setup(m=10)
    datum = random_tabulated_datum(np.random.RandomState(seed), -1.0, 1.0, g)
    qp = GagliardoQP(g, datum, tg)
    tol = PARAMS.qp_tolerance
    rng = np.random.RandomState(seed)
    for _ in range(8):
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=10)
        res = qp.solve(signs, tol=tol)
        assert res.iterations == 0 and res.converged
        ref = qp._descend(np.zeros(10), signs, tol, PARAMS.qp_max_iters)
        assert ref.iterations > 0 and ref.converged
        assert res.values.tobytes() == ref.values.tobytes()
        assert res.kkt_residual == ref.kkt_residual


def test_solve_falls_back_when_the_polish_does_not_finish(monkeypatch):
    g, tg, tp = small_setup(m=8)
    datum = random_tabulated_datum(np.random.RandomState(1), -1.0, 1.0, g)
    qp = GagliardoQP(g, datum, tg)
    signs = np.array([1, 1, -1, 1, -1, -1, 1, -1], dtype=np.int8)
    tol = PARAMS.qp_tolerance
    polish, calls = GagliardoQP._polish, []

    def unfinished_first_polish(self, u, signs, tol):
        out, finished = polish(self, u, signs, tol)
        calls.append(len(u))
        if len(calls) == 1:     # the start's polish, not the fallback's
            out, finished = u.copy(), np.zeros(len(u), dtype=bool)
        return out, finished

    monkeypatch.setattr(GagliardoQP, "_polish", unfinished_first_polish)
    res = qp.solve(signs, tol=tol)
    assert calls == [1, 1]
    assert res.iterations > 0 and res.converged
    assert res.kkt_residual <= 10.0 * tol
    assert res.kkt_residual == qp.kkt_residual(res.values, signs)


def test_grouped_inactive_solves_match_one_solve_per_row():
    g, tg, tp = small_setup(m=12)
    datum = random_tabulated_datum(np.random.RandomState(2), -1.0, 1.0, g)
    qp = GagliardoQP(g, datum, tg)
    rng = np.random.RandomState(9)
    inactive = rng.rand(200, 12) < rng.rand(200, 1)
    inactive[0], inactive[1] = False, True     # all active, none active
    u = qp._solve_inactive(inactive)
    for row, mask in zip(u, inactive):
        idx = np.flatnonzero(mask)
        if idx.size:
            ref = np.linalg.solve(qp.hess[np.ix_(idx, idx)], -qp.lin[idx])
            assert row[idx].tobytes() == ref.tobytes()
        assert row[~mask].tobytes() == np.zeros(12 - idx.size).tobytes()


@seed(20261019)
@settings(max_examples=15, deadline=None, database=None)
@given(m=st.integers(2, 9), s=st.floats(0.1, 0.45), sigma=st.floats(0.2, 0.9),
       low=st.floats(-1.0, 0.5), data_seed=st.integers(0, 2**31 - 1))
def test_oracle_rows_are_sign_feasible_and_kkt_accurate(m, s, sigma, low, data_seed):
    g, tg, _ = small_setup(m=m, s=s, sigma=sigma)
    datum = random_tabulated_datum(np.random.RandomState(data_seed), low, 1.0, g)
    qp = GagliardoQP(g, datum, tg)
    patterns = np.where(_bit_table(m), 1, -1).astype(np.int8)
    tol = PARAMS.qp_tolerance
    values, kkt, fallbacks = qp.solve_patterns(patterns, tol, PARAMS.qp_max_iters)
    assert np.all(values * patterns >= 0.0)
    grad = np.array([qp.hess @ v + qp.lin for v in values])
    free = np.where(values == 0.0, 0.0, np.abs(grad))
    wrong_way = np.where(values == 0.0, np.maximum(-patterns * grad, 0.0), 0.0)
    worst = np.maximum(free, wrong_way).max(axis=1)
    assert np.all(worst <= 10.0 * tol)
    assert np.array_equal(worst, kkt)


def _enumeration_minimum(form, e_in, zero_set):
    """min of form.value over all 2^|Z| sign patterns on the zero set."""
    cands = np.repeat(e_in[None], 1 << zero_set.size, axis=0)
    cands[:, zero_set] = np.where(_bit_table(zero_set.size), 1, -1)
    return float(form.value(cands).min())


def test_phase_update_reaches_the_enumeration_minimum_and_keeps_ties():
    g, tg, tp = small_setup(m=14)
    datum = halfspace_datum([1.0], 0.0)
    _, phases = sample_datum(datum, g)
    inside = g.in_omega
    rng = np.random.RandomState(21)
    kept = 0
    for trial in range(12):
        ind = phases.indicator.copy()
        ind[inside] = rng.choice([-1, 1], size=14)
        start = phases.with_indicator(ind)
        vals = rng.choice([-1.0, 1.0], size=14) * rng.uniform(0.5, 1.0, 14)
        zero = rng.choice(14, size=rng.randint(1, 13), replace=False)
        vals[zero] = 0.0
        if trial == 0:
            # a mirror-symmetric zero set: Per(e) = Per(-mirror(e)) for the
            # datum {x > 0}, so patterns tie in pairs up to roundoff
            vals[:] = 0.0
            vals[0], vals[13] = -1.0, 1.0
        full = np.zeros(g.n_cells)
        full[inside] = vals
        u = DiscreteFunction(g, full, datum)
        form = PerimeterForm(start, tp)
        # the incumbent: the start's signs, forced where u is nonzero
        incumbent = ind.copy()
        incumbent[inside] = np.where(vals == 0.0, ind[inside], np.sign(vals))
        e_in = incumbent[inside]
        best = _enumeration_minimum(form, e_in, np.flatnonzero(vals == 0.0))
        out = update_phase(u, start, tp, form=form)
        value, before = form.value(out.indicator[inside]), form.value(e_in)
        assert abs(value - best) <= 1e-15 * max(1.0, abs(best)), trial
        assert value <= before, trial
        if best >= before - 1e-15 * max(1.0, abs(before)):
            kept += 1
            assert out.indicator.tobytes() == incumbent.tobytes(), trial
    assert kept >= 2
    # forced signs invariant under e -> -mirror(e), a symmetry of {x > 0}:
    # the two least-perimeter patterns are each other's images and tie
    vals = np.zeros(14)
    vals[1], vals[12] = 1.0, -1.0
    full = np.zeros(g.n_cells)
    full[inside] = vals
    u = DiscreteFunction(g, full, datum)
    form = PerimeterForm(phases, tp)
    best = _enumeration_minimum(form, np.where(vals < 0.0, -1, 1).astype(np.int8),
                                np.flatnonzero(vals == 0.0))
    for middle in (-1, 1):
        ind = phases.indicator.copy()
        ind[inside] = [-1, 1] + [middle] * 10 + [-1, 1]
        assert abs(form.value(ind[inside]) - best) <= 1e-15 * best
        out = update_phase(u, phases.with_indicator(ind), tp, form=form)
        assert out.indicator.tobytes() == ind.tobytes(), middle


@pytest.mark.parametrize("seed", [4, 6, 7, 9])
def test_phase_update_is_exact_on_16_cell_zero_sets(seed):
    # seeds where steepest-descent flips stop at a local minimum
    g = build_grid(GridSpec(2, 1.0, 6, 64.0, 1.0))
    tp = assemble_table(g, 0.5)
    datum = halfspace_datum([1.0, 0.0], 0.0)
    _, phases = sample_datum(datum, g)
    inside = g.in_omega
    n = int(inside.sum())
    rng = np.random.RandomState(seed)
    ind = phases.indicator.copy()
    ind[inside] = rng.choice([-1, 1], size=n)
    start = phases.with_indicator(ind)
    vals = rng.choice([-1.0, 1.0], size=n)
    zero_set = np.sort(rng.choice(n, size=16, replace=False))
    vals[zero_set] = 0.0
    full = np.zeros(g.n_cells)
    full[inside] = vals
    form = PerimeterForm(start, tp)
    out = update_phase(DiscreteFunction(g, full, datum), start, tp, form=form)
    e_in = np.where(vals > 0.0, 1, -1).astype(np.int8)
    e_in[zero_set] = ind[inside][zero_set]
    best = _enumeration_minimum(form, e_in, zero_set)
    value = form.value(out.indicator[inside])
    assert np.array_equal(out.indicator[inside][vals != 0.0], e_in[vals != 0.0])
    assert abs(value - best) <= 1e-15 * max(1.0, abs(best))
    assert value <= form.value(e_in)


def test_min_cut_matches_brute_force():
    rng = np.random.RandomState(4)
    cases = [(np.zeros((1, 1)), np.array([0.7])), (np.zeros((1, 1)), np.array([-0.7])),
             (np.zeros((1, 1)), np.zeros(1))]
    for z in range(1, 11):
        for _ in range(6):
            w = rng.uniform(0.0, 1.0, (z, z)) * (rng.uniform(size=(z, z)) < 0.7)
            w = np.triu(w, 1) + np.triu(w, 1).T
            cases.append((w, rng.uniform(-1.5, 1.5, z) * z))
            # capacities over nine decades: small ones still decide the cut
            scales = 10.0 ** rng.uniform(-9.0, 0.0, (z, z))
            cases.append((w * np.sqrt(scales * scales.T),
                          rng.uniform(-1.0, 1.0, z) * 10.0 ** rng.uniform(-9.0, 0.0, z)))
        cases += [(np.zeros((z, z)), rng.uniform(-1.0, 1.0, z)), (w, np.zeros(z))]
    for w, c in cases:
        def cost(x):
            x = np.asarray(x, dtype=float)
            return x @ c + 0.5 * np.sum(w * (x[..., :, None] != x[..., None, :]),
                                        axis=(-2, -1))
        x = _min_cut(w, c)
        assert x.dtype == bool and x.shape == c.shape
        brute = cost(_bit_table(c.size)).min()
        assert cost(x) <= brute + 1e-13 * (np.abs(c).sum() + w.sum())


def test_warm_started_solve_matches_cold_solve_with_active_constraints():
    g, tg, tp = small_setup(m=8)
    datum = random_tabulated_datum(np.random.RandomState(1), -1.0, 1.0, g)
    qp = GagliardoQP(g, datum, tg)
    signs = np.array([1, 1, -1, 1, -1, -1, 1, -1], dtype=np.int8)
    cold = qp.solve(signs, tol=1e-12)
    assert np.count_nonzero(cold.values == 0.0) >= 1
    neighbour = signs.copy()
    neighbour[3] = -neighbour[3]
    x0 = qp.solve(neighbour, tol=1e-12).values
    warm = qp.solve(signs, x0=x0, tol=1e-12)
    assert warm.iterations == 0 and warm.converged
    assert np.max(np.abs(warm.values - cold.values)) <= 1e-12
    assert warm.kkt_residual <= 1e-12


def test_trace_entries_equal_total_energy_of_their_pairs(monkeypatch):
    # 2s = 0.6 != sigma = 0.5: a term or tail read from the other table shows
    from fracfree import solver as solver_mod

    g, tg, tp = small_setup(m=10, s=0.3, sigma=0.5)
    params = FractionalParams(0.3, 0.5)
    datum = halfspace_datum([1.0], 0.0)
    seen = []
    breakdown = solver_mod._breakdown

    def recording(u, phases, *args):
        entry = breakdown(u, phases, *args)
        seen.append((u, phases, entry))
        return entry

    monkeypatch.setattr(solver_mod, "_breakdown", recording)
    alternate = alternate_minimize(make_pair(*sample_datum(datum, g)), PARAMS, tg, tp)
    oracle = brute_force_minimize(g, datum, tg, tp, PARAMS)
    recorded = {id(entry) for _, _, entry in seen}
    assert all(id(b) in recorded for b in alternate.trace + oracle.trace)
    for u, phases, entry in seen:
        honest = total_energy(make_pair(u, phases), params, tg, tp)
        for name in ("gagliardo", "perimeter", "gagliardo_tail", "perimeter_tail"):
            assert getattr(entry, name) == pytest.approx(getattr(honest, name),
                                                         rel=1e-12), name
