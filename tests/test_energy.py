import math

import numpy as np
import pytest

from fracfree import (
    FractionalParams,
    GridSpec,
    ParameterError,
    assemble_table,
    build_grid,
    constant_datum,
    halfspace_datum,
    make_pair,
    rescale_pair,
    sample_datum,
    tabulated_datum,
)
from fracfree.energy import (
    PerimeterForm,
    frac_perimeter,
    gagliardo_energy,
    total_energy,
)
from fracfree.model import DiscreteFunction, FullSet, HalfspaceSet, PhaseSet

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def setup_1d():
    # box [-2,2], 16 cells, ball of radius 1: cell edges align with 0 and +-1
    g = build_grid(GridSpec(1, 2.0, 16, 128.0, 1.0))
    table = assemble_table(g, 0.5)
    return g, table


def test_perimeter_golden_value(setup_1d):
    g, table = setup_1d
    _, phases = sample_datum(halfspace_datum([1.0], 0.0), g)
    per = frac_perimeter(phases, table, sigma=0.5)
    assert per == pytest.approx(4.0 * SQRT2, rel=1e-10)


def test_perimeter_of_full_space_is_zero(setup_1d):
    g, table = setup_1d
    _, phases = sample_datum(constant_datum(2.0), g)
    assert np.all(phases.indicator == 1)
    assert frac_perimeter(phases, table) == pytest.approx(0.0, abs=1e-12)


def test_perimeter_complement_symmetry(setup_1d):
    g, table = setup_1d
    rng = np.random.RandomState(7)
    datum = halfspace_datum([1.0], 0.0)
    _, base = sample_datum(datum, g)
    ind = base.indicator.copy()
    ind[g.in_omega] = rng.choice([-1, 1], size=int(g.in_omega.sum()))
    phases = PhaseSet(g, ind, datum)
    flipped_datum = halfspace_datum([-1.0], 0.0)
    flipped = PhaseSet(g, -phases.indicator, flipped_datum)
    a = frac_perimeter(phases, table)
    b = frac_perimeter(flipped, table)
    assert a == pytest.approx(b, rel=1e-12)


def test_perimeter_exponent_mismatch(setup_1d):
    g, table = setup_1d
    _, phases = sample_datum(halfspace_datum([1.0], 0.0), g)
    with pytest.raises(ParameterError):
        frac_perimeter(phases, table, sigma=0.7)


def test_gagliardo_constant_is_zero(setup_1d):
    g, table = setup_1d
    u, _ = sample_datum(constant_datum(2.0), g)
    assert gagliardo_energy(u, table) == pytest.approx(0.0, abs=1e-12)


def test_gagliardo_indicator_golden_value(setup_1d):
    # s=0.25 and the +-1 indicator of the half line: 8 * Per_{0.5} = 32*sqrt(2)
    g, table = setup_1d
    u, _ = sample_datum(halfspace_datum([1.0], 0.0), g)
    val = gagliardo_energy(u, table, s=0.25)
    assert val == pytest.approx(32.0 * SQRT2, rel=1e-10)


def test_gagliardo_quadratic_scaling(setup_1d):
    g, table = setup_1d
    datum = constant_datum(0.0)
    rng = np.random.RandomState(3)
    vals = rng.randn(g.n_cells)
    u1 = DiscreteFunction(g, vals, datum)
    u2 = DiscreteFunction(g, 2.0 * vals, datum)
    e1 = gagliardo_energy(u1, table)
    e2 = gagliardo_energy(u2, table)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_cross_term_identity_random_phases(setup_1d):
    # for u = chi_E - chi_E^c: gagliardo with 2s = sigma' equals 8 * perimeter
    g, table = setup_1d
    rng = np.random.RandomState(42)
    datum = halfspace_datum([1.0], 0.0)
    for _ in range(10):
        ind = datum.set_spec.membership(g.centers).copy()
        ind[g.in_omega] = rng.choice([-1, 1], size=int(g.in_omega.sum()))
        phases = PhaseSet(g, ind, datum)
        u = DiscreteFunction(g, phases.indicator.astype(float), datum)
        gag = gagliardo_energy(u, table, s=0.25)
        per = frac_perimeter(phases, table, sigma=0.5)
        assert gag == pytest.approx(8.0 * per, rel=1e-10)


def test_total_energy_breakdown_and_constant_case(setup_1d):
    g, table = setup_1d
    params = FractionalParams(0.25, 0.5)
    pair = make_pair(*sample_datum(constant_datum(2.0), g))
    breakdown = total_energy(pair, params, table, table)
    assert breakdown.total == breakdown.gagliardo + breakdown.perimeter
    assert breakdown.total == pytest.approx(0.0, abs=1e-12)


def test_total_energy_nonnegative_terms(setup_1d):
    g, table = setup_1d
    params = FractionalParams(0.25, 0.5)
    pair = make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
    b = total_energy(pair, params, table, table)
    assert b.gagliardo >= 0.0 and b.perimeter >= 0.0
    assert b.total == b.gagliardo + b.perimeter


def test_total_energy_scales_under_dyadic_rescale():
    # total(rescale(pair, r)) = r^(sigma - n) total(pair) on matched grids
    params = FractionalParams(0.25, 0.5)
    g = build_grid(GridSpec(1, 2.0, 16, 128.0, 1.0))
    pair = make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
    t_g = assemble_table(g, 0.5)
    base = total_energy(pair, params, t_g, t_g)
    for r in (2.0, 0.5):
        scaled = rescale_pair(pair, r, params)
        g2 = scaled.grid
        t2 = assemble_table(g2, 0.5)
        val = total_energy(scaled, params, t2, t2)
        expect = r ** (params.sigma - 1.0) * base.total
        assert abs(val.total - expect) <= 1e-10 * abs(expect)


def test_enlarging_ball_never_decreases_terms():
    params = FractionalParams(0.25, 0.5)
    datum = halfspace_datum([1.0], 0.0)
    small = build_grid(GridSpec(1, 2.0, 16, 128.0, 0.75))
    large = build_grid(GridSpec(1, 2.0, 16, 128.0, 1.5))
    t_small = assemble_table(small, 0.5)
    t_large = assemble_table(large, 0.5)
    b_small = total_energy(make_pair(*sample_datum(datum, small)), params, t_small, t_small)
    b_large = total_energy(make_pair(*sample_datum(datum, large)), params, t_large, t_large)
    assert b_large.gagliardo >= b_small.gagliardo - 1e-12
    assert b_large.perimeter >= b_small.perimeter - 1e-12


def test_perimeter_form_matches_direct_evaluation(setup_1d):
    g, table = setup_1d
    rng = np.random.RandomState(11)
    datum = halfspace_datum([1.0], 0.0)
    _, base = sample_datum(datum, g)
    form = PerimeterForm(base, table)
    for _ in range(5):
        ind = base.indicator.copy()
        ind[g.in_omega] = rng.choice([-1, 1], size=int(g.in_omega.sum()))
        phases = PhaseSet(g, ind, datum)
        direct = frac_perimeter(phases, table)
        fast = form.value(phases.indicator[g.in_omega])
        assert fast == pytest.approx(direct, rel=1e-10)
        # single-flip delta agrees with recomputation
        e_in = phases.indicator[g.in_omega].copy()
        k = rng.randint(e_in.size)
        delta = form.flip_delta(e_in, k)
        e2 = e_in.copy()
        e2[k] = -e2[k]
        assert form.value(e2) - form.value(e_in) == pytest.approx(delta, abs=1e-9)


def test_masked_energies_match_explicit_pair_loops(setup_1d):
    g, table = setup_1d
    rng = np.random.RandomState(5)
    edges = tuple(2.0 * 2.0**k for k in range(7))
    datum = tabulated_datum(edges, tuple(rng.uniform(0.1, 1.0, 6)),
                            tuple(-rng.uniform(0.1, 1.0, 6)), 0.5,
                            HalfspaceSet((1.0,), 0.0))
    u0, phases0 = sample_datum(datum, g)
    x = g.centers[:, 0]
    mask = np.abs(x) < 0.5                       # 4 of the 8 ball cells
    ind = phases0.indicator.copy()
    ind[g.in_omega] = rng.choice([-1, 1], size=int(g.in_omega.sum()))
    phases = PhaseSet(g, ind, datum)
    vals = u0.values.copy()
    vals[g.in_omega] = ind[g.in_omega] * rng.uniform(0.0, 1.0, int(g.in_omega.sum()))
    u = DiscreteFunction(g, vals, datum)
    v, e = u.values, phases.indicator
    dense = table.dense_matrix()
    t0, m1, m2 = table.function_tails(datum.func)
    tp, tn = table.set_tails(datum.set_spec)
    gag, per = 0.0, 0.0
    for i in range(g.n_cells):
        for j in range(g.n_cells):
            if i != j and (mask[i] or mask[j]):
                w = dense[i, j]
                gag += (v[i] - v[j]) ** 2 * w
                per += 0.5 * w * (e[i] != e[j])
    for i in np.flatnonzero(mask):
        gag += 2.0 * (v[i] ** 2 * t0[i] - 2.0 * v[i] * m1[i] + m2[i])
        per += tn[i] if e[i] > 0 else tp[i]
    assert gagliardo_energy(u, table, omega_mask=mask) == pytest.approx(gag, rel=1e-12)
    assert frac_perimeter(phases, table, omega_mask=mask) == pytest.approx(per, rel=1e-12)
    # the mask really restricts: the ball value differs
    assert gagliardo_energy(u, table) != pytest.approx(gag, rel=1e-3)
