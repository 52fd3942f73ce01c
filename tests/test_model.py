import math

import numpy as np
import pytest

from fracfree import (
    AdmissibilityError,
    FractionalParams,
    GridSpec,
    InvalidScaleError,
    InvalidSpecError,
    build_grid,
    constant_datum,
    halfspace_datum,
    ball_datum,
    make_pair,
    rescale_pair,
    sample_datum,
)
from fracfree.model import DiscreteFunction, PhaseSet, cone_datum


def grid_1d(m=8, L=1.0, r_omega=None):
    return build_grid(GridSpec(1, L, m, 64.0 * L, r_omega if r_omega else L))


def test_build_grid_1d_tiling():
    g = grid_1d(m=8, L=1.0)
    assert g.h == 0.25
    assert g.n_cells == 8
    assert np.allclose(g.centers[:, 0], np.arange(-0.875, 1.0, 0.25))


def test_build_grid_2d_tiling():
    g = build_grid(GridSpec(2, 1.0, 4, 64.0, 1.0))
    assert g.n_cells == 16
    assert g.h == 0.5
    # cells tile the box exactly
    assert np.isclose(g.centers.min(), -0.75)
    assert np.isclose(g.centers.max(), 0.75)


def test_build_grid_degenerate_inputs():
    with pytest.raises(InvalidSpecError):
        GridSpec(1, 1.0, 0, 64.0, 1.0)
    with pytest.raises(InvalidSpecError):
        GridSpec(1, -1.0, 8, 64.0, 1.0)
    with pytest.raises(InvalidSpecError):
        GridSpec(3, 1.0, 8, 64.0, 1.0)
    with pytest.raises(InvalidSpecError):
        GridSpec(1, 1.0, 8, 0.5, 1.0)  # truncation inside the box
    with pytest.raises(InvalidSpecError):
        FractionalParams(1.5, 0.5)


def test_sample_halfspace_datum():
    g = grid_1d()
    u, phases = sample_datum(halfspace_datum([1.0], 0.0), g)
    at = g.centers[:, 0]
    assert np.all(u.values[at > 0] == 1.0)
    assert np.all(u.values[at < 0] == -1.0)
    assert np.array_equal(phases.indicator, np.where(at > 0, 1, -1))
    make_pair(u, phases)  # constructed pair is admissible


def test_sample_constant_datum():
    g = grid_1d()
    u, phases = sample_datum(constant_datum(2.0), g)
    assert np.all(u.values == 2.0)
    assert np.all(phases.indicator == 1)


def test_sample_ball_datum_membership():
    g = grid_1d(m=20)
    u, phases = sample_datum(ball_datum([0.0], 0.5), g)
    x = g.centers[:, 0]
    assert phases.indicator[np.argmin(np.abs(x - 0.9))] == -1
    assert phases.indicator[np.argmin(np.abs(x))] == 1


def test_make_pair_zero_function_is_always_admissible():
    g = grid_1d()
    datum = halfspace_datum([1.0], 0.0)
    _, phases = sample_datum(datum, g)
    u0 = DiscreteFunction(g, np.zeros(g.n_cells), datum)
    make_pair(u0, phases)


def test_make_pair_reports_violating_cells():
    g = grid_1d()
    datum = halfspace_datum([1.0], 0.0)
    u, phases = sample_datum(datum, g)
    bad = np.where(phases.indicator == -1, 1.0, 1.0)  # +1 everywhere
    u_bad = DiscreteFunction(g, bad, datum)
    with pytest.raises(AdmissibilityError) as exc:
        make_pair(u_bad, phases, sign_tol=1e-9)
    cells = exc.value.cells
    assert set(cells) == set(np.flatnonzero((phases.indicator == -1) & g.in_omega))


def test_rescale_identity():
    g = grid_1d()
    params = FractionalParams(0.75, 0.5)
    pair = make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
    same = rescale_pair(pair, 1.0, params)
    assert np.array_equal(same.u.values, pair.u.values)
    assert np.array_equal(same.phases.indicator, pair.phases.indicator)
    assert same.grid.spec == pair.grid.spec


def test_rescale_value_prefactor():
    # s=0.75, sigma=0.5, r=4 -> prefactor 4^(0.25-0.75) = 0.5
    g = grid_1d()
    params = FractionalParams(0.75, 0.5)
    pair = make_pair(*sample_datum(constant_datum(2.0), g))
    scaled = rescale_pair(pair, 4.0, params)
    assert np.allclose(scaled.u.values, 2.0 * 0.5)
    assert scaled.grid.spec.half_width == pytest.approx(0.25)


def test_rescale_rejects_nonpositive():
    g = grid_1d()
    params = FractionalParams(0.75, 0.5)
    pair = make_pair(*sample_datum(constant_datum(1.0), g))
    with pytest.raises(InvalidScaleError):
        rescale_pair(pair, 0.0, params)
    with pytest.raises(InvalidScaleError):
        rescale_pair(pair, -2.0, params)


def test_rescale_preserves_admissibility_and_is_cellwise():
    g = grid_1d(m=16)
    params = FractionalParams(0.6, 0.4)
    pair = make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
    for r in (0.5, 2.0, 8.0):
        scaled = rescale_pair(pair, r, params)
        assert np.array_equal(scaled.phases.indicator, pair.phases.indicator)
        # u_r(x) = r^(sigma/2-s) u(rx) at mapped cell centers
        amp = r ** (0.5 * params.sigma - params.s)
        assert np.allclose(scaled.u.values, amp * pair.u.values)


def test_sampling_is_deterministic():
    spec = GridSpec(1, 1.0, 32, 64.0, 1.0)
    u1, p1 = sample_datum(halfspace_datum([1.0], 0.1), build_grid(spec))
    u2, p2 = sample_datum(halfspace_datum([1.0], 0.1), build_grid(spec))
    assert np.array_equal(u1.values, u2.values)
    assert np.array_equal(p1.indicator, p2.indicator)


def test_indicator_datum_matches_phase_cellwise():
    g = grid_1d(m=32)
    u, phases = sample_datum(halfspace_datum([1.0], 0.3), g)
    assert np.array_equal(u.values, phases.indicator.astype(float))
    assert set(np.unique(u.values)) <= {-1.0, 1.0}


def test_cone_datum_evaluates_homogeneous_profile():
    g = grid_1d(m=16)
    datum = cone_datum(0.5, (1.0, -1.0))
    u, phases = sample_datum(datum, g)
    x = g.centers[:, 0]
    expect = np.where(x >= 0, np.abs(x) ** 0.5, -np.abs(x) ** 0.5)
    assert np.allclose(u.values, expect)
    assert np.array_equal(phases.indicator, np.where(x >= 0, 1, -1))


def test_phase_set_rejects_bad_indicator():
    g = grid_1d()
    datum = halfspace_datum([1.0], 0.0)
    with pytest.raises(InvalidSpecError):
        PhaseSet(g, np.zeros(g.n_cells), datum)


@pytest.mark.parametrize("bad", [0.0, 2.0, 0.5, math.nan])
def test_phase_set_refuses_one_entry_other_than_plus_or_minus_one(bad):
    g = grid_1d()
    datum = halfspace_datum([1.0], 0.0)
    ind = np.where(g.centers[:, 0] > 0.0, 1.0, -1.0)
    PhaseSet(g, ind, datum)
    ind[3] = bad
    with pytest.raises(InvalidSpecError, match="exactly"):
        PhaseSet(g, ind, datum)


def test_sign_compatibility_checkable_by_sampling():
    from fracfree.model import ConstantF, ExteriorDatum, HalfspaceSet

    g = build_grid(GridSpec(1, 3.0, 40, 64.0, 3.0))
    make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
    # a negative constant paired with the half-line {x > 0} is incompatible
    # on every cell of that half-line
    bad = ExteriorDatum(ConstantF(-1.0), HalfspaceSet((1.0,), 0.0))
    with pytest.raises(AdmissibilityError) as info:
        make_pair(*sample_datum(bad, g))
    assert info.value.cells == np.flatnonzero(g.centers[:, 0] > 0.0).tolist()


def test_tabulated_datum_missing_coverage_errors():
    from fracfree import tabulated_datum
    from fracfree.errors import IncompleteDatumError
    from fracfree.model import FullSet

    datum = tabulated_datum((1.0, 2.0, 4.0), (1.0, 1.0), (1.0, 1.0), None, FullSet(1))
    with pytest.raises(IncompleteDatumError):
        datum.func.evaluate(np.array([[8.0]]))
    # tail moments also refuse: the energy would need values beyond 4
    g = grid_1d(m=8, L=1.0)
    from fracfree import assemble_table

    table = assemble_table(g, 0.5)
    with pytest.raises(IncompleteDatumError):
        table.function_tails(datum.func)
