import math

import numpy as np
import pytest

from fracfree import (
    FractionalParams,
    FreeBoundaryError,
    GridSpec,
    InvalidSpecError,
    OutOfRangeError,
    build_grid,
    constant_datum,
    halfspace_datum,
    make_pair,
    rescale_pair,
    sample_datum,
)
from fracfree.model import (
    BallSet,
    ConeF,
    ConstantF,
    DiscreteFunction,
    ExteriorDatum,
    HalfspaceSet,
    IndicatorF,
    PhaseSet,
    TabulatedF,
    ball_datum,
    cone_datum,
)
from fracfree.quadrature import datum_far_pieces
from fracfree.extension import (
    ExtendedField,
    HalfGrid,
    cone_defect,
    extend_scalar,
    extend_set,
    make_half_grid,
    shell_average,
    weighted_dirichlet,
    weiss_profile,
)


@pytest.fixture(scope="module")
def setup_1d():
    g = build_grid(GridSpec(1, 2.0, 64, 128.0, 1.0))
    hg = make_half_grid(g, top=1.3)
    return g, hg


@pytest.mark.parametrize("key, value", [
    ("ratio", 1.0), ("ratio", 0.9), ("z_first", -0.5), ("top", 0.0),
])
def test_make_half_grid_refuses_options_out_of_range(key, value):
    # ratio 1.0 divided by log(1), z_first -0.5 and top 0.0 took a log of a
    # negative ratio, and ratio 0.9 gave one level short of top
    g = build_grid(GridSpec(1, 2.0, 8, 128.0, 1.0))
    with pytest.raises(InvalidSpecError, match=f"^{key}: must be "):
        make_half_grid(g, **{key: value})


def test_constant_extension_is_exact(setup_1d):
    g, hg = setup_1d
    u, _ = sample_datum(constant_datum(2.5), g)
    f = extend_scalar(u, hg, 0.7)
    assert np.array_equal(f.values, np.full_like(f.values, 2.5))


def test_full_set_extension_is_one(setup_1d):
    g, hg = setup_1d
    _, phases = sample_datum(constant_datum(1.0), g)
    f = extend_set(phases, hg, 0.5)
    assert np.max(np.abs(f.values - 1.0)) < 1e-12


def test_indicator_extension_bounded(setup_1d):
    g, hg = setup_1d
    _, phases = sample_datum(halfspace_datum([1.0], 0.0), g)
    f = extend_set(phases, hg, 0.5)
    assert np.max(np.abs(f.values)) <= 1.0 + 1e-12
    # odd datum gives an odd extension up to quadrature symmetry
    mid = f.values[5]
    assert mid @ np.ones_like(mid) == pytest.approx(0.0, abs=1e-9)


def test_rows_preserve_constants_implies_unit_mass(setup_1d):
    # row normalization: extending u = 1 with any datum kind returns 1
    g, hg = setup_1d
    datum = ExteriorDatum(ConstantF(1.0), HalfspaceSet((1.0,), 0.0))
    u = DiscreteFunction(g, np.ones(g.n_cells), datum)
    f = extend_scalar(u, hg, 0.3)
    assert np.max(np.abs(f.values - 1.0)) < 1e-12


def test_half_disk_area_oracle():
    # f(x,z) = z with weight exponent 0 over the unit half-disk: the
    # gradient is identically 1 so the energy equals the area pi/2
    g = build_grid(GridSpec(1, 2.0, 128, 128.0, 2.0))
    hg = make_half_grid(g, ratio=1.05, top=1.2)
    z = np.concatenate([[0.0], hg.z_array()])
    fld = ExtendedField(hg, np.tile(z[:, None], (1, hg.padded_axis.size)), 0.0)
    area = weighted_dirichlet(fld, 1.0, a=0.0)
    assert area == pytest.approx(math.pi / 2.0, rel=5e-3)


def _annulus_fractions_by_box(hg, r_lo, r_hi):
    """annulus_fractions box by box: (z, x[, y]) centre and half-width
    vectors per node box, corner distances from explicit point vectors, and
    the s^(n+1) sub-sample points of each partial box written out."""
    s = 4
    ax, h, z = hg.padded_axis, hg.grid.h, hg.z_array()
    edges = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [z[-1]]])
    offs = (np.arange(s) + 0.5) / s - 0.5
    n = hg.grid.dimension
    out = np.zeros((z.size,) + (ax.size,) * n)
    for index in np.ndindex(out.shape):
        k = index[0]
        ctr = np.array([0.5 * (edges[k] + edges[k + 1])] + [ax[i] for i in index[1:]])
        half = np.array([0.5 * (edges[k + 1] - edges[k])] + [0.5 * h] * n)
        dmin = np.sqrt((np.maximum(np.abs(ctr) - half, 0.0) ** 2).sum())
        dmax = np.sqrt(((np.abs(ctr) + half) ** 2).sum())
        if dmin >= r_lo and dmax < r_hi:
            out[index] = 1.0
        elif not (dmax < r_lo or dmin >= r_hi):
            sub = np.array([[ctr[a] + 2.0 * half[a] * offs[j] for a, j in enumerate(js)]
                            for js in np.ndindex((s,) * (n + 1))])
            rr = np.sqrt((sub**2).sum(axis=1))
            out[index] = ((rr >= r_lo) & (rr < r_hi)).mean()
    return out


@pytest.mark.parametrize("dimension", [1, 2])
def test_annulus_fractions_match_a_box_by_box_reference_bit_for_bit(dimension):
    from fracfree.extension import annulus_fractions

    if dimension == 1:
        g = build_grid(GridSpec(1, 3.0, 24, 128.0, 2.5))
    else:
        g = build_grid(GridSpec(2, 3.0, 10, 128.0, 2.5))
    hg = make_half_grid(g, ratio=1.3, z_first=0.5 * g.h, levels=9, pad_cells=2)
    for r_lo, r_hi in ((0.0, 1.0), (0.0, 2.3), (0.7, 1.9), (1.55, 1.95)):
        got = annulus_fractions(hg, r_lo, r_hi)
        ref = _annulus_fractions_by_box(hg, r_lo, r_hi)
        assert np.array_equal(got, ref), (r_lo, r_hi)
        assert 0.0 < got.sum() and np.any((got > 0.0) & (got < 1.0))


@pytest.mark.parametrize("pad_cells", [-2, 1.5])
def test_half_grid_refuses_bad_padding(setup_1d, pad_cells):
    g, hg = setup_1d
    with pytest.raises(InvalidSpecError, match="pad_cells"):
        HalfGrid(g, hg.levels, pad_cells)


def test_dirichlet_radius_out_of_range(setup_1d):
    g, hg = setup_1d
    u, _ = sample_datum(constant_datum(1.0), g)
    f = extend_scalar(u, hg, 0.5)
    with pytest.raises(OutOfRangeError):
        weighted_dirichlet(f, 10.0)


def test_scalar_extension_homogeneous_degree():
    # cone datum of degree kappa: ubar(2X) = 2^kappa ubar(X) on matched nodes
    params = FractionalParams(0.625, 0.25)
    kappa = params.scaling_degree
    g1 = build_grid(GridSpec(1, 1.0, 64, 64.0, 1.0))
    g2 = build_grid(GridSpec(1, 2.0, 64, 128.0, 2.0))
    pair1 = make_pair(*sample_datum(cone_datum(kappa, (1.0, -1.0)), g1))
    pair2 = make_pair(*sample_datum(cone_datum(kappa, (1.0, -1.0)), g2))
    hg1 = make_half_grid(g1, levels=30)
    hg2 = make_half_grid(g2, levels=30)
    f1 = extend_scalar(pair1.u, hg1, params.s)
    f2 = extend_scalar(pair2.u, hg2, params.s)
    assert np.allclose(f2.values, 2.0**kappa * f1.values, rtol=1e-12, atol=1e-14)


def test_set_extension_homogeneous_degree_zero():
    # cone phase set: U(2X) = U(X) exactly on matched nodes
    g1 = build_grid(GridSpec(1, 1.0, 64, 64.0, 1.0))
    g2 = build_grid(GridSpec(1, 2.0, 64, 128.0, 2.0))
    _, p1 = sample_datum(halfspace_datum([1.0], 0.0), g1)
    _, p2 = sample_datum(halfspace_datum([1.0], 0.0), g2)
    hg1 = make_half_grid(g1, levels=30)
    hg2 = make_half_grid(g2, levels=30)
    f1 = extend_set(p1, hg1, 0.4)
    f2 = extend_set(p2, hg2, 0.4)
    assert np.allclose(f2.values, f1.values, rtol=0.0, atol=1e-13)


def test_harmonic_extension_optimality(setup_1d):
    # any compact bump strictly increases the weighted Dirichlet energy of
    # the Poisson extension (discrete shadow of the inf characterization)
    g, hg = setup_1d
    pair = make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
    f = extend_scalar(pair.u, hg, 0.6)
    base = weighted_dirichlet(f, 0.9)
    rng = np.random.RandomState(17)
    q, nx = f.values.shape
    for _ in range(5):
        bump = np.zeros((q, nx))
        k = rng.randint(3, q - 4)
        i = rng.randint(nx // 2 - 8, nx // 2 + 8)
        amp = 0.2 + 0.3 * rng.rand()
        bump[k - 1 : k + 2, i - 1 : i + 2] = amp
        zs = np.concatenate([[0.0], hg.z_array()])
        inside = zs[:, None] ** 2 + hg.padded_axis[None, :] ** 2 < 0.8**2
        bump = np.where(inside, bump, 0.0)
        bump[0] = 0.0  # fixed trace
        if not bump.any():
            continue
        perturbed = ExtendedField(hg, f.values + bump, f.weight_exponent)
        assert weighted_dirichlet(perturbed, 0.9) > base


def test_weiss_profile_requires_origin_on_boundary(setup_1d):
    g, hg = setup_1d
    params = FractionalParams(0.625, 0.25)
    pair = make_pair(*sample_datum(constant_datum(1.0), g))
    with pytest.raises(FreeBoundaryError):
        weiss_profile(pair, [0.5, 0.75], params, hg)


def test_weiss_profile_constant_for_homogeneous_pair():
    params = FractionalParams(0.575, 0.15, c_ratio=0.25)
    g = build_grid(GridSpec(1, 1.25, 256, 128.0, 1.0))
    pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
    hg = make_half_grid(g, ratio=1.08, z_first=0.25 * g.h, top=1.25)
    prof = weiss_profile(pair, np.linspace(0.25, 1.0, 7), params, hg)
    assert np.all(prof.phi == prof.g_values - prof.h_values)
    spread = (prof.phi.max() - prof.phi.min()) / np.abs(prof.phi).max()
    assert spread < 0.035  # acceptance runs the finer configuration


def test_weiss_scaling_identity_on_matched_grids():
    # Phi_u(r t) = Phi_{u_r}(t) to 1e-10 under dyadic rescaling
    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(1, 1.25, 128, 128.0, 1.0))
    pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
    hg = make_half_grid(g, ratio=1.10, z_first=0.25 * g.h, levels=55)
    r = 0.5
    scaled = rescale_pair(pair, r, params)
    hg_r = make_half_grid(scaled.grid, ratio=1.10,
                          z_first=0.25 * scaled.grid.h, levels=55)
    ts = np.array([0.5, 0.75, 1.0])
    prof_orig = weiss_profile(pair, r * ts, params, hg)
    prof_resc = weiss_profile(scaled, ts, params, hg_r)
    assert np.allclose(prof_resc.phi, prof_orig.phi, rtol=1e-10, atol=1e-12)


def test_cone_defect_smoke_1d():
    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(1, 6.0, 96, 384.0, 1.0))
    pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
    hg = make_half_grid(g, ratio=1.25, top=4.2, pad_cells=10)
    (val,) = cone_defect(pair, [4.0], hg, params)
    assert math.isfinite(val)


def test_cone_defect_requires_reach():
    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(1, 2.0, 32, 128.0, 1.0))
    pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
    hg = make_half_grid(g, top=1.3, pad_cells=2)
    with pytest.raises(OutOfRangeError):
        cone_defect(pair, [8.0], hg, params)


def _ball_pair_2d():
    """A 2D pair sampled from a ball-indicator datum, with its half grid:
    the moved rows of both fields take the point-rule far masses."""
    g = build_grid(GridSpec(2, 2.0, 4, 128.0, 1.5))
    hg = make_half_grid(g, ratio=1.8, z_first=0.25, levels=5, pad_cells=2)
    return make_pair(*sample_datum(ball_datum((0.5, -0.25), 3.0, -1), g)), hg


@pytest.mark.parametrize("dimension", [1, 2])
def test_pullback_is_identity_outside_cutoff(dimension):
    # nodes with |X| >= (3/4) R keep bit-identical values, for the scalar
    # and the set field alike, while nodes inside move
    from fracfree.extension import _lattice_points, _pullback

    params = FractionalParams(0.625, 0.25)
    if dimension == 1:
        g = build_grid(GridSpec(1, 6.0, 64, 384.0, 1.0))
        pair = make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
        hg = make_half_grid(g, ratio=1.3, top=4.5, pad_cells=8)
        r_cut = 4.0
    else:
        pair, hg = _ball_pair_2d()
        r_cut = 2.5
    fields = [
        (extend_scalar(pair.u, hg, params.s), pair.u.datum.func, 2.0 * params.s),
        (extend_set(pair.phases, hg, params.sigma), IndicatorF(pair.phases.datum.set_spec),
         params.sigma),
    ]
    z = np.concatenate([[0.0], hg.z_array()])
    r2 = (_lattice_points(hg) ** 2).sum(axis=1)
    rr = np.sqrt(z[:, None] ** 2 + r2).reshape(fields[0][0].values.shape)
    outside = rr >= 0.75 * r_cut
    for f, func, beta in fields:
        moved = _pullback(f, func, beta)(+1.0, r_cut).values
        assert np.array_equal(moved[outside], f.values[outside])
        assert not np.array_equal(moved, f.values)


def _halfplane_pair_2d():
    g = build_grid(GridSpec(2, 2.0, 6, 128.0, 1.5))
    hg = make_half_grid(g, ratio=1.6, z_first=0.25, levels=5, pad_cells=2)
    return make_pair(*sample_datum(halfspace_datum([1.0, 0.5], 0.2), g)), hg


@pytest.mark.parametrize("dimension, data", [
    (1, "halfspace"), (1, "ball"), (2, "halfspace"), (2, "ball"),
])
def test_pulled_fields_match_per_level_row_calls(dimension, data):
    # one batched row call for every moved node of every level equals the
    # extension row called level by level on that level's moved nodes
    from fracfree.extension import _cutoff, _lattice_points, _make_row, _pullback

    params = FractionalParams(0.625, 0.25)
    if dimension == 1:
        g = build_grid(GridSpec(1, 6.0, 64, 384.0, 1.0))
        datum = halfspace_datum([1.0], 0.3) if data == "halfspace" else ball_datum((0.4,), 2.0)
        pair = make_pair(*sample_datum(datum, g))
        hg = make_half_grid(g, ratio=1.3, top=4.5, pad_cells=8)
        r_cut = 4.0
    else:
        pair, hg = _halfplane_pair_2d() if data == "halfspace" else _ball_pair_2d()
        r_cut = 2.5
    src = _lattice_points(hg)
    for f, func, beta in [
        (extend_scalar(pair.u, hg, params.s), pair.u.datum.func, 2.0 * params.s),
        (extend_set(pair.phases, hg, params.sigma), IndicatorF(pair.phases.datum.set_spec),
         params.sigma),
    ]:
        row = _make_row(hg, f.trace, func, beta)
        for direction in (+1.0, -1.0):
            got = _pullback(f, func, beta)(direction, r_cut).values.reshape(len(hg.levels) + 1, -1)
            moved_any = False
            for k, z in enumerate(hg.z_array(), start=1):
                disp = direction * _cutoff(np.sqrt((src**2).sum(axis=1) + z * z) / r_cut)
                moved = disp != 0.0
                pts = src[moved]
                pts[:, 0] += disp[moved]
                ref = f.values.reshape(got.shape)[k].copy()
                ref[moved] = row(pts, np.full(pts.shape[0], z))
                assert np.max(np.abs(got[k] - ref)) <= 1e-14
                moved_any |= bool(moved.any())
            assert moved_any


def test_pulled_field_memory_stays_bounded():
    # a 64 x 64 padded lattice with about 1.1e4 moved nodes over 12 levels:
    # the batched 2D row works in blocks of about 2^17 distance entries, so
    # no (nodes x 4096) table is ever built
    import tracemalloc

    from fracfree.extension import _pullback

    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(2, 8.0, 60, 512.0, 7.5))
    pair = make_pair(*sample_datum(halfspace_datum([1.0, 0.0], 0.0), g))
    hg = make_half_grid(g, ratio=1.3, z_first=0.5 * g.h, levels=12, pad_cells=2)
    assert hg.padded_axis.size == 64
    field = extend_set(pair.phases, hg, params.sigma)
    pulled = _pullback(field, IndicatorF(pair.phases.datum.set_spec), params.sigma)
    tracemalloc.start()
    try:
        moved = pulled(+1.0, 6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(moved.values[1:] != field.values[1:]) > 10_000
    assert peak < 16 * 2**20, peak / 2**20


@pytest.mark.parametrize("dimension", [1, 2])
def test_cone_defect_radii_match_single_radius_calls(dimension):
    params = FractionalParams(0.625, 0.25)
    if dimension == 1:
        g = build_grid(GridSpec(1, 6.0, 96, 384.0, 1.0))
        pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
        hg = make_half_grid(g, ratio=1.25, top=4.2, pad_cells=10)
        radii = [1.0, 2.0, 4.0]
    else:
        pair, hg = _ball_pair_2d()
        radii = [1.25, 2.5]
    together = cone_defect(pair, radii, hg, params)
    apart = [cone_defect(pair, [r], hg, params)[0] for r in radii]
    assert together == apart
    assert all(d != 0.0 for d in together)


def test_cone_defect_checks_every_radius_before_building(monkeypatch):
    from fracfree import extension

    def no_build(*args):
        raise AssertionError("extension built before the reach check")

    monkeypatch.setattr(extension, "extend_scalar", no_build)
    monkeypatch.setattr(extension, "extend_set", no_build)
    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(1, 2.0, 32, 128.0, 1.0))
    pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
    hg = make_half_grid(g, top=1.3, pad_cells=2)
    with pytest.raises(OutOfRangeError):
        cone_defect(pair, [0.5, 8.0], hg, params)


def _indicator_pieces(set_spec, lp, v_plus, v_minus):
    """2D far-field pieces of a set with v_plus on it and v_minus beyond."""
    (_, pos), (_, neg) = datum_far_pieces(IndicatorF(set_spec), lp, 2)
    return [(v_plus, pos), (v_minus, neg)]


@pytest.mark.parametrize("set_spec, levels", [
    (HalfspaceSet((1.0, 2.0), 0.3), 8),      # exact far mass
    (BallSet((0.5, -0.25), 3.0, -1), 2),     # angular far masses
])
def test_lattice_convolution_matches_direct_rows(set_spec, levels):
    from fracfree.extension import _extend, _lattice_points, _make_row_2d

    g = build_grid(GridSpec(2, 2.0, 6, 128.0, 1.5))
    hg = make_half_grid(g, levels=levels, ratio=1.6, pad_cells=1)  # 8x8 lattice
    nx = hg.padded_axis.size
    trace = np.random.RandomState(5).uniform(-1.0, 1.0, (nx, nx))
    beta = 0.7
    pieces = _indicator_pieces(set_spec, hg.padded_half_width, 0.6, -0.9)
    fft_vals = _extend(hg, trace, pieces, beta)
    row = _make_row_2d(hg, trace, pieces, beta)
    pts = _lattice_points(hg)
    direct = np.stack([row(pts, z).reshape(nx, nx) for z in hg.z_array()])
    assert np.array_equal(fft_vals[0], trace)
    assert np.max(np.abs(fft_vals[1:] - direct)) < 1e-13


@pytest.mark.parametrize("cells, pad", [(32, 4), (512, 8)])
@pytest.mark.parametrize("beta", [0.3, 1.0, 1.7])
@pytest.mark.parametrize("func", [
    IndicatorF(HalfspaceSet((1.0,), 0.3)),                              # a half-line
    TabulatedF((1.0, 3.0, 5.0), (0.7, 0.3), (-0.2, -0.5), 0.4),         # shells
    ConeF(0.2, (1.0, -0.5)),                                            # stretch blocks
    ConstantF(0.37),
], ids=["halfline", "tabulated", "cone", "constant"])
def test_lattice_convolution_matches_direct_rows_1d(func, beta, cells, pad):
    # the 1D lattice rows, one FFT convolution of the exact cell masses per
    # level, against the direct CDF rows of the off-lattice evaluator
    from fracfree.extension import _extend, _far_pieces, _lattice_points, _make_row

    g = build_grid(GridSpec(1, 2.0, cells, 128.0, 1.5))
    hg = make_half_grid(g, levels=6, ratio=3.0, pad_cells=pad)
    nx = hg.padded_axis.size
    trace = np.random.RandomState(7).uniform(-1.0, 1.0, nx)
    fft_vals = _extend(hg, trace, _far_pieces(hg, func), beta)
    row = _make_row(hg, trace, func, beta)
    direct = np.stack([row(_lattice_points(hg), z) for z in hg.z_array()])
    assert np.array_equal(fft_vals[0], trace)
    assert np.max(np.abs(fft_vals[1:] - direct)) < 1e-13


def test_fast_len_is_the_next_five_smooth_size():
    from scipy.fft import next_fast_len

    from fracfree.extension import _fast_len

    assert [_fast_len(n) for n in range(1, 4097)] == [
        next_fast_len(n, real=True) for n in range(1, 4097)]


def test_std_mass_matches_closed_forms():
    # the one-variable kernel (1 + v^2)^(-(1+beta)/2) is the Student-t
    # density of df = beta at sqrt(beta) v; at beta = 1 it is Cauchy. v
    # reaches 1e8, as far as the stretch blocks of a cone datum do, where
    # the tails are still 1e-3 (beta = 0.3) to 3e-9 (beta = 1)
    from scipy.stats import t as student_t

    from fracfree.extension import _std_mass

    v = np.concatenate([-np.logspace(-3, 8, 45)[::-1], np.logspace(-3, 8, 45)])
    assert np.max(np.abs(_std_mass(v, 1.0) - (0.5 + np.arctan(v) / math.pi))) < 1e-14
    for beta in (0.3, 0.6, 1.5):
        ref = student_t.cdf(math.sqrt(beta) * v, df=beta)
        got = _std_mass(v, beta)
        assert np.max(np.abs(got - ref)) < 1e-14
        assert np.max(np.abs(got[v < 0] / ref[v < 0] - 1.0)) < 1e-13   # the tails
    for beta in (0.3, 1.0, 1.5):
        assert _std_mass(np.array([0.0, np.inf, -np.inf]), beta).tolist() == [0.5, 1.0, 0.0]


def _ball_far_masses_by_quad(p, lp, center, radius, cdf):
    """(mass outside the ball, mass inside the ball) beyond the box
    [-lp, lp]^2 seen from p: scipy quad in the direction on every arc
    between the directions to the box corners, to the points where the
    circle meets the box boundary and along the tangents from p."""
    from scipy.integrate import quad

    cx, cy = center
    feats = [(sx * lp, sy * lp) for sx in (-1, 1) for sy in (-1, 1)]
    for k in range(2):
        for edge in (-lp, lp):
            gap = radius**2 - (edge - center[k]) ** 2
            for sgn in ((-1.0, 1.0) if gap > 0.0 else ()):
                other = center[1 - k] + sgn * math.sqrt(gap)
                if abs(other) <= lp:
                    feats.append((edge, other) if k == 0 else (other, edge))
    angles = [math.atan2(y - p[1], x - p[0]) for x, y in feats]
    dist = math.hypot(cx - p[0], cy - p[1])
    if dist > radius:
        base = math.atan2(cy - p[1], cx - p[0])
        angles += [base - math.asin(radius / dist), base + math.asin(radius / dist)]
    brk = sorted({a % (2.0 * math.pi) for a in angles} | {0.0, 2.0 * math.pi})

    def ray(theta):
        c, s = math.cos(theta), math.sin(theta)
        exit_ = min((lp - p[0]) / c if c > 0 else (-lp - p[0]) / c if c < 0 else math.inf,
                    (lp - p[1]) / s if s > 0 else (-lp - p[1]) / s if s < 0 else math.inf)
        b = c * (cx - p[0]) + s * (cy - p[1])
        disc = b * b - (dist * dist - radius**2)
        inside = 0.0
        if disc > 0.0:
            lo, hi = max(b - math.sqrt(disc), exit_), b + math.sqrt(disc)
            if hi > lo:
                inside = cdf(lo) - cdf(hi)
        return cdf(exit_) - inside, inside

    out = np.zeros(2)
    for a0, a1 in zip(brk[:-1], brk[1:]):
        for k in range(2):
            out[k] += quad(lambda t: ray(t)[k], a0, a1, epsabs=0.0, epsrel=1e-13,
                           limit=200)[0]
    return out


def test_ball_far_masses_match_per_arc_quad():
    # the geometry of the ball case of the lattice test above: every node
    # of both levels, outside and inside the ball beyond the padded box
    from fracfree.extension import _lattice_points, _point_far_masses

    g = build_grid(GridSpec(2, 2.0, 6, 128.0, 1.5))
    hg = make_half_grid(g, levels=2, ratio=1.6, pad_cells=1)
    set_spec = BallSet((0.5, -0.25), 3.0, -1)
    beta, lp = 0.7, hg.padded_half_width
    pts = _lattice_points(hg)
    for z in hg.z_array():
        z = float(z)
        cdf = lambda t: z**beta * (t * t + z * z) ** (-0.5 * beta) / (2.0 * math.pi)
        far_pos, far_neg = _point_far_masses(
            pts, z, _indicator_pieces(set_spec, lp, 1.0, -1.0), lp, beta)
        ref = np.array([_ball_far_masses_by_quad(p, lp, set_spec.center,
                                                 set_spec.radius, cdf) for p in pts])
        assert np.max(np.abs(far_pos / ref[:, 0] - 1.0)) <= 1e-10
        assert np.max(np.abs(far_neg / ref[:, 1] - 1.0)) <= 1e-10


def test_cone_defect_reuses_annulus_fractions_bit_for_bit(monkeypatch):
    # one annulus_fractions call per radius, shared by the six energies,
    # and the defects are bit-identical to recomputing it in every call
    from fracfree import extension

    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(1, 6.0, 96, 384.0, 1.0))
    pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
    hg = make_half_grid(g, ratio=1.25, top=4.2, pad_cells=10)
    radii = [1.0, 2.0, 4.0]
    calls = []
    fractions = extension.annulus_fractions

    def counted(*args):
        calls.append(args[1:])
        return fractions(*args)

    monkeypatch.setattr(extension, "annulus_fractions", counted)
    shared = cone_defect(pair, radii, hg, params)
    assert calls == [(0.0, r) for r in radii]
    dirichlet = extension.weighted_dirichlet
    monkeypatch.setattr(extension, "weighted_dirichlet",
                        lambda field, r, a=None, frac=None: dirichlet(field, r, a))
    assert cone_defect(pair, radii, hg, params) == shared


def test_tabulated_shells_clip_at_the_box_and_gaps_are_refused():
    # energy tails at the box, 1D extension rows at the padded box: a table
    # starting inside the box is clipped there and matches the table that
    # starts at the box; one starting beyond leaves a gap and is refused
    from fracfree import IncompleteDatumError, assemble_table, tabulated_datum
    from fracfree.model import FullSet

    g = build_grid(GridSpec(1, 2.0, 8, 128.0, 1.0))
    table = assemble_table(g, 0.5)

    def datum(edges):
        return tabulated_datum(edges, (0.7, 0.3), (-0.2, -0.5), 0.4, FullSet(1))

    def extension(d, pad):
        u = DiscreteFunction(g, np.linspace(-0.3, 0.6, g.n_cells), d)
        return extend_scalar(u, make_half_grid(g, levels=4, pad_cells=pad), 0.4).values

    inside, at_box = datum((1.0, 3.0, 5.0)), datum((2.0, 3.0, 5.0))
    for a, b in zip(table.function_tails(inside.func), table.function_tails(at_box.func)):
        assert np.array_equal(a, b)
    for pad in (0, 1):   # padded half-width 2 and 2.5
        assert np.array_equal(extension(inside, pad), extension(at_box, pad))
    gap = datum((3.0, 4.0, 5.0))
    with pytest.raises(IncompleteDatumError, match=r"\(2, 3\)"):
        table.function_tails(gap.func)
    with pytest.raises(IncompleteDatumError, match=r"\(2, 3\)"):
        extension(gap, 0)
    # the padding (2, 2.5) is filled from the datum itself, so a first edge
    # inside it still leaves (2, 2.25) uncovered
    with pytest.raises(IncompleteDatumError, match=r"\(2, 2.25\)"):
        extension(datum((2.25, 3.0, 5.0)), 1)


def _reference_rows(hg, trace, pieces, pts, z, beta):
    """Off-lattice rows by an explicit loop over the source cells of
    c2 z^beta (d^2 + z^2)^(-(2+beta)/2) h^2, with the far step on top."""
    from fracfree.extension import _lattice_halfplanes, _normalized_rows

    h = hg.grid.h
    c2 = beta / (2.0 * math.pi)
    halfplanes = _lattice_halfplanes(pieces)
    sums = np.zeros((2 + len(halfplanes), pts.shape[0]))
    for p, (px, py) in enumerate(pts):
        for i, sx in enumerate(hg.padded_axis):
            for j, sy in enumerate(hg.padded_axis):
                w = c2 * z**beta * ((px - sx) ** 2 + (py - sy) ** 2 + z * z) ** (
                    -0.5 * (2.0 + beta)) * h * h
                sums[0, p] += w * trace[i, j]
                sums[1, p] += w
                for k, term in enumerate(halfplanes):
                    side = term.normal[0] * sx + term.normal[1] * sy - term.offset
                    sums[2 + k, p] += w * (side > 0.0)
    return _normalized_rows(pts, z, list(sums), halfplanes, pieces,
                            hg.padded_half_width, beta)


@pytest.mark.parametrize("set_spec", [
    HalfspaceSet((1.0, 2.0), 0.3),          # exact far mass
    BallSet((0.5, -0.25), 3.0, -1),         # point-rule far masses
])
def test_off_lattice_rows_match_a_per_point_reference(set_spec):
    # lattice nodes displaced by random x-shifts within half a cell, as the
    # pulled nodes of the cone-defect probe are, and kept inside the padded
    # box as the point rule needs
    from fracfree.extension import _lattice_points, _make_row_2d

    g = build_grid(GridSpec(2, 2.0, 6, 128.0, 1.5))
    hg = make_half_grid(g, levels=2, ratio=1.6, pad_cells=1)  # 8x8 lattice
    nx = hg.padded_axis.size
    rng = np.random.RandomState(11)
    trace = rng.uniform(-1.0, 1.0, (nx, nx))
    pts = _lattice_points(hg)
    pts[:, 0] += 0.5 * g.h * rng.uniform(-1.0, 1.0, pts.shape[0])
    beta = 0.7
    pieces = _indicator_pieces(set_spec, hg.padded_half_width, 0.6, -0.9)
    row = _make_row_2d(hg, trace, pieces, beta)
    for z in hg.z_array():
        ref = _reference_rows(hg, trace, pieces, pts, float(z), beta)
        assert np.max(np.abs(row(pts, z) - ref)) <= 1e-13
    const = datum_far_pieces(ConstantF(0.37), hg.padded_half_width, 2)
    flat = _make_row_2d(hg, np.full((nx, nx), 0.37), const, beta)
    for z in hg.z_array():
        assert np.max(np.abs(flat(pts, z) - 0.37)) <= 1e-15


def test_cone_defect_reuses_unmoved_gradients_bit_for_bit(monkeypatch):
    # the cone2d pair: u = 0 is never moved, so ubar keeps one gradient for
    # every radius and direction; uset is computed once plus once per
    # displaced copy: 2 + 3 radii x 2 directions, not 3 x 3 x 2
    params = FractionalParams(0.75, 0.5)
    g = build_grid(GridSpec(2, 6.0, 16, 384.0, 5.5))
    set_spec = HalfspaceSet((1.0, 0.0), 0.0)
    datum = ExteriorDatum(ConstantF(0.0), set_spec)
    pair = make_pair(DiscreteFunction(g, np.zeros(g.n_cells), datum),
                     PhaseSet(g, set_spec.membership(g.centers), datum))
    hg = make_half_grid(g, ratio=1.3, z_first=0.375, levels=12, pad_cells=3)
    radii = [1.0, 2.0, 4.0]
    gradient = ExtendedField.gradient_squared
    computed = []

    def counted(field):
        if field._grad2 is None:
            computed.append(field)
        return gradient(field)

    monkeypatch.setattr(ExtendedField, "gradient_squared", counted)
    cached = cone_defect(pair, radii, hg, params)
    assert len(computed) == 8

    def uncached(field):
        field._grad2 = None
        return gradient(field)

    monkeypatch.setattr(ExtendedField, "gradient_squared", uncached)
    assert cone_defect(pair, radii, hg, params) == cached


@pytest.mark.parametrize("dimension", [1, 2])
def test_annulus_sums_skip_zero_fractions_bit_for_bit(dimension):
    # the half-ball integrals sum only nodes with a nonzero annulus
    # fraction; the exactly rounded sum equals that of the full node array
    from fracfree.extension import annulus_fractions
    from fracfree.numerics import ordered_sum

    g = build_grid(GridSpec(dimension, 1.0, 16 if dimension == 1 else 8, 64.0, 1.0))
    hg = make_half_grid(g, ratio=1.2, top=0.9)
    datum = halfspace_datum([1.0] + [0.5] * (dimension - 1), 0.1)
    field = extend_set(sample_datum(datum, g)[1], hg, 0.6)
    wz_shape = (-1,) + (1,) * dimension
    h_n = g.h ** dimension
    for r in (0.4, 0.8):
        frac = annulus_fractions(hg, 0.0, r)
        assert (frac == 0.0).any() and (frac > 0.0).any()
        wz = hg.z_bin_integrals(field.weight_exponent).reshape(wz_shape)
        full = ordered_sum(field.gradient_squared() * frac * wz * h_n)
        assert weighted_dirichlet(field, r) == full
        h = 0.5 * g.h
        frac = annulus_fractions(hg, r - 0.5 * h, r + 0.5 * h)
        wz = hg.z_bin_integrals(0.3).reshape(wz_shape)
        full = ordered_sum(field.values[1:] ** 2 * frac * wz * h_n / h)
        assert shell_average(field, r, 0.3, width_cells=0.5) == full
