import math

import numpy as np
import pytest

from fracfree import (
    FractionalParams,
    FreeBoundaryError,
    GridSpec,
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
    ConstantF,
    DiscreteFunction,
    ExteriorDatum,
    HalfspaceSet,
    cone_datum,
)
from fracfree.extension import (
    ExtendedField,
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


def test_pullback_is_identity_outside_cutoff():
    # nodes with |X| >= (3/4) R keep bit-identical values
    from fracfree.extension import _field_evaluators, _pulled_values

    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(1, 6.0, 64, 384.0, 1.0))
    pair = make_pair(*sample_datum(halfspace_datum([1.0], 0.0), g))
    hg = make_half_grid(g, ratio=1.3, top=4.5, pad_cells=8)
    f = extend_set(pair.phases, hg, params.sigma)
    _, ev_e = _field_evaluators(pair, hg, params)
    moved = _pulled_values(f, ev_e, +1.0, 4.0)
    z = np.concatenate([[0.0], hg.z_array()])
    rr = np.sqrt(z[:, None] ** 2 + hg.padded_axis[None, :] ** 2)
    outside = rr >= 0.75 * 4.0
    assert np.array_equal(moved[outside], f.values[outside])


def test_cone_defect_radii_match_single_radius_calls():
    params = FractionalParams(0.625, 0.25)
    g = build_grid(GridSpec(1, 6.0, 96, 384.0, 1.0))
    pair = make_pair(*sample_datum(cone_datum(params.scaling_degree, (1.0, -1.0)), g))
    hg = make_half_grid(g, ratio=1.25, top=4.2, pad_cells=10)
    radii = [1.0, 2.0, 4.0]
    together = cone_defect(pair, radii, hg, params)
    apart = [cone_defect(pair, [r], hg, params)[0] for r in radii]
    assert together == apart


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


@pytest.mark.parametrize("set_spec, levels", [
    (HalfspaceSet((1.0, 2.0), 0.3), 8),      # exact far mass
    (BallSet((0.5, -0.25), 3.0, -1), 2),     # angular far masses
])
def test_lattice_convolution_matches_direct_rows(set_spec, levels):
    from fracfree.extension import _extend_2d, _lattice_points, _make_row_2d

    g = build_grid(GridSpec(2, 2.0, 6, 128.0, 1.5))
    hg = make_half_grid(g, levels=levels, ratio=1.6, pad_cells=1)  # 8x8 lattice
    nx = hg.padded_axis.size
    trace = np.random.RandomState(5).uniform(-1.0, 1.0, (nx, nx))
    beta = 0.7
    fft_vals = _extend_2d(hg, trace, set_spec, 0.6, -0.9, beta)
    row = _make_row_2d(hg, trace, set_spec, 0.6, -0.9, beta)
    pts = _lattice_points(hg)
    direct = np.stack([row(pts, z).reshape(nx, nx) for z in hg.z_array()])
    assert np.array_equal(fft_vals[0], trace)
    assert np.max(np.abs(fft_vals[1:] - direct)) < 1e-13


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
    from fracfree.extension import _lattice_points, _poisson_region_masses

    g = build_grid(GridSpec(2, 2.0, 6, 128.0, 1.5))
    hg = make_half_grid(g, levels=2, ratio=1.6, pad_cells=1)
    set_spec = BallSet((0.5, -0.25), 3.0, -1)
    beta, lp = 0.7, hg.padded_half_width
    pts = _lattice_points(hg)
    for z in hg.z_array():
        z = float(z)
        cdf = lambda t: z**beta * (t * t + z * z) ** (-0.5 * beta) / (2.0 * math.pi)
        far_pos, far_neg = _poisson_region_masses(pts, z, set_spec, lp, beta)
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
