import math

import numpy as np
import pytest

from fracfree import (
    GeometryError,
    GridSpec,
    ParameterError,
    assemble_table,
    build_grid,
    cell_pair_weight,
    tail_weight,
)
from fracfree.numerics import set_worker_cap
from fracfree.quadrature import (
    Region1D,
    _cell_perimeter,
    _HalfplaneTerm,
    _line_cell_tail,
    _pair_weight_polar_2d,
    _subdivided_pair_weight_1d,
    interval_region,
    ray_region,
    set_exterior_regions,
)
from fracfree.model import BallSet, FullSet, HalfspaceSet, SectorSet

C1 = ((0.0,), (1.0,))
C2 = ((1.0,), (2.0,))


def test_touching_golden_value():
    # closed form: 8 - 4*sqrt(2)
    w = cell_pair_weight(C1, C2, 0.5)
    assert w == pytest.approx(8.0 - 4.0 * math.sqrt(2.0), rel=1e-12)


def test_far_pair_value_and_midpoint_consistency():
    w = cell_pair_weight(C1, ((10.0,), (11.0,)), 0.5)
    # exact value is within 0.5% of the bare midpoint estimate 10^-1.5
    assert w == pytest.approx(10.0**-1.5, rel=5e-3)


def test_pair_symmetry():
    for alpha in (0.3, 0.5, 1.0, 1.5):
        a = cell_pair_weight(C1, ((3.0,), (4.0,)), alpha)
        b = cell_pair_weight(((3.0,), (4.0,)), C1, alpha)
        assert a == b


def test_same_cell_convention_and_errors():
    assert cell_pair_weight(C1, C1, 0.5) == 0.0
    with pytest.raises(GeometryError):
        cell_pair_weight(C1, ((0.5,), (1.5,)), 0.5)
    with pytest.raises(ParameterError):
        cell_pair_weight(C1, C2, 2.5)
    with pytest.raises(ParameterError):
        cell_pair_weight(C1, C2, -0.1)


def test_tail_golden_value():
    t = tail_weight(C1, ray_region(2.0, +1), 0.5)
    assert t == pytest.approx(4.0 * math.sqrt(2.0) - 4.0, rel=1e-12)


def test_tail_empty_region_is_zero():
    assert tail_weight(C1, Region1D(()), 0.5) == 0.0


def test_tail_monotone_under_translation():
    prev = math.inf
    for a in (2.0, 3.0, 5.0, 9.0):
        t = tail_weight(C1, ray_region(a, +1), 0.5)
        assert t < prev
        prev = t


def test_tail_overlap_is_geometry_error():
    with pytest.raises(GeometryError):
        tail_weight(C1, ray_region(0.5, +1), 0.5)


def test_1d_subdivision_cross_checks_closed_form():
    # the depth-d midpoint regularization approaches the closed form at the
    # documented geometric rate 2^(-depth*(1-alpha))
    for alpha in (0.3, 0.5, 0.7):
        exact = cell_pair_weight(C1, C2, alpha)
        sub = _subdivided_pair_weight_1d(0.0, 1.0, 1.0, 2.0, alpha, 12)
        bound = 2.0 * 2.0 ** (-12 * (1.0 - alpha)) * exact
        assert abs(sub - exact) <= bound


def test_2d_separated_pair_against_frozen_oracle():
    # adaptive 4D quadrature oracle (scipy.integrate.dblquad nested), frozen:
    # cells [0,1]^2 and [2,3]x[0,1], alpha = 0.5
    oracle = 0.20328767214612803
    w = cell_pair_weight(((0.0, 0.0), (1.0, 1.0)), ((2.0, 0.0), (3.0, 1.0)), 0.5)
    assert w == pytest.approx(oracle, rel=1e-10)


def test_2d_touching_pairs_against_frozen_oracle():
    # tent-reduced scipy.dblquad oracles for touching unit cells
    cases = {
        (0.3, "edge"): 2.596530240877,
        (0.5, "edge"): 3.647087515503,
        (0.9, "edge"): 19.379525542461,
        (0.3, "corner"): 0.659904814657,
        (0.5, "corner"): 0.676008398686,
        (0.9, "corner"): 0.756731413012,
    }
    for (alpha, kind), oracle in cases.items():
        if kind == "edge":
            w = cell_pair_weight(((0.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (2.0, 1.0)), alpha)
        else:
            w = cell_pair_weight(((0.0, 0.0), (1.0, 1.0)), ((1.0, 1.0), (2.0, 2.0)), alpha)
        assert w == pytest.approx(oracle, rel=5e-8), (alpha, kind)


def test_2d_scaling_identity():
    r = 2.0
    for alpha in (0.5, 0.75):
        w1 = cell_pair_weight(((0.0, 0.0), (1.0, 1.0)), ((3.0, 2.0), (4.0, 3.0)), alpha)
        w2 = cell_pair_weight(
            ((0.0, 0.0), (r, r)), ((3.0 * r, 2.0 * r), (4.0 * r, 3.0 * r)), alpha
        )
        assert abs(w2 - r ** (2.0 - alpha) * w1) <= 1e-12 * abs(w2)


def test_1d_scaling_identity_touching():
    r = 4.0
    for alpha in (0.25, 0.5, 1.2):
        w1 = cell_pair_weight(C1, C2, alpha)
        w2 = cell_pair_weight(((0.0,), (r,)), ((r,), (2 * r,)), alpha)
        assert abs(w2 - r ** (1.0 - alpha) * w1) <= 1e-12 * abs(w2)


def test_assemble_table_counts_and_symmetry():
    g = build_grid(GridSpec(1, 1.0, 4, 64.0, 1.0))
    table = assemble_table(g, 0.5)
    # 10 unordered weights for 4 cells, symmetric by construction
    n = g.n_cells
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    assert len(pairs) == 10
    for i, j in pairs:
        assert table.pair_weight(i, j) == table.pair_weight(j, i)
        if i != j:
            assert table.pair_weight(i, j) > 0.0
        else:
            assert table.pair_weight(i, j) == 0.0


def test_dense_matrix_matches_direct_weights():
    g = build_grid(GridSpec(1, 1.0, 8, 64.0, 1.0))
    table = assemble_table(g, 0.6)
    dense = table.dense_matrix()
    for i in (0, 3, 7):
        for j in (0, 2, 5):
            direct = cell_pair_weight(
                (g.centers[i] - g.h / 2, g.centers[i] + g.h / 2),
                (g.centers[j] - g.h / 2, g.centers[j] + g.h / 2),
                0.6,
            )
            assert dense[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_assemble_table_thread_count_invariance():
    g = build_grid(GridSpec(2, 1.0, 6, 64.0, 1.0))
    set_worker_cap(1)
    t1 = assemble_table(g, 0.5)
    set_worker_cap(4)
    t4 = assemble_table(g, 0.5)
    set_worker_cap(1)
    assert np.array_equal(t1.offset_weights, t4.offset_weights)


def test_table_scaled_grid_weights():
    # W(r C_i, r C_j) = r^(n - alpha) W(C_i, C_j) within 1e-12
    alpha = 0.5
    g1 = build_grid(GridSpec(1, 1.0, 16, 64.0, 1.0))
    g2 = build_grid(GridSpec(1, 2.0, 16, 128.0, 2.0))
    t1 = assemble_table(g1, alpha)
    t2 = assemble_table(g2, alpha)
    ratio = 2.0 ** (1.0 - alpha)
    assert np.allclose(t2.offset_weights[1:], ratio * t1.offset_weights[1:], rtol=1e-12)


def test_table_cache_roundtrip(tmp_path):
    g = build_grid(GridSpec(1, 1.0, 16, 64.0, 1.0))
    t1 = assemble_table(g, 0.5, cache_dir=str(tmp_path))
    files = list(tmp_path.glob("ktable-*.npz"))
    assert len(files) == 1
    t2 = assemble_table(g, 0.5, cache_dir=str(tmp_path))
    assert np.array_equal(t1.offset_weights, t2.offset_weights)
    # different exponent gets its own entry
    assemble_table(g, 0.7, cache_dir=str(tmp_path))
    assert len(list(tmp_path.glob("ktable-*.npz"))) == 2
    # header is validated, not trusted blindly
    import json
    with np.load(files[0]) as payload:
        header = json.loads(str(payload["header"]))
    assert header["alpha"] == 0.5 and header["m"] == 16 and header["version"] >= 1


@pytest.mark.parametrize("keep", [0, 100])
def test_table_cache_recomputes_truncated_file(tmp_path, keep):
    g = build_grid(GridSpec(1, 1.0, 16, 64.0, 1.0))
    fresh = assemble_table(g, 0.5)
    assemble_table(g, 0.5, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    path.write_bytes(path.read_bytes()[:keep])
    rebuilt = assemble_table(g, 0.5, cache_dir=str(tmp_path))
    assert np.array_equal(rebuilt.offset_weights, fresh.offset_weights)
    # the rewritten file is whole and replaced the truncated one in place
    assert list(tmp_path.iterdir()) == [path]
    reread = assemble_table(g, 0.5, cache_dir=str(tmp_path))
    assert np.array_equal(reread.offset_weights, fresh.offset_weights)


def test_table_cache_version_bump_invalidates(tmp_path, monkeypatch):
    g = build_grid(GridSpec(1, 1.0, 8, 64.0, 1.0))
    t1 = assemble_table(g, 0.5, cache_dir=str(tmp_path))
    from fracfree import quadrature as q

    monkeypatch.setattr(q, "CACHE_VERSION", q.CACHE_VERSION + 1)
    t2 = assemble_table(g, 0.5, cache_dir=str(tmp_path))  # recomputes, re-stores
    assert np.array_equal(t1.offset_weights, t2.offset_weights)
    assert len(list(tmp_path.glob("ktable-*.npz"))) == 2


def test_set_exterior_regions_halfspace():
    g = build_grid(GridSpec(1, 1.0, 8, 64.0, 1.0))
    pos, neg = set_exterior_regions(HalfspaceSet((1.0,), 0.0), g)
    assert pos.pieces == ((1.0, math.inf),)
    assert neg.pieces == ((-math.inf, -1.0),)


def test_set_exterior_regions_ball_split():
    g = build_grid(GridSpec(1, 1.0, 8, 64.0, 1.0))
    pos, neg = set_exterior_regions(BallSet((0.0,), 2.0), g)
    assert pos.pieces == ((1.0, 2.0), (-2.0, -1.0))
    assert neg.pieces == ((2.0, math.inf), (-math.inf, -2.0))


def test_full_set_regions():
    g = build_grid(GridSpec(1, 1.0, 8, 64.0, 1.0))
    pos, neg = set_exterior_regions(FullSet(1), g)
    assert pos.pieces == ((1.0, math.inf), (-math.inf, -1.0))
    assert neg.is_empty()


def test_tolerance_refinement_is_stable():
    # halving tol never changes a weight by more than the previous tol
    cell_a = ((0.0, 0.0), (1.0, 1.0))
    cell_b = ((2.0, 1.0), (3.0, 2.0))
    for alpha in (0.5, 1.2):
        tol = 1e-6
        prev = cell_pair_weight(cell_a, cell_b, alpha, tol=tol)
        for _ in range(4):
            tol *= 0.5
            cur = cell_pair_weight(cell_a, cell_b, alpha, tol=tol)
            assert abs(cur - prev) <= 2.0 * tol * abs(prev)
            prev = cur


def test_tail_weight_2d_halfplane_against_1d_marginal():
    # kernel tails of a 2D halfplane {x0 > a} from a unit cell reduce to a
    # 1D integral; cross-check against midpoint-refined reference
    alpha = 0.5
    g = build_grid(GridSpec(2, 1.0, 4, 64.0, 1.0))
    pos, neg = set_exterior_regions(HalfspaceSet((1.0, 0.0), 0.0), g)
    cell = (np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    t = tail_weight(cell, pos, alpha, tol=1e-8)
    # brute reference: dense midpoint grid over the half-plane strip
    xs = np.linspace(-0.25, 0.25, 8) + 0.25 / 8
    xs = xs[:-1]
    ref = 0.0
    hq = 0.5 / 7
    # integrate kernel against region numerically in polar around each node
    from fracfree.quadrature import point_region_integral
    for x0 in xs:
        for x1 in xs:
            ref += point_region_integral((x0, x1), pos, alpha, tol=1e-9) * hq * hq
    assert t == pytest.approx(ref, rel=2e-2)


# ---------------------------------------------------------------------------
# 2D touching pairs and exterior tails against independent references

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("delta", [(1.0, 0.0), (1.0, 1.0)], ids=["edge", "corner"])
def test_touching_pair_weight_converged_at_order_12(alpha, delta):
    # arcs split at every kink direction of the tent: the ray integral is
    # smooth on each, so order 12 already agrees with order 48
    h = np.array([1.0, 1.0])
    lo = _pair_weight_polar_2d(np.array(delta), h, h, alpha, order=12)
    hi = _pair_weight_polar_2d(np.array(delta), h, h, alpha, order=48)
    assert abs(lo - hi) <= 1e-14 * hi


def _halfplane_identity(grid, table, normal, offset):
    """(computed, expected) tails of the cells on each side of the line
    normal . y = offset (normal a signed unit axis vector) against the
    other side minus the box. Integrated along the line, the kernel is
    C |d|^-(1+alpha) with C = sqrt(pi) G((1+alpha)/2) / G((2+alpha)/2), so
    the whole opposite half-plane has the closed-form marginal below; the
    in-box part of it is the pair weights to the opposite cells."""
    from scipy.special import gamma

    alpha, h = table.alpha, grid.h
    c = math.sqrt(math.pi) * gamma(0.5 * (1.0 + alpha)) / gamma(0.5 * (2.0 + alpha))
    side = grid.centers @ np.asarray(normal) - offset
    d1 = np.abs(side) - 0.5 * h
    d1[np.abs(d1) <= 1e-12 * h] = 0.0
    d2 = d1 + h
    p = 1.0 - alpha
    marginal = c * h * (d2**p - d1**p) / (alpha * p)
    outside = side < 0.0
    opposite = outside[None, :] != outside[:, None]
    expected = marginal - (table.dense_matrix() * opposite).sum(axis=1)
    pos, neg = set_exterior_regions(HalfspaceSet(tuple(normal), offset), grid)
    got = np.where(outside, table.region_tails(pos), table.region_tails(neg))
    return got, expected


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("m", [2, 4])
def test_2d_tails_match_halfplane_marginal(alpha, m):
    g = build_grid(GridSpec(2, 1.0, m, 64.0, 1.0))
    table = assemble_table(g, alpha)
    h = g.h
    for normal, offset in [((1.0, 0.0), 0.0), ((-1.0, 0.0), 0.0),
                           ((1.0, 0.0), h), ((-1.0, 0.0), -h),
                           ((0.0, 1.0), 0.0), ((0.0, -1.0), 0.0)]:
        got, expected = _halfplane_identity(g, table, normal, offset)
        err = np.max(np.abs(got - expected) / np.abs(expected))
        assert err <= 1e-9, (normal, offset, err)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_2d_halfplane_marginal_against_line_engine(alpha):
    # the same closed-form expectation, against the line engine cell by
    # cell: region_tails now serves these lines from that very identity
    for m in (2, 4):
        g = build_grid(GridSpec(2, 1.0, m, 64.0, 1.0))
        table = assemble_table(g, alpha)
        h = g.h
        for normal, offset in [((1.0, 0.0), 0.0), ((-1.0, 0.0), 0.0),
                               ((1.0, 0.0), h), ((-1.0, 0.0), -h),
                               ((0.0, 1.0), 0.0), ((0.0, -1.0), 0.0)]:
            _, expected = _halfplane_identity(g, table, normal, offset)
            pos, neg = set_exterior_regions(HalfspaceSet(normal, offset), g)
            outside = g.centers @ np.asarray(normal) - offset < 0.0
            got = np.array([
                tail_weight((c - 0.5 * h, c + 0.5 * h), pos if out else neg, alpha,
                            tol=table.tol)
                for c, out in zip(g.centers, outside)
            ])
            err = np.max(np.abs(got - expected) / np.abs(expected))
            assert err <= 1e-9, (m, normal, offset, err)


# ---------------------------------------------------------------------------
# 2D tails by identity: cell perimeter, whole plane, half-planes on grid lines

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_cell_perimeter_against_line_engine(alpha):
    # the cell against its own exterior is the line engine with the box
    # shrunk to the cell; the width 0.37 also checks the h^(2-alpha) law
    for h in (1.0, 0.37):
        lo, hi = np.full(2, -0.5 * h), np.full(2, 0.5 * h)
        ref = _line_cell_tail(lo, hi, 0.5 * h, None, alpha, 1e-12)
        assert _cell_perimeter(h, alpha) == pytest.approx(ref, rel=1e-12)


def _line_engine_tails(g, table, term, cells):
    h = g.h
    return np.array([
        _line_cell_tail(g.centers[i] - 0.5 * h, g.centers[i] + 0.5 * h,
                        g.spec.half_width, term, table.alpha, table.tol)
        for i in cells
    ])


@pytest.mark.parametrize("m, alpha", [(m, a) for m in (2, 4) for a in (0.3, 0.5, 0.8)]
                         + [(12, 0.5)])
def test_identity_tails_match_line_engine(m, alpha):
    g = build_grid(GridSpec(2, 1.0, m, 64.0, 1.0))
    table = assemble_table(g, alpha)
    L, h = g.spec.half_width, g.h
    # the whole plane, x > 0, x < 0, y > -L + h, and a line beyond the box
    for term in [None, _HalfplaneTerm((1.0, 0.0), 0.0), _HalfplaneTerm((-1.0, 0.0), 0.0),
                 _HalfplaneTerm((0.0, 1.0), -L + h), _HalfplaneTerm((1.0, 0.0), 1.5 * L)]:
        got = table._term_tails_2d(L, term)
        ref = _line_engine_tails(g, table, term, range(g.n_cells))
        err = np.max(np.abs(got - ref) / np.abs(ref))
        assert err <= table.tol, (term, err)


@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_identity_whole_plane_tails_on_the_centre_row(alpha):
    # the centre row of a 24 x 24 grid sees almost all of Per(C) inside the
    # box, so its whole-plane tails cancel the most digits
    m = 24
    g = build_grid(GridSpec(2, 1.0, m, 64.0, 1.0))
    table = assemble_table(g, alpha)
    row = np.arange(m) * m + m // 2
    got = table._term_tails_2d(g.spec.half_width, None)[row]
    ref = _line_engine_tails(g, table, None, row)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= table.tol


@pytest.mark.parametrize("set_spec", [HalfspaceSet((1.0, 0.0), 0.25),
                                      HalfspaceSet((1.0, 2.0), 0.3)],
                         ids=["off-grid-line", "oblique"])
def test_uncovered_halfplanes_take_the_line_engine(set_spec):
    # x = h/2 cuts cells and an oblique line is off the grid: both must be
    # the per-cell line engine, bit for bit
    g = build_grid(GridSpec(2, 1.0, 4, 64.0, 1.0))
    table = assemble_table(g, 0.5)
    pos, _ = set_exterior_regions(set_spec, g)
    got = table.region_tails(pos)
    h = g.h
    ref = [tail_weight((c - 0.5 * h, c + 0.5 * h), pos, 0.5, tol=table.tol)
           for c in g.centers]
    assert got.tolist() == ref


def test_2d_tail_of_a_ball_outside_the_box_against_tensor_gauss():
    from fracfree.quadrature import Region2D, _BallTerm

    alpha = 0.6
    center, radius = np.array([2.5, 1.0]), 1.2
    region = Region2D(1.0, ((1.0, _BallTerm(tuple(center), radius)),))
    cell = (np.array([0.25, -0.5]), np.array([1.0, 0.25]))
    got = tail_weight(cell, region, alpha, tol=1e-12)
    # separated pair: Gauss over the cell, Gauss in the radius and the
    # periodic trapezoid rule in the angle over the ball
    xs, wx = np.polynomial.legendre.leggauss(24)
    xr, wr = np.polynomial.legendre.leggauss(24)
    lo, hi = cell
    px = 0.5 * (lo[0] + hi[0]) + 0.5 * (hi[0] - lo[0]) * xs
    py = 0.5 * (lo[1] + hi[1]) + 0.5 * (hi[1] - lo[1]) * xs
    wcell = np.outer(wx, wx).ravel() * 0.25 * np.prod(hi - lo)
    pts = np.stack(np.meshgrid(px, py, indexing="ij"), axis=-1).reshape(-1, 2)
    r = 0.5 * radius * (xr + 1.0)
    t = 2.0 * math.pi * np.arange(96) / 96
    ys = center + np.stack([np.outer(r, np.cos(t)), np.outer(r, np.sin(t))], axis=-1)
    wball = (np.outer(0.5 * radius * wr * r, np.full(96, 2.0 * math.pi / 96))).ravel()
    ys = ys.reshape(-1, 2)
    dist = np.linalg.norm(pts[:, None, :] - ys[None, :, :], axis=-1)
    ref = wcell @ dist ** (-(2.0 + alpha)) @ wball
    assert got == pytest.approx(ref, rel=1e-10)


def _rotate_cell(cell):
    lo, hi = (np.asarray(v, dtype=float) for v in cell)
    return np.array([-hi[1], lo[0]]), np.array([-lo[1], hi[0]])


@pytest.mark.parametrize("set_spec, turned", [
    (HalfspaceSet((1.0, 2.0), 0.3), HalfspaceSet((-2.0, 1.0), 0.3)),
    (SectorSet(2, ((0.3, 2.2),)), SectorSet(2, ((0.3 + 0.5 * math.pi, 2.2 + 0.5 * math.pi),))),
], ids=["oblique-halfplane", "sector"])
def test_2d_tails_scale_and_rotate(set_spec, turned):
    alpha, r = 0.55, 2.0
    g = build_grid(GridSpec(2, 1.0, 4, 64.0, 1.0))
    g_r = build_grid(GridSpec(2, r, 4, 64.0 * r, r))
    pos, _ = set_exterior_regions(set_spec, g)
    pos_r, _ = set_exterior_regions(set_spec.rescaled(1.0 / r), g_r)
    pos_t, _ = set_exterior_regions(turned, g)
    for cell in [((-1.0, -1.0), (-0.5, -0.5)), ((0.0, 0.5), (0.5, 1.0)),
                 ((-0.5, 0.0), (0.0, 0.5))]:
        base = tail_weight(cell, pos, alpha, tol=1e-12)
        assert base > 0.0
        scaled = tail_weight((r * np.array(cell[0]), r * np.array(cell[1])), pos_r,
                             alpha, tol=1e-12)
        assert scaled == pytest.approx(r ** (2.0 - alpha) * base, rel=1e-11)
        rotated = tail_weight(_rotate_cell(cell), pos_t, alpha, tol=1e-12)
        assert rotated == pytest.approx(base, rel=1e-11)


def test_2d_tails_at_alpha_above_one_keep_their_regularization():
    # alpha >= 1: the depth-6 midpoint leaves, each integrated by the
    # converged point rule, bit for bit as frozen; within 1e-6 of the
    # values the same leaves gave under a capped uniform angle rule, so
    # the regularization itself is unchanged
    g = build_grid(GridSpec(2, 1.0, 2, 64.0, 1.0))
    pos, _ = set_exterior_regions(HalfspaceSet((1.0, 0.0), 0.0), g)
    tails = assemble_table(g, 1.2).region_tails(pos)
    g4 = build_grid(GridSpec(2, 1.0, 4, 64.0, 1.0))
    ball, _ = set_exterior_regions(BallSet((0.0, 0.0), 2.0), g4)
    cell = (np.array([-0.5, -0.5]), np.array([0.0, 0.0]))
    got = list(tails) + [tail_weight(cell, ball, 1.5)]
    assert [v.hex() for v in got] == [
        "0x1.1846e8ad66cd5p+1", "0x1.1846e8ad66cd5p+1",
        "0x1.0fd6ffd637eaep+5", "0x1.0fd6ffd637eaep+5",
        "0x1.69b835f6b1d39p-1",
    ]
    capped = [float.fromhex(v) for v in (
        "0x1.1846eb8f7974bp+1", "0x1.1846eb8f7974ep+1",
        "0x1.0fd6ffb478904p+5", "0x1.0fd6ffb47890ap+5",
        "0x1.69b836f019d5dp-1",
    )]
    assert np.allclose(got, capped, rtol=1e-6, atol=0.0)


def test_2d_touching_pairs_at_alpha_above_one_are_midpoint_values():
    g = build_grid(GridSpec(2, 1.0, 4, 64.0, 1.0))
    h, alpha = g.h, 1.2
    table = assemble_table(g, alpha)
    edge = h ** (2.0 - alpha)
    corner = h ** (2.0 - alpha) * math.sqrt(2.0) ** (-(2.0 + alpha))
    assert table.offset_weights[0, 1] == edge and table.offset_weights[1, 0] == edge
    assert table.offset_weights[1, 1] == corner
    cell = ((0.0, 0.0), (h, h))
    assert cell_pair_weight(cell, ((h, 0.0), (2.0 * h, h)), alpha) == edge
    assert cell_pair_weight(cell, ((h, h), (2.0 * h, 2.0 * h)), alpha) == corner


def test_region_tails_worker_cap_invariance():
    g = build_grid(GridSpec(2, 1.0, 4, 64.0, 1.0))
    pos, neg = set_exterior_regions(HalfspaceSet((1.0, 2.0), 0.3), g)
    for alpha in (0.5, 1.2):
        try:
            set_worker_cap(1)
            one = [assemble_table(g, alpha).region_tails(r) for r in (pos, neg)]
            set_worker_cap(4)
            four = [assemble_table(g, alpha).region_tails(r) for r in (pos, neg)]
        finally:
            set_worker_cap(1)
        for a, b in zip(one, four):
            assert np.array_equal(a, b)


def test_angular_quadrature_warns_at_its_cap(monkeypatch):
    from fracfree import quadrature as q

    monkeypatch.setattr(q, "LINE_ORDER_MAX", 16)
    g = build_grid(GridSpec(2, 1.0, 2, 64.0, 1.0))
    pos, _ = set_exterior_regions(HalfspaceSet((1.0, 0.0), 0.0), g)
    with pytest.warns(RuntimeWarning, match="point integral stopped at order 16"):
        q.point_region_integral((-0.5, -0.5), pos, 0.5, tol=1e-15)


def test_line_tail_warns_at_its_order_cap(monkeypatch):
    from fracfree import quadrature as q

    monkeypatch.setattr(q, "LINE_ORDER_MAX", 16)
    g = build_grid(GridSpec(2, 1.0, 2, 64.0, 1.0))
    pos, _ = set_exterior_regions(HalfspaceSet((1.0, 0.0), 0.0), g)
    cell = (np.array([-1.0, -1.0]), np.array([0.0, 0.0]))
    with pytest.warns(RuntimeWarning, match="order 16"):
        tail_weight(cell, pos, 0.8, tol=1e-15)


def test_2d_tail_of_a_ball_across_the_box_boundary_against_tensor_gauss():
    from fracfree.quadrature import Region2D, _BallTerm

    alpha = 0.7
    center, radius = np.array([0.5, 0.9]), 0.8
    region = Region2D(1.0, ((1.0, _BallTerm(tuple(center), radius)),))
    lo, hi = np.array([-0.5, -0.5]), np.array([0.0, 0.0])
    got = tail_weight((lo, hi), region, alpha, tol=1e-12)
    # the ball minus the box, in polar coordinates about the centre: along
    # each direction from the box exit to the radius, split where the exit
    # turns the corner (1, 1); the region runs from the right edge to the
    # top edge, where the circle meets them
    xs, wx = np.polynomial.legendre.leggauss(24)
    xp, wp = np.polynomial.legendre.leggauss(48)
    xr, wr = np.polynomial.legendre.leggauss(32)
    px = 0.5 * (lo[0] + hi[0]) + 0.5 * (hi[0] - lo[0]) * xs
    py = 0.5 * (lo[1] + hi[1]) + 0.5 * (hi[1] - lo[1]) * xs
    pts = np.stack(np.meshgrid(px, py, indexing="ij"), axis=-1).reshape(-1, 2)
    wcell = np.outer(wx, wx).ravel() * 0.25 * np.prod(hi - lo)
    right = math.atan2(-math.sqrt(radius**2 - 0.25), 0.5)
    corner = math.atan2(0.1, 0.5)
    top = math.atan2(0.1, -math.sqrt(radius**2 - 0.01))
    ref = 0.0
    for a0, a1 in ((right, corner), (corner, top)):
        phi = 0.5 * (a0 + a1) + 0.5 * (a1 - a0) * xp
        c, s = np.cos(phi), np.sin(phi)
        with np.errstate(divide="ignore"):
            r_exit = np.minimum(np.where(c > 0.0, (1.0 - center[0]) / c, np.inf),
                                np.where(s > 0.0, (1.0 - center[1]) / s, np.inf))
        r = r_exit[:, None] + (radius - r_exit)[:, None] * 0.5 * (xr + 1.0)
        w = 0.5 * (a1 - a0) * wp[:, None] * (radius - r_exit)[:, None] * 0.5 * wr * r
        ys = center + np.stack([r * c[:, None], r * s[:, None]], axis=-1).reshape(-1, 2)
        dist = np.linalg.norm(pts[:, None, :] - ys[None, :, :], axis=-1)
        ref += wcell @ dist ** (-(2.0 + alpha)) @ w.ravel()
    assert got == pytest.approx(ref, rel=1e-11)
