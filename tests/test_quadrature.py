import math
import warnings

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
from fracfree.numerics import ordered_sum, set_worker_cap
from fracfree.quadrature import (
    Region1D,
    Region2D,
    _cell_perimeter,
    _chord_mass,
    _HalfplaneTerm,
    _line_cell_tail,
    _offsets_1d,
    _pair_weight_polar_2d,
    _point_term_mass,
    datum_far_pieces,
    interval_region,
    ray_region,
    set_exterior_regions,
)
from fracfree.model import (
    BallSet,
    ConstantF,
    FullSet,
    HalfspaceSet,
    IndicatorF,
    SectorSet,
    TabulatedF,
)

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


def test_region_tails_refuse_a_region_of_the_other_dimension():
    g1 = build_grid(GridSpec(1, 1.0, 4, 64.0, 1.0))
    g2 = build_grid(GridSpec(2, 1.0, 2, 64.0, 1.0))
    for grid, region in ((g2, ray_region(1.0, +1)), (g1, Region2D(1.0, ((1.0, None),)))):
        with pytest.raises(GeometryError):
            assemble_table(grid, 0.5).region_tails(region)


def _subdivided_pair_weight_1d(a, b, c, d, alpha, depth):
    """Dyadic subdivision of a touching 1D pair with midpoint leaves, the
    independent reference for the touching closed form at alpha < 1. Each
    split leaves one touching sub-pair; the separated ones are exact."""
    def pair(a, b, c, d):
        return float(_chord_mass(c - b, b - a, alpha) - _chord_mass(d - b, b - a, alpha))

    parts = []
    for _ in range(depth):
        am, cm = 0.5 * (a + b), 0.5 * (c + d)
        parts += [pair(a, am, c, cm), pair(a, am, cm, d), pair(am, b, cm, d)]
        a, d = am, cm
    parts.append((b - a) * (d - c) * (0.5 * (c + d) - 0.5 * (a + b)) ** (-(1.0 + alpha)))
    return ordered_sum(parts)


def _point_region_integral(p, region, alpha, tol=1e-8):
    """Integral of |p-y|^(-(2+alpha)) over a 2D exterior region, by the
    split-arc point rule with the radial mass t^(-alpha)/alpha."""
    pts = np.asarray(p, dtype=float).reshape(1, 2)
    cdf = lambda t: t ** (-alpha) / alpha
    return ordered_sum([coef * _point_term_mass(pts, np.ones(1), region.box_half, term,
                                                cdf, tol)
                        for coef, term in region.terms])


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


NEAR_ONE = 1.0 - 2.0**-20


@pytest.mark.parametrize("alpha", [0.1, 0.3, NEAR_ONE, 1.0, 1.2, 1.9])
def test_1d_far_offsets_match_a_50_digit_reference(alpha):
    # W_k = h^p (2k^p - (k-1)^p - (k+1)^p) / (alpha p), p = 1 - alpha, is the
    # exact pair weight; at 50 digits its cancellation (about k^2) is harmless
    # (alpha = 1 takes the limit of the log form). cell_pair_weight of unit
    # cells k apart must give the same weight at h = 1.
    from decimal import Decimal, localcontext

    m, h = 4096, 0.1
    ks = [2, 3, 5, 10, 100, 1000, 2500, 4000, m - 1]
    offsets = _offsets_1d(m, h, alpha)[ks]
    pairs = np.array([cell_pair_weight(C1, ((float(k),), (k + 1.0,)), alpha) for k in ks])
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        p = 1 - a

        def exact(k, hh):
            k = Decimal(k)
            if p == 0:
                return float(2 * k.ln() - (k - 1).ln() - (k + 1).ln())
            second = 2 * k**p - (k - 1) ** p - (k + 1) ** p
            return float(hh**p * second / (a * p))

        reference = np.array([exact(k, Decimal(h)) for k in ks])
        unit = np.array([exact(k, Decimal(1)) for k in ks])
    assert np.all(reference > 0.0)
    for got, ref in ((offsets, reference), (pairs, unit)):
        rel = np.abs(got - ref) / ref
        assert rel.max() <= 2e-15, rel


def _decimal_chord_mass(u, w, a):
    """((u + w)^p - u^p) / (a p), p = 1 - a, in the current decimal context;
    log((u + w) / u) at a = 1, 0 at u = inf (None)."""
    if u is None:
        return 0
    p = 1 - a
    if p == 0:
        return ((u + w) / u).ln()
    return ((u + w) ** p - u**p) / (a * p)


@pytest.mark.parametrize("alpha", [0.3, 0.999, NEAR_ONE, 1.0, 1.2, 1.9])
def test_1d_tails_match_a_50_digit_reference(alpha):
    # the cell [0, h] against a ray, a doubling shell and a one-cell interval
    # at gaps u of 1 to 2000 cells, on either side: each is the chord-mass
    # difference F(u) - F(far), evaluated at 50 digits; the one-cell interval
    # cancels about log10(u / h) digits of it
    from decimal import Decimal, localcontext

    h = 2.0**-10
    cell = ((0.0,), (h,))
    for g in (1, 2, 3, 10, 100, 1000, 2000):
        u = g * h
        cases = {  # far end of each piece, as a gap from the cell
            "ray": (math.inf, None, 4e-15),
            "shell": (2.0 * u, 2 * Decimal(u), 4e-15),
            "one cell": (u + h, Decimal(u + h), 1e-12),
        }
        for name, (far, far_dec, tol) in cases.items():
            with localcontext() as ctx:
                ctx.prec = 50
                a, hh = Decimal(alpha), Decimal(h)
                exact = float(_decimal_chord_mass(Decimal(u), hh, a)
                              - _decimal_chord_mass(far_dec, hh, a))
            for piece in ((h + u, h + far), (-far, -u)):
                got = tail_weight(cell, Region1D((piece,)), alpha)
                assert abs(got - exact) <= tol * exact, (name, g, piece, got, exact)


@pytest.mark.parametrize("alpha", [1.0, 1.0 + 2.0**-20, 1.2, 1.9])
def test_1d_touching_tails_match_their_convention_at_50_digits(alpha):
    # alpha >= 1: DEPTH_1D dyadic slabs of the cell toward the contact point,
    # slab k of width and gap h 2^-(k+1), and h 2^-DEPTH_1D times the kernel
    # mass seen from the midpoint of the last sliver
    from decimal import Decimal, localcontext

    from fracfree.quadrature import DEPTH_1D

    h = 2.0**-10
    cell = ((0.0,), (h,))
    for length in (math.inf, h, 1000.0 * h):
        with localcontext() as ctx:
            ctx.prec = 50
            a, hh = Decimal(alpha), Decimal(h)
            ell = None if math.isinf(length) else Decimal(length)
            parts = []
            for k in range(DEPTH_1D):
                gap = hh / 2 ** (k + 1)
                parts.append(_decimal_chord_mass(gap, gap, a)
                             - _decimal_chord_mass(None if ell is None else ell + gap, gap, a))
            sliver = hh / 2**DEPTH_1D
            r = sliver / 2
            point = r ** (-a) - (0 if ell is None else (r + ell) ** (-a))
            exact = float(sum(parts) + sliver * point / a)
        for piece in ((h, h + length), (-length, 0.0)):
            got = tail_weight(cell, Region1D((piece,)), alpha)
            assert abs(got - exact) <= 1e-15 * exact, (length, piece, got, exact)


@pytest.mark.parametrize("alpha", [0.3, 1.2])
def test_grid_neighbours_touch_across_roundoff_gaps(alpha):
    # h = 0.3 / 1024 is not dyadic: neighbours built as centre -+ h/2 meet
    # with gaps of about 1e-17, which must not split them apart
    g = build_grid(GridSpec(1, 0.3, 2048, 128.0, 0.2))
    table = assemble_table(g, alpha)
    lo, hi = g.centers[:, 0] - 0.5 * g.h, g.centers[:, 0] + 0.5 * g.h
    assert np.any(lo[1:] != hi[:-1])
    touch = table.offset_weights[1]
    for i in range(g.n_cells - 1):
        got = cell_pair_weight(((lo[i],), (hi[i],)), ((lo[i + 1],), (hi[i + 1],)), alpha)
        assert abs(got - touch) <= 1e-12 * touch, (i, got, touch)


def test_assemble_table_counts_and_symmetry():
    g = build_grid(GridSpec(1, 1.0, 4, 64.0, 1.0))
    table = assemble_table(g, 0.5)
    # 10 unordered weights for 4 cells, symmetric by construction
    dense = table.dense_matrix()
    n = g.n_cells
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    assert len(pairs) == 10
    for i, j in pairs:
        assert dense[i, j] == dense[j, i]
        if i != j:
            assert dense[i, j] > 0.0
        else:
            assert dense[i, j] == 0.0


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


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.2])
def test_2d_table_offsets_are_cell_pair_weights(alpha):
    # h = 1/4, so that the grid's cells have equal widths and neighbours
    # touch exactly in floating point
    g = build_grid(GridSpec(2, 0.75, 6, 64.0, 0.75))
    table = assemble_table(g, alpha)
    dense = table.dense_matrix()
    for i in range(g.n_cells):
        for j in range(i + 1, g.n_cells):
            direct = cell_pair_weight((g.centers[i] - g.h / 2, g.centers[i] + g.h / 2),
                                      (g.centers[j] - g.h / 2, g.centers[j] + g.h / 2),
                                      alpha, tol=table.tol)
            assert abs(dense[i, j] / direct - 1.0) <= 1e-14, (i, j)
    # an offset's weight does not depend on the grid it was batched with
    small = assemble_table(build_grid(GridSpec(2, 1.0, 8, 64.0, 1.0)), alpha)
    large = assemble_table(build_grid(GridSpec(2, 2.0, 16, 128.0, 1.0)), alpha)
    assert np.array_equal(small.offset_weights, large.offset_weights[:8, :8])


def test_2d_touching_cells_of_roundoff_widths_match_the_table():
    # cells cut from linspace(-1, 1, 7) are 1/3 wide only to roundoff, and
    # their tent kinks missed each other by as much: 3.4e-8 off at alpha 0.5
    alpha = 0.5
    e = np.linspace(-1.0, 1.0, 7)
    offs = assemble_table(build_grid(GridSpec(2, 1.0, 6, 64.0, 1.0)), alpha).offset_weights
    for i in range(5):
        for j in range(5):
            a = ((e[i], e[j]), (e[i + 1], e[j + 1]))
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                if i + di < 6 and j + dj < 6:
                    b = ((e[i + di], e[j + dj]), (e[i + di + 1], e[j + dj + 1]))
                    want = offs[di, dj]
                    got = cell_pair_weight(a, b, alpha)
                    assert abs(got - want) <= 1e-14 * want, (i, j, di, dj, got, want)


def test_table_scaled_grid_weights():
    # W(r C_i, r C_j) = r^(n - alpha) W(C_i, C_j) within 1e-12
    alpha = 0.5
    g1 = build_grid(GridSpec(1, 1.0, 16, 64.0, 1.0))
    g2 = build_grid(GridSpec(1, 2.0, 16, 128.0, 2.0))
    t1 = assemble_table(g1, alpha)
    t2 = assemble_table(g2, alpha)
    ratio = 2.0 ** (1.0 - alpha)
    assert np.allclose(t2.offset_weights[1:], ratio * t1.offset_weights[1:], rtol=1e-12)


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
    for x0 in xs:
        for x1 in xs:
            ref += _point_region_integral((x0, x1), pos, alpha, tol=1e-9) * hq * hq
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
        _point_region_integral((-0.5, -0.5), pos, 0.5, tol=1e-15)


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


_FAR_DATA_1D = [
    ConstantF(-0.7),
    IndicatorF(HalfspaceSet((1.0,), 0.3), 0.4),
    IndicatorF(BallSet((0.3,), 2.7), -1.3),
    IndicatorF(FullSet(1)),
    IndicatorF(FullSet(-1)),
    TabulatedF((2.0, 3.0, 5.0), (0.7, 0.3), (-0.2, -0.5), 0.4),
    TabulatedF((1.0, 3.0, 5.0), (0.7, 0.3), (-0.2, -0.5), 0.4),   # clipped at L
]
_FAR_DATA_2D = [
    ConstantF(0.7),
    IndicatorF(HalfspaceSet((1.0, 2.0), 0.3)),
    IndicatorF(BallSet((0.5, -0.25), 1.5)),
    IndicatorF(BallSet((0.5, -0.25), 1.5, -1)),
    IndicatorF(SectorSet(2, ((0.3, 2.2),))),
]


@pytest.mark.parametrize("dim, func", [(1, f) for f in _FAR_DATA_1D]
                         + [(2, f) for f in _FAR_DATA_2D])
def test_far_pieces_partition_the_box_exterior(dim, func):
    m = 16 if dim == 1 else 4
    g = build_grid(GridSpec(dim, 2.0, m, 128.0, 1.0))
    L = g.spec.half_width
    whole = Region1D(((L, math.inf), (-math.inf, -L))) if dim == 1 else Region2D(L, ((1.0, None),))
    for alpha in ((0.5, 1.2) if dim == 1 else (0.5,)):
        table = assemble_table(g, alpha)
        pieces = datum_far_pieces(func, L, dim)
        total = sum(table.region_tails(region) for _, region in pieces)
        ref = table.region_tails(whole)
        assert np.max(np.abs(total / ref - 1.0)) <= 1e-13
        t0, m1, _ = table.function_tails(func)
        assert np.array_equal(t0, total)
        assert np.allclose(m1, sum(v * table.region_tails(r) for v, r in pieces),
                           rtol=1e-15, atol=0.0)


def test_tabulated_first_moment_against_quad():
    # M1_i = integral of the datum against the cell kernel, by scipy quad
    # on every shell; the first table starts inside the box (clipped)
    from scipy.integrate import quad

    alpha = 0.5
    g = build_grid(GridSpec(1, 2.0, 8, 128.0, 1.0))
    L, h = g.spec.half_width, g.h
    func = TabulatedF((1.0, 3.0, 5.0), (0.7, 0.3), (-0.2, -0.5), 0.4)
    _, m1, _ = assemble_table(g, alpha).function_tails(func)
    cuts = [L, 3.0, 5.0, math.inf]
    for i, x in enumerate(g.centers[:, 0]):
        e, f = x - 0.5 * h, x + 0.5 * h
        ref = 0.0
        for sign in (1.0, -1.0):
            def integrand(t, sign=sign):
                y = sign * t  # |y| = t beyond the box on that side
                kern = (abs(y - f) ** -alpha - abs(y - e) ** -alpha) * sign / alpha
                return func.evaluate(np.array([[y]]))[0] * kern
            for a, b in zip(cuts[:-1], cuts[1:]):
                ref += quad(integrand, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        assert m1[i] == pytest.approx(ref, rel=1e-9)


def _mp_ray_moment(mp, e, f, q, alpha, L, touch):
    """int_L^inf t^q k(t) dt at 30 digits, k the kernel mass of the cell
    [e, f] seen from t. A touching cell at alpha >= 1 takes its convention:
    the cell minus its last 2^-DEPTH_1D sliver, exactly, plus the sliver's
    midpoint mass. Beyond T = 16 L the kernel is its binomial series in
    1/t, integrated term by term; below it, Gauss-Legendre on intervals
    growing geometrically from the nearest singularity."""
    from fracfree.quadrature import DEPTH_1D

    a, q, L, e, f = (mp.mpf(v) for v in (alpha, q, L, e, f))
    delta = (f - e) / 2**DEPTH_1D if touch else 0
    near, mid = f - delta, f - delta / 2
    gn, ge, gm = L - near, L - e, L - mid

    def k(v):  # t^q k(t) at t = L + v
        val = ((v + gn) ** -a - (v + ge) ** -a) / a
        if touch:
            val += delta * (v + gm) ** (-1 - a)
        return (L + v) ** q * val

    T = 16 * L
    total = sum(mp.rf(a, j) / mp.factorial(j) * (near**j - e**j)
                * T ** (q - a - j + 1) / (a * (a + j - 1 - q)) for j in range(1, 60))
    if touch:
        total += delta * sum(mp.rf(1 + a, j) / mp.factorial(j) * mid**j
                             * T ** (q - a - j) / (a + j - q) for j in range(60))
    s = gm if touch else gn
    pts = [0]
    if s == 0:
        # touching at alpha < 1: v = y^(1/p) removes the v^-alpha singularity
        s, p = (f - e) / 2**14, 1 - a
        total += mp.quad(lambda y: k(y ** (1 / p)) * y ** (1 / p - 1) / p, [0, s**p])
        pts = []
    while s < T - L:
        pts.append(s)
        s *= 4
    return total + mp.quad(k, pts + [T - L], method="gauss-legendre")


@pytest.mark.parametrize("alpha, m", [(0.3, 16), (0.6, 16), (1.0, 16), (1.2, 16),
                                      (1.6, 16), (1.2, 64)])
def test_homogeneous_profile_moments_match_30_digits(alpha, m):
    # M_p = sum over the sides of (amp g)^p int_L^inf t^(kappa p) k(t) dt,
    # the left side's cells reflected; kappa runs from 0 to just below
    # alpha / 2 (M2) and alpha (M1), with both profile signs
    mp = pytest.importorskip("mpmath")
    from fracfree.model import ConeF

    L = 1.0
    g = build_grid(GridSpec(1, L, m, 64.0, 1.0))
    e, f = g.centers[:, 0] - 0.5 * g.h, g.centers[:, 0] + 0.5 * g.h
    tables = [(assemble_table(g, alpha, tol=1e-12), 1e-11), (assemble_table(g, alpha), 1e-9)]
    cases = [(0.0, (1, 2)), (0.49 * alpha, (1, 2)), (0.98 * alpha, (1,))]
    refs = {}
    with mp.workdps(30):
        for q in {kappa * p for kappa, powers in cases for p in powers}:
            # the left side of cell i is the right side of its mirror image
            right = [_mp_ray_moment(mp, e[i], f[i], q, alpha, L, alpha >= 1.0 and i == m - 1)
                     for i in range(m)]
            refs[q] = (right, right[::-1])
    for kappa, powers in cases:
        for profile in ((1.0, -0.5), (-0.75, 1.25)):
            func = ConeF(kappa, profile, amp=1.5)
            for table, bound in tables:
                moments = table.function_tails(func, need_m2=len(powers) == 2)[1:]
                for p, got in zip(powers, moments):
                    (right, left), (cp, cm) = refs[kappa * p], (1.5 * v for v in profile)
                    ref = [cp**p * r + cm**p * s for r, s in zip(right, left)]
                    scale = [abs(cp) ** p * r + abs(cm) ** p * s for r, s in zip(right, left)]
                    err = max(float(abs(x - r) / s) for x, r, s in zip(got, ref, scale))
                    assert err <= bound, (kappa, profile, p, table.tol, err)


@pytest.mark.parametrize("fraction", [0.997, 0.999])
def test_homogeneous_profile_moments_converge_near_the_integrability_limit(fraction):
    # M2 at a degree within 0.3% of its limit alpha / 2, at tol 1e-12: order
    # 128 stops with relative changes 3.5e-12 and 5.2e-11 and warns (an
    # error here); order 256 settles both
    mp = pytest.importorskip("mpmath")
    from fracfree.model import ConeF

    alpha, m, L = 0.3, 16, 1.0
    g = build_grid(GridSpec(1, L, m, 64.0, 1.0))
    e, f = g.centers[:, 0] - 0.5 * g.h, g.centers[:, 0] + 0.5 * g.h
    kappa = fraction * alpha / 2.0
    _, m1, m2 = assemble_table(g, alpha, tol=1e-12).function_tails(
        ConeF(kappa, (1.0, -0.5), amp=1.5))
    with mp.workdps(30):
        for p, got in ((1, m1), (2, m2)):
            right = [_mp_ray_moment(mp, e[i], f[i], kappa * p, alpha, L, False)
                     for i in range(m)]
            ref = [1.5**p * r + (-0.75) ** p * s for r, s in zip(right, right[::-1])]
            scale = [1.5**p * r + 0.75**p * s for r, s in zip(right, right[::-1])]
            err = max(float(abs(x - r) / s) for x, r, s in zip(got, ref, scale))
            assert err <= 1e-11, (p, err)


def test_homogeneous_profile_moments_warn_at_their_order_cap(monkeypatch):
    from fracfree import quadrature as q
    from fracfree.model import ConeF

    monkeypatch.setattr(q, "_MOMENT_ORDER_MAX", 16)
    table = assemble_table(build_grid(GridSpec(1, 1.0, 16, 64.0, 1.0)), 0.6)
    with pytest.warns(RuntimeWarning, match="homogeneous-profile moments stopped at order 16"):
        table.function_tails(ConeF(0.2, (1.0, 0.5)))


def test_homogeneous_profile_moments_need_an_integrable_degree():
    # M1 exists for degree < alpha, M2 for 2 * degree < alpha
    from fracfree.errors import IncompleteDatumError
    from fracfree.model import ConeF

    table = assemble_table(build_grid(GridSpec(1, 1.0, 8, 64.0, 1.0)), 0.6)
    _, m1, m2 = table.function_tails(ConeF(0.4, (1.0, 1.0)), need_m2=False)
    assert np.all(m1 > 0.0) and m2 is None
    for degree, need_m2 in ((0.6, False), (0.3, True)):
        with pytest.raises(IncompleteDatumError):
            table.function_tails(ConeF(degree, (1.0, 1.0)), need_m2=need_m2)


def test_homogeneous_profile_sides_add_up_and_share_the_ray_tails():
    # a side with g = 0 adds nothing, and T0 is the table's two-ray tails
    from fracfree.model import ConeF

    g = build_grid(GridSpec(1, 1.0, 16, 64.0, 1.0))
    for alpha in (0.6, 1.2):
        table = assemble_table(g, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            right, left, both = (table.function_tails(ConeF(0.2, profile))
                                 for profile in ((1.0, 0.0), (0.0, -2.0), (1.0, -2.0)))
        rays = table.region_tails(Region1D(((1.0, math.inf), (-math.inf, -1.0))))
        for t0, m1, m2 in (right, left, both):
            assert np.array_equal(t0, rays)
        np.testing.assert_allclose(right[1] + left[1], both[1], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(right[2] + left[2], both[2], rtol=1e-14, atol=0.0)


def test_2d_cells_overlapping_by_roundoff_still_overlap():
    # the 1D touching snap leaves 2D cells alone
    h = 0.3 / 1024
    a = ((0.0, 0.0), (h, h))
    b = ((h * (1.0 - 2.0**-50), 0.0), (2.0 * h, h))
    assert b[0][0] < a[1][0]
    with pytest.raises(GeometryError):
        cell_pair_weight(a, b, 0.5)


def _mp_near_pair_weight(mp, gap, alpha):
    """Weight of the unit cells [0,1]^2 and [1+gap, 2+gap] x [0,1] at the
    working precision: the tent reduction with the w2 integral in closed
    form, int_0^1 (1 - w2)(w1^2 + w2^2)^q dw2 with q = -(2+alpha)/2, and
    tanh-sinh in w1 on panels doubling away from the near corner."""
    g, q = mp.mpf(gap), -(2 + mp.mpf(alpha)) / 2
    d = 1 + g

    def inner(w1):
        return (w1 ** (2 * q) * mp.hyp2f1(-q, 0.5, 1.5, -1 / (w1 * w1))
                - ((w1 * w1 + 1) ** (q + 1) - w1 ** (2 * q + 2)) / (2 * (q + 1)))

    panels = [g * 2**k for k in range(60) if g * 2**k < d] + [d, d + 1]
    return 2 * mp.quad(lambda w1: (1 - abs(w1 - d)) * inner(w1), panels)


@pytest.mark.parametrize("gap, alpha", [("1e-3", 0.5), ("1e-6", 0.5), ("1e-3", 1.2)])
def test_near_separated_2d_pairs_match_30_digits(gap, alpha):
    # tensor Gauss stalls this near the kernel singularity (at gap 1e-3,
    # alpha 0.5 its order-32 value 3.3680820 is 0.4% off); the weight must
    # meet tol, and a warning (an error under tier-1) would fail the test
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = _mp_near_pair_weight(mp, gap, alpha)
    g = float(gap)
    for tol in (1e-9, 1e-11):
        got = cell_pair_weight(((0.0, 0.0), (1.0, 1.0)), ((1.0 + g, 0.0), (2.0 + g, 1.0)),
                               alpha, tol=tol)
        assert isinstance(got, float)
        assert abs(got / float(ref) - 1.0) <= 10.0 * tol


def test_near_separated_2d_pair_warns_when_it_cannot_meet_tol():
    # a gap of 1e-12 cell widths at alpha 1.8: the weight is about 3e9 and
    # the polar rule's doublings keep moving it by about 1e-6
    with pytest.warns(RuntimeWarning, match="2D pair weight stopped at order 768"):
        cell_pair_weight(((0.0, 0.0), (1.0, 1.0)), ((1.0 + 1e-12, 0.3), (2.0 + 1e-12, 1.3)),
                         1.8)
