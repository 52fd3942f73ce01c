"""Interaction weights for the singular kernel |x-y|^(-(n+alpha)).

Every 1D interval integral of the kernel is one closed form, the chord
mass ((u + w)^p - u^p) / (alpha p), p = 1 - alpha, of a chord of length w
against a ray at gap u, taken as u^p expm1(p log1p(w / u)) / (alpha p) so
that it keeps its digits for far gaps and for alpha near 1. Cell-pair
weights W_ij (the kernel integrated over C_i x C_j) in 1D are a difference
of two chord masses, or for equal cells at least two widths apart 20-point
Gauss on the all-positive difference-variable integral. In 2D they reduce
to the difference variable: separated pairs take tensor Gauss, each pair
converged to a relative tol on its own in one batched pass, and touching
pairs an angular rule with exact radial integrals; a table's offsets are
cell_pair_weight's values, keyed by its tol. Tail weights integrate
a cell against an unbounded exterior region: chord masses in 1D, every
cell at once; in 2D, for alpha < 1, the chord mass along every line
through the cell, with quadrature over the lines only (Santalo's
line-measure identity). A table serves two kinds of 2D term by identity
instead: the whole plane (the closed-form perimeter of a square cell minus
its in-box pair weights) and axis half-planes whose boundary is a grid line
or misses the open box (a closed-form 1D marginal, or the perimeter minus
the other side's marginal, minus in-box pair weights). Balls, sectors and
every other half-plane stay on the line engine.

Every 2D point integral (a radially symmetric density seen from a point
inside the box, against one region term beyond it) takes one rule: the
exact radial mass along each ray, with Gauss-Legendre in the direction on
arcs split at the line engine's feature directions. Both engines double
the order arc by arc until the result meets its tolerance, and warn if
the order cap stops them first.

Both the energy and the Poisson extension read an exterior datum beyond
a box as constant pieces (value, region) from datum_far_pieces: the
table sums the pieces' tails into the moments T0, M1 and M2, and the
extension rows add the pieces' far masses. Tabulated shells are clipped at
the box, and a table starting beyond it is refused. A 1D homogeneous
profile integrates by parts into its value at the box times the ray tails
plus its derivative against chord masses, with Gauss in one variable.

For alpha >= 1 the exact integral over touching geometry diverges and
fixed conventions replace it: in 1D a closed form for touching pairs and
dyadic slabs with a midpoint sliver for touching tails; in 2D the
midpoint value for touching pairs, and for tails a dyadic subdivision of
the cell toward the box boundary whose midpoint leaves each take the
point rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, IncompleteDatumError, ParameterError
from .model import (
    BallSet,
    ConeF,
    ConstantF,
    FullSet,
    Grid,
    HalfspaceSet,
    IndicatorF,
    SectorSet,
    TabulatedF,
)
from .numerics import map_blocks, ordered_sum

NEAR_FACTOR = 2.0          # subdivide cells nearer the box boundary than this many diameters
DEPTH_1D = 12
DEPTH_2D = 6
_TOUCH_SNAP = 1e-12        # 1D edges within this many cell widths touch
_POLAR_ORDER_MAX = 768     # order cap of the polar rule for near separated 2D pairs
_GAUSS_ROWS = 128          # pairs per block of the batched tensor Gauss


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"kernel exponent must lie in (0,2), got {alpha}")


# ---------------------------------------------------------------------------
# 1D kernel mass

def _chord_mass(u, w, alpha):
    """Kernel mass of a chord [-w, 0] against the ray (u, inf) ahead of it:
    the integral of (y-x)^(-(1+alpha)) over both, which is
    ((u + w)^p - u^p) / (alpha p) = (1/alpha) int_u^(u+w) t^(-alpha) dt with
    p = 1 - alpha, and log1p(w / u) / alpha at alpha = 1.

    Taken as u^p expm1(p log1p(w / u)) / (alpha p), it keeps its digits when
    u is large against w and when alpha is near 1. u = 0 is the touching
    value w^p / (alpha p), infinite for alpha >= 1; u = inf gives 0. A pair
    [a, b] x [c, d] with c >= b is _chord_mass(c - b, b - a) -
    _chord_mass(d - b, b - a). With alpha + 1 in place of alpha it is the
    mass of [u, u + w] seen from a point, over alpha + 1.
    """
    u, w = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(w, dtype=float))
    p = 1.0 - alpha
    out = np.zeros(u.shape)
    touch = u == 0.0
    out[touch] = w[touch] ** p / (alpha * p) if alpha < 1.0 else np.inf
    gap = (u > 0.0) & np.isfinite(u)
    ug, lg = u[gap], np.log1p(w[gap] / u[gap])
    out[gap] = lg / alpha if alpha == 1.0 else ug**p * np.expm1(p * lg) / (alpha * p)
    return out


def _gauss_pair_weights_1d(k, h, alpha):
    """Pair weights of equal cells of width h whose centres lie k >= 2 widths
    apart, by 20-point Gauss on the all-positive difference-variable form
    W_k = h^(1-alpha) int_0^1 (1-t) ((k+t)^(-1-alpha) + (k-t)^(-1-alpha)) dt
    (the second difference of |x|^(1-alpha) loses k^2 ulps; the exponent
    -alpha is exact, where a rounded -1-alpha would cost log k ulps)."""
    t, w = _gauss01(20)
    ks = np.asarray(k, dtype=float)[..., None]
    kernel = (ks + t) ** -alpha / (ks + t) + (ks - t) ** -alpha / (ks - t)
    return h * h ** -alpha * (kernel @ ((1.0 - t) * w))


# ---------------------------------------------------------------------------
# subdivision / regularization for touching pairs

def _consistent_touch_1d(h: float, alpha: float) -> float:
    """Convention for the divergent 1D touching weight at alpha >= 1.

    Chosen so the mirrored second difference (2u_c - u_j - u_j') * W is
    exact on parabolas: W = h^(1-alpha) * (1.5^(2-a) - 0.5^(2-a))/(2-a).
    This keeps the energy-table operator consistent where the raw integral
    diverges; it coincides with the plain midpoint value at alpha = 1.
    """
    c = (1.5 ** (2.0 - alpha) - 0.5 ** (2.0 - alpha)) / (2.0 - alpha)
    return h ** (1.0 - alpha) * c


def _midpoint_touch_2d(kind: str, h: float, alpha: float) -> float:
    """Convention for the divergent touching 2D weight at alpha >= 1: the
    midpoint value of the equal-cell pair, h^(2-alpha) times the kernel at
    the centre offset (1 for an edge, sqrt 2 for a corner)."""
    if kind == "edge":
        return h ** (2.0 - alpha)
    return h ** (2.0 - alpha) * math.sqrt(2.0) ** (-(2.0 + alpha))


def _normalize_cell(cell):
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in cell)
    if lo.shape != hi.shape or not (hi > lo).all():
        raise GeometryError(f"degenerate cell {cell!r}")
    return lo, hi


# -- 2D pair weights via the difference-variable (tent) reduction ----------
#
# W = integral over w = x - y of T1(w1) T2(w2) |w|^(-(2+alpha)), where T_k
# is the correlation trapezoid of the two cell projections on axis k.
# Separated pairs: the trapezoid support avoids 0, split it into patches
# where T1*T2 is bilinear and use tensor Gauss (spectrally accurate).
# Touching pairs: polar coordinates around 0; along each ray the tent is
# piecewise quadratic in t, so the radial integral is closed form and only
# the angle is quadrature.

_GAUSS_CACHE: dict = {}


def _gauss01(n: int):
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[n]


def _axis_patches(delta, wa, wb):
    """Pieces of the correlation trapezoid of two widths at offset delta (a
    number or an array of them) on which it is linear: rise, plateau (only
    for unequal widths) and fall."""
    half_sum = 0.5 * (wa + wb)
    half_diff = 0.5 * abs(wa - wb)
    pts = [delta - half_sum, delta - half_diff, delta + half_diff, delta + half_sum]
    return [(pts[i], pts[i + 1]) for i in range(3) if i != 1 or half_diff > 0.0]


def _trap_value(t, delta, wa, wb):
    return np.maximum(
        0.0, np.minimum(np.minimum(wa, wb), 0.5 * (wa + wb) - np.abs(t - delta))
    )


def _pair_weight_gauss_2d(delta, wa, wb, alpha, order):
    """Tent-reduced weights of separated 2D pairs of cell widths wa and wb,
    one per row of the (P, 2) centre offsets delta, by tensor Gauss per
    patch. Each row is reduced on its own, so its value does not depend on
    the rows beside it or on the blocking."""
    xs, ws = _gauss01(order)
    out = np.zeros(len(delta))
    for start in range(0, len(delta), _GAUSS_ROWS):
        block = delta[start:start + _GAUSS_ROWS]
        for p0 in _axis_patches(block[:, :1], wa[0], wb[0]):
            for p1 in _axis_patches(block[:, 1:], wa[1], wb[1]):
                t0 = p0[0] + (p0[1] - p0[0]) * xs
                t1 = p1[0] + (p1[1] - p1[0]) * xs
                f0 = ws * _trap_value(t0, block[:, :1], wa[0], wb[0])
                f1 = ws * _trap_value(t1, block[:, 1:], wa[1], wb[1])
                r2 = t0[:, :, None] ** 2 + t1[:, None, :] ** 2
                kern = r2 ** (-(2.0 + alpha) / 2.0)
                patch = (f0 * (kern * f1[:, None, :]).sum(axis=2)).sum(axis=1)
                area = (p0[1] - p0[0]) * (p1[1] - p1[0])
                out[start:start + _GAUSS_ROWS] += area[:, 0] * patch
    return out


def _radial_poly_integral(t0, t1, q0, q1, q2, alpha):
    """Integral of (q0 + q1 t + q2 t^2) * t^(-1-alpha) over [t0, t1].

    A segment starting at t0 = 0 only arises for touching geometry, where
    the tent vanishes at the origin; its constant coefficient is then
    roundoff and is dropped.
    """
    out = 0.0
    if q0 != 0.0 and t0 > 0.0:
        out += q0 * (t0 ** (-alpha) - t1 ** (-alpha)) / alpha
    if q1 != 0.0:
        if alpha == 1.0:
            out += q1 * math.log(t1 / t0)
        else:
            out += q1 * (t1 ** (1.0 - alpha) - t0 ** (1.0 - alpha)) / (1.0 - alpha)
    if q2 != 0.0:
        out += q2 * (t1 ** (2.0 - alpha) - t0 ** (2.0 - alpha)) / (2.0 - alpha)
    return out


def _ray_tent_integral(theta, delta, wa, wb, alpha):
    """Radial integral of tent * t^(-1-alpha) along one direction."""
    d = (math.cos(theta), math.sin(theta))
    lo_t, hi_t = 0.0, math.inf
    kinks = []
    for k in range(2):
        half_sum = 0.5 * (wa[k] + wb[k])
        half_diff = 0.5 * abs(wa[k] - wb[k])
        if d[k] == 0.0:
            if _trap_value(0.0, delta[k], wa[k], wb[k]) <= 0.0:
                return 0.0
            continue
        z0 = (delta[k] - half_sum) / d[k]
        z1 = (delta[k] + half_sum) / d[k]
        lo_t = max(lo_t, min(z0, z1))
        hi_t = min(hi_t, max(z0, z1))
        kinks += [(delta[k] - half_diff) / d[k], (delta[k] + half_diff) / d[k]]
    lo_t = max(lo_t, 0.0)
    if hi_t <= lo_t:
        return 0.0
    pts = sorted({lo_t, hi_t, *[t for t in kinks if lo_t < t < hi_t]})
    total = 0.0
    for t0, t1 in zip(pts[:-1], pts[1:]):
        tm = 0.5 * (t0 + t1)
        coeffs = []
        for k in range(2):
            val = float(_trap_value(tm * d[k], delta[k], wa[k], wb[k]))
            if val <= 0.0:
                coeffs = None
                break
            plateau = abs(tm * d[k] - delta[k]) <= 0.5 * abs(wa[k] - wb[k])
            if plateau:
                coeffs.append((val, 0.0))
            else:
                s = 1.0 if delta[k] - tm * d[k] > 0.0 else -1.0
                b = s * d[k]
                coeffs.append((val - b * tm, b))
        if coeffs is None:
            continue
        (a1, b1), (a2, b2) = coeffs
        total += _radial_poly_integral(
            t0, t1, a1 * a2, a1 * b2 + a2 * b1, b1 * b2, alpha
        )
    return total


def _pair_weight_polar_2d(delta, wa, wb, alpha, order=12):
    """Tent-reduced weight by angular quadrature with exact radial integrals.

    Used for touching pairs with alpha < 1, where the tent support reaches
    the kernel singularity but the product vanishes there, and, at any
    alpha, for separated pairs nearer than a cell width or far ones where
    Gauss does not settle (orders up to _POLAR_ORDER_MAX). The arcs split
    at the directions to every corner and interior kink of the tent
    support, so the ray integral is smooth on each arc.
    """
    kinks = [
        [delta[k] - 0.5 * (wa[k] + wb[k]), delta[k] - 0.5 * abs(wa[k] - wb[k]),
         delta[k] + 0.5 * abs(wa[k] - wb[k]), delta[k] + 0.5 * (wa[k] + wb[k])]
        for k in range(2)
    ]
    arcs = sorted(
        {math.atan2(y, x) % (2.0 * math.pi)
         for x in kinks[0] for y in kinks[1] if x != 0.0 or y != 0.0}
        | {0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi}
    )
    xs, ws = _gauss01(order)
    total = 0.0
    for a0, a1 in zip(arcs[:-1], arcs[1:]):
        width = a1 - a0
        for x, w in zip(xs, ws):
            total += width * w * _ray_tent_integral(a0 + width * x, delta, wa, wb, alpha)
    return total


def _separated_pair_weight_2d(delta, wa, wb, alpha, tol):
    """Weights of separated 2D pairs of cell widths wa and wb, one per row
    of the (P, 2) centre offsets delta, each converged to tol.

    Rows at least a cell width apart take tensor Gauss at orders 12, 18
    and 32, each stopping when its own last step moved it by at most tol.
    Nearer rows, and far ones where Gauss does not settle, take the polar
    rule one by one, its order doubled from 12 until a doubling moves it by
    at most tol; at _POLAR_ORDER_MAX a RuntimeWarning reports the change.
    Near the kernel singularity Gauss stalls: at a gap of 1e-3 cell widths
    its order-32 value is 0.4% off.
    """
    gap = np.hypot(*np.maximum(np.abs(delta) - 0.5 * (wa + wb), 0.0).T)
    out = np.full(len(delta), np.nan)
    todo = np.flatnonzero(gap >= max(wa.max(), wb.max()))
    prev = _pair_weight_gauss_2d(delta[todo], wa, wb, alpha, 12)
    for order in (18, 32):
        cur = _pair_weight_gauss_2d(delta[todo], wa, wb, alpha, order)
        done = np.abs(cur - prev) <= tol * np.maximum(np.abs(cur), 1e-300)
        out[todo[done]] = cur[done]
        todo, prev = todo[~done], cur[~done]
    for i in np.flatnonzero(np.isnan(out)):
        order = 12
        prev = _pair_weight_polar_2d(delta[i], wa, wb, alpha, order)
        while True:
            order *= 2
            cur = _pair_weight_polar_2d(delta[i], wa, wb, alpha, order)
            moved = abs(cur - prev) / max(abs(cur), 1e-300)
            if moved <= tol:
                break
            if order >= _POLAR_ORDER_MAX:
                warnings.warn(f"2D pair weight stopped at order {order} with relative "
                              f"change {moved:.2e} > tol {tol:.1e}", RuntimeWarning,
                              stacklevel=3)
                break
            prev = cur
        out[i] = cur
    return out


def cell_pair_weight(cell_a, cell_b, alpha: float, tol: float = 1e-9) -> float:
    """Kernel weight of a cell pair; cells given as (lower, upper) corners.

    Identical cells use the same-cell convention (weight 0). Overlapping
    distinct cells are a geometry error. Touching pairs with alpha >= 1 take
    a convention in place of the divergent integral: the closed form of
    _consistent_touch_1d in 1D, the midpoint value in 2D. Edges within
    _TOUCH_SNAP cell widths of each other touch in 1D and do not overlap.
    Separated 2D pairs meet the relative tol or warn
    (_separated_pair_weight_2d).
    """
    _check_alpha(alpha)
    lo_a, hi_a = _normalize_cell(cell_a)
    lo_b, hi_b = _normalize_cell(cell_b)
    n = lo_a.size
    if np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b):
        return 0.0
    gaps = np.maximum(lo_a - hi_b, lo_b - hi_a)
    snap = _TOUCH_SNAP * max(hi_a[0] - lo_a[0], hi_b[0] - lo_b[0]) if n == 1 else 0.0
    if (gaps < -snap).all():
        raise GeometryError("distinct cells overlap")
    if n == 1:
        if lo_b[0] < lo_a[0]:
            lo_a, hi_a, lo_b, hi_b = lo_b, hi_b, lo_a, hi_a
        (a, b), (c, d) = (lo_a[0], hi_a[0]), (lo_b[0], hi_b[0])
        near = c - b if c - b > snap else 0.0
        if near == 0.0 and alpha >= 1.0:
            if not np.isclose(b - a, d - c):
                raise ParameterError(
                    "touching pairs with alpha >= 1 are regularized for "
                    "equal cells only"
                )
            return _consistent_touch_1d(b - a, alpha)
        # widths equal to roundoff: the weight is even in their difference,
        # so their mean serves both to second order
        h = 0.5 * ((b - a) + (d - c))
        k = (0.5 * (c + d) - 0.5 * (a + b)) / h
        if abs((d - c) - (b - a)) <= 1e-12 * h and k >= 2.0:
            return float(_gauss_pair_weights_1d(k, h, alpha))
        return float(_chord_mass(near, b - a, alpha) - _chord_mass(d - b, b - a, alpha))
    delta = 0.5 * (lo_a + hi_a) - 0.5 * (lo_b + hi_b)
    wa, wb = hi_a - lo_a, hi_b - lo_b
    if (np.abs(wa - wb) <= 0.5e-12 * (wa + wb)).all():
        # widths equal to roundoff, as in 1D: their mean serves both, and an
        # offset of whole widths to roundoff is snapped to them, since tent
        # kinks off by roundoff cost the polar rule 3e-8 at any order
        wa = wb = 0.5 * (wa + wb)
        k = np.rint(delta / wa)
        delta = np.where(np.abs(delta - k * wa) <= 1e-12 * wa, k * wa, delta)
    touching = bool((gaps <= 0.0).all())
    if touching:
        if alpha >= 1.0:
            h = wa[0]
            square = np.allclose(wa, h) and np.allclose(wb, h)
            adelta = np.sort(np.abs(delta))
            if square and np.allclose(adelta, [0.0, h]):
                return _midpoint_touch_2d("edge", h, alpha)
            if square and np.allclose(adelta, [h, h]):
                return _midpoint_touch_2d("corner", h, alpha)
            raise ParameterError(
                "touching pairs with alpha >= 1 are regularized for equal "
                "grid-aligned cells only"
            )
        return _pair_weight_polar_2d(delta, wa, wb, alpha)
    return float(_separated_pair_weight_2d(delta[None], wa, wb, alpha, tol)[0])


# ---------------------------------------------------------------------------
# exterior regions

@dataclass(frozen=True)
class Region1D:
    """Disjoint union of open intervals (a, b); a may be -inf, b may be inf."""

    pieces: tuple

    def is_empty(self) -> bool:
        return len(self.pieces) == 0


@dataclass(frozen=True)
class _HalfplaneTerm:
    normal: tuple
    offset: float


@dataclass(frozen=True)
class _BallTerm:
    center: tuple
    radius: float


@dataclass(frozen=True)
class _SectorTerm:
    angle_lo: float
    angle_hi: float  # aperture at most pi/2 after splitting


@dataclass(frozen=True)
class Region2D:
    """Signed combination of primitives, implicitly intersected with the
    complement of the box [-box_half, box_half]^2."""

    box_half: float
    terms: tuple  # of (coef, primitive or None for the whole plane)

    def is_empty(self) -> bool:
        return len(self.terms) == 0


def interval_region(a: float, b: float) -> Region1D:
    return Region1D(((float(a), float(b)),))


def ray_region(a: float, side: int = 1) -> Region1D:
    """(a, inf) for side=+1, (-inf, a) for side=-1."""
    if side > 0:
        return Region1D(((float(a), math.inf),))
    return Region1D(((-math.inf, float(a)),))


def _split_sector(a0: float, a1: float):
    a0, a1 = float(a0), float(a1)
    while a1 <= a0:
        a1 += 2.0 * math.pi
    width = a1 - a0
    parts = max(1, int(math.ceil(width / (0.5 * math.pi - 1e-9))))
    step = width / parts
    return [_SectorTerm(a0 + k * step, a0 + (k + 1) * step) for k in range(parts)]


def _set_breakpoints_1d(set_spec):
    if isinstance(set_spec, HalfspaceSet):
        nu = set_spec.normal[0]
        return [set_spec.offset / nu] if nu != 0.0 else []
    if isinstance(set_spec, BallSet):
        c = set_spec.center[0]
        return [c - set_spec.radius, c + set_spec.radius]
    if isinstance(set_spec, SectorSet):
        return [0.0]
    return []


def _set_regions_1d(set_spec, L: float):
    brk = sorted({b for b in _set_breakpoints_1d(set_spec) if abs(b) > L})
    right = [L] + [b for b in brk if b > L] + [math.inf]
    left = [-math.inf] + [b for b in brk if b < -L] + [-L]
    pos, neg = [], []
    for lo, hi in list(zip(right[:-1], right[1:])) + list(zip(left[:-1], left[1:])):
        if math.isinf(hi):
            probe = max(2.0 * lo, lo + 1.0)
        elif math.isinf(lo):
            probe = min(2.0 * hi, hi - 1.0)
        else:
            probe = 0.5 * (lo + hi)
        sign = int(set_spec.membership(np.array([[probe]]))[0])
        (pos if sign > 0 else neg).append((lo, hi))
    return Region1D(tuple(pos)), Region1D(tuple(neg))


def _set_terms_2d(set_spec):
    if isinstance(set_spec, FullSet):
        return [(1.0, None)] if set_spec.sign > 0 else []
    if isinstance(set_spec, HalfspaceSet):
        return [(1.0, _HalfplaneTerm(tuple(set_spec.normal), set_spec.offset))]
    if isinstance(set_spec, BallSet):
        ball = _BallTerm(tuple(set_spec.center), set_spec.radius)
        if set_spec.inside_sign > 0:
            return [(1.0, ball)]
        return [(1.0, None), (-1.0, ball)]
    if isinstance(set_spec, SectorSet):
        terms = []
        for a0, a1 in set_spec.sectors:
            terms.extend((1.0, chunk) for chunk in _split_sector(a0, a1))
        return terms
    raise IncompleteDatumError(f"no 2D exterior region for set {set_spec!r}")


def _set_regions(set_spec, L: float, dimension: int):
    if dimension == 1:
        return _set_regions_1d(set_spec, L)
    pos = tuple(_set_terms_2d(set_spec))
    return Region2D(L, pos), Region2D(L, ((1.0, None),) + tuple((-c, t) for c, t in pos))


def set_exterior_regions(set_spec, grid: Grid):
    """Regions (E0 minus box, E0 complement minus box) for a phase set."""
    return _set_regions(set_spec, grid.spec.half_width, grid.dimension)


def datum_far_pieces(func_spec, L: float, dimension: int):
    """The datum beyond the box [-L, L]^n as constant pieces (value, region)
    whose regions partition the box exterior.

    A constant is one piece; an indicator is +amp on its set's region and
    -amp on the complement's. A 1D table is one piece per shell and side
    plus the two far rays, with the shells clipped at L; a first edge
    beyond L leaves (L, e0) uncovered, an error like a missing far value.
    Homogeneous profiles and every other datum have no constant pieces.
    """
    if isinstance(func_spec, ConstantF):
        return [(func_spec.value, _set_regions(FullSet(1), L, dimension)[0])]
    if isinstance(func_spec, IndicatorF):
        pos, neg = _set_regions(func_spec.set_spec, L, dimension)
        return [(func_spec.amp, pos), (-func_spec.amp, neg)]
    if not isinstance(func_spec, TabulatedF):
        raise IncompleteDatumError(f"datum {func_spec!r} has no constant far-field pieces")
    if dimension != 1:
        raise IncompleteDatumError("tabulated data supported in 1D only")
    edges = func_spec.edges
    if func_spec.far_value is None:
        raise IncompleteDatumError("tabulated datum lacks coverage beyond its last shell")
    if edges[0] > L:
        raise IncompleteDatumError(
            f"tabulated datum leaves ({L:g}, {edges[0]:g}) beyond the box uncovered"
        )
    pieces = []
    for k in range(len(edges) - 1):
        if edges[k + 1] > L:
            lo = max(edges[k], L)
            pieces.append((func_spec.right[k], interval_region(lo, edges[k + 1])))
            pieces.append((func_spec.left[k], interval_region(-edges[k + 1], -lo)))
    far = max(edges[-1], L)
    pieces.append((func_spec.far_value, ray_region(far, +1)))
    pieces.append((func_spec.far_value, ray_region(-far, -1)))
    return pieces


def _touching_tail_1d(u, w, length, alpha):
    """Convention for a cell of width w touching a piece of the given length
    (maybe inf) at alpha >= 1, with the piece moved a gap u >= 0 away, in
    parts along a new last axis: DEPTH_1D dyadic slabs toward the contact
    point, each a chord mass, and the midpoint value on the last sliver.
    At u = 0 every slab edge is exact, measured from the contact point. The
    kernel mass r^(-alpha) int_1^(1+length/r) t^(-1-alpha) dt seen from the
    sliver's midpoint at gap r is a chord mass at alpha + 1, taken in units
    of r so that rounding alpha + 1 costs no log r ulps."""
    u, w = (np.asarray(v, dtype=float)[..., None] for v in (u, w))
    gap = w * 2.0 ** -np.arange(1, DEPTH_1D + 1)   # slab k: width and gap
    slabs = _chord_mass(u + gap, gap, alpha) - _chord_mass(u + gap + length, gap, alpha)
    sliver = w * 2.0 ** -DEPTH_1D
    r = u + 0.5 * sliver
    mid = r**-alpha * (1.0 + alpha) * _chord_mass(1.0, length / r, 1.0 + alpha)
    return np.concatenate([slabs, sliver * mid], axis=-1)


def _tails_1d(e, f, region, alpha):
    """Tails of the cells [e_i, f_i] against a 1D region, all at once.

    Each piece is a chord-mass difference on every cell; a piece touching a
    cell at alpha >= 1 takes _touching_tail_1d on that cell instead. A
    cell's pieces, and the parts of a touching one, are summed exactly
    rounded.
    """
    if not isinstance(region, Region1D):
        raise GeometryError("region dimensionality does not match the cell")
    w = f - e
    parts = np.zeros((e.size, len(region.pieces)))
    for j, (a, b) in enumerate(region.pieces):
        if np.any(np.minimum(b, f) - np.maximum(a, e) > 1e-9 * w):
            raise GeometryError("region overlaps the cell")
        # a piece right of a cell's left edge lies beyond it: an overlap or
        # gap within roundoff of the box boundary is a touch
        right = a > e
        near = np.where(right, a - f, e - b)
        near = np.where(near <= _TOUCH_SNAP * w, 0.0, near)
        far = np.where(right, b - f, e - a)
        parts[:, j] = _chord_mass(near, w, alpha) - _chord_mass(far, w, alpha)
        if alpha >= 1.0:
            for i in np.flatnonzero(near == 0.0):
                parts[i, j] = ordered_sum(_touching_tail_1d(0.0, w[i], far[i], alpha))
    return np.array([math.fsum(row) for row in parts.tolist()])


def _ray_power_moments(gap, w, tails, L, q, alpha, tol):
    """int_L^inf t^q k_i(t) dt for cells of width w a gap before the ray
    (L, inf), k_i the kernel mass of cell i seen from t. By parts it is
    L^q tails + q int_0^inf (L + u)^(q-1) K_i(L + u) du, with K_i(t) the
    cell's tail against (t, inf) and tails = K_i(L). Only the remainder is
    quadrature: clustered Gauss on [0, s], s the touching sliver's width;
    Gauss in log u on [s, 4L]; clustered Gauss in x on [4L, inf) with
    u = 4L x^(-1/mu), mu = alpha - q, which makes the decay u^(-1-mu)
    constant. The order doubles until no cell's result moves by more than
    tol relative to itself, or warns at _MOMENT_ORDER_MAX."""
    if q == 0.0:
        return tails
    touch = (gap == 0.0) & (alpha >= 1.0)
    mu, far, sliver = alpha - q, 4.0 * L, w * 2.0**-DEPTH_1D
    span = math.log(far / sliver)

    def remainder(n):
        xc, wc = _clustered01(n)
        xg, wg = _gauss01(n)
        u = np.concatenate([sliver * xc, sliver * np.exp(span * xg)])
        z = np.maximum(xc ** (1.0 / mu) / far, 1e-280 / w)   # 1 / u beyond 4L, kept normal
        du = np.concatenate([sliver * wc, span * u[n:] * wg, wc / z * far**-mu / mu])
        grow = np.concatenate([(L + u) ** (q - 1.0), (1.0 + L * z) ** (q - 1.0)])
        # K_i at every node, beyond 4L with the gap and the width in units of u
        gaps = np.concatenate([gap[:, None] + u, 1.0 + gap[:, None] * z], axis=1)
        widths = np.broadcast_to(np.concatenate([np.full(2 * n, w), w * z]), gaps.shape)
        k = _chord_mass(gaps, widths, alpha)
        k[touch] = _touching_tail_1d(gaps[touch], widths[touch], math.inf, alpha).sum(axis=-1)
        return k @ (grow * du)

    n, rem = LINE_ORDER_START, remainder(LINE_ORDER_START)
    while True:
        n *= 2
        rem, last = remainder(n), rem
        total = L**q * tails + q * rem
        moved = float(np.max(np.abs(q * (rem - last) / total), initial=0.0))
        if moved <= tol or n >= _MOMENT_ORDER_MAX:
            break
    if moved > tol:
        warnings.warn(f"homogeneous-profile moments stopped at order {n} with relative "
                      f"change {moved:.2e} > tol {tol:.1e}", RuntimeWarning, stacklevel=5)
    return total


def tail_weight(cell, region, alpha: float, tol: float = 1e-8) -> float:
    """Kernel weight of a cell against an unbounded exterior region.

    1D is _tails_1d on the one cell: a chord-mass difference per piece,
    exact out to infinity to a few ulps; a region touching the cell with
    alpha >= 1 uses a depth-limited regularization. 2D integrates exactly
    along lines for alpha < 1, with quadrature over the lines only; for
    alpha >= 1 it subdivides the cell toward the box boundary and
    integrates the region from every leaf centre by the point rule.
    """
    _check_alpha(alpha)
    lo, hi = _normalize_cell(cell)
    if lo.size == 1:
        return float(_tails_1d(lo, hi, region, alpha)[0])
    if not isinstance(region, Region2D):
        raise GeometryError("region dimensionality does not match the cell")
    if region.is_empty():
        return 0.0
    L = region.box_half
    if np.any(np.abs(np.concatenate([lo, hi])) > L * (1.0 + 1e-12)):
        raise GeometryError("2D tail cells must lie inside the box")
    return ordered_sum([coef * _cell_term_tail(lo, hi, L, term, alpha, tol)
                        for coef, term in region.terms])


def _cell_term_tail(lo, hi, L, term, alpha, tol):
    """Tail of one cell against one region term minus the box: the line
    engine for alpha < 1, the midpoint leaves of the boundary-adaptive
    subdivision, each integrated by the point rule, for alpha >= 1."""
    if alpha < 1.0:
        return _line_cell_tail(lo, hi, L, term, alpha, tol)
    pts, wts = _cell_leaves_2d(lo, hi, L, DEPTH_2D)
    return _point_term_mass(pts, wts, L, term, lambda t: t ** (-alpha) / alpha, tol)


def _cell_leaves_2d(lo, hi, box_half, depth):
    """Midpoint leaves of the boundary-adaptive cell subdivision."""
    stack = [(lo, hi, depth)]
    leaf_pts, leaf_wts = [], []
    while stack:
        clo, chi, d = stack.pop()
        ctr = 0.5 * (clo + chi)
        size = chi - clo
        diam = float(np.linalg.norm(size))
        edge_dist = float(box_half - np.max(np.abs(ctr)))
        if d == 0 or edge_dist >= NEAR_FACTOR * diam:
            leaf_pts.append(ctr)
            leaf_wts.append(float(np.prod(size)))
        else:
            for off in np.ndindex(2, 2):
                o = np.asarray(off, dtype=float)
                stack.append((clo + 0.5 * size * o, clo + 0.5 * size * (o + 1.0), d - 1))
    return np.asarray(leaf_pts), np.asarray(leaf_wts)


# ---------------------------------------------------------------------------
# 2D cell tails along lines (alpha < 1)
#
# Parametrize a pair of points by the oriented line through them (direction
# theta in [0, 2 pi), signed distance rho) and their positions s < t along
# it: dx dy = (t - s) dtheta drho ds dt (Santalo's line-measure identity).
# Against the kernel |x - y|^(-(2+alpha)) the inner (s, t) integral is the
# exact 1D pair weight of the cell chord against the part of the region
# ahead of the box exit, and every region primitive meets that ray in one
# interval. Only (theta, rho) is quadrature: both split where the geometry
# seen along a line changes, with endpoint-clustered Gauss-Legendre on
# every piece, so the integrand is smooth inside each piece up to algebraic
# endpoint singularities that the clustering absorbs.

LINE_ORDER_START = 8          # Gauss orders of the line engine, point rule and profile moments
LINE_ORDER_MAX = 128
_MOMENT_ORDER_MAX = 256       # profile moments: M2 near its limit 2 degree < alpha needs 256
_LINE_BLOCK = 1 << 17      # line nodes evaluated per vectorized pass
_CLUSTER_CACHE: dict = {}


def _clustered01(n: int):
    """Gauss-Legendre on [0, 1] pulled through the septic ramp
    phi(u) = 35u^4 - 84u^5 + 70u^6 - 20u^7, whose derivative 140 u^3 (1-u)^3
    vanishes to third order at both ends."""
    if n not in _CLUSTER_CACHE:
        u, w = _gauss01(n)
        phi = u**4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))
        _CLUSTER_CACHE[n] = (phi, w * 140.0 * (u * (1.0 - u)) ** 3)
    return _CLUSTER_CACHE[n]


def _term_halfplanes(term):
    """A half-plane or sector term as a list of (normal, offset) with
    membership normal . y > offset."""
    if isinstance(term, _HalfplaneTerm):
        return [(np.asarray(term.normal, dtype=float), float(term.offset))]
    return [
        (np.array([-math.sin(term.angle_lo), math.cos(term.angle_lo)]), 0.0),
        (np.array([math.sin(term.angle_hi), -math.cos(term.angle_hi)]), 0.0),
    ]


def _box_crossings(crossings, L):
    """Points on the box boundary where a curve meets it; crossings(k, e)
    lists the other coordinate of the curve's points with y_k = e."""
    pts = []
    for k in range(2):
        for edge in (-L, L):
            for other in crossings(k, edge):
                if abs(other) <= L:
                    p = [0.0, 0.0]
                    p[k], p[1 - k] = edge, other
                    pts.append(p)
    return pts


@dataclass(frozen=True)
class _LineFeatures:
    """What a line can cross that changes the integrand along it.

    verts are the cell vertices; others the box corners and the points
    where the term's boundary meets the box; circle the (center, radius)
    of a ball term, whose tangent lines are features too; dirs the
    boundary directions of half-plane and sector terms, along which the
    region runs off to infinity. singular marks cells with algebraic
    endpoint singularities in both variables (touching the box, or a ball
    term); cut_rho marks cells whose chords the term boundary can cut.
    """

    verts: np.ndarray
    others: np.ndarray
    circle: tuple | None
    dirs: tuple
    singular: bool
    cut_rho: bool


def _line_features(lo, hi, L, term) -> _LineFeatures:
    verts = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    corners = np.array([[-L, -L], [L, -L], [L, L], [-L, L]])
    extra, dirs, circle, cut = [], [], None, False
    if isinstance(term, _BallTerm):
        center, radius = np.asarray(term.center, dtype=float), float(term.radius)
        circle = (center, radius)
        extra = _box_crossings(
            lambda k, e: [center[1 - k] + sgn * math.sqrt(radius**2 - (e - center[k]) ** 2)
                          for sgn in (-1.0, 1.0) if abs(e - center[k]) <= radius], L)
    elif term is not None:
        for normal, offset in _term_halfplanes(term):
            extra += _box_crossings(
                lambda k, e: [(offset - normal[k] * e) / normal[1 - k]]
                if normal[1 - k] != 0.0 else [], L)
            dirs.append(math.atan2(-normal[0], normal[1]))
            # a boundary through the cell, or within half its size of it
            side = (verts @ normal - offset) / math.hypot(*normal)
            reach = 0.5 * math.hypot(*(hi - lo))
            cut |= bool(side.min() <= reach and side.max() >= -reach)
        if isinstance(term, _SectorTerm):
            extra.append([0.0, 0.0])
    others = np.concatenate([corners, np.asarray(extra, dtype=float).reshape(-1, 2)])
    singular = circle is not None or bool(np.max(np.abs(verts)) >= L)
    return _LineFeatures(verts, others, circle, tuple(dirs), singular, cut or singular)


def _theta_breaks(feat: _LineFeatures):
    """Directions where a line meets two features at once, or runs along a
    term boundary; sorted in [0, 2 pi] with the axes included."""
    pts = np.concatenate([feat.verts, feat.others])
    diff = pts[None, :, :] - feat.verts[:, None, :]
    apart = np.hypot(diff[..., 0], diff[..., 1]) > 0.0
    angles = list(np.arctan2(diff[..., 1], diff[..., 0])[apart]) + list(feat.dirs)
    if feat.circle is not None:
        center, radius = feat.circle
        for p in pts:
            dist = math.hypot(*(center - p))
            if dist > radius:
                base = math.atan2(center[1] - p[1], center[0] - p[0])
                half = math.asin(radius / dist)
                angles += [base - half, base + half]
    angles = np.asarray(angles)
    brk = np.mod(np.concatenate([angles, angles + math.pi]), 2.0 * math.pi)
    brk = np.unique(np.concatenate([brk, 0.5 * math.pi * np.arange(5)]))
    return brk[np.concatenate([[True], np.diff(brk) > 1e-12])]


def _term_line_interval(term, rho, c, s):
    """Parameter interval of the line rho n + t d inside one primitive,
    with d = (c, s) and n = (-s, c); empty intervals have hi <= lo."""
    if term is None:
        return -np.inf, np.inf
    if isinstance(term, _BallTerm):
        cx, cy = term.center
        along = cx * c + cy * s
        disc = term.radius**2 - (rho - (cy * c - cx * s)) ** 2
        root = np.sqrt(np.maximum(disc, 0.0))
        return along - root, np.where(disc > 0.0, along + root, -np.inf)
    t_lo, t_hi = -np.inf, np.inf
    for normal, offset in _term_halfplanes(term):
        dn = normal[0] * c + normal[1] * s
        with np.errstate(divide="ignore", invalid="ignore"):  # dn == 0: no crossing
            tau = (offset - rho * (normal[1] * c - normal[0] * s)) / dn
        t_lo = np.where(dn > 0.0, np.maximum(t_lo, tau), t_lo)
        t_hi = np.where(dn < 0.0, np.minimum(t_hi, tau), t_hi)
    return t_lo, t_hi


def _line_pair_weights(rho, c, s, lo, hi, L, term, alpha):
    """Kernel mass of the cell chord [a, b] against the part [b + u0,
    b + u1] of the term beyond the box exit, on the lines rho n + t d
    with d = (c, s), n = (-s, c); rho has one row per direction.

    It is _chord_mass(u0, w) - _chord_mass(u1, w) with w = b - a, which
    keeps its digits when u0 is large against w. A cell face on the box
    boundary gives u0 == 0 exactly, because the cell exit and the box exit
    come from the same expression.
    """
    # the line crosses x = X at t = X / c + rho s / c, y = Y at Y / s - rho c / s
    fwd_x, fwd_y = c > 0.0, s > 0.0
    tx, ty = rho * (s / c), rho * (-c / s)
    a = np.maximum(np.where(fwd_x, lo[0], hi[0]) / c + tx,
                   np.where(fwd_y, lo[1], hi[1]) / s + ty)
    b = np.minimum(np.where(fwd_x, hi[0], lo[0]) / c + tx,
                   np.where(fwd_y, hi[1], lo[1]) / s + ty)
    exit_ = np.minimum(np.where(fwd_x, L, -L) / c + tx, np.where(fwd_y, L, -L) / s + ty)
    w = np.maximum(b - a, 0.0)
    t_lo, t_hi = _term_line_interval(term, rho, c, s)
    # a term boundary along the box boundary meets the exit up to roundoff,
    # which the u^p of the chord mass would magnify: such gaps are closed
    snap = 1e-13 * L
    u0 = np.maximum(np.maximum(t_lo, exit_) - b, 0.0)
    u0 = np.where(u0 <= snap, 0.0, u0)
    u1 = np.maximum(t_hi - b, u0)
    u1 = np.where(u1 - u0 <= snap, u0, u1)
    return _chord_mass(u0, w, alpha) - _chord_mass(u1, w, alpha)


def _theta_arcs(feat: _LineFeatures):
    """(start, width, clustered) of every theta arc.

    Singular cells take the clustered rule on every arc; other cells only
    on the arcs that end at a term boundary direction.
    """
    brk = _theta_breaks(feat)
    start, width = brk[:-1], np.diff(brk)
    if feat.singular:
        return start, width, np.ones(start.size, dtype=bool)
    par = np.mod(np.concatenate([feat.dirs, np.add(feat.dirs, math.pi)]), 2.0 * math.pi)
    ends = np.mod(np.concatenate([start, start + width]), 2.0 * math.pi)
    hit = (np.abs(ends[:, None] - par[None, :]) <= 1e-12).any(axis=1)
    return start, width, hit[: start.size] | hit[start.size:]


def _line_arc_sums(lo, hi, L, term, alpha, feat: _LineFeatures, arcs, n: int):
    """The (theta, rho) quadrature at order n, one sum per theta arc.

    Rho is split at the projections of every feature point, clipped to the
    cell's own range, and clustered where the term boundary can cut the
    chords.
    """
    start, width, cluster = arcs
    xg, wg = _gauss01(n)
    xc, wc = _clustered01(n)
    pick = cluster[:, None]
    theta = (start[:, None] + width[:, None] * np.where(pick, xc, xg)).ravel()
    w_theta = (width[:, None] * np.where(pick, wc, wg)).ravel()
    x, w = (xc, wc) if feat.cut_rho else (xg, wg)
    c, s = np.cos(theta), np.sin(theta)
    proj = lambda pts: pts[:, 1][None, :] * c[:, None] - pts[:, 0][None, :] * s[:, None]
    rho_v = proj(feat.verts)
    cuts = [rho_v, proj(feat.others)]
    if feat.circle is not None:
        (cx, cy), radius = feat.circle
        mid = cy * c - cx * s
        cuts.append(np.stack([mid - radius, mid + radius], axis=1))
    cuts = np.sort(np.clip(np.concatenate(cuts, axis=1),
                           rho_v.min(axis=1, keepdims=True),
                           rho_v.max(axis=1, keepdims=True)), axis=1)
    r0, r1 = cuts[:, :-1], cuts[:, 1:]
    row, col = np.nonzero(r1 > r0)
    r0, span = r0[row, col], r1[row, col] - r0[row, col]
    contrib = np.empty(row.size)
    step = max(1, _LINE_BLOCK // n)
    for k in range(0, row.size, step):
        sl = slice(k, k + step)
        rho = r0[sl, None] + span[sl, None] * x
        vals = _line_pair_weights(rho, c[row[sl], None], s[row[sl], None],
                                  lo, hi, L, term, alpha)
        contrib[sl] = w_theta[row[sl]] * span[sl] * (vals @ w)
    return np.bincount(row // n, weights=contrib, minlength=start.size)


def _converged_arc_sums(arc_sums, arcs, floor, tol, what):
    """Sum of arc_sums(arcs, n) over the arcs, each arc at its own order.

    Each arc doubles its order until its last doubling moved it by at most
    tol / (2 * arcs) of the total, and the total stops once the last
    doublings of all arcs move it by at most tol; a warning reports the
    order cap if it stops them first. Changes are relative to the total, or
    to floor if that is larger. arcs is a tuple of per-arc arrays.
    """
    n = LINE_ORDER_START
    sums = arc_sums(arcs, n)
    change = np.zeros(sums.size)
    active = np.arange(sums.size)
    while True:
        n *= 2
        sub = tuple(part[active] for part in arcs)
        new = arc_sums(sub, n)
        change[active] = np.abs(new - sums[active])
        sums[active] = new
        total = ordered_sum(sums)
        scale = max(abs(total), floor)
        moved = ordered_sum(change) / scale
        active = active[change[active] > 0.5 * tol * scale / sums.size]
        if moved <= tol or active.size == 0:
            return total
        if n >= LINE_ORDER_MAX:
            warnings.warn(
                f"{what} stopped at order {n} with relative change "
                f"{moved:.2e} > tol {tol:.1e}", RuntimeWarning, stacklevel=4)
            return total


def _line_cell_tail(lo, hi, L, term, alpha, tol):
    """Tail of one cell against term minus box, converged arc by arc.

    The floor of the relative changes is the kernel mass every point of
    the box sees beyond the box diagonal: a term that barely meets the
    region beyond the box (a ball tangent to it) has a tail at roundoff
    level. Cell faces within roundoff of the box boundary are put on it,
    so a touching face is exactly touching.
    """
    snap = 1e-12 * L
    lo = np.where(np.abs(lo + L) <= snap, -L, lo)
    hi = np.where(np.abs(hi - L) <= snap, L, hi)
    feat = _line_features(lo, hi, L, term)
    floor = np.prod(hi - lo) * 2.0 * math.pi * (2.0 * math.sqrt(2.0) * L) ** -alpha / alpha
    return _converged_arc_sums(
        lambda arcs, n: _line_arc_sums(lo, hi, L, term, alpha, feat, arcs, n),
        _theta_arcs(feat), floor, tol, "2D line tail")


# ---------------------------------------------------------------------------
# 2D point integrals along rays
#
# From a point p inside the box, a radially symmetric density with the
# remaining-mass function radial_cdf(t) (its integral over r > t, per unit
# angle) gives every ray the exact mass radial_cdf(lo) - radial_cdf(hi) of
# its interval [lo, hi] in the term beyond the box exit. Only the direction
# is quadrature, split at the same feature directions the line engine uses
# for the degenerate cell [p, p]: box corners, the points where the term
# boundary meets the box, ball tangents and the boundary directions, along
# which the ray mass has an algebraic endpoint singularity. Points come in
# weighted batches (the leaves of one cell), with one convergence test on
# the weighted total.


def _point_arcs(pts, L, term):
    """(start, width, clustered, point) of every direction arc of every
    point: the arcs of the degenerate cell [p, p], whose features other
    than its vertex do not depend on p. A ball adds the directions normal
    to the one from p to its centre: from a point just inside it, the
    ray's exit from the ball swings from near to far across them."""
    feat = _line_features(pts[0], pts[0], L, term)
    parts = []
    for k, p in enumerate(pts):
        dirs = feat.dirs
        if feat.circle is not None:
            to_center = feat.circle[0] - p
            dirs = (math.atan2(to_center[1], to_center[0]) + 0.5 * math.pi,)
        start, width, cluster = _theta_arcs(replace(feat, verts=p[None, :], dirs=dirs))
        parts.append((start, width, cluster, np.full(start.size, k)))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _point_arc_sums(pts, wts, L, term, radial_cdf, arcs, n: int):
    """The weighted direction quadrature at order n, one sum per arc."""
    start, width, cluster, owner = arcs
    xg, wg = _gauss01(n)
    xc, wc = _clustered01(n)
    pick = cluster[:, None]
    theta = start[:, None] + width[:, None] * np.where(pick, xc, xg)
    w_theta = width[:, None] * np.where(pick, wc, wg)
    c, s = np.cos(theta), np.sin(theta)
    px, py = pts[owner, 0][:, None], pts[owner, 1][:, None]
    with np.errstate(divide="ignore"):
        exit_ = np.minimum(np.where(c > 0.0, L - px, -L - px) / c,
                           np.where(s > 0.0, L - py, -L - py) / s)
    # the ray is the part t > p . d of the line (p . n) n + t d
    along = px * c + py * s
    t_lo, t_hi = _term_line_interval(term, py * c - px * s, c, s)
    lo = np.maximum(t_lo - along, exit_)
    hi = np.broadcast_to(t_hi - along, lo.shape)
    vals = np.zeros(lo.shape)
    seen = hi > lo
    vals[seen] = radial_cdf(lo[seen])
    ends = seen & np.isfinite(hi)
    vals[ends] -= radial_cdf(hi[ends])
    return wts[owner] * (w_theta * vals).sum(axis=1)


def _point_term_mass(pts, wts, L, term, radial_cdf, tol):
    """Sum over the points of weight times the mass of term minus the box
    seen from the point, converged arc by arc to tol relative to the total,
    or to the mass all points see beyond the box diagonal if that is larger.
    """
    if np.any(np.abs(pts) >= L):
        raise GeometryError("point integrals need points inside the box")
    floor = float(np.sum(wts)) * 2.0 * math.pi * radial_cdf(2.0 * math.sqrt(2.0) * L)
    return _converged_arc_sums(
        lambda arcs, n: _point_arc_sums(pts, wts, L, term, radial_cdf, arcs, n),
        _point_arcs(pts, L, term), floor, tol, "2D point integral")


# ---------------------------------------------------------------------------
# 2D cell tails by identity (alpha < 1)
#
# A square cell C has the finite fractional perimeter Per(C), the kernel
# over C x (R^2 \ C). The box is the union of the cells, so the tail of a
# cell against the whole plane minus the box is Per(C) minus its in-box
# pair weights. A half-plane H whose boundary is a grid line, or misses the
# open box, cuts no cell: a cell outside H sees all of H with a closed-form
# 1D marginal, a cell inside H sees Per(C) minus the marginal of the other
# side, and in both cases the in-box part of H is pair weights again.

_PERIMETER_CACHE: dict = {}


def _cell_perimeter(h: float, alpha: float) -> float:
    """Per(C) of an h x h cell, alpha < 1.

    By the line-measure identity a chord of length w contributes
    2 w^(1-alpha) / (alpha (1-alpha)). Integrating the square's trapezoidal
    chord profile over the line offsets leaves, by the eight symmetries,
    h^(2-alpha) 8 / (alpha (1-alpha)) times the integral over [0, pi/4] of
    cos^(alpha-1) t (cos t - sin t + 2 sin t / (2 - alpha)), which is smooth.
    """
    if alpha not in _PERIMETER_CACHE:
        x, w = _gauss01(24)
        c, s = np.cos(0.25 * math.pi * x), np.sin(0.25 * math.pi * x)
        f = c ** (alpha - 1.0) * (c - s + 2.0 * s / (2.0 - alpha))
        _PERIMETER_CACHE[alpha] = 2.0 * math.pi * float(w @ f) / (alpha * (1.0 - alpha))
    return h ** (2.0 - alpha) * _PERIMETER_CACHE[alpha]


def _halfplane_marginal(d1, h, alpha):
    """Kernel mass between an h x h cell and a half-plane whose boundary is
    parallel to a cell face, at distances d1 (near face) and d1 + h.

    Along the boundary direction the kernel integrates to
    c |d|^-(1+alpha), c = sqrt(pi) G((1+alpha)/2) / G(1+alpha/2); the rest
    is the chord mass of the cell's width at the gap d1.
    """
    c = math.sqrt(math.pi) * math.gamma(0.5 * (1.0 + alpha)) / math.gamma(1.0 + 0.5 * alpha)
    return c * h * _chord_mass(d1, h, alpha)


def _rect_sums(offsets, rows, cols):
    """S[ix, iy] = sum of offsets[|ix - jx|, |iy - jy|] over jx in rows and
    jy in cols (boolean masks), as two 1D passes in a fixed order."""
    m = offsets.shape[0]
    ax = np.arange(m)
    didx = np.abs(ax[:, None] - ax[None, :])
    part = np.zeros((m, m))
    for jy in np.flatnonzero(cols):
        part += offsets[:, didx[jy]]
    out = np.zeros((m, m))
    for jx in np.flatnonzero(rows):
        out += part[didx[jx]]
    return out


def _identity_term_tails(grid: Grid, offsets, alpha, term):
    """Tails of every cell against term minus the box, by the identities
    above; None for a term they do not cover (balls, sectors, oblique
    half-planes and axis half-planes whose boundary cuts cells)."""
    m, h, L = grid.spec.cells_per_side, grid.h, grid.spec.half_width
    every = np.ones(m, dtype=bool)
    per = _cell_perimeter(h, alpha)
    if term is None:
        return per - _rect_sums(offsets, every, every).ravel()
    if not isinstance(term, _HalfplaneTerm) or (term.normal[0] == 0.0) == (term.normal[1] == 0.0):
        return None
    axis = 0 if term.normal[1] == 0.0 else 1
    side = math.copysign(1.0, term.normal[axis])
    pos = term.offset / term.normal[axis]
    if abs(pos) < L and abs(pos + L - h * round((pos + L) / h)) > 1e-12 * h:
        return None
    dist = side * (grid.centers[:, axis] - pos)
    d1 = np.maximum(np.abs(dist) - 0.5 * h, 0.0)
    d1[d1 <= 1e-12 * h] = 0.0
    marginal = _halfplane_marginal(d1, h, alpha)
    member = side * (grid.axis - pos) > 0.0
    inbox = _rect_sums(offsets, *((member, every) if axis == 0 else (every, member))).ravel()
    return np.where(dist > 0.0, per - marginal, marginal) - inbox


# ---------------------------------------------------------------------------
# kernel table assembly

def _offsets_1d(m: int, h: float, alpha: float) -> np.ndarray:
    """Pair weights by index offset: cell_pair_weight of two touching cells
    at k = 1, _gauss_pair_weights_1d for k >= 2."""
    offs = np.zeros(m)
    offs[1] = cell_pair_weight(((0.0,), (h,)), ((h,), (2.0 * h,)), alpha)
    offs[2:] = _gauss_pair_weights_1d(np.arange(2, m), h, alpha)
    return offs


def _offsets_2d(m: int, h: float, alpha: float, tol: float) -> np.ndarray:
    """Pair weights by index offset (dx, dy): the touching offsets (0, 1) and
    (1, 1) by the polar rule, or the midpoint convention for alpha >= 1,
    and every other offset from one batched _separated_pair_weight_2d
    call, so each equals cell_pair_weight of its pair at tol."""
    offs = np.zeros((m, m))
    widths = np.array([h, h])
    if alpha >= 1.0:
        offs[0, 1] = _midpoint_touch_2d("edge", h, alpha)
        offs[1, 1] = _midpoint_touch_2d("corner", h, alpha)
    else:
        offs[0, 1] = _pair_weight_polar_2d(np.array([0.0, h]), widths, widths, alpha)
        offs[1, 1] = _pair_weight_polar_2d(np.array([h, h]), widths, widths, alpha)
    dx, dy = np.triu_indices(m)
    far = dy >= 2
    dx, dy = dx[far], dy[far]
    offs[dx, dy] = _separated_pair_weight_2d(
        np.stack([dx * h, dy * h], axis=1), widths, widths, alpha, tol)
    return offs + np.triu(offs, 1).T


def assemble_table(grid: Grid, alpha: float, tol: float = 1e-9) -> KernelTable:
    """All unordered pair weights of the grid, deduplicated by offset.

    Each offset's weight is cell_pair_weight of its pair of cells: the
    separated ones converged to the relative tol, the same tol that keys
    the table's tails.
    """
    _check_alpha(alpha)
    m, h = grid.spec.cells_per_side, grid.h
    if grid.dimension == 1:
        offsets = _offsets_1d(m, h, alpha)
    else:
        offsets = _offsets_2d(m, h, alpha, tol)
    return KernelTable(grid, alpha, tol, offsets)


class KernelTable:
    """Pair weights for one exponent on one grid, plus memoized tails.

    The grid is uniform, so pair weights depend only on the index offset;
    the dense W matrix is served from the offset table. The same-cell
    weight W_ii is stored as 0 (piecewise-constant convention).
    """

    def __init__(self, grid: Grid, alpha: float, tol: float, offset_weights: np.ndarray):
        self.grid = grid
        self.alpha = alpha
        self.tol = tol
        self.offset_weights = offset_weights
        self.offset_weights.setflags(write=False)
        self._tail_cache: dict = {}
        self._dense = None

    def dense_matrix(self) -> np.ndarray:
        if self._dense is None:
            m = self.grid.spec.cells_per_side
            ax = np.arange(m)
            didx = np.abs(ax[:, None] - ax[None, :])
            if self.grid.dimension == 1:
                dense = self.offset_weights[didx]
            else:
                dense = self.offset_weights[
                    didx[:, None, :, None], didx[None, :, None, :]
                ].reshape(m * m, m * m)
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def region_tails(self, region) -> np.ndarray:
        """Tail weight of every cell against one exterior region."""
        if region not in self._tail_cache:
            g = self.grid
            if g.dimension == 1:
                x = g.centers[:, 0]
                vals = _tails_1d(x - 0.5 * g.h, x + 0.5 * g.h, region, self.alpha)
            elif isinstance(region, Region2D):
                vals = np.zeros(g.n_cells)
                for coef, term in region.terms:
                    vals = vals + coef * self._term_tails_2d(region.box_half, term)
            else:
                raise GeometryError("region dimensionality does not match the grid")
            vals.setflags(write=False)
            self._tail_cache[region] = vals
        return self._tail_cache[region]

    def _term_tails_2d(self, box_half: float, term) -> np.ndarray:
        """Tails of every cell against one region term, memoized per term:
        complementary regions share their terms. For alpha < 1 the whole
        plane and half-planes on grid lines come from the cell-perimeter
        identities; every other term, and every term at alpha >= 1, is
        _cell_term_tail cell by cell."""
        key = ("term", box_half, term)
        if key not in self._tail_cache:
            g = self.grid
            half = 0.5 * g.h
            vals = None
            if box_half == g.spec.half_width and self.alpha < 1.0:
                vals = _identity_term_tails(g, self.offset_weights, self.alpha, term)
            if vals is None:

                def block(idx):
                    return np.array([
                        _cell_term_tail(g.centers[i] - half, g.centers[i] + half,
                                        box_half, term, self.alpha, self.tol)
                        for i in idx
                    ])

                chunks = np.array_split(np.arange(g.n_cells), max(1, g.n_cells // 4))
                vals = np.concatenate(map_blocks(block, chunks))
            self._tail_cache[key] = vals
        return self._tail_cache[key]

    def set_tails(self, set_spec):
        """(T+, T-): tails against E0 minus box and E0-complement minus box."""
        pos, neg = set_exterior_regions(set_spec, self.grid)
        return self.region_tails(pos), self.region_tails(neg)

    def function_tails(self, func_spec, need_m2: bool = True):
        """Moment triple (T0, M1, M2) of the datum over the box exterior.

        T0_i integrates the bare kernel over C_i x box^c, M1_i the datum
        against the kernel, M2_i the squared datum. Every supported datum
        reduces to this triple, which is all the energy and the operator
        need of the far field: sums over the pieces of datum_far_pieces, or
        for a homogeneous profile the ray tails plus a chord-mass
        quadrature converged to the table's tol. M2 can be skipped
        (operator use): square moments of a growing profile may diverge
        while M1 still exists.
        """
        key = ("moments", func_spec, bool(need_m2))
        if key in self._tail_cache:
            return self._tail_cache[key]
        g = self.grid
        if isinstance(func_spec, ConeF):
            out = self._cone_moments(func_spec, need_m2)
        else:
            t0, m1, m2 = (np.zeros(g.n_cells) for _ in range(3))
            for value, region in datum_far_pieces(func_spec, g.spec.half_width, g.dimension):
                t = self.region_tails(region)
                t0 = t0 + t
                m1 = m1 + value * t
                m2 = m2 + value * value * t
            out = (t0, m1, m2)
        for arr in out:
            if arr is not None:
                arr.setflags(write=False)
        self._tail_cache[key] = out
        return out

    def _cone_moments(self, func: ConeF, need_m2: bool = True):
        """Datum moments for a homogeneous profile: each side adds
        (amp g)^p int_L^inf t^(degree p) k_i(t) dt to M_p, p = 1, 2, from
        _ray_power_moments, with the left side's cells reflected and a side
        with g = 0 skipped; each side meets tol relative to itself. They exist
        for degree < alpha (M1) and 2*degree < alpha (M2)."""
        g = self.grid
        if g.dimension != 1:
            raise IncompleteDatumError("homogeneous-profile tails supported in 1D only")
        kappa, alpha, power = func.degree, self.alpha, 2 if need_m2 else 1
        if power * kappa >= alpha:
            raise IncompleteDatumError(
                f"profile degree {kappa} has no kernel moment of power {power} at "
                f"exponent {alpha} (needs {power}*degree < alpha)")
        L, m = g.spec.half_width, g.n_cells
        # the cells, then the left side's cells reflected onto the right
        c = np.concatenate([g.centers[:, 0], -g.centers[:, 0]])
        e, f = c - 0.5 * g.h, c + 0.5 * g.h
        tails = _tails_1d(e, f, ray_region(L, +1), alpha)
        gap = np.where(L - f <= _TOUCH_SNAP * g.h, 0.0, L - f)
        coef = np.repeat(func.amp * np.asarray(func.profile, dtype=float), m)
        live = coef != 0.0

        def moment(p):
            sides = np.zeros(2 * m)
            sides[live] = coef[live]**p * _ray_power_moments(
                gap[live], g.h, tails[live], L, kappa * p, alpha, self.tol)
            return sides[:m] + sides[m:]

        # both rays' tails, exactly as region_tails sums its two pieces
        return tails[:m] + tails[m:], moment(1), (moment(2) if need_m2 else None)
