"""Interaction weights for the singular kernel |x-y|^(-(n+alpha)).

Cell-pair weights W_ij (the kernel integrated over C_i x C_j) are exact in
1D via a double antiderivative. In 2D they reduce to the difference
variable: separated pairs take tensor Gauss, touching pairs an angular
rule with exact radial integrals. Tail weights integrate a cell against an
unbounded exterior region: closed forms in 1D; in 2D, for alpha < 1, the
exact 1D pair weight along every line through the cell, with quadrature
over the lines only (Santalo's line-measure identity). A table serves two
kinds of 2D term by identity instead: the whole plane (the closed-form
perimeter of a square cell minus its in-box pair weights) and axis
half-planes whose boundary is a grid line or misses the open box (a
closed-form 1D marginal, or the perimeter minus the other side's marginal,
minus in-box pair weights). Balls, sectors and every other half-plane stay
on the line engine.

Every 2D point integral (a radially symmetric density seen from a point
inside the box, against one region term beyond it) takes one rule: the
exact radial mass along each ray, with Gauss-Legendre in the direction on
arcs split at the line engine's feature directions. Both engines double
the order arc by arc until the result meets its tolerance, and warn if
the order cap stops them first.

For alpha >= 1 the exact integral over touching geometry diverges and
fixed conventions replace it: the closed-form convention in 1D; in 2D the
midpoint value for touching pairs, and for tails a dyadic subdivision of
the cell toward the box boundary whose midpoint leaves each take the
point rule.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
import zipfile
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

CACHE_VERSION = 2
NEAR_FACTOR = 2.0          # subdivide cells nearer the box boundary than this many diameters
DEPTH_1D = 12
DEPTH_2D = 6


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"kernel exponent must lie in (0,2), got {alpha}")


# ---------------------------------------------------------------------------
# 1D closed forms

def _pair_weight_1d(a, b, c, d, alpha):
    """Exact integral of (y-x)^(-(1+alpha)) over [a,b] x [c,d] with c >= b.

    d may be +inf. Touching intervals (c == b) are fine for alpha < 1; for
    alpha >= 1 the touching integral diverges and callers must regularize.
    """
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    if alpha == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                np.isinf(d),
                (c - a) / (c - b),
                ((c - a) * (d - b)) / ((c - b) * (d - a)),
            )
            return np.log(ratio)
    p = 1.0 - alpha
    d_fin = np.where(np.isinf(d), c + 1.0, d)
    with np.errstate(divide="ignore"):
        ca = (c - a) ** p
        cb = (c - b) ** p
        dterm = np.where(np.isinf(d), 0.0, (d_fin - a) ** p - (d_fin - b) ** p)
    return (ca - cb - dterm) / (alpha * p)


def _point_piece_1d(p, a, b, alpha):
    """Integral of |p-y|^(-(1+alpha)) over [a,b] with p < a; b may be inf."""
    ta = (a - p) ** (-alpha)
    tb = 0.0 if math.isinf(b) else (b - p) ** (-alpha)
    return (ta - tb) / alpha


# ---------------------------------------------------------------------------
# subdivision / regularization for touching pairs

def _subdivided_pair_weight_1d(a, b, c, d, alpha, depth):
    """Dyadic subdivision of a touching 1D pair with midpoint leaves.

    Kept as the cross-check companion of the closed form (alpha < 1) and
    as the depth-limited regularization of the divergent touching integral
    (alpha >= 1). Cost is linear in depth: each split leaves exactly one
    touching sub-pair, the separated sub-pairs are evaluated exactly.
    """
    parts = []
    for _ in range(depth):
        am, cm = 0.5 * (a + b), 0.5 * (c + d)
        parts.append(float(_pair_weight_1d(a, am, c, cm, alpha)))
        parts.append(float(_pair_weight_1d(a, am, cm, d, alpha)))
        parts.append(float(_pair_weight_1d(am, b, cm, d, alpha)))
        a, d = am, cm
    parts.append((b - a) * (d - c) * (0.5 * (c + d) - 0.5 * (a + b)) ** (-(1.0 + alpha)))
    return ordered_sum(parts)


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
    """Breakpoints of the correlation trapezoid of two widths at offset delta."""
    half_sum = 0.5 * (wa + wb)
    half_diff = 0.5 * abs(wa - wb)
    pts = [delta - half_sum, delta - half_diff, delta + half_diff, delta + half_sum]
    return [(pts[i], pts[i + 1]) for i in range(3) if pts[i + 1] > pts[i]]


def _trap_value(t, delta, wa, wb):
    return np.maximum(
        0.0, np.minimum(np.minimum(wa, wb), 0.5 * (wa + wb) - np.abs(t - delta))
    )


def _pair_weight_gauss_2d(delta, wa, wb, alpha, order):
    """Tent-reduced weight for a separated 2D pair, tensor Gauss per patch."""
    xs, ws = _gauss01(order)
    total = 0.0
    for p0 in _axis_patches(delta[0], wa[0], wb[0]):
        for p1 in _axis_patches(delta[1], wa[1], wb[1]):
            t0 = p0[0] + (p0[1] - p0[0]) * xs
            t1 = p1[0] + (p1[1] - p1[0]) * xs
            f0 = _trap_value(t0, delta[0], wa[0], wb[0])
            f1 = _trap_value(t1, delta[1], wa[1], wb[1])
            r2 = t0[:, None] ** 2 + t1[None, :] ** 2
            kern = r2 ** (-(2.0 + alpha) / 2.0)
            patch = (ws * f0) @ kern @ (ws * f1)
            total += (p0[1] - p0[0]) * (p1[1] - p1[0]) * patch
    return float(total)


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
    lin = []
    for k in range(2):
        half_sum = 0.5 * (wa[k] + wb[k])
        half_diff = 0.5 * abs(wa[k] - wb[k])
        if d[k] == 0.0:
            if _trap_value(0.0, delta[k], wa[k], wb[k]) <= 0.0:
                return 0.0
            lin.append(None)
            continue
        z0 = (delta[k] - half_sum) / d[k]
        z1 = (delta[k] + half_sum) / d[k]
        lo_t = max(lo_t, min(z0, z1))
        hi_t = min(hi_t, max(z0, z1))
        for kk in ((delta[k] - half_diff) / d[k], (delta[k] + half_diff) / d[k]):
            kinks.append(kk)
        lin.append(k)
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
            if d[k] == 0.0:
                coeffs.append((val, 0.0))
                continue
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
    the kernel singularity but the product vanishes there. The arcs split
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
        if a1 <= a0:
            continue
        width = a1 - a0
        for x, w in zip(xs, ws):
            total += width * w * _ray_tent_integral(a0 + width * x, delta, wa, wb, alpha)
    return total


def cell_pair_weight(cell_a, cell_b, alpha: float, tol: float = 1e-9) -> float:
    """Kernel weight of a cell pair; cells given as (lower, upper) corners.

    Identical cells use the same-cell convention (weight 0). Overlapping
    distinct cells are a geometry error. Touching pairs with alpha >= 1 take
    a convention in place of the divergent integral: the closed form of
    _consistent_touch_1d in 1D, the midpoint value in 2D.
    """
    _check_alpha(alpha)
    lo_a, hi_a = _normalize_cell(cell_a)
    lo_b, hi_b = _normalize_cell(cell_b)
    n = lo_a.size
    if np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b):
        return 0.0
    gaps = np.maximum(lo_a - hi_b, lo_b - hi_a)
    if (gaps < 0.0).all():
        raise GeometryError("distinct cells overlap")
    if n == 1:
        if lo_b[0] < lo_a[0]:
            lo_a, hi_a, lo_b, hi_b = lo_b, hi_b, lo_a, hi_a
        touching = hi_a[0] >= lo_b[0]
        if touching and alpha >= 1.0:
            if not np.isclose(hi_a[0] - lo_a[0], hi_b[0] - lo_b[0]):
                raise ParameterError(
                    "touching pairs with alpha >= 1 are regularized for "
                    "equal cells only"
                )
            return _consistent_touch_1d(hi_a[0] - lo_a[0], alpha)
        return float(_pair_weight_1d(lo_a[0], hi_a[0], lo_b[0], hi_b[0], alpha))
    delta = 0.5 * (lo_a + hi_a) - 0.5 * (lo_b + hi_b)
    wa, wb = hi_a - lo_a, hi_b - lo_b
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
    w1 = _pair_weight_gauss_2d(delta, wa, wb, alpha, 12)
    w2 = _pair_weight_gauss_2d(delta, wa, wb, alpha, 18)
    if abs(w2 - w1) > tol * max(abs(w2), 1e-300):
        w2 = _pair_weight_gauss_2d(delta, wa, wb, alpha, 32)
    return w2


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
    if hasattr(set_spec, "edges"):
        return [e for e in set_spec.edges] + [-e for e in set_spec.edges]
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


def _complement_terms(terms):
    return tuple([(1.0, None)] + [(-c, t) for c, t in terms])


def set_exterior_regions(set_spec, grid: Grid):
    """Regions (E0 minus box, E0 complement minus box) for a phase set."""
    L = grid.spec.half_width
    if grid.dimension == 1:
        return _set_regions_1d(set_spec, L)
    pos = tuple(_set_terms_2d(set_spec))
    return Region2D(L, pos), Region2D(L, _complement_terms(pos))


def point_region_integral(p, region, alpha: float, tol: float = 1e-8) -> float:
    """Integral of |p-y|^(-(n+alpha)) over an exterior region."""
    _check_alpha(alpha)
    if isinstance(region, Region1D):
        if region.is_empty():
            return 0.0
        px = float(np.atleast_1d(p)[0])
        parts = []
        for a, b in region.pieces:
            if a <= px <= b:
                raise GeometryError("region overlaps the evaluation point")
            if px < a:
                parts.append(_point_piece_1d(px, a, b, alpha))
            else:
                parts.append(_point_piece_1d(-px, -b, -a, alpha))
        return ordered_sum(parts)
    pts = np.asarray(p, dtype=float).reshape(1, 2)
    cdf = lambda t: t ** (-alpha) / alpha
    return ordered_sum([coef * _point_term_mass(pts, np.ones(1), region.box_half, term,
                                                cdf, tol)
                        for coef, term in region.terms])


def _regularized_ray_1d(e, f, a, b, alpha):
    """Touching cell-ray weight, alpha >= 1: dyadic slabs toward the contact
    point f == a, closed form per separated slab, midpoint on the sliver."""
    parts = []
    w = f - e
    for k in range(DEPTH_1D):
        slab_lo = f - w * 2.0 ** (-k)
        slab_hi = f - w * 2.0 ** (-k - 1)
        parts.append(float(_pair_weight_1d(slab_lo, slab_hi, a, b, alpha)))
    sliver_lo = f - w * 2.0 ** (-DEPTH_1D)
    mid = 0.5 * (sliver_lo + f)
    parts.append((f - sliver_lo) * _point_piece_1d(mid, a, b, alpha))
    return ordered_sum(parts)


def tail_weight(cell, region, alpha: float, tol: float = 1e-8) -> float:
    """Kernel weight of a cell against an unbounded exterior region.

    1D is closed form (exact out to infinity); a region touching the cell
    with alpha >= 1 uses a depth-limited regularization. 2D integrates
    exactly along lines for alpha < 1, with quadrature over the lines only;
    for alpha >= 1 it subdivides the cell toward the box boundary and
    integrates the region from every leaf centre by the point rule.
    """
    _check_alpha(alpha)
    lo, hi = _normalize_cell(cell)
    n = lo.size
    if n == 1:
        if not isinstance(region, Region1D):
            raise GeometryError("region dimensionality does not match the cell")
        if region.is_empty():
            return 0.0
        e, f = lo[0], hi[0]
        parts = []
        snap = 1e-9 * (f - e)
        for a, b in region.pieces:
            overlap = min(b, f) - max(a, e)
            if overlap > snap:
                raise GeometryError("region overlaps the cell")
            if overlap > 0.0:
                # roundoff overhang of a cell edge against the box boundary
                if a <= e:
                    b = min(b, e)
                else:
                    a = max(a, f)
            if a >= f:
                if a == f and alpha >= 1.0:
                    parts.append(_regularized_ray_1d(e, f, a, b, alpha))
                else:
                    parts.append(float(_pair_weight_1d(e, f, a, b, alpha)))
            else:
                if b == e and alpha >= 1.0:
                    parts.append(_regularized_ray_1d(-f, -e, -b, -a, alpha))
                else:
                    parts.append(float(_pair_weight_1d(-f, -e, -b, -a, alpha)))
        return ordered_sum(parts)
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

LINE_ORDER_START = 8          # per-arc Gauss orders of the line engine and the point rule
LINE_ORDER_MAX = 128
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
    """_pair_weight_1d of the cell chord [a, b] against the part [b + u0,
    b + u1] of the term beyond the box exit, on the lines rho n + t d
    with d = (c, s), n = (-s, c); rho has one row per direction.

    It is F(u0) - F(u1) with F(u) = (u + w)^p - u^p, w = b - a and
    p = 1 - alpha; this form keeps its digits when u is large against w.
    A cell face on the box boundary gives u0 == 0 exactly, because the
    cell exit and the box exit come from the same expression.
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
    # which the u^p of F would magnify: such gaps are closed
    snap = 1e-13 * L
    u0 = np.maximum(np.maximum(t_lo, exit_) - b, 0.0)
    u0 = np.where(u0 <= snap, 0.0, u0)
    u1 = np.maximum(t_hi - b, u0)
    u1 = np.where(u1 - u0 <= snap, u0, u1)
    p = 1.0 - alpha

    def f(u):
        out = np.zeros(u.shape)
        touch = u == 0.0
        out[touch] = w[touch] ** p
        gap = (u > 0.0) & np.isfinite(u)
        ug = u[gap]
        out[gap] = ug**p * np.expm1(p * np.log1p(w[gap] / ug))
        return out

    far = f(u1) if np.isfinite(u1).any() else 0.0
    return (f(u0) - far) / (alpha * p)


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
    is (d2^p - d1^p) / (alpha p), p = 1 - alpha, written so far cells keep
    their digits.
    """
    c = math.sqrt(math.pi) * math.gamma(0.5 * (1.0 + alpha)) / math.gamma(1.0 + 0.5 * alpha)
    p = 1.0 - alpha
    out = np.full(d1.shape, h**p)
    gap = d1 > 0.0
    out[gap] = d1[gap] ** p * np.expm1(p * np.log1p(h / d1[gap]))
    return c * h * out / (alpha * p)


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
    offs = np.zeros(m)
    if m >= 2:
        if alpha >= 1.0:
            offs[1] = _consistent_touch_1d(h, alpha)
        else:
            offs[1] = float(_pair_weight_1d(0.0, h, h, 2.0 * h, alpha))
    if m >= 3:
        ks = np.arange(2, m, dtype=float)
        offs[2:] = _pair_weight_1d(0.0, h, ks * h, (ks + 1.0) * h, alpha)
    return offs


def _offsets_2d(m: int, h: float, alpha: float) -> np.ndarray:
    offs = np.zeros((m, m))
    cell = (np.array([0.0, 0.0]), np.array([h, h]))
    widths = np.array([h, h])

    def row(dx: int) -> np.ndarray:
        vals = np.zeros(m)
        for dy in range(dx, m):
            if dx == 0 and dy == 0:
                continue
            delta = np.array([dx * h, dy * h])
            if max(dx, dy) <= 1:  # touching offsets (0,1) and (1,1)
                if alpha >= 1.0:
                    kind = "edge" if min(dx, dy) == 0 else "corner"
                    vals[dy] = _midpoint_touch_2d(kind, h, alpha)
                else:
                    vals[dy] = _pair_weight_polar_2d(delta, widths, widths, alpha)
            else:
                vals[dy] = _pair_weight_gauss_2d(delta, widths, widths, alpha, 12)
        return vals

    rows = map_blocks(row, list(range(m)))
    for dx, vals in enumerate(rows):
        offs[dx, dx:] = vals[dx:]
        offs[dx:, dx] = vals[dx:]
    return offs


def _cache_header(grid: Grid, alpha: float, tol: float) -> dict:
    spec = grid.spec
    return {
        "version": CACHE_VERSION,
        "n": spec.dimension,
        "m": spec.cells_per_side,
        "L": spec.half_width,
        "alpha": alpha,
        "tol": tol,
    }


def _cache_path(cache_dir: str, header: dict) -> str:
    blob = json.dumps(header, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()[:16]
    return os.path.join(cache_dir, f"ktable-{digest}.npz")


def _load_cached_offsets(path: str, header: dict):
    """Offsets stored at path under the same header, or None.

    A missing, truncated or otherwise unreadable file is a miss, like a
    file written under another header.
    """
    try:
        with np.load(path, allow_pickle=False) as payload:
            if json.loads(str(payload["header"])) != header:
                return None
            return payload["offsets"].copy()
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None


def _store_offsets(path: str, header: dict, offsets: np.ndarray) -> None:
    """Write through a temporary file beside path, then rename over it, so
    readers only ever see a complete file."""
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, header=json.dumps(header, sort_keys=True), offsets=offsets)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def assemble_table(grid: Grid, alpha: float, tol: float = 1e-9,
                   cache_dir: str | None = None) -> KernelTable:
    """All unordered pair weights of the grid, deduplicated by offset.

    Deterministic regardless of worker count: rows are computed in fixed
    blocks and merged in index order. With ``cache_dir`` the offset array
    is cached on disk keyed by (n, m, L, alpha, tol, version); an
    unreadable cache file is recomputed and rewritten.
    """
    _check_alpha(alpha)
    header = _cache_header(grid, alpha, tol)
    if cache_dir is not None:
        path = _cache_path(cache_dir, header)
        offsets = _load_cached_offsets(path, header)
        if offsets is not None:
            return KernelTable(grid, alpha, tol, offsets)
    m, h = grid.spec.cells_per_side, grid.h
    if grid.dimension == 1:
        offsets = _offsets_1d(m, h, alpha)
    else:
        offsets = _offsets_2d(m, h, alpha)
    if cache_dir is not None:
        _store_offsets(path, header, offsets)
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

    def pair_weight(self, i: int, j: int) -> float:
        if self.grid.dimension == 1:
            return float(self.offset_weights[abs(i - j)])
        m = self.grid.spec.cells_per_side
        ix, iy = divmod(i, m)
        jx, jy = divmod(j, m)
        return float(self.offset_weights[abs(ix - jx), abs(iy - jy)])

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
            half = 0.5 * g.h
            if g.dimension == 2 and isinstance(region, Region2D):
                vals = np.zeros(g.n_cells)
                for coef, term in region.terms:
                    vals = vals + coef * self._term_tails_2d(region.box_half, term)
            else:

                def block(idx):
                    out = np.empty(len(idx))
                    for k, i in enumerate(idx):
                        lo = g.centers[i] - half
                        hi = g.centers[i] + half
                        out[k] = tail_weight((lo, hi), region, self.alpha,
                                             tol=self.tol)
                    return out

                chunks = np.array_split(
                    np.arange(g.n_cells), max(1, g.n_cells // 256)
                )
                vals = np.concatenate(map_blocks(block, chunks))
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
        need of the far field. M2 can be skipped (operator use): square
        moments of a growing profile may diverge while M1 still exists.
        """
        key = ("moments", func_spec, bool(need_m2))
        if key in self._tail_cache:
            return self._tail_cache[key]
        if isinstance(func_spec, ConstantF):
            pos, neg = set_exterior_regions(FullSet(1), self.grid)
            t0 = self.region_tails(pos) + self.region_tails(neg)
            v = func_spec.value
            out = (t0, v * t0, v * v * t0)
        elif isinstance(func_spec, IndicatorF):
            tp, tn = self.set_tails(func_spec.set_spec)
            a = func_spec.amp
            out = (tp + tn, a * (tp - tn), a * a * (tp + tn))
        elif isinstance(func_spec, TabulatedF):
            out = self._tabulated_moments(func_spec)
        elif isinstance(func_spec, ConeF):
            out = self._cone_moments(func_spec, need_m2)
        else:
            raise IncompleteDatumError(
                f"datum {func_spec!r} has no analytic tail for energy terms"
            )
        for arr in out:
            if arr is not None:
                arr.setflags(write=False)
        self._tail_cache[key] = out
        return out

    def _tabulated_moments(self, func: TabulatedF):
        g = self.grid
        if g.dimension != 1:
            raise IncompleteDatumError("tabulated data supported in 1D only")
        if func.far_value is None:
            raise IncompleteDatumError(
                "tabulated datum lacks coverage beyond its last shell"
            )
        pieces = []
        edges = list(func.edges)
        for k in range(len(edges) - 1):
            pieces.append((func.right[k], interval_region(edges[k], edges[k + 1])))
            pieces.append((func.left[k], interval_region(-edges[k + 1], -edges[k])))
        pieces.append((func.far_value, ray_region(edges[-1], +1)))
        pieces.append((func.far_value, ray_region(-edges[-1], -1)))
        t0 = np.zeros(g.n_cells)
        m1 = np.zeros(g.n_cells)
        m2 = np.zeros(g.n_cells)
        for val, reg in pieces:
            t = self.region_tails(reg)
            t0 = t0 + t
            m1 = m1 + val * t
            m2 = m2 + val * val * t
        return t0, m1, m2

    def _cone_moments(self, func: ConeF, need_m2: bool = True):
        """Datum moments for a homogeneous profile, by adaptive quadrature.

        Integrability requires degree < alpha for M1 and 2*degree < alpha
        for M2 (otherwise the far field is not energy-admissible).
        """
        g = self.grid
        if g.dimension != 1:
            raise IncompleteDatumError("homogeneous-profile tails supported in 1D only")
        kappa = func.degree
        alpha = self.alpha
        if kappa >= alpha:
            raise IncompleteDatumError(
                f"profile degree {kappa} has no kernel moment at exponent {alpha} "
                f"(needs degree < alpha)"
            )
        if need_m2 and 2.0 * kappa >= alpha:
            raise IncompleteDatumError(
                f"profile degree {kappa} is not square-integrable against the "
                f"exponent-{alpha} kernel tail (needs 2*degree < alpha)"
            )
        from scipy.integrate import quad

        L = g.spec.half_width
        h = g.h
        gplus, gminus = func.profile
        amp = func.amp
        both_rays = Region1D(((L, math.inf), (-math.inf, -L)))
        t0 = self.region_tails(both_rays).copy()
        m1 = np.zeros(g.n_cells)
        m2 = np.zeros(g.n_cells)
        for i in range(g.n_cells):
            e = g.centers[i, 0] - 0.5 * h
            f = g.centers[i, 0] + 0.5 * h
            for gval, lo_ref, hi_ref in ((gplus, e, f), (gminus, -f, -e)):
                if gval == 0.0:
                    continue
                # reflected cell for the left ray; exterior variable t > L
                touching = hi_ref >= L - 1e-12 * L
                if touching and alpha >= 1.0:
                    # depth-limited sliver, matching the regularized T0
                    delta = (hi_ref - lo_ref) * 2.0 ** (-DEPTH_1D)
                    hi_eff = hi_ref - delta
                    mid = hi_ref - 0.5 * delta

                    def kern(t, lo=lo_ref, hi=hi_eff, d=delta, m=mid):
                        base = ((t - hi) ** (-alpha) - (t - lo) ** (-alpha)) / alpha
                        return base + d * (t - m) ** (-1.0 - alpha)
                else:
                    def kern(t, lo=lo_ref, hi=hi_ref):
                        return ((t - hi) ** (-alpha) - (t - lo) ** (-alpha)) / alpha

                def moment(power):
                    # quad's roundoff-stall warning on the decaying far part
                    # is benign at this tolerance; full_output suppresses it
                    coef = (amp * gval) ** power
                    fn = lambda t: coef * t ** (kappa * power) * kern(t)
                    near = quad(fn, L, L + 2.0 * h, epsabs=0.0, epsrel=1e-10,
                                limit=200, full_output=1)
                    far = quad(fn, L + 2.0 * h, math.inf, epsabs=0.0,
                               epsrel=1e-10, limit=400, full_output=1)
                    return near[0] + far[0]

                m1[i] += moment(1)
                if need_m2:
                    m2[i] += moment(2)
        return t0, m1, (m2 if need_m2 else None)
