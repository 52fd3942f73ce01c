"""Upper half-space extensions and their weighted Dirichlet diagnostics.

A function on R^n extends to the half space z > 0 by convolution with the
order-beta Poisson kernel z^beta / (|x|^2 + z^2)^((n+beta)/2); a phase set
extends through its +-1 indicator. Discrete kernel rows are normalized to
unit mass, so constants extend exactly and no dimensional constant is
carried. In 2D the rows at lattice nodes are FFT convolutions (the
midpoint kernel depends only on the index offset) and rows at off-lattice
nodes are direct sums; both share one far-field step and are unit-mass.
That step is exact for half-planes and full sets; for balls and sectors
each region term's mass beyond the padded box comes from the split-arc
point rule of ``quadrature`` (exact radial mass per ray, Gauss-Legendre
in the direction, order doubled until FAR_MASS_TOL is met).
On top of the extensions live the weighted Dirichlet energy over
half-balls, the radial monotonicity profile (Weiss-type functional), and
the translation-defect probe for homogeneous pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2
from scipy.special import betainc

from .errors import (
    FreeBoundaryError,
    IncompleteDatumError,
    InvalidSpecError,
    OutOfRangeError,
)
from .model import (
    AdmissiblePair,
    ConeF,
    ConstantF,
    DiscreteFunction,
    FractionalParams,
    FullSet,
    Grid,
    HalfspaceSet,
    IndicatorF,
    PhaseSet,
    SectorSet,
    TabulatedF,
)
from .numerics import ordered_sum, smoothstep_quintic
from .quadrature import _point_term_mass, _set_regions_1d, _set_terms_2d

STRETCH_RATIO = 1.10       # geometric sampling of unbounded smooth data
FAR_FACTOR = 1.0e5         # sampling reach in units of the top level
FAR_MASS_TOL = 1e-8        # relative tolerance of the 2D Poisson far masses


# ---------------------------------------------------------------------------
# half grid

@dataclass(frozen=True)
class HalfGrid:
    """Vertical levels over a (possibly padded) copy of the base grid."""

    grid: Grid
    levels: tuple
    pad_cells: int = 0

    def __post_init__(self):
        z = np.asarray(self.levels)
        if z.size == 0 or z[0] <= 0.0 or not np.all(np.diff(z) > 0.0):
            raise InvalidSpecError("levels must be positive and increasing")

    @property
    def padded_axis(self) -> np.ndarray:
        g = self.grid
        m = g.spec.cells_per_side + 2 * self.pad_cells
        lp = self.padded_half_width
        return -lp + g.h * (np.arange(m) + 0.5)

    @property
    def padded_half_width(self) -> float:
        return self.grid.spec.half_width + self.pad_cells * self.grid.h

    def z_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)

    def z_bin_integrals(self, a: float) -> np.ndarray:
        """Per-level integral of z^a over the level's vertical bin.

        Bins: (0, (z1+z2)/2], ..., ((z_{q-1}+z_q)/2, z_q]. Exact in z,
        which keeps singular weights (a < 0) well behaved near z = 0.
        """
        z = self.z_array()
        edges = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [z[-1]]])
        p = 1.0 + a
        return (edges[1:] ** p - edges[:-1] ** p) / p


def make_half_grid(grid: Grid, ratio: float = 1.15, z_first: float | None = None,
                   levels: int | None = None, top: float | None = None,
                   pad_cells: int = 0) -> HalfGrid:
    """Geometric levels z_k = z_first * ratio^k reaching the requested top."""
    z1 = 0.5 * grid.h if z_first is None else z_first
    if levels is None:
        if top is None:
            top = 1.25 * grid.spec.domain_radius
        levels = 1 + max(0, int(math.ceil(math.log(top / z1) / math.log(ratio))))
    zs = tuple(z1 * ratio**k for k in range(levels))
    return HalfGrid(grid, zs, pad_cells)


# ---------------------------------------------------------------------------
# Poisson kernel masses

def _std_mass(v, beta: float):
    """CDF of the standardized order-beta Poisson kernel in one variable."""
    v = np.asarray(v, dtype=float)
    with np.errstate(invalid="ignore"):
        x = np.where(np.isinf(v), 1.0, v * v / (1.0 + v * v))
    return 0.5 + 0.5 * np.sign(v) * betainc(0.5, 0.5 * beta, x)


def _interval_masses(x, z: float, lo, hi, beta: float):
    """Kernel mass of intervals [lo, hi] seen from points x at height z."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    vlo = (lo[None, :] - x[:, None]) / z
    vhi = (hi[None, :] - x[:, None]) / z
    return _std_mass(vhi, beta) - _std_mass(vlo, beta)


# ---------------------------------------------------------------------------
# extended fields

class ExtendedField:
    """Values on the half grid; row 0 is the trace at z = 0."""

    def __init__(self, half_grid: HalfGrid, values: np.ndarray, weight_exponent: float):
        if not np.isfinite(values).all():
            raise InvalidSpecError("extended field values must be finite")
        self.half_grid = half_grid
        self.values = values
        self.weight_exponent = weight_exponent
        self._grad2 = None

    @property
    def trace(self) -> np.ndarray:
        return self.values[0]

    def gradient_squared(self) -> np.ndarray:
        """|grad|^2 at every node with z > 0 (central differences)."""
        if self._grad2 is None:
            hg = self.half_grid
            h = hg.grid.h
            z = np.concatenate([[0.0], hg.z_array()])
            vals = self.values
            total = np.zeros_like(vals[1:])
            for axis in range(1, vals.ndim):
                d = np.gradient(vals, h, axis=axis, edge_order=1)
                total += d[1:] ** 2
            dz = np.gradient(vals, z, axis=0, edge_order=1)
            total += dz[1:] ** 2
            self._grad2 = total
        return self._grad2


# ---------------------------------------------------------------------------
# 1D extension

def _far_pieces_1d(func_spec, lp: float, z_top: float):
    """Triples (lo, hi, value) describing the datum beyond half-width lp."""
    if isinstance(func_spec, ConstantF):
        pos, _ = _set_regions_1d(FullSet(1), lp)
        return [(a, b, func_spec.value) for a, b in pos.pieces]
    if isinstance(func_spec, IndicatorF):
        pos, neg = _set_regions_1d(func_spec.set_spec, lp)
        return [(a, b, func_spec.amp) for a, b in pos.pieces] + [
            (a, b, -func_spec.amp) for a, b in neg.pieces
        ]
    if isinstance(func_spec, TabulatedF):
        if func_spec.far_value is None:
            raise IncompleteDatumError("tabulated datum lacks far coverage")
        out = []
        edges = list(func_spec.edges)
        for k in range(len(edges) - 1):
            if edges[k + 1] > lp:
                out.append((max(edges[k], lp), edges[k + 1], func_spec.right[k]))
            if edges[k + 1] > lp:
                out.append((-edges[k + 1], min(-edges[k], -lp), func_spec.left[k]))
        out.append((max(edges[-1], lp), math.inf, func_spec.far_value))
        out.append((-math.inf, -max(edges[-1], lp), func_spec.far_value))
        return out
    if isinstance(func_spec, ConeF):
        blocks = _stretch_blocks(lp, z_top)
        mids = 0.5 * (blocks[:-1] + blocks[1:])
        out = []
        for side in (1.0, -1.0):
            vals = func_spec.evaluate((side * mids)[:, None])
            for k in range(mids.size):
                lo = side * blocks[k] if side > 0 else -blocks[k + 1]
                hi = side * blocks[k + 1] if side > 0 else -blocks[k]
                out.append((lo, hi, vals[k]))
        return out
    raise IncompleteDatumError(f"no far-field rule for {func_spec!r}")


def _stretch_blocks(lp: float, z_top: float) -> np.ndarray:
    t_max = max(64.0 * lp, FAR_FACTOR * z_top)
    count = 1 + int(math.ceil(math.log(t_max / lp) / math.log(STRETCH_RATIO)))
    return lp * STRETCH_RATIO ** np.arange(count)


def _make_row_1d(hg: HalfGrid, trace_vals: np.ndarray, func_spec, beta: float):
    """Evaluator: row(x_targets, z) of the 1D extension at any points."""
    axis = hg.padded_axis
    h = hg.grid.h
    edges = np.concatenate([axis - 0.5 * h, [axis[-1] + 0.5 * h]])
    pieces = _far_pieces_1d(func_spec, hg.padded_half_width, float(hg.z_array()[-1]))
    p_lo = np.array([p[0] for p in pieces])
    p_hi = np.array([p[1] for p in pieces])
    p_val = np.array([p[2] for p in pieces])

    def row(x_targets: np.ndarray, z: float) -> np.ndarray:
        w_in = _interval_masses(x_targets, float(z), edges[:-1], edges[1:], beta)
        num = w_in @ trace_vals
        den = w_in.sum(axis=1)
        if p_lo.size:
            w_far = _interval_masses(x_targets, float(z), p_lo, p_hi, beta)
            num = num + w_far @ p_val
            den = den + w_far.sum(axis=1)
        return num / den

    return row


def _extend_1d(hg: HalfGrid, trace_vals: np.ndarray, func_spec, beta: float):
    axis = hg.padded_axis
    row = _make_row_1d(hg, trace_vals, func_spec, beta)
    q = len(hg.levels)
    out = np.empty((q + 1, axis.size))
    out[0] = trace_vals
    for k, z in enumerate(hg.z_array()):
        out[k + 1] = row(axis, float(z))
    return out


# ---------------------------------------------------------------------------
# 2D extension

def _total_set_mass_2d(pts, z: float, set_spec, beta: float):
    """Kernel mass of the positive phase over the whole plane.

    Exact for halfplanes (1D marginal) and full/empty sets; balls and
    sectors are assembled from the far region by the point rule plus
    the in-lattice midpoint attribution handled by the caller (value None
    signals that slow path).
    """
    if isinstance(set_spec, FullSet):
        return np.full(pts.shape[0], 1.0 if set_spec.sign > 0 else 0.0)
    if isinstance(set_spec, HalfspaceSet):
        nrm = np.asarray(set_spec.normal, dtype=float)
        scale = float(np.linalg.norm(nrm))
        signed = (pts @ nrm - set_spec.offset) / scale
        return np.asarray(_std_mass(signed / z, beta))
    return None


def _poisson_region_masses(pts, z: float, set_spec, lp: float, beta: float):
    """(mass of E0 minus boxpad, mass of E0^c minus boxpad) from each point,
    by the point rule with the exact radial kernel integral. Each term of
    E0 is integrated once; E0^c is the whole plane minus those terms."""
    terms = _set_terms_2d(set_spec)

    def cdf(t):
        return z**beta * (t * t + z * z) ** (-0.5 * beta) / (2.0 * math.pi)

    one = np.ones(1)
    masses = {}
    for term in [None] + [term for _, term in terms]:
        if term not in masses:
            masses[term] = np.array([
                _point_term_mass(p[None, :], one, lp, term, cdf, FAR_MASS_TOL) for p in pts
            ])
    far_pos = np.zeros(pts.shape[0])
    for coef, term in terms:
        far_pos = far_pos + coef * masses[term]
    return far_pos, masses[None] - far_pos


def _normalized_rows(pts, z: float, num, den, pos_in, set_spec, v_plus: float,
                     v_minus: float, lp: float, beta: float):
    """Add the far field to in-lattice row sums and normalize to unit mass.

    num, den and pos_in are the in-lattice kernel sums against the trace,
    against ones, and against the positive-phase indicator. The far field
    is v_plus on the positive phase and v_minus on the rest. When the
    total positive-phase mass is exact (halfplane/full), the far masses
    are its complement against the in-lattice attribution and the row
    mass is exactly one; otherwise both come from the point rule.
    """
    total_pos = _total_set_mass_2d(pts, z, set_spec, beta)
    if total_pos is not None:
        far_pos = total_pos - pos_in
        far_neg = (1.0 - total_pos) - (den - pos_in)
    else:
        far_pos, far_neg = _poisson_region_masses(pts, z, set_spec, lp, beta)
    num = num + v_plus * far_pos + v_minus * far_neg
    den = den + far_pos + far_neg
    return num / den


def _kernel_weights(d2, z: float, h: float, beta: float):
    """Midpoint mass of a cell at squared horizontal distance d2, height z."""
    c2 = beta / (2.0 * math.pi)
    return c2 * z**beta * (d2 + z * z) ** (-0.5 * (2.0 + beta)) * h * h


def _lattice_points(hg: HalfGrid) -> np.ndarray:
    """Padded cell centers, one row per node in C order over (x, y)."""
    axis = hg.padded_axis
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def _make_row_2d(hg: HalfGrid, trace_vals: np.ndarray, set_spec, v_plus: float,
                 v_minus: float, beta: float):
    """Evaluator: row(points, z) of the 2D extension at arbitrary points.

    Direct midpoint sums over the lattice plus the far field of
    _normalized_rows. Used for off-lattice nodes; lattice nodes go
    through the FFT convolution of _extend_2d.
    """
    lp = hg.padded_half_width
    h = hg.grid.h
    src = _lattice_points(hg)
    vals_flat = trace_vals.ravel()
    pos_flat = 0.5 * (set_spec.membership(src).astype(float) + 1.0)

    def row(pts: np.ndarray, z: float) -> np.ndarray:
        z = float(z)
        num = np.zeros(pts.shape[0])
        den = np.zeros(pts.shape[0])
        pos_in = np.zeros(pts.shape[0])
        chunk = max(1, 2**23 // max(1, src.shape[0]))
        for start in range(0, pts.shape[0], chunk):
            sl = slice(start, start + chunk)
            d2 = (
                (pts[sl, 0, None] - src[None, :, 0]) ** 2
                + (pts[sl, 1, None] - src[None, :, 1]) ** 2
            )
            kern = _kernel_weights(d2, z, h, beta)
            num[sl] = kern @ vals_flat
            den[sl] = kern.sum(axis=1)
            pos_in[sl] = kern @ pos_flat
        return _normalized_rows(pts, z, num, den, pos_in, set_spec, v_plus,
                                v_minus, lp, beta)

    return row


def _extend_2d(hg: HalfGrid, trace_vals: np.ndarray, set_spec, v_plus: float,
               v_minus: float, beta: float):
    """All lattice rows, level by level, as FFT convolutions.

    On the lattice the midpoint weight depends only on the index offset,
    so each level's in-lattice sums are one block-Toeplitz product: the
    kernel on the (2nx-1)^2 offset grid convolved with the trace, with
    ones and with the positive-phase indicator. The transform size covers
    the full linear convolution, so nothing wraps around.
    """
    nx = hg.padded_axis.size
    h = hg.grid.h
    pts = _lattice_points(hg)
    pos = 0.5 * (set_spec.membership(pts).astype(float) + 1.0)
    size = next_fast_len(3 * nx - 2, real=True)
    shape = (size, size)
    data_hat = rfft2(
        np.stack([trace_vals, np.ones((nx, nx)), pos.reshape(nx, nx)]), s=shape
    )
    d = h * np.arange(1 - nx, nx)
    d2 = d[:, None] ** 2 + d[None, :] ** 2
    valid = slice(nx - 1, 2 * nx - 1)
    out = np.empty((len(hg.levels) + 1, nx, nx))
    out[0] = trace_vals
    for k, z in enumerate(hg.z_array()):
        z = float(z)
        kern_hat = rfft2(_kernel_weights(d2, z, h, beta), s=shape)
        sums = irfft2(kern_hat * data_hat, s=shape)[:, valid, valid]
        num, den, pos_in = (part.ravel() for part in sums)
        out[k + 1] = _normalized_rows(
            pts, z, num, den, pos_in, set_spec, v_plus, v_minus,
            hg.padded_half_width, beta,
        ).reshape(nx, nx)
    return out


# ---------------------------------------------------------------------------
# public extensions

def _padded_trace(values_fn, datum_eval, hg: HalfGrid):
    g = hg.grid
    p = hg.pad_cells
    if g.dimension == 1:
        core = values_fn()
        if p == 0:
            return core
        ax = hg.padded_axis
        out = datum_eval(ax[:, None]).astype(float)
        out[p:-p] = core
        return out
    m = g.spec.cells_per_side
    core = values_fn().reshape(m, m)
    if p == 0:
        return core
    ax = hg.padded_axis
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    out = datum_eval(pts).astype(float).reshape(ax.size, ax.size)
    out[p:-p, p:-p] = core
    return out


def extend_scalar(u: DiscreteFunction, hg: HalfGrid, s: float) -> ExtendedField:
    """Convolve the function with the order-2s Poisson kernel per level."""
    beta = 2.0 * s
    a = 1.0 - 2.0 * s
    trace = _padded_trace(lambda: u.values, u.datum.func.evaluate, hg)
    func = u.datum.func
    if isinstance(func, ConstantF) and np.all(trace == func.value):
        shape = (len(hg.levels) + 1,) + trace.shape
        return ExtendedField(hg, np.full(shape, func.value), a)
    if hg.grid.dimension == 1:
        vals = _extend_1d(hg, trace, func, beta)
    else:
        if isinstance(func, ConstantF):
            set_spec, v_plus, v_minus = FullSet(1), func.value, func.value
        elif isinstance(func, IndicatorF):
            set_spec, v_plus, v_minus = func.set_spec, func.amp, -func.amp
        else:
            raise IncompleteDatumError(
                f"2D scalar extension needs constant or indicator far data, "
                f"got {func!r}"
            )
        vals = _extend_2d(hg, trace, set_spec, v_plus, v_minus, beta)
    return ExtendedField(hg, vals, a)


def extend_set(phases: PhaseSet, hg: HalfGrid, sigma: float) -> ExtendedField:
    """Convolve the +-1 phase indicator with the order-sigma kernel."""
    set_spec = phases.datum.set_spec
    trace = _padded_trace(
        lambda: phases.indicator.astype(float),
        lambda pts: set_spec.membership(pts).astype(float),
        hg,
    )
    if hg.grid.dimension == 1:
        vals = _extend_1d(hg, trace, IndicatorF(set_spec), sigma)
    else:
        vals = _extend_2d(hg, trace, set_spec, 1.0, -1.0, sigma)
    field = ExtendedField(hg, vals, 1.0 - sigma)
    if np.max(np.abs(field.values)) > 1.0 + 1e-9:
        raise InvalidSpecError("indicator extension left the unit range")
    return field


# ---------------------------------------------------------------------------
# weighted Dirichlet energy, shell term, monotonicity profile

def _check_reach(field: ExtendedField, r: float) -> None:
    hg = field.half_grid
    if r > hg.padded_half_width + 1e-12 or r > hg.z_array()[-1] + 1e-12:
        raise OutOfRangeError(
            f"radius {r} exceeds the half-grid reach "
            f"(x: {hg.padded_half_width}, z: {hg.z_array()[-1]})"
        )


_FRACTION_SUBSAMPLES = 4


def annulus_fractions(hg: HalfGrid, r_lo: float, r_hi: float) -> np.ndarray:
    """Fraction of each node box inside the annulus r_lo <= |X| < r_hi.

    Node boxes are x-cell times z-bin. Boxes crossing a boundary are
    subsampled on a fixed lattice; the smooth weighting removes the
    staircase error of a sharp node-center test, which otherwise scales
    with the local z spacing and never refines.
    """
    ax = hg.padded_axis
    h = hg.grid.h
    z = hg.z_array()
    edges = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [z[-1]]])
    z_ctr = 0.5 * (edges[:-1] + edges[1:])
    z_half = 0.5 * (edges[1:] - edges[:-1])
    n = hg.grid.dimension
    if n == 1:
        ctr = np.stack(np.meshgrid(z_ctr, ax, indexing="ij"), axis=-1)
        half = np.stack(np.meshgrid(z_half, np.full_like(ax, 0.5 * h), indexing="ij"), axis=-1)
    else:
        zc, xc, yc = np.meshgrid(z_ctr, ax, ax, indexing="ij")
        ctr = np.stack([zc, xc, yc], axis=-1)
        zh = np.meshgrid(z_half, ax, ax, indexing="ij")[0]
        half = np.stack([zh, np.full_like(zh, 0.5 * h), np.full_like(zh, 0.5 * h)], axis=-1)
    inner = np.maximum(np.abs(ctr) - half, 0.0)
    outer = np.abs(ctr) + half
    dmin = np.sqrt((inner**2).sum(axis=-1))
    dmax = np.sqrt((outer**2).sum(axis=-1))
    frac = np.zeros(ctr.shape[:-1])
    frac[(dmin >= r_lo) & (dmax < r_hi)] = 1.0
    partial = ~((dmax < r_lo) | (dmin >= r_hi) | (frac == 1.0))
    if partial.any():
        s = _FRACTION_SUBSAMPLES
        offs = (np.arange(s) + 0.5) / s - 0.5
        pc = ctr[partial]
        ph = half[partial]
        dims = pc.shape[-1]
        grids = np.meshgrid(*([offs] * dims), indexing="ij")
        sub = np.stack([g.ravel() for g in grids], axis=-1)  # (s^dims, dims)
        pts = pc[:, None, :] + 2.0 * ph[:, None, :] * sub[None, :, :]
        rr = np.sqrt((pts**2).sum(axis=-1))
        frac[partial] = ((rr >= r_lo) & (rr < r_hi)).mean(axis=1)
    return frac


def weighted_dirichlet(field: ExtendedField, r: float,
                       a: float | None = None,
                       frac: np.ndarray | None = None) -> float:
    """Integral of z^a |grad f|^2 over the half-ball of radius r.

    frac, if given, is annulus_fractions(field.half_grid, 0, r), computed
    once by callers that integrate several fields over the same ball.
    """
    _check_reach(field, r)
    hg = field.half_grid
    a = field.weight_exponent if a is None else a
    wz = hg.z_bin_integrals(a)
    g2 = field.gradient_squared()
    if frac is None:
        frac = annulus_fractions(hg, 0.0, r)
    h_n = hg.grid.h ** hg.grid.dimension
    shape = (-1,) + (1,) * (g2.ndim - 1)
    contrib = g2 * frac * wz.reshape(shape) * h_n
    return ordered_sum(contrib)


def shell_average(field: ExtendedField, r: float, a: float,
                  width_cells: float = 1.0) -> float:
    """Thin-shell approximation of the boundary integral of z^a f^2 over
    the half-sphere of radius r, averaged over a width_cells * h annulus."""
    _check_reach(field, r)
    hg = field.half_grid
    h = hg.grid.h * width_cells
    wz = hg.z_bin_integrals(a)
    vals2 = field.values[1:] ** 2
    frac = annulus_fractions(hg, r - 0.5 * h, r + 0.5 * h)
    h_n = hg.grid.h ** hg.grid.dimension
    shape = (-1,) + (1,) * (vals2.ndim - 1)
    contrib = vals2 * frac * wz.reshape(shape) * h_n / h
    return ordered_sum(contrib)


@dataclass(frozen=True)
class WeissProfile:
    """Sampled radii with the scaled energy G, boundary term H, and their
    difference Phi (constant exactly on homogeneous pairs)."""

    radii: np.ndarray
    g_values: np.ndarray
    h_values: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.radii) > 0.0):
            raise InvalidSpecError("profile radii must increase")


def origin_on_free_boundary(phases: PhaseSet) -> bool:
    """True when cells touching the origin carry both phases."""
    g = phases.grid
    near = np.all(np.abs(g.centers) <= 0.5 * g.h * (1.0 + 1e-12), axis=1)
    signs = phases.indicator[near]
    return signs.size > 0 and (signs == 1).any() and (signs == -1).any()


def weiss_profile(pair: AdmissiblePair, radii, params: FractionalParams,
                  hg: HalfGrid, shell_cells: float = 3.0) -> WeissProfile:
    """Monotonicity profile Phi(r) = G(r) - H(r) of an admissible pair.

    G(r) = r^(sigma-n) (D_s(r) + c_ratio D_sigma(r)) with D the weighted
    Dirichlet energies of the two extensions; H is the boundary correction
    (s - sigma/2) r^(sigma-n-1) times the shell integral of z^(1-2s) ubar^2.
    """
    if not origin_on_free_boundary(pair.phases):
        raise FreeBoundaryError(
            "the discrete free boundary does not pass through the origin"
        )
    radii = np.asarray(sorted(float(r) for r in radii))
    ubar = extend_scalar(pair.u, hg, params.s)
    uset = extend_set(pair.phases, hg, params.sigma)
    n = pair.grid.dimension
    g_vals, h_vals = [], []
    for r in radii:
        frac = annulus_fractions(hg, 0.0, r)
        d_s = weighted_dirichlet(ubar, r, frac=frac)
        d_sig = weighted_dirichlet(uset, r, frac=frac)
        g_vals.append(r ** (params.sigma - n) * (d_s + params.c_ratio * d_sig))
        shell = shell_average(ubar, r, 1.0 - 2.0 * params.s, shell_cells)
        h_vals.append(
            (params.s - 0.5 * params.sigma) * r ** (params.sigma - n - 1.0) * shell
        )
    g_vals = np.asarray(g_vals)
    h_vals = np.asarray(h_vals)
    return WeissProfile(radii, g_vals, h_vals, g_vals - h_vals)


# ---------------------------------------------------------------------------
# translation-defect probe

def _cutoff(rho: np.ndarray) -> np.ndarray:
    """1 on [0, 1/2], quintic smoothstep down to 0 at 3/4."""
    return 1.0 - smoothstep_quintic((rho - 0.5) * 4.0)


def _cell_value_lookup(grid: Grid, values: np.ndarray, datum_eval):
    """Piecewise-constant evaluation: owning cell inside the box, datum
    beyond. Used for the trace rows of pulled-back fields."""
    spec = grid.spec
    m, L, h = spec.cells_per_side, spec.half_width, grid.h

    def at(pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[0])
        inside = np.all(np.abs(pts) < L, axis=1)
        if inside.any():
            idx = np.clip(((pts[inside] + L) / h).astype(int), 0, m - 1)
            flat = idx[:, 0] if grid.dimension == 1 else idx[:, 0] * m + idx[:, 1]
            out[inside] = values[flat]
        if (~inside).any():
            out[~inside] = datum_eval(pts[~inside])
        return out

    return at


def _field_evaluators(pair: AdmissiblePair, hg: HalfGrid, params: FractionalParams):
    """(trace_eval, level_row) closures for both extensions of a pair."""
    g = hg.grid
    u, phases = pair.u, pair.phases
    scalar_const = (
        isinstance(u.datum.func, ConstantF)
        and np.all(u.values == u.datum.func.value)
    )
    set_spec = phases.datum.set_spec

    if g.dimension == 1:
        trace_u = _padded_trace(lambda: u.values, u.datum.func.evaluate, hg)
        trace_e = _padded_trace(
            lambda: phases.indicator.astype(float),
            lambda pts: set_spec.membership(pts).astype(float), hg,
        )
        row_u = None if scalar_const else _make_row_1d(
            hg, trace_u, u.datum.func, 2.0 * params.s
        )
        row_e = _make_row_1d(hg, trace_e, IndicatorF(set_spec), params.sigma)
    else:
        trace_u = _padded_trace(lambda: u.values, u.datum.func.evaluate, hg)
        trace_e = _padded_trace(
            lambda: phases.indicator.astype(float),
            lambda pts: set_spec.membership(pts).astype(float), hg,
        )
        if scalar_const:
            row_u = None
        elif isinstance(u.datum.func, ConstantF):
            row_u = _make_row_2d(hg, trace_u, FullSet(1), u.datum.func.value,
                                 u.datum.func.value, 2.0 * params.s)
        elif isinstance(u.datum.func, IndicatorF):
            fn = u.datum.func
            row_u = _make_row_2d(hg, trace_u, fn.set_spec, fn.amp, -fn.amp,
                                 2.0 * params.s)
        else:
            raise IncompleteDatumError(
                f"2D pullback needs constant or indicator far data, got "
                f"{u.datum.func!r}"
            )
        row_e = _make_row_2d(hg, trace_e, set_spec, 1.0, -1.0, params.sigma)

    at_u = _cell_value_lookup(g, u.values, u.datum.func.evaluate)
    at_e = _cell_value_lookup(
        g, phases.indicator.astype(float),
        lambda pts: set_spec.membership(pts).astype(float),
    )
    const_val = u.datum.func.value if scalar_const else None
    return (at_u, row_u, const_val), (at_e, row_e, None)


def _pulled_values(base: ExtendedField, evaluator, direction: float,
                   r_cut: float) -> np.ndarray:
    """Field values composed with X -> X + direction * cutoff(|X|/R) e_1.

    Moved nodes are re-evaluated through the extension itself (exact, no
    interpolation); nodes outside the cutoff support keep bit-identical
    values.
    """
    trace_eval, row, const_val = evaluator
    hg = base.half_grid
    if const_val is not None:
        return base.values
    ax = hg.padded_axis
    out = base.values.copy()
    z_all = np.concatenate([[0.0], hg.z_array()])
    for k, z in enumerate(z_all):
        if base.values.ndim == 2:
            x1 = ax
            radii = np.sqrt(x1**2 + z * z)
            disp = direction * _cutoff(radii / r_cut)
            moved = disp != 0.0
            if not moved.any():
                continue
            pts = (x1[moved] + disp[moved])[:, None]
            if k == 0:
                out[0][moved] = trace_eval(pts)
            else:
                out[k][moved] = row(pts[:, 0], float(z))
        else:
            xx, yy = np.meshgrid(ax, ax, indexing="ij")
            radii = np.sqrt(xx**2 + yy**2 + z * z)
            disp = direction * _cutoff(radii / r_cut)
            moved = disp != 0.0
            if not moved.any():
                continue
            pts = np.stack([(xx + disp)[moved], yy[moved]], axis=1)
            if k == 0:
                out[0][moved] = trace_eval(pts)
            else:
                out[k][moved] = row(pts, float(z))
    return out


def cone_defect(pair: AdmissiblePair, radii, hg: HalfGrid,
                params: FractionalParams) -> list:
    """Second-variation defects of the unit translation with cutoff, one
    per cutoff radius, in the order given.

    Both extensions are composed with X -> X +- cutoff(|X|/R) e_1 and the
    half-ball energies of the two displaced pairs are compared with twice
    the undisplaced one. Homogeneous minimizing pairs make this decay like
    R^(n-2-sigma). Displaced values are recomputed through the extension
    (the kernel convolution evaluates anywhere), so no interpolation bias
    enters the difference. The extensions do not depend on R and are
    built once for all radii, after every radius is checked against the
    reach.
    """
    radii = [float(r) for r in radii]
    hg_reach = min(hg.padded_half_width - 1.0, float(hg.z_array()[-1]))
    for r_cut in radii:
        if r_cut > hg_reach + 1e-12:
            raise OutOfRangeError(
                f"cutoff radius {r_cut} exceeds the pullback-safe reach {hg_reach}"
            )
    ubar = extend_scalar(pair.u, hg, params.s)
    uset = extend_set(pair.phases, hg, params.sigma)
    ev_u, ev_e = _field_evaluators(pair, hg, params)

    def energy(fs_vals, fu_vals, r_cut, frac):
        fs = ExtendedField(hg, fs_vals, ubar.weight_exponent)
        fu = ExtendedField(hg, fu_vals, uset.weight_exponent)
        return (weighted_dirichlet(fs, r_cut, frac=frac)
                + params.c_ratio * weighted_dirichlet(fu, r_cut, frac=frac))

    defects = []
    for r_cut in radii:
        frac = annulus_fractions(hg, 0.0, r_cut)
        base = energy(ubar.values, uset.values, r_cut, frac)
        plus = energy(
            _pulled_values(ubar, ev_u, +1.0, r_cut),
            _pulled_values(uset, ev_e, +1.0, r_cut),
            r_cut,
            frac,
        )
        minus = energy(
            _pulled_values(ubar, ev_u, -1.0, r_cut),
            _pulled_values(uset, ev_e, -1.0, r_cut),
            r_cut,
            frac,
        )
        defects.append((plus - base) + (minus - base))
    return defects
