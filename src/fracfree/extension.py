"""Upper half-space extensions and their weighted Dirichlet diagnostics.

A function on R^n extends to the half space z > 0 by convolution with the
order-beta Poisson kernel z^beta / (|x|^2 + z^2)^((n+beta)/2); a phase set
extends through its +-1 indicator. Discrete kernel rows are normalized to
unit mass, so constants extend exactly and no dimensional constant is
carried. The datum beyond the padded box enters as the constant pieces of
``quadrature.datum_far_pieces``, the same decomposition the energy tails
use; only a homogeneous profile in 1D is sampled on stretch blocks
instead. The padded lattice, its trace and the row evaluator take
(P, n) points for n = 1 and 2 alike. In 1D every row is a sum of exact
interval masses, differences of the kernel CDF at the cell edges. In 2D
the rows at lattice nodes are FFT convolutions by ``numpy.fft`` (the
midpoint kernel depends only on the index offset) and rows at
off-lattice nodes, each at its own height, are one fused contraction of a
separable distance table with the trace, ones and the half-plane
indicators; both share one far-field step and are unit-mass.
That step is exact when every term of the pieces is the whole plane or a
half-plane; otherwise each term's mass beyond the padded box comes from
the split-arc point rule of ``quadrature`` (exact radial mass per ray,
Gauss-Legendre in the direction, order doubled until FAR_MASS_TOL is met).
On top of the extensions live the weighted Dirichlet energy over
half-balls, the radial monotonicity profile (Weiss-type functional), and
the translation-defect probe for homogeneous pairs. The probe pulls back
the fields it has built: a moved node is re-evaluated through the field's
own padded trace and far field, never interpolated.

Importing the module loads NumPy only: the kernel CDF imports SciPy's
``betainc`` on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FreeBoundaryError, InvalidSpecError, OutOfRangeError
from .model import (
    AdmissiblePair,
    ConeF,
    ConstantF,
    DiscreteFunction,
    FractionalParams,
    Grid,
    IndicatorF,
    PhaseSet,
)
from .numerics import is_integer, is_number, ordered_sum, smoothstep_quintic
from .quadrature import _HalfplaneTerm, _point_term_mass, datum_far_pieces

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
        if not isinstance(self.pad_cells, (int, np.integer)) or self.pad_cells < 0:
            raise InvalidSpecError(
                f"pad_cells must be an integer >= 0, got {self.pad_cells}")
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


def check_half_grid_options(ratio, z_first, levels, top, pad_cells) -> None:
    """Range-check the options of make_half_grid; an InvalidSpecError names
    the first bad one."""
    for key, v, rule, ok in (
        ("ratio", ratio, "a number > 1", is_number(ratio) and ratio > 1.0),
        ("z_first", z_first, "a number > 0 or null",
         z_first is None or is_number(z_first) and z_first > 0.0),
        ("levels", levels, "an integer >= 1 or null",
         levels is None or is_integer(levels) and levels >= 1),
        ("top", top, "a number > 0 or null", top is None or is_number(top) and top > 0.0),
        ("pad_cells", pad_cells, "an integer >= 0", is_integer(pad_cells) and pad_cells >= 0),
    ):
        if not ok:
            raise InvalidSpecError(f"{key}: must be {rule}, got {v!r}")


def make_half_grid(grid: Grid, ratio: float = 1.15, z_first: float | None = None,
                   levels: int | None = None, top: float | None = None,
                   pad_cells: int = 0) -> HalfGrid:
    """Geometric levels z_k = z_first * ratio^k reaching the requested top."""
    check_half_grid_options(ratio, z_first, levels, top, pad_cells)
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
    """CDF of the standardized order-beta Poisson kernel in one variable.

    The mass between 0 and v is I_x(1/2, beta/2) / 2 at x = v^2/(1 + v^2).
    For |v| >= 1 the tail beyond v is taken instead, I_w(beta/2, 1/2) / 2
    at w = 1/(1 + v^2): x rounds towards 1 there and loses the tail.
    """
    from scipy.special import betainc

    v = np.asarray(v, dtype=float)
    near = np.abs(v) < 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        v2 = v * v
        x = np.where(near, v2 / (1.0 + v2), 1.0 / (1.0 + v2))
    half = 0.5 * betainc(np.where(near, 0.5, 0.5 * beta), np.where(near, 0.5 * beta, 0.5), x)
    return np.where(near, 0.5 + np.sign(v) * half, np.where(v > 0.0, 1.0 - half, half))


def _interval_masses(x, z, lo, hi, beta: float):
    """Kernel mass of intervals [lo, hi] seen from points x at heights z."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    vlo = (lo[None, :] - x[:, None]) / z[:, None]
    vhi = (hi[None, :] - x[:, None]) / z[:, None]
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

def _far_pieces_1d(hg: HalfGrid, func_spec):
    """Triples (lo, hi, value) describing the datum beyond the padded box:
    the pieces of datum_far_pieces, or stretch blocks sampling a
    homogeneous profile. The padding is the datum's own values, so its
    coverage is checked at the box, where the energy tails check it."""
    lp = hg.padded_half_width
    if not isinstance(func_spec, ConeF):
        datum_far_pieces(func_spec, hg.grid.spec.half_width, 1)
        return [(a, b, value) for value, region in datum_far_pieces(func_spec, lp, 1)
                for a, b in region.pieces]
    blocks = _stretch_blocks(lp, float(hg.z_array()[-1]))
    mids = 0.5 * (blocks[:-1] + blocks[1:])
    out = []
    for side in (1.0, -1.0):
        vals = func_spec.evaluate((side * mids)[:, None])
        for k in range(mids.size):
            lo = side * blocks[k] if side > 0 else -blocks[k + 1]
            hi = side * blocks[k + 1] if side > 0 else -blocks[k]
            out.append((lo, hi, vals[k]))
    return out


def _stretch_blocks(lp: float, z_top: float) -> np.ndarray:
    t_max = max(64.0 * lp, FAR_FACTOR * z_top)
    count = 1 + int(math.ceil(math.log(t_max / lp) / math.log(STRETCH_RATIO)))
    return lp * STRETCH_RATIO ** np.arange(count)


_ROW_CHUNK = 2**17         # entries of a row evaluator's (points x sources) block


def _chunked(width: int, fill):
    """row(pts, z) calling fill on blocks of points, so that no temporary
    of a row evaluator exceeds about _ROW_CHUNK * width entries; z is one
    height per point, or one for all."""
    step = max(1, _ROW_CHUNK // width)

    def row(pts: np.ndarray, z) -> np.ndarray:
        z = np.broadcast_to(np.asarray(z, dtype=float), pts.shape[:1])
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], step):
            sl = slice(start, start + step)
            out[sl] = fill(pts[sl], z[sl])
        return out

    return row


def _make_row_1d(hg: HalfGrid, trace_vals: np.ndarray, func_spec, beta: float):
    """Evaluator: row(points, z) of the 1D extension at any (P, 1) points,
    each at its own height."""
    axis = hg.padded_axis
    h = hg.grid.h
    edges = np.concatenate([axis - 0.5 * h, [axis[-1] + 0.5 * h]])
    pieces = _far_pieces_1d(hg, func_spec)
    p_lo = np.array([p[0] for p in pieces])
    p_hi = np.array([p[1] for p in pieces])
    p_val = np.array([p[2] for p in pieces])

    def fill(pts, z):
        x = pts[:, 0]
        w_in = np.diff(_std_mass((edges[None, :] - x[:, None]) / z[:, None], beta), axis=1)
        num = w_in @ trace_vals
        den = w_in.sum(axis=1)
        if p_lo.size:
            w_far = _interval_masses(x, z, p_lo, p_hi, beta)
            num = num + w_far @ p_val
            den = den + w_far.sum(axis=1)
        return num / den

    return _chunked(edges.size + p_lo.size, fill)


# ---------------------------------------------------------------------------
# 2D extension

def _pieces_terms(pieces):
    """The distinct region terms of 2D far-field pieces, in order."""
    return list(dict.fromkeys(term for _, region in pieces for _, term in region.terms))


def _region_sum(region, per_term):
    return sum(coef * per_term[term] for coef, term in region.terms)


def _lattice_halfplanes(pieces):
    """The half-planes whose in-lattice kernel sums the far step reads: all
    terms of the pieces when each is the whole plane or a half-plane, whose
    total masses are closed-form; none when the point rule serves them."""
    terms = _pieces_terms(pieces)
    if all(term is None or isinstance(term, _HalfplaneTerm) for term in terms):
        return [term for term in terms if term is not None]
    return []


def _halfplane_indicator(pts, term):
    return (pts @ np.asarray(term.normal, dtype=float) - term.offset > 0.0).astype(float)


def _point_far_masses(pts, z, pieces, lp: float, beta: float):
    """Mass of every piece's region beyond the padded box, seen from each
    point at its height (z is one per point, or one for all), by the point
    rule with the exact radial kernel integral; each term is integrated
    once per point."""

    def cdf_at(zp):
        return lambda t: zp**beta * (t * t + zp * zp) ** (-0.5 * beta) / (2.0 * math.pi)

    one = np.ones(1)
    cdfs = [cdf_at(float(zp)) for zp in np.broadcast_to(z, pts.shape[:1])]
    masses = {
        term: np.array([
            _point_term_mass(p[None, :], one, lp, term, cdf, FAR_MASS_TOL)
            for p, cdf in zip(pts, cdfs)
        ])
        for term in _pieces_terms(pieces)
    }
    return [_region_sum(region, masses) for _, region in pieces]


def _normalized_rows(pts, z, sums, halfplanes, pieces, lp: float, beta: float):
    """Add the far field to in-lattice row sums and normalize to unit mass;
    z is each point's height, or one for all.

    sums are the in-lattice kernel sums against the trace, against ones
    and against the indicator of each of halfplanes. When those cover
    every term of the pieces, a region's far mass is its closed-form total
    (1 for the whole plane, the 1D marginal for a half-plane) minus its
    in-lattice attribution, and the row mass is exactly one; otherwise
    every term's far mass comes from the point rule.
    """
    num = sums[0]
    in_lattice = dict(zip([None] + halfplanes, sums[1:]))
    terms = _pieces_terms(pieces)
    if all(term in in_lattice for term in terms):
        total = {None: 1.0}
        for term in halfplanes:
            nrm = np.asarray(term.normal, dtype=float)
            signed = (pts @ nrm - term.offset) / float(np.linalg.norm(nrm))
            total[term] = _std_mass(signed / z, beta)
        far = [_region_sum(region, total) - _region_sum(region, in_lattice)
               for _, region in pieces]
    else:
        far = _point_far_masses(pts, z, pieces, lp, beta)
    den = in_lattice[None]
    for (value, _), mass in zip(pieces, far):
        num = num + value * mass
        den = den + mass
    return num / den


def _kernel_weights(d2, z: float, h: float, beta: float):
    """Midpoint mass of a cell at squared horizontal distance d2, height z."""
    c2 = beta / (2.0 * math.pi)
    return c2 * z**beta * (d2 + z * z) ** (-0.5 * (2.0 + beta)) * h * h


def _lattice_points(hg: HalfGrid) -> np.ndarray:
    """Padded cell centers, one row per node in C order over the axes."""
    grids = np.meshgrid(*[hg.padded_axis] * hg.grid.dimension, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _make_row_2d(hg: HalfGrid, trace_vals: np.ndarray, pieces, beta: float):
    """Evaluator: row(points, z) of the 2D extension at arbitrary points,
    each at its own height.

    Midpoint sums over the lattice plus the far field of _normalized_rows.
    Used for off-lattice nodes; lattice nodes go through the FFT
    convolution of _extend_2d. The sources are the padded lattice, so a
    node's squared distances are an outer sum of per-axis terms, raised to
    the kernel power in place and contracted once against the trace, ones
    and every half-plane indicator; the constant c2 z^beta h^2 scales each
    node's sums, not the kernel entries. Nodes go in blocks of about
    _ROW_CHUNK distance entries.
    """
    lp = hg.padded_half_width
    h = hg.grid.h
    axis = hg.padded_axis
    nx = axis.size
    halfplanes = _lattice_halfplanes(pieces)
    src = _lattice_points(hg)
    rhs = np.stack([trace_vals.ravel(), np.ones(nx * nx)]
                   + [_halfplane_indicator(src, term) for term in halfplanes], axis=1)

    def fill(pts, z):
        dx2 = (pts[:, 0, None] - axis) ** 2 + (z * z)[:, None]
        dy2 = (pts[:, 1, None] - axis) ** 2
        d2 = (dx2[:, :, None] + dy2[:, None, :]).reshape(-1, nx * nx)
        np.power(d2, -0.5 * (2.0 + beta), out=d2)
        sums = d2 @ rhs
        sums *= (beta / (2.0 * math.pi) * z**beta * h * h)[:, None]
        return _normalized_rows(pts, z, list(sums.T), halfplanes, pieces, lp, beta)

    return _chunked(nx * nx, fill)


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a size the FFT transforms fast."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _extend_2d(hg: HalfGrid, trace_vals: np.ndarray, pieces, beta: float):
    """All lattice rows, level by level, as FFT convolutions.

    On the lattice the midpoint weight depends only on the index offset,
    so each level's in-lattice sums are one block-Toeplitz product: the
    kernel on the (2nx-1)^2 offset grid convolved with the trace, with
    ones and with the indicator of every half-plane the far step reads.
    Only the valid block [nx-1, 2nx-1) of the product is read, and a
    circular transform of length at least 2nx-1, the kernel's, leaves
    that block unaliased: the wrapped terms land below nx-1.
    """
    nx = hg.padded_axis.size
    h = hg.grid.h
    pts = _lattice_points(hg)
    halfplanes = _lattice_halfplanes(pieces)
    size = _fast_len(2 * nx - 1)
    shape = (size, size)
    data = [trace_vals, np.ones((nx, nx))] + [
        _halfplane_indicator(pts, term).reshape(nx, nx) for term in halfplanes
    ]
    data_hat = np.fft.rfft2(np.stack(data), s=shape)
    d = h * np.arange(1 - nx, nx)
    d2 = d[:, None] ** 2 + d[None, :] ** 2
    valid = slice(nx - 1, 2 * nx - 1)
    out = np.empty((len(hg.levels) + 1, nx, nx))
    out[0] = trace_vals
    for k, z in enumerate(hg.z_array()):
        z = float(z)
        kern_hat = np.fft.rfft2(_kernel_weights(d2, z, h, beta), s=shape)
        sums = [part.ravel()
                for part in np.fft.irfft2(kern_hat * data_hat, s=shape)[:, valid, valid]]
        out[k + 1] = _normalized_rows(
            pts, z, sums, halfplanes, pieces, hg.padded_half_width, beta,
        ).reshape(nx, nx)
    return out


def _extend(hg: HalfGrid, trace_vals: np.ndarray, func_spec, beta: float):
    """Every level of the extension of a padded trace with the datum beyond:
    FFT convolutions on the 2D lattice, the row evaluator in 1D."""
    if hg.grid.dimension == 2:
        pieces = datum_far_pieces(func_spec, hg.padded_half_width, 2)
        return _extend_2d(hg, trace_vals, pieces, beta)
    row = _make_row_1d(hg, trace_vals, func_spec, beta)
    pts = _lattice_points(hg)
    return np.stack([trace_vals] + [row(pts, z) for z in hg.z_array()])


def _make_row(hg: HalfGrid, trace_vals: np.ndarray, func_spec, beta: float):
    """Evaluator: row(points, z) of the extension at any (P, n) points,
    at one height per point or one for all."""
    if hg.grid.dimension == 1:
        return _make_row_1d(hg, trace_vals, func_spec, beta)
    pieces = datum_far_pieces(func_spec, hg.padded_half_width, 2)
    return _make_row_2d(hg, trace_vals, pieces, beta)


# ---------------------------------------------------------------------------
# public extensions

def _padded_trace(core: np.ndarray, func_spec, hg: HalfGrid) -> np.ndarray:
    """Cell values on the padded lattice: the core on the box cells, the
    datum at the centers of the pad cells around them."""
    n, p = hg.grid.dimension, hg.pad_cells
    core = core.reshape((hg.grid.spec.cells_per_side,) * n)
    if p == 0:
        return core
    out = func_spec.evaluate(_lattice_points(hg)).reshape((hg.padded_axis.size,) * n)
    out[(slice(p, -p),) * n] = core
    return out


def _is_constant(trace: np.ndarray, func_spec) -> bool:
    """True when a constant datum also fills the whole trace."""
    return isinstance(func_spec, ConstantF) and bool(np.all(trace == func_spec.value))


def extend_scalar(u: DiscreteFunction, hg: HalfGrid, s: float) -> ExtendedField:
    """Convolve the function with the order-2s Poisson kernel per level."""
    a = 1.0 - 2.0 * s
    func = u.datum.func
    trace = _padded_trace(u.values, func, hg)
    if _is_constant(trace, func):
        shape = (len(hg.levels) + 1,) + trace.shape
        return ExtendedField(hg, np.full(shape, func.value), a)
    return ExtendedField(hg, _extend(hg, trace, func, 2.0 * s), a)


def extend_set(phases: PhaseSet, hg: HalfGrid, sigma: float) -> ExtendedField:
    """Convolve the +-1 phase indicator with the order-sigma kernel."""
    func = IndicatorF(phases.datum.set_spec)
    trace = _padded_trace(phases.indicator.astype(float), func, hg)
    field = ExtendedField(hg, _extend(hg, trace, func, sigma), 1.0 - sigma)
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
    subsampled on a fixed lattice of s^(n+1) points; the smooth weighting
    removes the staircase error of a sharp node-center test, which
    otherwise scales with the local z spacing and never refines. Every
    squared radius, of a box corner or a sub-sample, is the broadcast sum
    (z^2 + x^2) + y^2 of per-axis squares, so no point array is built.
    """

    def radii(parts, lead):
        """sqrt of the sum of per-axis squares, added in axis order, each
        part broadcast along its own axis after its lead shared axes."""
        total = 0.0
        for k, part in enumerate(parts):
            shape = part.shape[:lead] + (1,) * k + part.shape[lead:] \
                + (1,) * (len(parts) - 1 - k)
            total = total + part.reshape(shape)
        return np.sqrt(total)

    ax = hg.padded_axis
    h = hg.grid.h
    z = hg.z_array()
    edges = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [z[-1]]])
    ctrs = [0.5 * (edges[:-1] + edges[1:])] + [ax] * hg.grid.dimension
    halves = [0.5 * (edges[1:] - edges[:-1])] + [np.full(ax.size, 0.5 * h)] * hg.grid.dimension
    dmin = radii([np.maximum(np.abs(c) - hw, 0.0) ** 2 for c, hw in zip(ctrs, halves)], 0)
    dmax = radii([(np.abs(c) + hw) ** 2 for c, hw in zip(ctrs, halves)], 0)
    frac = np.zeros(dmin.shape)
    frac[(dmin >= r_lo) & (dmax < r_hi)] = 1.0
    partial = ~((dmax < r_lo) | (dmin >= r_hi) | (frac == 1.0))
    if partial.any():
        s = _FRACTION_SUBSAMPLES
        offs = (np.arange(s) + 0.5) / s - 0.5
        idx = np.nonzero(partial)
        rr = radii([(c[i, None] + 2.0 * hw[i, None] * offs) ** 2
                    for c, hw, i in zip(ctrs, halves, idx)], 1)
        frac[idx] = ((rr >= r_lo) & (rr < r_hi)).mean(axis=tuple(range(1, rr.ndim)))
    return frac


def _annulus_terms(node_values: np.ndarray, frac: np.ndarray, wz: np.ndarray,
                   h_n: float) -> np.ndarray:
    """node_values * frac * wz(level) * h_n at the nodes with frac != 0:
    ordered_sum is exactly rounded, so skipping the zero terms changes no
    bit of the sum."""
    hit = np.nonzero(frac)
    return node_values[hit] * frac[hit] * wz[hit[0]] * h_n


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
    return ordered_sum(_annulus_terms(g2, frac, wz, h_n))


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
    return ordered_sum(_annulus_terms(vals2, frac, wz, h_n) / h)


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
                  hg: HalfGrid) -> WeissProfile:
    """Monotonicity profile Phi(r) = G(r) - H(r) of an admissible pair.

    G(r) = r^(sigma-n) (D_s(r) + c_ratio D_sigma(r)) with D the weighted
    Dirichlet energies of the two extensions; H is the boundary correction
    (s - sigma/2) r^(sigma-n-1) times the shell integral of z^(1-2s) ubar^2,
    averaged over a shell three cells wide.
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
        shell = shell_average(ubar, r, 1.0 - 2.0 * params.s, 3.0)
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


def _pullback(field: ExtendedField, func_spec, beta: float):
    """pulled(direction, r_cut): the field composed with
    X -> X + direction * cutoff(|X|/r_cut) e_1.

    Moved nodes are re-evaluated exactly, with no interpolation, from the
    field's own padded trace: on the trace row the owning box cell gives
    the value, or the datum beyond the box; above it the extension row of
    that trace does. Unmoved nodes keep bit-identical values, and a
    constant field with a constant datum is returned itself, cached
    gradient and all.
    """
    hg = field.half_grid
    trace = field.trace
    if _is_constant(trace, func_spec):
        return lambda direction, r_cut: field
    spec, h, p = hg.grid.spec, hg.grid.h, hg.pad_cells
    m, L = spec.cells_per_side, spec.half_width
    row = _make_row(hg, trace, func_spec, beta)
    src = _lattice_points(hg)
    src2 = (src**2).sum(axis=1)
    z_all = np.concatenate([[0.0], hg.z_array()])

    def trace_at(pts):
        out = np.empty(pts.shape[0])
        inside = np.all(np.abs(pts) < L, axis=1)
        idx = np.clip(((pts[inside] + L) / h).astype(int), 0, m - 1) + p
        out[inside] = trace[tuple(idx.T)]
        out[~inside] = func_spec.evaluate(pts[~inside])
        return out

    def pulled(direction: float, r_cut: float) -> ExtendedField:
        out = field.values.reshape(z_all.size, -1).copy()
        disp = direction * _cutoff(np.sqrt(src2 + (z_all * z_all)[:, None]) / r_cut)
        level, node = np.nonzero(disp)
        pts = src[node]
        pts[:, 0] += disp[level, node]
        on_trace = level == 0
        out[0, node[on_trace]] = trace_at(pts[on_trace])
        above = ~on_trace
        out[level[above], node[above]] = row(pts[above], z_all[level[above]])
        return ExtendedField(hg, out.reshape(field.values.shape), field.weight_exponent)

    return pulled


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
    pull_u = _pullback(ubar, pair.u.datum.func, 2.0 * params.s)
    pull_e = _pullback(uset, IndicatorF(pair.phases.datum.set_spec), params.sigma)

    def energy(fs, fu, r_cut, frac):
        return (weighted_dirichlet(fs, r_cut, frac=frac)
                + params.c_ratio * weighted_dirichlet(fu, r_cut, frac=frac))

    defects = []
    for r_cut in radii:
        frac = annulus_fractions(hg, 0.0, r_cut)
        base = energy(ubar, uset, r_cut, frac)
        plus, minus = (
            energy(pull_u(sign, r_cut), pull_e(sign, r_cut), r_cut, frac)
            for sign in (+1.0, -1.0)
        )
        defects.append((plus - base) + (minus - base))
    return defects
