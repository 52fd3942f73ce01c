"""Upper half-space extensions and their weighted Dirichlet diagnostics.

A function on R^n extends to the half space z > 0 by convolution with the
order-beta Poisson kernel z^beta / (|x|^2 + z^2)^((n+beta)/2); a phase set
extends through its +-1 indicator. Discrete kernel rows are normalized to
unit mass, so constants extend exactly and no dimensional constant is
carried. The datum beyond the padded box enters as the (value, region)
pieces of ``quadrature.datum_far_pieces``, the same decomposition the
energy tails use; a homogeneous profile in 1D enters instead as stretch
blocks, one interval piece each. The padded lattice, its trace and the
row evaluators take (P, n) points for n = 1 and 2 alike. Rows at lattice
nodes are one FFT convolution per level by ``numpy.fft`` in both
dimensions, since a cell's kernel mass depends only on its index offset:
exactly in 1D (kernel CDF differences at the 2nx offset edges), as the
midpoint mass in 2D. Rows at off-lattice nodes, each at its own height,
stay direct (CDF differences at the cell edges in 1D, a separable
distance table raised to the kernel power in 2D), and are computed once
per mirror orbit: on a lattice symmetric about 0 the row at p is the row
at |p| against the mirrored trace, ones and half-plane indicators, so
one kernel row serves every point with the same (|p|, z), contracted
once against all 2^n mirrored stacks. All rows share one unit-mass far-field
step: exact interval masses in 1D; in 2D exact when every term of the
pieces is the whole plane or a half-plane, otherwise each term's mass
beyond the padded box comes from the split-arc point rule of
``quadrature`` (exact radial mass per ray, Gauss-Legendre in the
direction, order doubled until FAR_MASS_TOL is met).
On top of the extensions live the weighted Dirichlet energy over
half-balls, the radial monotonicity profile (Weiss-type functional), and
the translation-defect probe for homogeneous pairs. The probe pulls back
the fields it has built: a moved node is re-evaluated through the field's
own padded trace and far field, never interpolated, and both directions
of the translation come from one row call, where a node moved by +1 and
its x-mirror moved by -1 share a kernel row.

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
from .quadrature import (
    Region2D,
    _HalfplaneTerm,
    _point_term_mass,
    datum_far_pieces,
    interval_region,
)

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
# far field and rows

def _far_pieces(hg: HalfGrid, func_spec):
    """The datum beyond the padded box as (value, region) pieces: those of
    datum_far_pieces, or in 1D a homogeneous profile sampled on stretch
    blocks, one interval each. The padding is the datum's own values, so its
    coverage is checked at the box, where the energy tails check it."""
    n, lp = hg.grid.dimension, hg.padded_half_width
    if n == 1 and isinstance(func_spec, ConeF):
        blocks = _stretch_blocks(lp, float(hg.z_array()[-1]))
        spans = [sorted((side * a, side * b)) for side in (1.0, -1.0)
                 for a, b in zip(blocks[:-1], blocks[1:])]
        vals = func_spec.evaluate(np.array([[0.5 * (lo + hi)] for lo, hi in spans]))
        return [(v, interval_region(lo, hi)) for v, (lo, hi) in zip(vals, spans)]
    datum_far_pieces(func_spec, hg.grid.spec.half_width, n)
    return datum_far_pieces(func_spec, lp, n)


def _stretch_blocks(lp: float, z_top: float) -> np.ndarray:
    t_max = max(64.0 * lp, FAR_FACTOR * z_top)
    count = 1 + int(math.ceil(math.log(t_max / lp) / math.log(STRETCH_RATIO)))
    return lp * STRETCH_RATIO ** np.arange(count)


def _pieces_terms(pieces):
    """The distinct region terms of 2D far-field pieces, in order; none in 1D."""
    return list(dict.fromkeys(term for _, region in pieces if isinstance(region, Region2D)
                              for _, term in region.terms))


def _region_sum(region, per_term):
    return sum(coef * per_term[term] for coef, term in region.terms)


def _lattice_halfplanes(pieces):
    """The half-planes whose in-lattice kernel sums the far step reads: all
    terms of 2D pieces when each is the whole plane or a half-plane, whose
    total masses are closed-form; none when the point rule serves them, and
    none in 1D, where the far masses are exact interval masses."""
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
    and against the indicator of each of halfplanes. In 1D every piece is
    a union of intervals, whose masses are exact CDF differences, with the
    CDF taken once per distinct edge (stretch blocks share theirs). In 2D,
    when the half-plane sums cover every term of the pieces, a region's
    far mass is its closed-form total (1 for the whole plane, the 1D
    marginal for a half-plane, taken once per distinct value) minus its
    in-lattice attribution, and the row mass is exactly one; otherwise
    every term's far mass comes from the point rule.
    """
    num = sums[0]
    if pts.shape[1] == 1:
        lo, hi, val = np.array([(a, b, value) for value, region in pieces
                                for a, b in region.pieces]).reshape(-1, 3).T
        edges, at = np.unique(np.concatenate([lo, hi]), return_inverse=True)
        cdf = _std_mass((edges - pts) / np.reshape(z, (-1, 1)), beta)
        # np.take keeps w_far C-ordered, so its sums round as they did when
        # each edge was evaluated per piece
        w_far = np.take(cdf, at[lo.size:], axis=1) - np.take(cdf, at[:lo.size], axis=1)
        return (num + w_far @ val) / (sums[1] + w_far.sum(axis=1))
    in_lattice = dict(zip([None] + halfplanes, sums[1:]))
    terms = _pieces_terms(pieces)
    if all(term in in_lattice for term in terms):
        total = {None: 1.0}
        for term in halfplanes:
            nrm = np.asarray(term.normal, dtype=float)
            signed = (pts @ nrm - term.offset) / float(np.linalg.norm(nrm))
            values, at = np.unique(signed / z, return_inverse=True)
            total[term] = _std_mass(values, beta)[at]
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


_ROW_CHUNK = 2**17         # entries of a row evaluator's (rows x sources) block


def _blocks(count: int, width: int) -> list:
    """Slices of range(count) of about _ROW_CHUNK // width items each, so
    that a (block x width) temporary stays near _ROW_CHUNK entries."""
    step = max(1, _ROW_CHUNK // width)
    return [slice(start, start + step) for start in range(0, count, step)]


def _unique_rows(keys: np.ndarray):
    """The distinct rows of a (P, k) float array in lexicographic order, and
    each row's index among them, by one lexsort (several times faster than
    np.unique with axis=0)."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _row_evaluator(hg: HalfGrid, trace_vals: np.ndarray, pieces, beta: float):
    """Evaluator: row(points, z) of the extension at any (P, n) points, each
    at its own height (z is one per point, or one for all). Used for
    off-lattice nodes; lattice nodes go through the FFT convolution of
    _extend.

    The in-lattice sums are direct: in 1D the CDF differences across the
    cell edges; in 2D the midpoint masses, whose squared distances to the
    padded lattice are an outer sum of per-axis terms raised to the kernel
    power in place, with c2 z^beta h^2 scaling each row's sums, not the
    entries. When the cell edges (1D) or centers (2D) are symmetric about 0
    bit for bit, the kernel at p is the kernel at |p| with the sources
    mirrored on every axis where p < 0. So one kernel row is built per
    distinct key (|p|, z), in blocks of about _ROW_CHUNK entries, and
    contracted once against the 2^n mirrored stacks of the trace, ones and
    half-plane indicators; each point reads its own mirror's sums. On a
    lattice that is not symmetric the key is (p, z), so only repeated
    points share a row. The far step of _normalized_rows then runs on the
    points themselves.
    """
    n = hg.grid.dimension
    axis, h = hg.padded_axis, hg.grid.h
    nx = axis.size
    edges = np.append(axis - 0.5 * h, axis[-1] + 0.5 * h)
    lp = hg.padded_half_width
    halfplanes = _lattice_halfplanes(pieces)
    src = _lattice_points(hg)
    stack = np.stack([trace_vals.reshape((nx,) * n), np.ones((nx,) * n)] + [
        _halfplane_indicator(src, term).reshape((nx,) * n) for term in halfplanes
    ])
    coords = edges if n == 1 else axis
    mirrors = 2**n if np.array_equal(coords, -coords[::-1]) else 1
    rhs = np.concatenate([
        np.flip(stack, [1 + a for a in range(n) if v >> a & 1]).reshape(len(stack), -1)
        for v in range(mirrors)
    ]).T
    far_width = 1 + (sum(len(region.pieces) for _, region in pieces) if n == 1 else 0)

    def kernel(x, z):
        if n == 1:
            return np.diff(_std_mass((edges - x) / z[:, None], beta), axis=1)
        dx2 = (x[:, 0, None] - axis) ** 2 + (z * z)[:, None]
        dy2 = (x[:, 1, None] - axis) ** 2
        d2 = (dx2[:, :, None] + dy2[:, None, :]).reshape(-1, nx * nx)
        np.power(d2, -0.5 * (2.0 + beta), out=d2)
        return d2

    def row(pts: np.ndarray, z) -> np.ndarray:
        z = np.broadcast_to(np.asarray(z, dtype=float), pts.shape[:1])
        keys, inverse = _unique_rows(
            np.column_stack([np.abs(pts) if mirrors > 1 else pts, z]))
        sums = np.empty((len(keys), rhs.shape[1]))
        for blk in _blocks(len(keys), rhs.shape[0]):
            sums[blk] = kernel(keys[blk, :n], keys[blk, n]) @ rhs
        if n == 2:
            sums *= (beta / (2.0 * math.pi) * keys[:, n] ** beta * h * h)[:, None]
        variant = (pts < 0.0) @ (1 << np.arange(n)) if mirrors > 1 else 0
        own = sums.reshape(len(keys), mirrors, len(stack))[inverse, variant]
        out = np.empty(pts.shape[0])
        for blk in _blocks(pts.shape[0], far_width):
            out[blk] = _normalized_rows(pts[blk], z[blk], list(own[blk].T),
                                        halfplanes, pieces, lp, beta)
        return out

    return row


def _make_row(hg: HalfGrid, trace_vals: np.ndarray, func_spec, beta: float):
    """Evaluator: row(points, z) of the extension at any (P, n) points,
    at one height per point or one for all."""
    return _row_evaluator(hg, trace_vals, _far_pieces(hg, func_spec), beta)


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


def _extend(hg: HalfGrid, trace_vals: np.ndarray, pieces, beta: float):
    """Every level of the extension of a padded trace with the far-field
    pieces beyond, all lattice rows at once as FFT convolutions.

    On the lattice a source cell's kernel mass depends only on its index
    offset from the node: the exact CDF difference across the cell in 1D,
    the midpoint mass in 2D. So each level's in-lattice sums are one
    (block-)Toeplitz product: the even kernel on the (2nx-1)^n offset grid
    convolved with the trace, with ones and with the indicator of every
    half-plane the far step reads. Only the valid block [nx-1, 2nx-1)^n of
    the product is read, and a circular transform of length at least
    2nx-1, the kernel's, leaves that block unaliased: the wrapped terms
    land below nx-1.
    """
    n = hg.grid.dimension
    nx = hg.padded_axis.size
    h = hg.grid.h
    pts = _lattice_points(hg)
    halfplanes = _lattice_halfplanes(pieces)
    shape, axes = (_fast_len(2 * nx - 1),) * n, tuple(range(-n, 0))
    data = [trace_vals, np.ones((nx,) * n)] + [
        _halfplane_indicator(pts, term).reshape((nx,) * n) for term in halfplanes
    ]
    data_hat = np.fft.rfftn(np.stack(data), s=shape, axes=axes)
    d = h * np.arange(1 - nx, nx)
    edges = np.append(d - 0.5 * h, d[-1] + 0.5 * h)     # 1D: the 2nx offset edges
    d2 = d[:, None] ** 2 + d[None, :] ** 2 if n == 2 else None
    valid = (slice(None),) + (slice(nx - 1, 2 * nx - 1),) * n
    out = np.empty((len(hg.levels) + 1,) + (nx,) * n)
    out[0] = trace_vals
    for k, z in enumerate(hg.z_array()):
        z = float(z)
        kern = np.diff(_std_mass(edges / z, beta)) if n == 1 else _kernel_weights(d2, z, h, beta)
        kern_hat = np.fft.rfftn(kern, s=shape, axes=axes)
        sums = [part.ravel()
                for part in np.fft.irfftn(kern_hat * data_hat, s=shape, axes=axes)[valid]]
        out[k + 1] = _normalized_rows(
            pts, z, sums, halfplanes, pieces, hg.padded_half_width, beta,
        ).reshape((nx,) * n)
    return out


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
    return ExtendedField(hg, _extend(hg, trace, _far_pieces(hg, func), 2.0 * s), a)


def extend_set(phases: PhaseSet, hg: HalfGrid, sigma: float) -> ExtendedField:
    """Convolve the +-1 phase indicator with the order-sigma kernel."""
    func = IndicatorF(phases.datum.set_spec)
    trace = _padded_trace(phases.indicator.astype(float), func, hg)
    field = ExtendedField(hg, _extend(hg, trace, _far_pieces(hg, func), sigma), 1.0 - sigma)
    if np.max(np.abs(field.values)) > 1.0 + 1e-9:
        raise InvalidSpecError("indicator extension left the unit range")
    return field


# ---------------------------------------------------------------------------
# weighted Dirichlet energy, shell term, monotonicity profile

PULLBACK_MARGIN = 1.0      # x room of the probe's moved nodes: |displacement| <= 1


def check_reach(hg: HalfGrid, radii, margin: float = 0.0) -> None:
    """Raise OutOfRangeError unless every radius is at most
    min(padded half width - margin, top level): the reach of the half-ball
    integrals, or with PULLBACK_MARGIN that of the translation-defect
    probe, whose moved nodes stay inside the padded box."""
    x_reach, z_reach = hg.padded_half_width - margin, float(hg.z_array()[-1])
    for r in radii:
        if r > min(x_reach, z_reach) + 1e-12:
            raise OutOfRangeError(
                f"radius {r} exceeds the half-grid reach (x: {x_reach}, z: {z_reach})")


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
    check_reach(field.half_grid, [r])
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
    check_reach(field.half_grid, [r])
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
    X -> X + direction * cutoff(|X|/r_cut) e_1; for a sequence of
    directions, one such field per direction, all from one row call.

    Moved nodes are re-evaluated exactly, with no interpolation, from the
    field's own padded trace: on the trace row the owning box cell gives
    the value, or the datum beyond the box; above it the extension row of
    that trace does. The directions +1 and -1 move mirror-image nodes onto
    mirror-image points, so one call shares their kernel rows. Unmoved
    nodes keep bit-identical values, and a constant field with a constant
    datum is returned itself, cached gradient and all.
    """
    hg = field.half_grid
    trace = field.trace
    constant = _is_constant(trace, func_spec)
    spec, h, p = hg.grid.spec, hg.grid.h, hg.pad_cells
    m, L = spec.cells_per_side, spec.half_width
    row = None if constant else _make_row(hg, trace, func_spec, beta)
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

    def moved(signs, r_cut):
        cut = _cutoff(np.sqrt(src2 + (z_all * z_all)[:, None]) / r_cut)
        level, node = np.nonzero(cut)
        pts = np.tile(src[node], (signs.size, 1))
        pts[:, 0] += (signs[:, None] * cut[level, node]).ravel()
        levels = np.tile(level, signs.size)
        vals = np.empty(levels.size)
        on_trace = levels == 0
        vals[on_trace] = trace_at(pts[on_trace])
        vals[~on_trace] = row(pts[~on_trace], z_all[levels[~on_trace]])
        fields = []
        for sign_vals in vals.reshape(signs.size, -1):
            out = field.values.reshape(z_all.size, -1).copy()
            out[level, node] = sign_vals
            fields.append(ExtendedField(hg, out.reshape(field.values.shape),
                                        field.weight_exponent))
        return fields

    def pulled(direction, r_cut):
        signs = np.atleast_1d(np.asarray(direction, dtype=float))
        fields = [field] * signs.size if constant else moved(signs, r_cut)
        return fields if np.ndim(direction) else fields[0]

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
    check_reach(hg, radii, PULLBACK_MARGIN)
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
        plus, minus = (energy(fs, fu, r_cut, frac) for fs, fu in zip(
            pull_u((+1.0, -1.0), r_cut), pull_e((+1.0, -1.0), r_cut)))
        defects.append((plus - base) + (minus - base))
    return defects
