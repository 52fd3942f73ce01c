"""Discrete geometry and the admissible-pair data model.

A uniform cell grid tiles the box [-L, L]^n (n = 1 or 2). Minimization
happens on the ball of radius ``domain_radius`` centered at the origin;
cells of the box outside that ball carry values pinned to the exterior
datum, and everything beyond the box is represented symbolically by the
datum itself (half-space / ball / constant / homogeneous profile /
tabulated shell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AdmissibilityError,
    IncompleteDatumError,
    InvalidScaleError,
    InvalidSpecError,
)

DEFAULT_SIGN_TOL = 1e-9


# ---------------------------------------------------------------------------
# grid

@dataclass(frozen=True)
class GridSpec:
    """Uniform cell decomposition of the computational box.

    dimension:         n, 1 or 2
    half_width:        L, the box is [-L, L]^n
    cells_per_side:    m, so the cell width is h = 2L/m
    truncation_radius: validated (>= L), rescaled and echoed only; exterior
                       tails run to infinity, so nothing computes with it
    domain_radius:     radius of the minimization ball (<= L)
    """

    dimension: int
    half_width: float
    cells_per_side: int
    truncation_radius: float
    domain_radius: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidSpecError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise InvalidSpecError(f"half_width must be positive, got {self.half_width}")
        if self.cells_per_side < 2:
            raise InvalidSpecError(f"cells_per_side must be >= 2, got {self.cells_per_side}")
        if self.truncation_radius < self.half_width:
            raise InvalidSpecError("truncation_radius must be >= half_width")
        if not (0.0 < self.domain_radius <= self.half_width):
            raise InvalidSpecError("domain_radius must lie in (0, half_width]")

    @property
    def cell_width(self) -> float:
        return 2.0 * self.half_width / self.cells_per_side


@dataclass(frozen=True)
class FractionalParams:
    """Orders of the two nonlocal terms and the weight coupling them."""

    s: float
    sigma: float
    c_ratio: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise InvalidSpecError(f"s must lie in (0,1), got {self.s}")
        if not (0.0 < self.sigma < 1.0):
            raise InvalidSpecError(f"sigma must lie in (0,1), got {self.sigma}")
        if not (self.c_ratio > 0.0):
            raise InvalidSpecError(f"c_ratio must be positive, got {self.c_ratio}")

    @property
    def scaling_degree(self) -> float:
        """Homogeneity degree of the blow-up rescaling, s - sigma/2."""
        return self.s - 0.5 * self.sigma


class Grid:
    """Realized grid: cell centers, width, and index maps.

    Cells are closed axis-aligned cubes; flat indexing is C-order over the
    per-axis indices. Immutable after construction.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n, m, L = spec.dimension, spec.cells_per_side, spec.half_width
        self.h = spec.cell_width
        axis = -L + self.h * (np.arange(m) + 0.5)
        if n == 1:
            centers = axis.reshape(-1, 1)
        else:
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            centers = np.stack([xx.ravel(), yy.ravel()], axis=1)
        self.axis = axis
        self.centers = centers
        self.centers.setflags(write=False)
        self.n_cells = m**n
        radii = np.linalg.norm(centers, axis=1)
        self.in_omega = radii < spec.domain_radius
        self.in_omega.setflags(write=False)
        # cells whose closure does not touch the box boundary
        per_axis = (np.abs(centers) + 0.5 * self.h) < L - 1e-12 * L
        self.strict_interior = per_axis.all(axis=1)
        self.strict_interior.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.spec.dimension


def build_grid(spec: GridSpec) -> Grid:
    """Realize a GridSpec; the cells tile [-L, L]^n exactly."""
    return Grid(spec)


# ---------------------------------------------------------------------------
# set specs (symbolic exterior sets, also used for phase data inside the box)

@dataclass(frozen=True)
class HalfspaceSet:
    """{x : x . normal > offset}; normal need not be unit length."""

    normal: tuple
    offset: float

    def membership(self, pts: np.ndarray) -> np.ndarray:
        nrm = np.asarray(self.normal, dtype=float)
        side = pts @ nrm - self.offset
        return np.where(side > 0.0, 1, -1).astype(np.int8)

    def rescaled(self, r: float) -> "HalfspaceSet":
        return HalfspaceSet(self.normal, self.offset / r)


@dataclass(frozen=True)
class BallSet:
    """Ball of given center/radius; inside_sign +1 means the ball is the set."""

    center: tuple
    radius: float
    inside_sign: int = 1

    def membership(self, pts: np.ndarray) -> np.ndarray:
        ctr = np.asarray(self.center, dtype=float)
        inside = np.linalg.norm(pts - ctr, axis=-1) < self.radius
        sgn = np.where(inside, self.inside_sign, -self.inside_sign)
        return sgn.astype(np.int8)

    def rescaled(self, r: float) -> "BallSet":
        ctr = tuple(c / r for c in self.center)
        return BallSet(ctr, self.radius / r, self.inside_sign)


@dataclass(frozen=True)
class FullSet:
    """All of R^n (sign +1 everywhere) or nothing (sign -1) when sign=-1."""

    sign: int = 1

    def membership(self, pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[0], self.sign, dtype=np.int8)

    def rescaled(self, r: float) -> "FullSet":
        return self


def _in_arc(ang: np.ndarray, a0: float, a1: float) -> np.ndarray:
    """Angles in [0, 2 pi) inside the arc from a0 to a1 (both taken mod
    2 pi), which wraps through angle 0 when a0 mod 2 pi exceeds a1's."""
    lo, hi = np.mod(a0, 2.0 * math.pi), np.mod(a1, 2.0 * math.pi)
    if lo <= hi:
        return (ang >= lo) & (ang < hi)
    return (ang >= lo) | (ang < hi)


@dataclass(frozen=True)
class SectorSet:
    """Cone through the origin.

    In 1D ``sectors`` lists the signs of the two rays (right, left).
    In 2D ``sectors`` lists (angle_lo, angle_hi) pairs in radians whose
    union is the positive phase.
    """

    dimension: int
    sectors: tuple

    def membership(self, pts: np.ndarray) -> np.ndarray:
        if self.dimension == 1:
            right, left = self.sectors
            return np.where(pts[:, 0] >= 0.0, right, left).astype(np.int8)
        ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        inside = np.zeros(pts.shape[0], dtype=bool)
        for a0, a1 in self.sectors:
            inside |= _in_arc(ang, a0, a1)
        return np.where(inside, 1, -1).astype(np.int8)

    def rescaled(self, r: float) -> "SectorSet":
        return self


# ---------------------------------------------------------------------------
# function specs

@dataclass(frozen=True)
class ConstantF:
    value: float

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[0], self.value, dtype=float)

    def rescaled(self, r: float, amp: float) -> "ConstantF":
        return ConstantF(self.value * amp)


@dataclass(frozen=True)
class IndicatorF:
    """amp * (chi_E - chi_{E^c}) for the paired set E."""

    set_spec: object
    amp: float = 1.0

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return self.amp * self.set_spec.membership(pts).astype(float)

    def rescaled(self, r: float, amp: float) -> "IndicatorF":
        return IndicatorF(self.set_spec.rescaled(r), self.amp * amp)


@dataclass(frozen=True)
class ConeF:
    """Homogeneous profile amp * |x|^degree * g(x/|x|).

    In 1D the angular profile is the pair (g(+1), g(-1)). In 2D it is a
    tuple of ((angle_lo, angle_hi), value) entries; the profile is
    piecewise constant in angle.
    """

    degree: float
    profile: tuple
    amp: float = 1.0

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        rad = np.linalg.norm(pts, axis=-1)
        if pts.shape[1] == 1:
            gplus, gminus = self.profile
            g = np.where(pts[:, 0] >= 0.0, gplus, gminus)
        else:
            ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
            g = np.zeros(pts.shape[0])
            for (a0, a1), val in self.profile:
                g = np.where(_in_arc(ang, a0, a1), val, g)
        with np.errstate(divide="ignore"):
            mag = np.where(rad > 0.0, rad**self.degree, 0.0)
        return self.amp * mag * g

    def rescaled(self, r: float, amp: float) -> "ConeF":
        # amp' accounts for |rx|^degree = r^degree |x|^degree
        return ConeF(self.degree, self.profile, self.amp * amp * r**self.degree)


@dataclass(frozen=True)
class TabulatedF:
    """Per-shell values on a radial partition of the box exterior (1D only).

    ``edges`` are the radii L = e_0 < e_1 < ... < e_k = R_out of the shell
    partition on each side; ``right``/``left`` hold the per-shell values and
    ``far_value`` applies beyond R_out. A missing far value means the datum
    has no coverage there.
    """

    edges: tuple
    right: tuple
    left: tuple
    far_value: float | None = None

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        if pts.shape[1] != 1:
            raise IncompleteDatumError("tabulated data supported in 1D only")
        x = pts[:, 0]
        out = np.empty(x.shape[0], dtype=float)
        edges = np.asarray(self.edges)
        for i, xi in enumerate(x):
            a = abs(xi)
            vals = self.right if xi >= 0.0 else self.left
            if a < edges[0]:
                # inside the box the shell table has no say; callers sample
                # exterior points only, but be forgiving at the edge
                out[i] = vals[0]
            elif a >= edges[-1]:
                if self.far_value is None:
                    raise IncompleteDatumError(
                        f"tabulated datum has no coverage at |x|={a:g}"
                    )
                out[i] = self.far_value
            else:
                k = int(np.searchsorted(edges, a, side="right") - 1)
                out[i] = vals[k]
        return out

    def rescaled(self, r: float, amp: float) -> "TabulatedF":
        edges = tuple(e / r for e in self.edges)
        right = tuple(v * amp for v in self.right)
        left = tuple(v * amp for v in self.left)
        far = None if self.far_value is None else self.far_value * amp
        return TabulatedF(edges, right, left, far)


@dataclass(frozen=True)
class ExteriorDatum:
    """Paired symbolic data: function values and phase set outside the box."""

    func: object
    set_spec: object

    def rescaled(self, r: float, amp: float) -> "ExteriorDatum":
        return ExteriorDatum(self.func.rescaled(r, amp), self.set_spec.rescaled(r))


def halfspace_datum(normal, offset=0.0) -> ExteriorDatum:
    s = HalfspaceSet(tuple(normal), float(offset))
    return ExteriorDatum(IndicatorF(s), s)


def ball_datum(center, radius, inside_sign=1) -> ExteriorDatum:
    s = BallSet(tuple(center), float(radius), int(inside_sign))
    return ExteriorDatum(IndicatorF(s), s)


def constant_datum(value: float) -> ExteriorDatum:
    return ExteriorDatum(ConstantF(float(value)), FullSet(1 if value >= 0.0 else -1))


def cone_datum(degree: float, profile, dimension: int = 1) -> ExteriorDatum:
    """Homogeneous datum; the paired set collects the rays/sectors with g >= 0."""
    if dimension == 1:
        gplus, gminus = profile
        set_spec = SectorSet(1, (1 if gplus >= 0.0 else -1, 1 if gminus >= 0.0 else -1))
        return ExteriorDatum(ConeF(float(degree), (float(gplus), float(gminus))), set_spec)
    sectors = tuple((a0, a1) for (a0, a1), val in profile if val >= 0.0)
    return ExteriorDatum(ConeF(float(degree), tuple(profile)), SectorSet(2, sectors))


def tabulated_datum(edges, right, left, far_value, set_spec) -> ExteriorDatum:
    return ExteriorDatum(
        TabulatedF(tuple(edges), tuple(right), tuple(left), far_value), set_spec
    )


# ---------------------------------------------------------------------------
# discrete fields

class DiscreteFunction:
    """Per-cell values inside the box plus the symbolic exterior datum.

    Cells outside the minimization ball are pinned to the datum sampled at
    their centers; this is enforced at construction, not assumed.
    """

    def __init__(self, grid: Grid, values: np.ndarray, datum: ExteriorDatum):
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (grid.n_cells,):
            raise InvalidSpecError(
                f"values shape {values.shape} does not match grid ({grid.n_cells},)"
            )
        if not np.isfinite(values).all():
            raise InvalidSpecError("function values must be finite")
        outside = ~grid.in_omega
        if outside.any():
            values[outside] = datum.func.evaluate(grid.centers[outside])
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self.datum = datum

    def with_values(self, values: np.ndarray) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, values, self.datum)


class PhaseSet:
    """Per-cell phase indicator (+1 in the set, -1 outside) plus exterior set."""

    def __init__(self, grid: Grid, indicator: np.ndarray, datum: ExteriorDatum):
        ind = np.asarray(indicator)
        if ind.shape != (grid.n_cells,):
            raise InvalidSpecError(
                f"indicator shape {ind.shape} does not match grid ({grid.n_cells},)"
            )
        if not (np.abs(ind) == 1).all():
            raise InvalidSpecError("phase indicator entries must be exactly +1 or -1")
        ind = ind.astype(np.int8).copy()
        outside = ~grid.in_omega
        if outside.any():
            ind[outside] = datum.set_spec.membership(grid.centers[outside])
        self.grid = grid
        self.indicator = ind
        self.indicator.setflags(write=False)
        self.datum = datum

    def with_indicator(self, indicator: np.ndarray) -> "PhaseSet":
        return PhaseSet(self.grid, indicator, self.datum)


@dataclass(frozen=True)
class AdmissiblePair:
    """A validated (function, phase set) pair on a shared grid.

    On every cell of the minimization ball the function sign must agree
    with the phase up to ``sign_tol``: u >= -sign_tol where the indicator
    is +1 and u <= sign_tol where it is -1.
    """

    u: DiscreteFunction
    phases: PhaseSet
    sign_tol: float = DEFAULT_SIGN_TOL

    def __post_init__(self):
        if self.u.grid is not self.phases.grid:
            raise AdmissibilityError("function and phase set must share one grid")
        viol = admissibility_violations(self.u, self.phases, self.sign_tol)
        if viol.size:
            raise AdmissibilityError(
                f"{viol.size} cell(s) violate the sign constraints", cells=viol.tolist()
            )

    @property
    def grid(self) -> Grid:
        return self.u.grid


def admissibility_violations(u: DiscreteFunction, phases: PhaseSet, sign_tol: float):
    """Flat indices of minimization-ball cells breaking the sign coupling."""
    grid = u.grid
    inside = grid.in_omega
    pos = (phases.indicator == 1) & inside & (u.values < -sign_tol)
    neg = (phases.indicator == -1) & inside & (u.values > sign_tol)
    return np.flatnonzero(pos | neg)


def sample_datum(datum: ExteriorDatum, grid: Grid):
    """Sample the datum at cell centers into a (function, phase set) pair."""
    values = datum.func.evaluate(grid.centers)
    indicator = datum.set_spec.membership(grid.centers)
    u = DiscreteFunction(grid, values, datum)
    phases = PhaseSet(grid, indicator, datum)
    return u, phases


def make_pair(u: DiscreteFunction, phases: PhaseSet,
              sign_tol: float = DEFAULT_SIGN_TOL) -> AdmissiblePair:
    """Validate and wrap a pair; raises AdmissibilityError listing bad cells."""
    return AdmissiblePair(u, phases, sign_tol)


def rescale_pair(pair: AdmissiblePair, r: float, params: FractionalParams) -> AdmissiblePair:
    """Blow-up rescaling u_r(x) = r^(sigma/2 - s) u(rx), E_r = E/r.

    Cells map one-to-one onto the grid with half_width L/r and the same
    cell count, so the sign pattern is carried over unchanged. Dyadic r
    keeps the map binary-exact.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise InvalidScaleError(f"scale factor must be positive, got {r}")
    spec = pair.grid.spec
    amp = r ** (-params.scaling_degree)
    new_spec = replace(
        spec,
        half_width=spec.half_width / r,
        truncation_radius=spec.truncation_radius / r,
        domain_radius=spec.domain_radius / r,
    )
    new_grid = build_grid(new_spec)
    new_datum = pair.u.datum.rescaled(r, amp)
    u_r = DiscreteFunction(new_grid, amp * pair.u.values, new_datum)
    set_datum = pair.phases.datum.rescaled(r, amp)
    e_r = PhaseSet(new_grid, pair.phases.indicator, set_datum)
    return AdmissiblePair(u_r, e_r, pair.sign_tol)
