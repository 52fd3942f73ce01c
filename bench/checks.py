"""Output checks, each made apart from the program or taken from a property
the method must have. Nothing here compares against a stored copy of an
earlier output.

The per-workload functions ``check_<workload>(inputs, outputs, extensions)``
return one ``(operation, ok, accuracy)`` triple per operation of the round;
the accuracy dicts feed the traced run's accuracy metrics. ``run.py`` and
``selftest.py`` both call these functions, the self-test on today's outputs
and on perturbed copies of them.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy.optimize import lsq_linear
from scipy.special import gamma
from scipy.stats import t as student_t

from fracfree.solver import GagliardoQP

ENERGY_IDENTITY_TOL = 1e-10    # gagliardo = 8 * perimeter on indicators
TAIL_TOL = 1e-3                # today's 2D tails reach 6.0e-4 on 2x2
TAIL_DECLARED_FLOOR = 1e-8     # region_tails floors the table tol here
QP_VALUE_TOL = 1e-9            # relative, against a bounded least squares
DOMINANCE_SLACK = 1e-9         # alternating total >= oracle minimum - slack
EXTENSION_TOL = 1e-10          # set extension against the Student-t CDF
DECAY_SLACK = 0.6              # criterion 12 / cone2d's default decay slack

# the one operation that fails every round today (2D tails miss their tol)
KNOWN_FAILING = {("tails2d", "tails_declared_tol")}


# ---------------------------------------------------------------------------
# primitive checks

def energy_identity_error(gagliardo: float, perimeter: float) -> float:
    """Relative deviation from gagliardo = 8 * perimeter (u = phase sign)."""
    return abs(gagliardo - 8.0 * perimeter) / max(abs(gagliardo), 1e-300)


def halfplane_tails_expected(centers, h, alpha, dense) -> np.ndarray:
    """Each cell's tail against the opposite side of the line x = 0.

    The kernel |x-y|^-(2+alpha) integrated along the boundary direction
    gives C |dx|^-(1+alpha) with C = sqrt(pi) G((1+alpha)/2) / G((2+alpha)/2),
    so a cell at distances [d1, d2] from the line sees the whole opposite
    half-plane with mass C h (d2^(1-a) - d1^(1-a)) / (a (1-a)). The part
    inside the box is the pair weights to the opposite-side cells; the rest
    is the tail: T+ (against {x > 0}) for cells left of the line, T- for
    cells right of it.
    """
    c = math.sqrt(math.pi) * gamma(0.5 * (1.0 + alpha)) / gamma(0.5 * (2.0 + alpha))
    x = np.asarray(centers)[:, 0]
    left = x < 0.0
    d1 = np.maximum(np.abs(x) - 0.5 * h, 0.0)
    d2 = np.abs(x) + 0.5 * h
    p = 1.0 - alpha
    marginal = c * h * (d2**p - d1**p) / (alpha * p)
    opposite = left[None, :] != left[:, None]
    return marginal - (np.asarray(dense) * opposite).sum(axis=1)


def halfplane_tail_errors(centers, h, alpha, dense, t_pos, t_neg) -> np.ndarray:
    """Relative error of each cell's tail against halfplane_tails_expected."""
    expected = halfplane_tails_expected(centers, h, alpha, dense)
    got = np.where(np.asarray(centers)[:, 0] < 0.0, t_pos, t_neg)
    return np.abs(got - expected) / np.abs(expected)


def qp_value_error(hess, lin, const, signs, u_free) -> float:
    """Relative gap between the QP value at u_free and an independent solve.

    With H = L L^T, u H u / 2 + b.u = |L^T u + L^-1 b|^2 / 2 - |L^-1 b|^2 / 2,
    so the sign-constrained minimum is a bounded least-squares problem on
    the Cholesky factor (scipy's BVLS).
    """
    hess = np.asarray(hess)
    lin = np.asarray(lin)
    u_free = np.asarray(u_free, dtype=float)
    chol = np.linalg.cholesky(hess)
    target = -np.linalg.solve(chol, lin)
    pos = np.asarray(signs) > 0
    lower = np.where(pos, 0.0, -np.inf)
    upper = np.where(pos, np.inf, 0.0)
    ref = lsq_linear(chol.T, target, bounds=(lower, upper), method="bvls",
                     tol=1e-14).x
    ref_value = 0.5 * float(np.sum((chol.T @ ref - target) ** 2)) \
        - 0.5 * float(target @ target) + const
    feasible = bool(np.all(np.where(pos, u_free >= 0.0, u_free <= 0.0)))
    value = 0.5 * float(u_free @ hess @ u_free) + float(lin @ u_free) + const
    if not feasible:
        return math.inf
    return abs(value - ref_value) / max(1.0, abs(ref_value))


def set_extension_error(values, axis, levels, sigma: float) -> float:
    """Largest deviation of a half-line/half-plane {x > 0} set extension
    from its closed form 2 T_sigma(sqrt(sigma) x / z) - 1, where T_nu is
    the Student-t CDF: the order-sigma Poisson kernel's one-dimensional
    marginal is a Student-t density with sigma degrees of freedom."""
    values = np.asarray(values)[1:]
    z = np.asarray(levels, dtype=float)
    x = np.asarray(axis, dtype=float)
    exact = 2.0 * student_t.cdf(math.sqrt(sigma) * x[None, :] / z[:, None], sigma) - 1.0
    if values.ndim == 3:
        exact = exact[:, :, None]
    return float(np.max(np.abs(values - exact)))


def decay_rates(defects) -> list:
    return [math.log2(abs(b) / abs(a)) for a, b in zip(defects[:-1], defects[1:])]


def defects_ok(defects, sigma: float, slack: float = DECAY_SLACK) -> bool:
    """Criterion 12: positive defects decaying at log2 rate <= -sigma + slack."""
    if not all(d > 0.0 for d in defects):
        return False
    return all(r <= -sigma + slack for r in decay_rates(defects))


# ---------------------------------------------------------------------------
# per-workload checks

def read_column(path: str, column: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row[column]) for row in csv.DictReader(fh)])


def check_tails2d(inp, out, extensions):
    table = out["table"]
    grid = inp["grid"]
    b = out["breakdown"]
    ident = energy_identity_error(b.gagliardo, b.perimeter)
    t_pos, t_neg = out["tails"]
    errs = halfplane_tail_errors(grid.centers, grid.h, table.alpha,
                                 table.dense_matrix(), t_pos, t_neg)
    worst = float(errs.max())
    acc = {"quadrature.tail_rel_err": worst}
    return [
        ("energy_identity", ident <= ENERGY_IDENTITY_TOL, acc),
        ("tails_closed_form", worst <= TAIL_TOL, acc),
        ("tails_declared_tol", worst <= max(table.tol, TAIL_DECLARED_FLOOR), acc),
    ]


def check_oracle1d(inp, out, extensions):
    ops = []
    inside = inp["grid"].in_omega
    for k, ((datum, _), (oracle, alternate)) in enumerate(
            zip(inp["instances"], out["results"])):
        qp = GagliardoQP(inp["grid"], datum, inp["tg"])
        err = qp_value_error(qp.hess, qp.lin, qp.const,
                             oracle.pair.phases.indicator[inside],
                             oracle.pair.u.values[inside])
        gap = alternate.trace[-1].total - float(oracle.landscape.min())
        ops.append((f"oracle_qp_value_{k}", err <= QP_VALUE_TOL, {}))
        ops.append((f"alternate_dominance_{k}", gap >= -DOMINANCE_SLACK, {}))
    return ops


def _worst_extension_error(extensions) -> float:
    """Largest error of the captured {x > 0} set extensions (inf if none)."""
    errs = [set_extension_error(field.values, hg.padded_axis, hg.z_array(), sigma)
            for (_, hg, sigma), field in extensions]
    return max(errs, default=math.inf)


def check_cone2d(inp, out, extensions):
    report = out["report"]
    defects = read_column(os.path.join(report.run_dir, "defect.csv"), "defect")
    ext_err = _worst_extension_error(extensions)
    sigma = inp["config"].fractional.sigma
    acc = {"extension.ext_abs_err": ext_err}
    return [
        ("defect_decay", defects_ok(defects, sigma), acc),
        ("set_extension", ext_err <= EXTENSION_TOL, acc),
    ]

