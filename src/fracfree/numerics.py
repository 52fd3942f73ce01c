"""Deterministic reductions, worker capping and small numeric helpers."""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MAX_WORKERS = 1


def set_worker_cap(n: int) -> None:
    """Cap the number of threads used by block-parallel loops."""
    global _MAX_WORKERS
    _MAX_WORKERS = max(1, int(n))


def worker_cap() -> int:
    return _MAX_WORKERS


def ordered_sum(values) -> float:
    """Compensated sum in array order (Shewchuk); independent of workers."""
    arr = np.asarray(values, dtype=float).ravel()
    return math.fsum(arr.tolist())


def is_integer(v) -> bool:
    """An integer, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A finite real number, and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def map_blocks(fn, blocks):
    """Apply ``fn`` to each block, in parallel up to the worker cap.

    Results come back in block order, so the assembled output does not
    depend on the number of workers.
    """
    blocks = list(blocks)
    if _MAX_WORKERS == 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=min(_MAX_WORKERS, len(blocks))) as ex:
        return list(ex.map(fn, blocks))


def smoothstep_quintic(t):
    """C^2 ramp: 0 for t <= 0, 1 for t >= 1, 6t^5 - 15t^4 + 10t^3 between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)
