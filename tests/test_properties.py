"""Property tests: identities of the discrete functional on random phases.

Hypothesis draws the grid, the exponent, a half-space datum whose boundary
is a grid point (1D) or a grid line (2D), and the phase signs inside the
ball. The seed is fixed and the database off, so every run draws the same
examples.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fracfree import GridSpec, assemble_table, build_grid, halfspace_datum
from fracfree.energy import frac_perimeter, gagliardo_energy
from fracfree.model import DiscreteFunction, PhaseSet

PROPERTY = settings(max_examples=25, deadline=None, database=None)


@st.composite
def phase_cases(draw, dimension):
    m = draw(st.sampled_from((2, 4, 6) if dimension == 2 else (4, 8, 16)))
    alpha = draw(st.floats(0.2, 0.9))
    axis = draw(st.integers(0, dimension - 1))
    side = draw(st.sampled_from((-1.0, 1.0)))
    line = draw(st.integers(0, m))
    signs_seed = draw(st.integers(0, 2**31 - 1))
    g = build_grid(GridSpec(dimension, 1.0, m, 64.0, 1.0))
    normal = [0.0] * dimension
    normal[axis] = side
    datum = halfspace_datum(normal, side * (-1.0 + line * g.h))
    ind = datum.set_spec.membership(g.centers).copy()
    rng = np.random.RandomState(signs_seed)
    ind[g.in_omega] = rng.choice([-1, 1], size=int(g.in_omega.sum()))
    return g, assemble_table(g, alpha), PhaseSet(g, ind, datum)


def _flipped(phases):
    spec = phases.datum.set_spec
    datum = halfspace_datum([-v for v in spec.normal], -spec.offset)
    return PhaseSet(phases.grid, -phases.indicator, datum)


@pytest.mark.parametrize("dimension", [1, 2])
def test_gagliardo_of_an_indicator_is_eight_perimeters(dimension):
    @seed(20261018)
    @PROPERTY
    @given(phase_cases(dimension))
    def check(case):
        g, table, phases = case
        u = DiscreteFunction(g, phases.indicator.astype(float), phases.datum)
        gag = gagliardo_energy(u, table, s=0.5 * table.alpha)
        per = frac_perimeter(phases, table, sigma=table.alpha)
        assert gag == pytest.approx(8.0 * per, rel=1e-10)

    check()


@pytest.mark.parametrize("dimension", [1, 2])
def test_perimeter_is_symmetric_under_complement(dimension):
    @seed(20261019)
    @PROPERTY
    @given(phase_cases(dimension))
    def check(case):
        _, table, phases = case
        a = frac_perimeter(phases, table)
        b = frac_perimeter(_flipped(phases), table)
        assert a == pytest.approx(b, rel=1e-10)

    check()
