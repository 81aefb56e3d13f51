"""Property tests on hypothesis-drawn grids of at most 12 free cells: the
package DP and the exact field against the scalar oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hazardplan.grid import Cell, GridMap, MotionKernel
from hazardplan.hazard import HazardModel, HazardSource, exact_contamination_field
from hazardplan.planner import PlanQuery, dp_solve

import oracles
from conftest import random_tabular_kernel

MAX_FREE = 12
# the oracle field sums the same terms in another order, so entries may
# differ in the last bits
FIELD_TOL = 1e-12


@st.composite
def hazard_grids(draw):
    """A 2-4 by 2-4 grid with 2 to MAX_FREE free cells, connected or not,
    and 0-3 single-cell sources whose speeds include the edges 0 and 1."""
    width, height = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    cells = [Cell(c, r) for c in range(width) for r in range(height)]
    n_obstacles = draw(st.integers(max(0, len(cells) - MAX_FREE), len(cells) - 2))
    order = draw(st.permutations(cells))
    free = order[n_obstacles:]
    gm = GridMap(width, height, order[:n_obstacles], draw(st.sampled_from(free)))
    speeds = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
    n_sources = draw(st.integers(0, min(3, gm.n_free - 1)))
    model = HazardModel(sources=tuple(
        HazardSource(cells=frozenset([cell]), theta=draw(speeds))
        for cell in draw(st.permutations(gm.cells))[:n_sources]
    ))
    return gm, model


@settings(max_examples=100, deadline=None)
@given(hazard_grids(), st.integers(1, 3))
def test_exact_field_matches_oracle(grid, horizon):
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    prob, flagged = oracles.exact_field_oracle(gm, model.sources, horizon)
    assert np.array_equal(fld.flagged, flagged)
    assert np.abs(fld.prob - prob).max() <= FIELD_TOL


@settings(max_examples=150, deadline=None)
@given(hazard_grids(), st.integers(1, 6), st.data())
def test_dp_value_equals_value_recursion_oracle(grid, horizon, data):
    gm, model = grid
    fld = exact_contamination_field(gm, model, horizon)
    start = data.draw(st.sampled_from(gm.cells))
    targets = data.draw(st.lists(st.sampled_from(gm.cells), unique=True, max_size=3))
    if data.draw(st.booleans()):
        kernel = MotionKernel.deterministic(gm)
    else:
        kernel = random_tabular_kernel(np.random.default_rng(data.draw(st.integers(0, 2**32))), gm)
    query = PlanQuery(gridmap=gm, kernel=kernel, field=fld, start=start,
                      targets=tuple(targets), horizon=horizon)
    assert dp_solve(query).success == oracles.value_recursion_oracle(query)
