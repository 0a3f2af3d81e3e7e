import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logbesov.cubes import (
    CubeMeanTable,
    DyadicCube,
    cube_mean_power,
    level_boundaries,
    level_cube_means,
    level_index_range,
)
from logbesov.errors import DomainError, ResolutionError
from logbesov.gallery import make_indicator
from logbesov.grid import INF, GridSpec, SampledFunction, make_constant, random_band_limited


def test_cube_geometry():
    q = DyadicCube(2, (1,))
    assert q.edge == 0.25
    assert q.corner == (0.25,)
    lo, hi = level_index_range(0)
    assert lo == -3 and hi == 2  # six unit cubes inside [-pi, pi)


def test_level_geometry_is_computed_once_and_shared(grid2d):
    """Boundaries and counts depend on (grid, level) only: every call, also
    for an equal grid built anew, returns the same read-only array, and the
    shared counts still give a constant its own value as every cube mean."""
    for level in range(grid2d.l_max + 1):
        bounds = level_boundaries(grid2d, level)
        assert bounds is level_boundaries(GridSpec(2, grid2d.log2_samples), level)
        with pytest.raises(ValueError):
            bounds[0] = 0
    table = CubeMeanTable(grid2d, np.ones(grid2d.shape))
    for level in range(grid2d.l_max + 1):
        assert np.array_equal(table.means(level), np.ones_like(table.means(level)))


def test_cube_mean_constant(grid10):
    c = make_constant(grid10, 0.7 - 0.2j)
    for r in (1.0, 2.0, INF):
        for cube in (DyadicCube(0, (0,)), DyadicCube(2, (-3,))):
            assert cube_mean_power(c, cube, r) == pytest.approx(abs(0.7 - 0.2j), rel=1e-12)


def test_cube_mean_half_indicator(grid12):
    # indicator of the left half of Q = [0, 1/4): mean 0.5 within a cell
    f = make_indicator(grid12, [(0.0, 0.125)])
    q = DyadicCube(2, (0,))
    got = cube_mean_power(f, q, 1.0)
    assert got == pytest.approx(0.5, abs=2 * grid12.spacing / q.edge)


def test_cube_mean_linear(grid12):
    xs = grid12.axis()
    f = SampledFunction(grid12, xs.astype(complex))
    got = cube_mean_power(f, DyadicCube(2, (0,)), 1.0)
    assert got == pytest.approx(2.0**-3, abs=2e-3)


def test_cube_guards(grid10):
    with pytest.raises(DomainError):
        cube_mean_power(make_constant(grid10), DyadicCube(0, (3,)), 1.0)  # outside
    deep = grid10.l_max + 1
    with pytest.raises(ResolutionError):
        cube_mean_power(make_constant(grid10), DyadicCube(deep, (0,)), 1.0)
    with pytest.raises(ResolutionError):
        level_cube_means(grid10, np.ones(grid10.shape), deep)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data())
def test_level_cube_means_match_single_cube(dim, data):
    """Nested and single-level means equal the brute-force mean of every cube
    and are nonnegative."""
    grid = GridSpec(dim, data.draw(st.integers(6, 12 if dim == 1 else 8), label="J"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # nonnegative samples over twelve decades, a fifth of them exactly zero
    values = 10.0 ** rng.uniform(-12.0, 0.0, grid.shape) * (rng.random(grid.shape) > 0.2)
    f = SampledFunction(grid, values)
    table = CubeMeanTable(grid, values)
    for level in range(grid.l_max + 1):
        lo, hi = level_index_range(level)
        nested = table.means(level)
        single = level_cube_means(grid, values, level)
        assert nested.min() >= 0.0 and single.min() >= 0.0
        for idx in itertools.product(range(hi - lo + 1), repeat=dim):
            cube = DyadicCube(level, tuple(lo + i for i in idx))
            direct = cube_mean_power(f, cube, 1.0)
            assert nested[idx] == pytest.approx(direct, rel=1e-12)
            assert single[idx] == pytest.approx(direct, rel=1e-12)


def test_level_cube_means_2d(grid2d, rng):
    f = random_band_limited(grid2d, 10, rng)
    data = np.abs(f.values)
    means = level_cube_means(grid2d, data, 0)
    lo, hi = level_index_range(0)
    direct = cube_mean_power(f, DyadicCube(0, (lo, hi)), 1.0)
    assert means[0, -1] == pytest.approx(direct, rel=1e-12)
