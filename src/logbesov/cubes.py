"""Dyadic cubes Q_{l,nu} = 2^{-l}(nu + [0,1)^n) and averaged-power queries.

Cube averages are Riemann means over the grid samples falling inside the
cube.  Cubes are genuine dyadic cubes (edge 2^{-l}); their faces do not
align with the sampling lattice, so a cube's sample window is the set of
grid points inside it, guarded to >= 8 samples per axis.

All cubes of one level are summed in one `np.add.reduceat` pass over the
level's sample boundaries.  The windows nest exactly: level-l boundaries
are every other level-(l+1) boundary, bit for bit, so `CubeMeanTable`
reduces once at l_max and adds child pairs down to level 0.  Sums of
nonnegative data are sums of nonnegative terms, so the means are
nonnegative by construction.  The cube geometry of a level (its sample
boundaries and counts) is computed once per grid and level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .grid import GridSpec, SampledFunction, _read_only, check_exponent, is_inf

PI = math.pi
_EPS = 1e-9
_BAND = 16  # cube rows `_reduce` sums at a time in 2D


@dataclass(frozen=True)
class DyadicCube:
    """Q_{l,nu} with edge 2^{-l} and lower-left corner 2^{-l} nu."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise DomainError(f"cube level must be >= 0, got {self.level}")

    @property
    def edge(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def corner(self) -> tuple[float, ...]:
        return tuple(self.edge * nu for nu in self.index)


@functools.cache
def level_index_range(level: int) -> tuple[int, int]:
    """Admissible nu per axis: cube [2^-l nu, 2^-l (nu+1)) inside [-pi, pi)."""
    scale = float(1 << level)
    nu_min = int(math.ceil(-PI * scale - _EPS))
    nu_max = int(math.floor(PI * scale + _EPS)) - 1  # nu + 1 <= pi * 2^l
    return nu_min, nu_max


def _axis_window(grid: GridSpec, corner: float, edge: float) -> tuple[int, int]:
    """Half-open sample-index window [i0, i1) covering [corner, corner+edge)."""
    dx = grid.spacing
    i0 = int(math.ceil((corner + PI) / dx - _EPS))
    i1 = int(math.ceil((corner + edge + PI) / dx - _EPS))
    return i0, i1


def cube_sample_windows(grid: GridSpec, cube: DyadicCube) -> list[tuple[int, int]]:
    """Per-axis index windows of the cube, validating all cube invariants."""
    if len(cube.index) != grid.dim:
        raise DomainError("cube dimension does not match grid")
    nu_min, nu_max = level_index_range(cube.level)
    windows = []
    for nu in cube.index:
        if nu < nu_min or nu > nu_max:
            raise DomainError(f"cube {cube} lies outside [-pi, pi)^{grid.dim}")
    for axis, nu in enumerate(cube.index):
        i0, i1 = _axis_window(grid, cube.edge * nu, cube.edge)
        if i1 - i0 < 8:
            raise ResolutionError(
                f"cube at level {cube.level} spans {i1 - i0} < 8 samples on axis {axis}"
            )
        windows.append((i0, i1))
    return windows


def cube_mean_power(f: SampledFunction, cube: DyadicCube, r: float) -> float:
    """Averaged integral (mean_Q |f|^r)^(1/r); r=INF is the max over the cube."""
    check_exponent(r)
    windows = cube_sample_windows(f.grid, cube)
    a = np.abs(f.values[tuple(slice(i0, i1) for i0, i1 in windows)])
    if is_inf(r):
        return float(a.max())
    return float(np.mean(a**r) ** (1.0 / r))


def _check_level(grid: GridSpec, level: int) -> None:
    if level < 0:
        raise DomainError(f"cube level must be >= 0, got {level}")
    if level > grid.l_max:
        raise ResolutionError(
            f"cube level {level} too deep for J={grid.log2_samples} (l_max={grid.l_max})"
        )


@functools.cache
def level_boundaries(grid: GridSpec, level: int) -> np.ndarray:
    """Sample-index boundaries b[0] <= ... <= b[M] of the level's cubes (one
    axis); computed once per (grid, level) and read-only."""
    nu_min, nu_max = level_index_range(level)
    edge = 2.0**-level
    nus = np.arange(nu_min, nu_max + 2)
    dx = grid.spacing
    return _read_only(np.ceil((edge * nus + PI) / dx - _EPS).astype(np.int64))


def _bands(bounds: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(first cube, boundaries) of each band of `_BAND` cubes along one axis."""
    return [(i, bounds[i : i + _BAND + 1]) for i in range(0, bounds.size - 1, _BAND)]


def _band_sums(data: np.ndarray, rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """Sums, into `out`, over the boxes between consecutive boundaries `rows`
    (first axis) and `cols` (second axis); `data` holds the samples from
    row rows[0] and column cols[0] on.  Each box is summed row after row,
    then along the second axis, whatever other boxes `data` holds."""
    sums = np.add.reduceat(data[: rows[-1] - rows[0], : cols[-1] - cols[0]], rows[:-1] - rows[0], axis=0)
    np.add.reduceat(sums, cols[:-1] - cols[0], axis=1, out=out)


def _reduce(data: np.ndarray, bounds: np.ndarray, dim: int) -> np.ndarray:
    """Sums over the index boxes between consecutive `bounds` on every axis.

    In 2D the first axis is summed `_BAND` cubes at a time, so the one-axis
    sums held at once span `_BAND` cube rows, not all of them; every box is
    summed as in one pass, row after row, then along the second axis."""
    if dim == 1:
        return np.add.reduceat(data[bounds[0] : bounds[-1]], bounds[:-1] - bounds[0])
    sums = np.empty((bounds.size - 1,) * 2, dtype=data.dtype)
    for i, band in _bands(bounds):
        _band_sums(data[band[0] :, bounds[0] :], band, bounds, sums[i : i + _BAND])
    return sums


@functools.cache
def _lattice_bands(grid: GridSpec) -> tuple[tuple[int | None, np.ndarray], ...]:
    """The bands of `_BAND` cubes at l_max along one axis of a 2D grid as
    (first cube, boundaries), in order, with the samples before the first
    cube and after the last as (None, [i0, i1]): together they tile the
    axis 0..N once.  Rows and columns share them."""
    bounds = level_boundaries(grid, grid.l_max)
    edges = [(None, np.array([0, bounds[0]])), (None, np.array([bounds[-1], grid.n_samples]))]
    return tuple(band for band in [edges[0], *_bands(bounds), edges[1]] if band[1][-1] > band[1][0])


@functools.cache
def _counts(grid: GridSpec, level: int) -> np.ndarray:
    """Samples per cube of the level (array over the nu-grid, read-only)."""
    c = np.diff(level_boundaries(grid, level))
    return _read_only(functools.reduce(np.multiply.outer, [c] * grid.dim))


@functools.cache
def _children(level: int) -> np.ndarray:
    """Boundaries, in level-(level+1) cube indices, of the level's cubes:
    cube nu is the union of the finer cubes 2 nu and 2 nu + 1."""
    nu_min, nu_max = level_index_range(level)
    start = 2 * nu_min - level_index_range(level + 1)[0]
    return _read_only(np.arange(start, start + 2 * (nu_max - nu_min + 1) + 1, 2))


class CubeMeanTable:
    """Cube means of a nonnegative array at the levels 0..top (default l_max).

    One reduction at l_max, then each coarser level adds its child pairs:
    level-l cube nu is the union of level-(l+1) cubes 2 nu and 2 nu + 1, and
    their sample windows tile it exactly.  The sums of the levels above
    `top` are dropped as soon as the next coarser level is made.
    """

    def __init__(self, grid: GridSpec, data=None, *, finest: np.ndarray | None = None, top: int | None = None):
        """From the lattice array `data`, or from `finest`, its cube sums at
        l_max, made by a caller that streams the array in the bands of
        `_lattice_bands` (`_band_sums` per band)."""
        self.grid = grid
        top = grid.l_max if top is None else top
        if finest is None:
            finest = _reduce(np.asarray(data, dtype=np.float64), level_boundaries(grid, grid.l_max), grid.dim)
        self._sums = [finest]
        for level in range(grid.l_max - 1, -1, -1):
            coarser = _reduce(self._sums[0], _children(level), grid.dim)
            if level >= top:  # the finer level is above the top: not kept
                self._sums[0] = coarser
            else:
                self._sums.insert(0, coarser)

    def finite(self) -> bool:
        """Whether every kept cube sum is finite."""
        return all(np.isfinite(sums).all() for sums in self._sums)

    def means(self, level: int) -> np.ndarray:
        """Mean over every admissible cube at `level` (array over the nu-grid)."""
        _check_level(self.grid, level)
        if level >= len(self._sums):
            raise ResolutionError(f"cube level {level} above the table's top level {len(self._sums) - 1}")
        return self._sums[level] / _counts(self.grid, level)
