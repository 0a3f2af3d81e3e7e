"""Smooth dyadic partition of unity and Littlewood-Paley projections.

The generator phi_0 is 1 on {|xi| <= 1}, 0 on {|xi| >= 3/2}, with the C^inf
transition g(3-2r)/[g(3-2r)+g(2r-2)], g(t) = exp(-1/t) for t > 0.  Level
symbols are built as differences of rescaled generators,

    phi_k = phi_0(2^-k .) - phi_0(2^-k+1 .)   (k >= 1),

which makes the telescoping identity sum_{k<=K} phi_k = phi_0(2^-K .) exact
in floating point.  The TENSOR kind replaces |xi| by per-axis profiles
(product generator); it is what the product-indicator factorization uses.

Both phi_0(2^-k .) and phi_k vanish outside the box |m_i| < 3/2 2^k, so a
partition stores level k only on that box (FFT layout, two index ranges
per axis).  `symbol` and `cumulative_symbol` expand it to the full lattice
on each call, bit-identical to evaluating the formula there; `decompose`,
`project` and `partial_sum` multiply the box by the coefficients only.

`SpectralDecomposition` holds the pieces of one function and caches the
reductions the criterion terms share: the sup norms and, per (k, r), the
all-levels `CubeMeanTable` of |S_k f|^r.  Terms called on one
decomposition build each table once; a decomposition made per call
builds its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cubes import CubeMeanTable, level_cube_means
from .errors import InvalidInputError, LevelOverflowError
from .grid import GridSpec, SampledFunction, _radius, is_inf


class PartitionKind(Enum):
    RADIAL = "radial"
    TENSOR = "tensor"


def _g(t: np.ndarray | float) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t: np.ndarray | float) -> np.ndarray:
    """C^inf step: 0 for t <= 0, 1 for t >= 1, monotone in between."""
    a = _g(t)
    den = a + _g(1.0 - np.asarray(t, dtype=np.float64))
    return np.divide(a, den, out=a, where=den > 0)  # den = 0 only where a = 0


def generator_profile(r: np.ndarray | float) -> np.ndarray:
    """phi_0 as a function of r = |xi|: exactly 1 on r<=1, 0 on r>=3/2."""
    return smoothstep(3.0 - 2.0 * np.asarray(r, dtype=np.float64))


def _box_top(k: int) -> int:
    """Largest integer M with M < 3/2 2^k: the level-k box is |m_i| <= M."""
    return math.ceil(1.5 * (1 << k)) - 1


@dataclass
class DyadicPartition:
    """Symbols phi_0..phi_K_max on the frequency lattice of `grid`.

    Level k is stored only on its box |m_i| < 3/2 2^k (per axis, FFT
    layout), which holds the support of both phi_0(2^-k .) and phi_k for
    either kind; `symbol` and `cumulative_symbol` expand it to the lattice.
    """

    grid: GridSpec
    kind: PartitionKind = PartitionKind.RADIAL
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def k_max(self) -> int:
        return self.grid.k_max

    def _blocks(self, k: int) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
        """(lattice, box) slice pairs tiling the level-k box.

        Per axis the box holds frequencies 0..M then -M..-1, i.e. lattice
        indices [0, M] and [N - M, N).
        """
        key = ("blocks", k)
        if key not in self._cache:
            n = self.grid.n_samples
            top = _box_top(k)
            axis = [(slice(0, top + 1), slice(0, top + 1)), (slice(n - top, n), slice(top + 1, 2 * top + 1))]
            self._cache[key] = [
                tuple(zip(*pairs)) for pairs in itertools.product(axis, repeat=self.grid.dim)
            ]
        return self._cache[key]

    def _profile(self, k: int, scale: float) -> np.ndarray:
        """phi_0(xi / scale) on the level-k box."""
        top = _box_top(k)
        m = np.concatenate([np.arange(top + 1), np.arange(-top, 0)]).astype(np.float64)
        if self.kind is PartitionKind.RADIAL:
            axes = np.meshgrid(*[m] * self.grid.dim, indexing="ij", sparse=True)
            return generator_profile(_radius(axes) / scale)
        prof = generator_profile(np.abs(m) / scale)
        return functools.reduce(np.multiply.outer, [prof] * self.grid.dim)

    def _box(self, k: int, cumulative: bool) -> np.ndarray:
        """phi_0(2^-k .) (cumulative) or phi_k on the level-k box."""
        key = ("cum" if cumulative else "sym", k)
        if key not in self._cache:
            self._cache[("cum", k)] = cum = self._profile(k, float(1 << k))
            self._cache[("sym", k)] = cum if k == 0 else cum - self._profile(k, float(1 << (k - 1)))
        return self._cache[key]

    def _multiply_box(self, coeffs: np.ndarray, k: int, cumulative: bool, out: np.ndarray) -> None:
        """`out` := phi_0(2^-k .) (cumulative) or phi_k times `coeffs` on the level-k box."""
        box = self._box(k, cumulative)
        for lattice, sub in self._blocks(k):
            out[lattice] = box[sub] * coeffs[lattice]

    def _expand(self, k: int, box: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.shape)
        for lattice, sub in self._blocks(k):
            out[lattice] = box[sub]
        return out

    def _check_level(self, k: int) -> None:
        if k < 0 or k > self.k_max:
            raise LevelOverflowError(f"level {k} outside [0, {self.k_max}]")

    def symbol(self, k: int) -> np.ndarray:
        """phi_k on the frequency lattice (FFT layout)."""
        self._check_level(k)
        return self._expand(k, self._box(k, cumulative=False))

    def cumulative_symbol(self, k: int) -> np.ndarray:
        """phi_0(2^-k .) on the frequency lattice (= sum of symbols 0..k, exactly)."""
        self._check_level(k)
        return self._expand(k, self._box(k, cumulative=True))


def build_partition(grid: GridSpec, kind: PartitionKind | str = PartitionKind.RADIAL) -> DyadicPartition:
    if isinstance(kind, str):
        kind = PartitionKind(kind.lower())
    return DyadicPartition(grid, kind)


def _level_multiplier(f: SampledFunction, partition: DyadicPartition, k: int, cumulative: bool):
    """F^{-1}(phi_0(2^-k .) F f) (cumulative) or F^{-1}(phi_k F f); 0 for k < 0."""
    spectrum = np.zeros(f.grid.shape, dtype=np.complex128)
    if k < 0:
        return SampledFunction(f.grid, spectrum)
    partition._check_level(k)
    if f.grid != partition.grid:
        raise InvalidInputError("function and partition live on different grids")
    partition._multiply_box(np.fft.fftn(f.values), k, cumulative, spectrum)
    return SampledFunction(f.grid, np.fft.ifftn(spectrum))


def project(f: SampledFunction, partition: DyadicPartition, k: int) -> SampledFunction:
    """Frequency piece S_k f = F^{-1}(phi_k F f); S_j f := 0 for j < 0."""
    return _level_multiplier(f, partition, k, cumulative=False)


def partial_sum(f: SampledFunction, partition: DyadicPartition, k: int) -> SampledFunction:
    """S^k f = sum_{j<=k} S_j f, applied as one multiplier (exact telescoping)."""
    return _level_multiplier(f, partition, k, cumulative=True)


@dataclass
class SpectralDecomposition:
    """The list (S_0 f, ..., S_K_max f) of frequency pieces of one function.

    Per-piece reductions are computed on first use and kept for the life of
    the object, so every term that reads one decomposition shares them.
    """

    partition: DyadicPartition
    pieces: list[SampledFunction]
    _sup_norms: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def grid(self) -> GridSpec:
        return self.partition.grid

    @property
    def k_max(self) -> int:
        return self.partition.k_max

    def sup_norms(self) -> np.ndarray:
        """||S_k f||_inf for every k (read-only, shared between callers)."""
        if self._sup_norms is None:
            self._sup_norms = np.array([np.abs(p.values).max() for p in self.pieces])
            self._sup_norms.setflags(write=False)
        return self._sup_norms

    def cube_table(self, k: int, r: float) -> CubeMeanTable:
        """Cube means of |S_k f|^r at every level 0..l_max."""
        key = (k, float(r))
        if key not in self._tables:
            self._tables[key] = CubeMeanTable(self.grid, np.abs(self.pieces[k].values) ** r)
        return self._tables[key]


def decompose(f: SampledFunction, partition: DyadicPartition) -> SpectralDecomposition:
    if f.grid != partition.grid:
        raise InvalidInputError("function and partition live on different grids")
    coeffs = np.fft.fftn(f.values)
    # Boxes grow with k and each one is written whole, so the spectrum stays
    # zero outside the current box without being cleared.
    spectrum = np.zeros(f.grid.shape, dtype=np.complex128)
    pieces = []
    for k in range(partition.k_max + 1):
        partition._multiply_box(coeffs, k, cumulative=False, out=spectrum)
        pieces.append(SampledFunction(f.grid, np.fft.ifftn(spectrum)))
    return SpectralDecomposition(partition, pieces)


def _ensure_decomposition(f, partition, dec) -> SpectralDecomposition:
    """`dec` when the caller has one, else `decompose(f, partition)`."""
    return dec if dec is not None else decompose(f, partition)


def _running_cube_sups(dec: SpectralDecomposition, weights: list[float], q: float) -> list[float]:
    """sup over level-l cubes Q of (mean_Q sum_{k>=l} (weights[k] |S_k f|)^q)^{1/q}
    for l = 0..min(K_max, l_max), the k-sum run down from K_max; at q = INF
    the sum is a pointwise max and the sup runs over all samples."""
    grid = dec.grid
    l_top = min(dec.k_max, grid.l_max)
    best = [0.0] * (l_top + 1)
    running = np.zeros(grid.shape)
    for k in range(dec.k_max, -1, -1):
        term = weights[k] * np.abs(dec.pieces[k].values)
        if is_inf(q):
            np.maximum(running, term, out=running)
        else:
            running += term**q
        if k <= l_top:
            sup = running.max() if is_inf(q) else level_cube_means(grid, running, k).max() ** (1.0 / q)
            best[k] = float(sup)
    return best
