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

The coefficients come in two layouts.  Samples whose imaginary part is
exactly zero keep the `rfftn` half spectrum (last axis m = 0..N/2): both
kinds of symbol are even, so every piece of a real function is real and
is made by `irfft` into a real array, at half the coefficient and buffer
memory.  Any other samples keep the full `fftn` spectrum and complex
pieces.  Either way the spectrum of a piece is zero off its box, so in 2D
the first inverse pass runs over the box's rows (full layout) or columns
(half layout) only, and only the last pass covers the lattice; the passes
follow numpy's order, so a complex piece is bit-identical to
`np.fft.ifftn(symbol * fftn(f))`.

`SpectralDecomposition` keeps the forward coefficients of one function, not
its pieces.  A pass makes S_0 f, ..., S_K_max f in turn into one set of
buffers that lives as long as the pass (boxed multiply, pruned inverse
passes) and, while a piece exists, fills from one |S_k f| every reduction
asked for: the sup norm, the L^p norms of given exponents and, per
exponent r, the all-levels `CubeMeanTable` of |S_k f|^r.  The reductions
are cached, so terms called on one decomposition share them; a consumer
that asks for all it needs up front (`verdict`, the lower bound's Besov
norms) makes one pass.  Consumers of whole arrays (the paraproducts,
`tl_norm_inf`) read `pieces`, which builds the list anew instead of
pinning it; `pi2_summand` makes only the four pieces it reads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cubes import CubeMeanTable
from .errors import InvalidInputError, LevelOverflowError
from .grid import (
    FrequencyField,
    GridSpec,
    SampledFunction,
    _abs_lp_norm,
    _forward,
    _radius,
    _read_only,
    band_energy_fraction,
    check_exponent,
)


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

    def _blocks(self, k: int, half: bool = False) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
        """(lattice, box) slice pairs tiling the level-k box.

        Per axis the box holds frequencies 0..M then -M..-1, i.e. lattice
        indices [0, M] and [N - M, N).  On the `half` lattice of `rfftn`
        the last axis holds m = 0..N/2 and the box only its indices [0, M].
        """
        key = ("blocks", k, half)
        if key not in self._cache:
            n = self.grid.n_samples
            top = _box_top(k)
            axis = [(slice(0, top + 1), slice(0, top + 1)), (slice(n - top, n), slice(top + 1, 2 * top + 1))]
            axes = [axis] * (self.grid.dim - 1) + [axis[:1] if half else axis]
            self._cache[key] = [tuple(zip(*pairs)) for pairs in itertools.product(*axes)]
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
            cum = self._profile(k, float(1 << k))
            self._cache[key] = cum if cumulative or k == 0 else cum - self._profile(k, float(1 << (k - 1)))
        return self._cache[key]

    def _synthesize(self, coeffs: np.ndarray, k: int, cumulative: bool, bufs=None) -> np.ndarray:
        """F^{-1}(phi_0(2^-k .) c) (cumulative) or F^{-1}(phi_k c) for the
        coefficients c = `coeffs`, full or half (`rfftn`) spectrum: complex
        samples from the full one, real samples from the half one (both
        kinds of symbol are even).  `bufs` = `_synthesis_buffers(grid,
        coeffs)` is overwritten; without it the call makes its own.

        The spectrum is zero off the level-k box, so of the inverse passes,
        which run in numpy's order, only the last one covers the lattice: in
        2D the first pass transforms the box's rows (full layout, last axis
        first, as `ifftn`) or its columns (half layout, first axis first, as
        `irfftn`).  Full-layout samples are bit-identical to
        `np.fft.ifftn(symbol * coeffs)`.
        """
        n = self.grid.n_samples
        spec, out = _synthesis_buffers(self.grid, coeffs) if bufs is None else bufs
        half = spec is not out
        spec.fill(0.0)
        box = self._box(k, cumulative)
        for lattice, sub in self._blocks(k, half):
            np.multiply(box[sub], coeffs[lattice], out=spec[lattice])
        top = _box_top(k)
        if self.grid.dim == 2 and half:
            cols = spec[:, : top + 1]
            np.fft.ifft(cols, axis=0, out=cols)
        elif self.grid.dim == 2:
            for rows in (spec[: top + 1], spec[n - top :]):
                np.fft.ifft(rows, axis=1, out=rows)
        if half:
            return np.fft.irfft(spec, n, axis=-1, out=out)
        return np.fft.ifft(spec, axis=0, out=spec)

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


def _synthesis_buffers(grid: GridSpec, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A spectrum buffer shaped like `coeffs` and the samples buffer that
    `DyadicPartition._synthesize` writes: the spectrum buffer itself for the
    full layout, a real lattice array for the half layout."""
    spec = np.empty_like(coeffs)
    return spec, spec if spec.shape == grid.shape else np.empty(grid.shape)


def build_partition(grid: GridSpec, kind: PartitionKind | str = PartitionKind.RADIAL) -> DyadicPartition:
    if isinstance(kind, str):
        kind = PartitionKind(kind.lower())
    return DyadicPartition(grid, kind)


def _level_multiplier(f: SampledFunction, partition: DyadicPartition, k: int, cumulative: bool):
    """F^{-1}(phi_0(2^-k .) F f) (cumulative) or F^{-1}(phi_k F f); 0 for k < 0."""
    if k < 0:
        return SampledFunction(f.grid, np.zeros(f.grid.shape, dtype=np.complex128))
    partition._check_level(k)
    if f.grid != partition.grid:
        raise InvalidInputError("function and partition live on different grids")
    return SampledFunction(f.grid, partition._synthesize(_forward(f.values), k, cumulative))


def project(f: SampledFunction, partition: DyadicPartition, k: int) -> SampledFunction:
    """Frequency piece S_k f = F^{-1}(phi_k F f); S_j f := 0 for j < 0."""
    return _level_multiplier(f, partition, k, cumulative=False)


def partial_sum(f: SampledFunction, partition: DyadicPartition, k: int) -> SampledFunction:
    """S^k f = sum_{j<=k} S_j f, applied as one multiplier (exact telescoping)."""
    return _level_multiplier(f, partition, k, cumulative=True)


class SpectralDecomposition:
    """The frequency pieces (S_0 f, ..., S_K_max f) of one function, kept as
    its forward coefficients.

    `analyze` makes each piece in turn into reused buffers and, from one
    |S_k f|, fills every reduction asked for: the sup norm, the L^p norms
    and the cube tables of |S_k f|^r.  The reductions are kept for the life
    of the object, so every term that reads one decomposition shares them;
    a reduction not yet filled costs one more pass over the pieces.
    `pieces` builds the whole list anew on each access.

    `SpectralDecomposition(partition, pieces)` holds the given pieces instead
    and reads its coefficients off their sum.
    """

    def __init__(self, partition: DyadicPartition, pieces: list[SampledFunction] | None = None, *, coeffs=None):
        if (pieces is None) == (coeffs is None):
            raise TypeError("give either the pieces or the coefficients")
        self.partition = partition
        self._given = None if pieces is None else list(pieces)
        self.coeffs = _forward(sum(p.values for p in self._given)) if coeffs is None else coeffs
        self._sup_norms = None
        self._lp_norms = {}  # p -> read-only array over k
        self._tables = {}  # (k, r) -> CubeMeanTable of |S_k f|^r
        self._tail = None

    @property
    def grid(self) -> GridSpec:
        return self.partition.grid

    @property
    def k_max(self) -> int:
        return self.partition.k_max

    def _values(self, reuse: bool):
        """S_0 f, ..., S_K_max f in turn; with `reuse`, every one is made in
        the buffers of the first, which live as long as the pass."""
        bufs = _synthesis_buffers(self.grid, self.coeffs) if reuse and self._given is None else None
        for k in range(self.k_max + 1):
            yield self._piece(k, bufs)

    def _piece(self, k: int, bufs=None) -> np.ndarray:
        """S_k f, real for a real f, made in `bufs` or in new arrays."""
        if self._given is not None:
            return self._given[k].values
        return self.partition._synthesize(self.coeffs, k, False, bufs)

    @property
    def pieces(self) -> list[SampledFunction]:
        """S_0 f, ..., S_K_max f as full arrays, built anew on each access."""
        return [SampledFunction(self.grid, v) for v in self._values(reuse=False)]

    def analyze(self, cube_exponents=(), lp_exponents=()) -> None:
        """One pass over the pieces fills the sup norms, ||S_k f||_p for
        every p in `lp_exponents` and the cube tables of |S_k f|^r for every
        r in `cube_exponents`, skipping what is already filled.  An L^p norm
        of a non-finite piece is an `InvalidInputError`, as in `lp_norm`."""
        rs = list(dict.fromkeys(float(r) for r in cube_exponents if (0, float(r)) not in self._tables))
        ps = list(dict.fromkeys(check_exponent(p) for p in lp_exponents if float(p) not in self._lp_norms))
        if self._sup_norms is not None and not rs and not ps:
            return
        sups, norms, tables = [], {p: [] for p in ps}, {}
        for k, values in enumerate(self._values(reuse=True)):
            # a real piece sits in this pass's own buffer: |S_k f| takes its place
            a = np.abs(values, out=values if values.dtype == np.float64 else None)
            sups.append(a.max())
            for p in ps:
                norms[p].append(_abs_lp_norm(a, p, self.grid.cell_volume))
            for r in rs:
                # the last exponent raises |S_k f| in place: no lattice temporary
                tables[k, r] = CubeMeanTable(self.grid, np.power(a, r, out=a) if r == rs[-1] else a**r)
        if self._sup_norms is None:
            self._sup_norms = _read_only(np.array(sups))
        self._lp_norms.update((p, _read_only(np.array(v))) for p, v in norms.items())
        self._tables.update(tables)

    def sup_norms(self) -> np.ndarray:
        """||S_k f||_inf for every k (read-only, shared between callers)."""
        if self._sup_norms is None:
            self.analyze()
        return self._sup_norms

    def lp_norms(self, p: float) -> np.ndarray:
        """||S_k f||_p for every k, as `lp_norm` gives it (read-only, shared)."""
        if float(p) not in self._lp_norms:
            self.analyze(lp_exponents=(p,))
        return self._lp_norms[float(p)]

    def cube_table(self, k: int, r: float) -> CubeMeanTable:
        """Cube means of |S_k f|^r at every level 0..l_max."""
        key = (k, float(r))
        if key not in self._tables:
            self.analyze(cube_exponents=(r,))
        return self._tables[key]

    def tail_fraction(self) -> float:
        """Fraction of the spectral energy of f outside |m| <= 2^{K_max - 1},
        the part the truncated k-sums miss (computed once)."""
        if self._tail is None:
            normalized = FrequencyField(self.grid, self.coeffs / self.grid.n_samples**self.grid.dim)
            self._tail = band_energy_fraction(normalized, 0.0, 2.0 ** (self.k_max - 1))
        return self._tail


def decompose(f: SampledFunction, partition: DyadicPartition) -> SpectralDecomposition:
    """The decomposition of f: its forward coefficients, pieces made on demand."""
    if f.grid != partition.grid:
        raise InvalidInputError("function and partition live on different grids")
    return SpectralDecomposition(partition, coeffs=_forward(f.values))


def _ensure_decomposition(f, partition, dec) -> SpectralDecomposition:
    """`dec` when the caller has one, else `decompose(f, partition)`."""
    return dec if dec is not None else decompose(f, partition)
