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
on each call, bit-identical to evaluating the formula there; the pieces
S_k f multiply the phi_k box by the coefficients only.

The coefficients come in two layouts, chosen by the dtype of the samples
(`SampledFunction` stores them as `float64` exactly when they are real).
Real samples keep the `rfftn` half spectrum (last axis m = 0..N/2): both
kinds of symbol are even, so every piece of a real function is real and
is made by `irfft` into a real array, at half the coefficient and buffer
memory.  Complex samples keep the full `fftn` spectrum and complex
pieces.  Either way the spectrum of a piece is zero off its box, so in 2D
the first inverse pass runs over the box's rows (full layout) or columns
(half layout) only, and only the last pass covers the lattice; the passes
follow numpy's order, so a complex piece is bit-identical to
`np.fft.ifftn(symbol * fftn(f))`.

`SpectralDecomposition(partition, coeffs, bins)` keeps the forward
coefficients of one function, not its pieces; `decompose` builds them from
the function's exact `spectrum` bins when it carries them, and keeps the
bins' positions.  A pass makes the pieces S_k f of the levels it reads, in
its order, into one set of buffers that lives as long as the pass (boxed
spectrum, pruned inverse passes).  One routine fills a level's boxed
spectrum (`DyadicPartition._fill_level`): without bin positions it
multiplies the whole box; with them it reads phi_k from the cached box at
the bins inside the box only, and writes their products into zeros.  In
every pass (`analyze` in 1D and 2D, `pieces`, the paraproducts) a level
whose boxed product is all exactly zero (a constant's upper levels, every
level but one of an exponential given its exact spectrum, every level of
a wave packet that holds none of its bins) makes no inverse transform,
and with bin positions touches no spectrum buffer either: its piece is
zeros and its reductions are those of zeros, bit for bit, its cube
tables the grid's one shared zero table per top level
(`cubes._zero_table`).  `analyze` runs one pass and, while a piece
exists, fills from one |S_k f| every reduction
asked for: the sup norm, the L^p norms of given exponents and, per
exponent r, the `CubeMeanTable` of |S_k f|^r at the cube levels
0..min(k, l_max), the only ones its readers take (no reader averages
piece k over cubes finer than level k).  |S_k f| of a complex piece is
written into the first half of the piece's own buffer (`_moduli`), so no
pass holds a separate real array for it.  The reductions are cached, so
terms called on one decomposition share them; a consumer that asks for
all it needs up front (`verdict`, the lower bound's Besov norms,
`tl_norm_inf`) makes one pass, and `analyze` is the only pass that
reduces pieces.  The paraproducts make each piece once into its own array
and hold a window of a few levels; `pi2_summand` makes only the four
pieces it reads.

In 2D `analyze` splits its levels between the two workers of
`workers._map_rows`: the calling thread makes the upper levels, one helper
thread the lower half, each in buffers of its own that the calling thread
makes before the helper starts (the helper's sized by its own top box).
Per level the results are put back in level order, so they do not depend
on the split or on the number of usable CPUs; a pass inside a runner row
stays on that row's thread, and 1D passes stay on one worker.  A 2D pass
never holds a whole piece: its last inverse pass runs row by row (`irfft`,
real pieces) or column by column (`ifft`, complex pieces), so it makes and
reduces one band of cube rows or columns at a time, bit for bit as the
whole piece would be, except that an L^p norm adds up its band sums in
band order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cubes import _BAND, CubeMeanTable, _band_sums, _lattice_bands, _zero_table, level_boundaries
from .errors import InvalidInputError, LevelOverflowError
from .grid import (
    GridSpec,
    SampledFunction,
    _abs_lp_norm,
    _band_energy_fraction,
    _coefficients,
    _lp_from_sum,
    _power,
    _radius,
    _read_only,
    check_exponent,
    is_inf,
)
from .workers import _map_rows


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


# Samples of the level box that `DyadicPartition._box` evaluates at a time.
_BOX_BLOCK = 1 << 16


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

    def _profile(self, first: np.ndarray, m: np.ndarray, scale: float) -> np.ndarray:
        """phi_0(xi / scale) on the box rows whose first coordinate is in
        `first`; every other axis holds the box's coordinates `m`."""
        axes = [first] + [m] * (self.grid.dim - 1)
        if self.kind is PartitionKind.RADIAL:
            return generator_profile(_radius(np.meshgrid(*axes, indexing="ij", sparse=True)) / scale)
        return functools.reduce(np.multiply.outer, [generator_profile(np.abs(a) / scale) for a in axes])

    def _box(self, k: int, cumulative: bool) -> np.ndarray:
        """phi_0(2^-k .) (cumulative) or phi_k on the level-k box.

        It is evaluated in blocks of rows along the first axis, so the
        generator's temporaries stay near `_BOX_BLOCK` samples whatever the
        level; every operation is elementwise, so the blocks change no bit.
        """
        key = ("cum" if cumulative else "sym", k)
        if key not in self._cache:
            top = _box_top(k)
            m = np.concatenate([np.arange(top + 1), np.arange(-top, 0)]).astype(np.float64)
            box = np.empty((m.size,) * self.grid.dim)
            rows = max(1, _BOX_BLOCK // m.size ** (self.grid.dim - 1))
            for start in range(0, m.size, rows):
                first, block = m[start : start + rows], box[start : start + rows]
                block[...] = self._profile(first, m, float(1 << k))
                if not cumulative and k > 0:
                    block -= self._profile(first, m, float(1 << (k - 1)))
            self._cache[key] = box
        return self._cache[key]

    def _synthesize(self, coeffs: np.ndarray, k: int, bufs=None, bins=None) -> np.ndarray:
        """F^{-1}(phi_k c) for the coefficients c = `coeffs`, full or half
        (`rfftn`) spectrum: complex samples from the full one, real samples
        from the half one (both kinds of symbol are even).  `bufs` =
        `_synthesis_buffers(grid, coeffs, top)` with top >= k is
        overwritten; without it the call makes its own.  `bins` is passed
        to `_fill_level`.

        The spectrum is zero off the level-k box, so of the inverse passes,
        which run in numpy's order, only the last one covers the lattice: in
        2D the first pass transforms the box's rows (full layout, last axis
        first, as `ifftn`) or its columns (half layout, first axis first, as
        `irfftn`).  Full-layout samples are bit-identical to
        `np.fft.ifftn(symbol * coeffs)`.  A level whose boxed product is all
        exactly zero makes no transform: its samples are zeros, as the
        transform of zeros is +0, bit for bit.  Non-finite coefficients give
        non-finite samples without a warning, for the consumers to reject.
        """
        spec, out = _synthesis_buffers(self.grid, coeffs, k) if bufs is None else bufs
        with np.errstate(invalid="ignore"):
            if not self._first_passes(coeffs, k, spec, bins):
                out.fill(0.0)
                return out
            return self._last_pass(spec, out)

    def _last_pass(self, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The last inverse pass of `_synthesize`, from `spec` into `out`."""
        if spec is not out:
            return np.fft.irfft(spec, self.grid.n_samples, axis=-1, out=out)
        return np.fft.ifft(spec, axis=0, out=spec)

    def _fill_level(self, coeffs: np.ndarray, k: int, out: np.ndarray, bins=None, rows: bool = False) -> bool:
        """Write phi_k c, c = `coeffs`, into `out`: the level's spectrum in
        `coeffs`' lattice indices, zero off the box (the half layout's
        buffer may hold only the box's last-axis columns), or, with `rows`,
        the full layout's box rows 0..M, then -M..-1, in the first 2M+1
        rows of `out`.  Returns whether the product has an entry that is not
        exactly zero (a NaN counts).

        Without `bins` the whole box is multiplied.  `bins`, the lattice
        indices (one array per axis) of every entry of c that may be
        nonzero, reads phi_k at those in the box only; a level whose
        products are all exactly zero then touches no buffer, and any other
        one gets the products written into zeros, bit for bit the box
        multiply (phi_k has no negative or -0 entry, so it leaves +0 off
        the bins).  The caller holds `np.errstate(invalid="ignore")`."""
        n, top = self.grid.n_samples, _box_top(k)
        if rows:
            out = out[: 2 * top + 1]
        if bins is None:
            if rows:
                out[:, top + 1 : n - top] = 0.0
            else:
                out.fill(0.0)
            box, nonzero = self._box(k, False), False
            for lattice, sub in self._blocks(k, not rows and coeffs.shape != self.grid.shape):
                block = np.multiply(box[sub], coeffs[lattice], out=out[sub[0], lattice[1]] if rows else out[lattice])
                nonzero = nonzero or bool(block.any())
            return nonzero
        inside = np.logical_and.reduce([(i <= top) | (i >= n - top) for i in bins])
        if not inside.any():
            return False
        at = tuple(i[inside] for i in bins)
        at_box = tuple(np.where(i <= top, i, i + 2 * top + 1 - n) for i in at)
        products = self._box(k, False)[at_box] * coeffs[at]
        if not products.any():
            return False
        out.fill(0.0)
        out[(at_box[0],) + at[1:] if rows else at] = products
        return True

    def _first_passes(self, coeffs: np.ndarray, k: int, spec: np.ndarray, bins=None) -> bool:
        """Fill `spec` with the level-k box times `coeffs` (`_fill_level`)
        and, in 2D, run the first inverse pass over the box's rows (full
        layout) or columns (half layout): `_synthesize` without its last
        pass.  Returns whether the product has an entry that is not exactly
        zero (a NaN counts); when it has none, no pass runs.  The caller
        holds `np.errstate(invalid="ignore")`."""
        n = self.grid.n_samples
        if not self._fill_level(coeffs, k, spec, bins):
            return False
        top = _box_top(k)
        if self.grid.dim == 2 and coeffs.shape != self.grid.shape:
            cols = spec[:, : top + 1]
            np.fft.ifft(cols, axis=0, out=cols)
        elif self.grid.dim == 2:
            for rows in (spec[: top + 1], spec[n - top :]):
                np.fft.ifft(rows, axis=1, out=rows)
        return True

    def _box_rows(self, coeffs: np.ndarray, k: int, rows: np.ndarray, bins=None) -> np.ndarray | None:
        """The rows of `_first_passes`' full-layout 2D spectrum that are not
        zero, bit for bit, made in the first 2M+1 rows of `rows`: the box's
        rows 0..M, then -M..-1, with the first inverse pass run along them;
        None, with no pass run, when the boxed product is all exactly zero.
        The caller holds `np.errstate(invalid="ignore")`."""
        if not self._fill_level(coeffs, k, rows, bins, rows=True):
            return None
        rows = rows[: 2 * _box_top(k) + 1]
        return np.fft.ifft(rows, axis=1, out=rows)

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


def _in_place_norm(rs: list, ps: list) -> int | None:
    """Index in `ps` of the L^p norm whose power may overwrite |S_k f|: the
    last finite exponent (p = inf takes no power), when no cube table reads
    |S_k f| after the norms; None otherwise.  No lattice temporary is made
    for it."""
    finite = [i for i, p in enumerate(ps) if not is_inf(p)]
    return finite[-1] if finite and not rs else None


def _synthesis_buffers(grid: GridSpec, coeffs: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum buffer and the samples buffer that
    `DyadicPartition._synthesize` writes for levels up to `top`.  For the
    full layout both are one array shaped like `coeffs`.  For the half
    layout the spectrum buffer is `_half_spectrum_buffer`, and the samples
    buffer is a real lattice array."""
    if coeffs.shape == grid.shape:
        spec = np.empty_like(coeffs)
        return spec, spec
    return _half_spectrum_buffer(grid, top), np.empty(grid.shape)


def _half_spectrum_buffer(grid: GridSpec, top: int) -> np.ndarray:
    """The half-layout spectrum buffer for levels up to `top`: only the
    last-axis columns m = 0..M of the level-`top` box, since `irfft`
    zero-pads the rest, bit for bit as explicit zeros."""
    return np.empty(grid.shape[:-1] + (_box_top(top) + 1,), dtype=np.complex128)


# Leading entries whose moduli `_moduli` takes in one call, into a temporary.
_PACK_HEAD = 1 << 12


def _moduli(values: np.ndarray) -> np.ndarray:
    """|values| as a contiguous `float64` array in `values`' own memory,
    bit-identical to `np.abs(values)`: in place for a real array; for a
    complex one, in the first half of its bytes, so that a complex pass
    needs no separate real buffer.

    The complex moduli are written over the flat index blocks [0, h), then
    [a, 2a) for a = h, 2h, 4h, ... (the last one cut at the size): block
    [a, 2a) writes the bytes of complex entries [a/2, a), all read before,
    and reads entries whose bytes no block has written yet.  Only the
    first block, h = `_PACK_HEAD` entries at most, overlaps its own input;
    numpy's vector loop would read entries it has overwritten, so its
    moduli go through a temporary."""
    if values.dtype == np.float64:
        return np.abs(values, out=values)
    flat = values.reshape(-1)
    out = flat.view(np.float64)[: flat.size]
    a = min(flat.size, _PACK_HEAD)
    out[:a] = np.abs(flat[:a])
    while a < flat.size:
        np.abs(flat[a : 2 * a], out=out[a : 2 * a])
        a *= 2
    return out.reshape(values.shape)


def build_partition(grid: GridSpec, kind: PartitionKind | str = PartitionKind.RADIAL) -> DyadicPartition:
    if isinstance(kind, str):
        kind = PartitionKind(kind.lower())
    return DyadicPartition(grid, kind)


class SpectralDecomposition:
    """The frequency pieces (S_0 f, ..., S_K_max f) of one function, kept as
    its forward coefficients `coeffs` (`rfftn` half spectrum for real
    samples, else the full `fftn` one).  `bins`, when given, holds the
    lattice indices (one array per axis) of every coefficient that may be
    nonzero, so that a level is made from those alone (`_fill_level`);
    `coeffs` stays the one source of their values.

    `analyze` makes each piece in turn into reused buffers and, from one
    |S_k f|, fills every reduction asked for: the sup norm, the L^p norms
    and the cube tables of |S_k f|^r.  The reductions are kept for the life
    of the object, so every term that reads one decomposition shares them;
    a reduction not yet filled costs one more pass over the pieces.
    `pieces` builds the whole list anew on each access.
    """

    def __init__(self, partition: DyadicPartition, coeffs: np.ndarray, bins: tuple[np.ndarray, ...] | None = None):
        self.partition = partition
        self.coeffs = coeffs
        self.bins = bins
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

    @property
    def dtype(self) -> np.dtype:
        """dtype of the pieces: `float64` for a real function (half spectrum)."""
        return np.dtype(np.complex128 if self.coeffs.shape == self.grid.shape else np.float64)

    def _piece(self, k: int, bufs=None) -> np.ndarray:
        """S_k f, real for a real f, made in `bufs` or in new arrays."""
        return self.partition._synthesize(self.coeffs, k, bufs, self.bins)

    @property
    def pieces(self) -> list[SampledFunction]:
        """S_0 f, ..., S_K_max f as full arrays, built anew on each access."""
        return [SampledFunction(self.grid, self._piece(k)) for k in range(self.k_max + 1)]

    def analyze(self, cube_exponents=(), lp_exponents=()) -> None:
        """One pass over the pieces fills the sup norms, ||S_k f||_p for
        every p in `lp_exponents` and the cube tables of |S_k f|^r for every
        r in `cube_exponents`, skipping what is already filled.  An L^p norm
        of a non-finite piece is an `InvalidInputError`, as in `lp_norm`;
        so is a power |S_k f|^p or |S_k f|^r of finite samples, or a sum of
        them, beyond the float range: an L^p norm names p, as `lp_norm`
        does, and the cube tables are checked once the pass is done.

        In 2D the pass is split between the two workers of
        `workers._map_rows`: the calling thread makes the upper levels and
        the helper the lower half of them, rounded up (the upper levels'
        first inverse passes cover larger boxes).  Each worker makes its
        pieces in its own buffers, the helper's half-layout spectrum buffer
        cropped to its own top box, and a band at a time (`_reduce_bands`);
        every level is reduced as in one serial pass, so the results do not
        depend on the split.  In 1D one transform covers the lattice: the
        pass stays on one worker and reduces whole pieces (`_reduce_level`)."""
        rs = list(dict.fromkeys(float(r) for r in cube_exponents if (0, float(r)) not in self._tables))
        ps = list(dict.fromkeys(check_exponent(p) for p in lp_exponents if float(p) not in self._lp_norms))
        if self._sup_norms is not None and not rs and not ps:
            return
        k_top = self.k_max
        split = (k_top + 2) // 2 if self.grid.dim == 2 else 0
        halves, tops = [range(split, k_top + 1), range(split)], [k_top, split - 1]
        reduce = self._reduce_bands if self.grid.dim == 2 else self._reduce_level
        parts = _map_rows(
            lambda levels, bufs: [(k, reduce(k, bufs, rs, ps)) for k in levels],
            halves if split else halves[:1],
            lambda worker: self._pass_buffers(tops[worker]),
        )
        done = dict(itertools.chain.from_iterable(parts))  # k -> (sup, norms, tables)
        levels = [done[k] for k in range(k_top + 1)]
        sups = np.array([sup for sup, _, _ in levels])
        if np.isfinite(sups).all():  # so a non-finite table is a power or a sum beyond the float range
            for i, r in enumerate(rs):
                if not all(tables[i].finite() for _, _, tables in levels):
                    raise InvalidInputError(f"cube means of |S_k f|^{r!r} overflow")
        if self._sup_norms is None:
            self._sup_norms = _read_only(sups)
        for i, p in enumerate(ps):
            self._lp_norms[p] = _read_only(np.array([norms[i] for _, norms, _ in levels]))
        for k, (_, _, tables) in enumerate(levels):
            self._tables.update(((k, r), table) for r, table in zip(rs, tables))

    def _pass_buffers(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """The buffers in which one worker of `analyze` makes its levels, up
        to `top`: in 1D `_synthesis_buffers`; in 2D the buffer of the first
        inverse pass (the half-layout spectrum, or the level-`top` box's
        rows of the full layout) and one band of a piece (rows of a real
        piece, columns of a complex one)."""
        grid, n = self.grid, self.grid.n_samples
        if grid.dim == 1:
            return _synthesis_buffers(grid, self.coeffs, top)
        width = max(band[-1] - band[0] for _, band in _lattice_bands(grid))
        if self.dtype == np.float64:
            return _half_spectrum_buffer(grid, top), np.empty((width, n))
        # the calling worker's box rows (its top is K_max) sit in a lattice-sized
        # array whose last rows are never touched: the allocator maps such an
        # array and unmaps it whole, so a pass leaves no freed heap behind to
        # raise the process's peak RSS (measured with the `verdict-2d` bench)
        rows = n if top == self.k_max else 2 * _box_top(top) + 1
        return np.empty((rows, n), dtype=np.complex128), np.empty((n, width), dtype=np.complex128)

    def _zero_level(self, k: int, rs: list, ps: list) -> tuple:
        """The sup norm, L^p norms and cube tables of a level whose piece is
        all zero, made without it: those of transformed zeros, bit for bit.
        Every exponent r reads the grid's one shared zero table."""
        grid = self.grid
        norms = [_lp_from_sum(0.0, p, grid.cell_volume, 0.0) for p in ps]
        return 0.0, norms, [_zero_table(grid, min(k, grid.l_max))] * len(rs)

    def _reduce_level(self, k: int, bufs, rs: list, ps: list) -> tuple:
        """The sup norm, the L^p norms (exponents `ps`) and the cube tables
        (exponents `rs`) of |S_k f|, made from one piece in `bufs`; the
        piece is checked for finiteness once, by its max.  A level whose
        boxed coefficients are all exactly zero is `_zero_level`, with no
        inverse transform."""
        spec, out = bufs
        with np.errstate(invalid="ignore"):
            if not self.partition._first_passes(self.coeffs, k, spec, self.bins):
                return self._zero_level(k, rs, ps)
            piece = self.partition._last_pass(spec, out)
        a = _moduli(piece)
        sup = a.max()
        last = _in_place_norm(rs, ps)
        norms = [_abs_lp_norm(a, p, self.grid.cell_volume, sup, in_place=i == last) for i, p in enumerate(ps)]
        top = min(k, self.grid.l_max)
        with np.errstate(over="ignore"):
            tables = [CubeMeanTable(self.grid, _power(a, r, in_place=r == rs[-1]), top=top) for r in rs]
        return sup, norms, tables

    def _reduce_bands(self, k: int, bufs, rs: list, ps: list) -> tuple:
        """`_reduce_level` of a 2D f, with the piece never held whole.  Its
        last inverse pass runs row by row for a real piece (`irfft` along
        the rows) and column by column for a complex one (`ifft` along the
        columns), so it makes the piece one band of rows or of columns at a
        time (`_lattice_bands`), which is reduced at once.  The sup norm and
        the cube tables are those of the whole piece bit for bit: every
        transform of a row or column is the same, the max is exact, the
        powers are elementwise and each cube is summed as `CubeMeanTable`
        sums it.  An L^p norm adds up the sums of its bands' powers in band
        order, which rounds differently from one sum over the whole piece.
        A level whose boxed coefficients are all exactly zero is
        `_zero_level`, with no inverse transform."""
        grid, n, top = self.grid, self.grid.n_samples, _box_top(k)
        first, buf = bufs
        real = self.dtype == np.float64
        bounds = level_boundaries(grid, grid.l_max)
        maxes, totals = [], [0.0] * len(ps)
        last = _in_place_norm(rs, ps)
        with np.errstate(invalid="ignore", over="ignore"):
            if real:
                first = first if self.partition._first_passes(self.coeffs, k, first, self.bins) else None
            else:
                first = self.partition._box_rows(self.coeffs, k, first, self.bins)
            if first is None:
                return self._zero_level(k, rs, ps)
            finest = [np.empty((bounds.size - 1,) * 2) for _ in rs]
            for start, band in _lattice_bands(grid):
                if real:  # rows band[0]..band[-1] of the piece
                    a = buf[: band[-1] - band[0]]
                    np.abs(np.fft.irfft(first[band[0] : band[-1]], n, axis=-1, out=a), out=a)
                    data, rows, cols = a[:, bounds[0] :], band, bounds
                else:  # its columns band[0]..band[-1], from the box's rows and zeros
                    a = buf.reshape(-1)[: n * (band[-1] - band[0])].reshape(n, -1)
                    a[: top + 1] = first[: top + 1, band[0] : band[-1]]
                    a[top + 1 : n - top] = 0.0
                    a[n - top :] = first[top + 1 :, band[0] : band[-1]]
                    a = _moduli(np.fft.ifft(a, axis=0, out=a))
                    data, rows, cols = a[bounds[0] :], bounds, band
                maxes.append(a.max())
                for i, p in enumerate(ps):
                    if not is_inf(p):
                        totals[i] += np.sum(_power(a, p, in_place=i == last))
                if start is not None:
                    cubes = slice(start, start + _BAND)
                    for r, sums in zip(rs, finest):
                        out = sums[cubes] if real else sums[:, cubes]
                        _band_sums(_power(data, r, in_place=r == rs[-1]), rows, cols, out)
            tables = [CubeMeanTable(grid, finest=sums, top=min(k, grid.l_max)) for sums in finest]
        sup = np.max(maxes)
        return sup, [_lp_from_sum(total, p, grid.cell_volume, sup) for p, total in zip(ps, totals)], tables

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
        """Cube means of |S_k f|^r at the levels 0..min(k, l_max), the only
        ones a norm or criterion reads."""
        key = (k, float(r))
        if key not in self._tables:
            self.analyze(cube_exponents=(r,))
        return self._tables[key]

    def tail_fraction(self) -> float:
        """Fraction of the spectral energy of f outside |m| <= 2^{K_max - 1},
        the part the truncated k-sums miss (computed once)."""
        if self._tail is None:
            # unnormalized: the factor N^dim is a power of two, so the
            # fraction is the same bit for bit, without a copy of the coefficients
            self._tail = _band_energy_fraction(self.grid, self.coeffs, 0.0, 2.0 ** (self.k_max - 1))
        return self._tail


def decompose(f: SampledFunction, partition: DyadicPartition) -> SpectralDecomposition:
    """The decomposition of f: its forward coefficients, pieces made on
    demand.  The coefficients are f's exact `spectrum` bins, written into
    zeros of `_forward`'s layout, when it carries them, and the
    decomposition keeps the bins' positions; else the forward transform of
    its samples."""
    if f.grid != partition.grid:
        raise InvalidInputError("function and partition live on different grids")
    bins = None
    if f.spectrum is not None:
        bins = tuple(np.array(list(f.spectrum), dtype=np.intp).reshape(-1, f.grid.dim).T)
    return SpectralDecomposition(partition, _coefficients(f), bins)


def _ensure_decomposition(f, partition, dec) -> SpectralDecomposition:
    """`dec` when the caller has one, else `decompose(f, partition)`."""
    return dec if dec is not None else decompose(f, partition)
