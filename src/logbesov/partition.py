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
on each call, bit-identical to evaluating the formula there.
`build_partition` keeps one partition per grid and kind for the life of
the process, so the boxes one call builds serve every later one.  Points
other than a box's, such as a function's bins, read phi_k from the same
profile routine (`_symbols_at`), bit for bit the box's entries.

`SpectralDecomposition` keeps one function, not its pieces: its forward
coefficients when it is made from samples, its full-layout bins when it
is made from them, never both.  Its dtype is the function's
(`SampledFunction.dtype`: `float64` exactly when the function is real,
which for a function made from bins means Hermitian bins).  A real
function's pieces come from the `rfftn` half spectrum (last axis m =
0..N/2): both kinds of symbol are even, so every piece is real and made
by `irfft` into a real array, at half the buffer memory.  A complex
function's come from the full `fftn` spectrum.  A piece is made one way,
by two steps:

- `_first_pass` fills the level's boxed spectrum (`_fill_level`: phi_k
  times the coefficients over the whole box, or the level's row of the
  table of phi_k times each bin, written into zeros at the bins inside the
  box and the layout) and runs every inverse pass but the last.  The
  spectrum is zero off the box, so in 2D that pass covers the box's
  columns (half layout) or its rows, packed (full layout).
- `_last_pass` makes the samples of one band: in 1D the whole piece, in
  2D rows lo..hi of a real piece (`irfft`) or columns lo..hi of a complex
  one (`ifft`).  The passes follow numpy's order, so a complex piece is
  bit-identical to `np.fft.ifftn(symbol * fftn(f))`.

`_piece` runs the last pass over one band that covers the lattice; that is
what `pieces` and the paraproducts read, each piece once into its own
array (`pi2_summand` makes only the four pieces it reads).  `analyze` runs
one pass over the levels and `_reduce` makes each level band by band (the
`_lattice_bands` in 2D, so a 2D pass never holds a whole piece; in 1D the
one band is the whole piece), in buffers sized once per pass by
`_pass_buffers`, and fills from one |S_k f| every reduction asked for: the
sup norm, the L^p norms of given exponents and, per exponent r, the
`CubeMeanTable` of |S_k f|^r at the cube levels 0..min(k, l_max), the
only ones its readers take (no reader averages piece k over cubes finer
than level k).  Each band is reduced bit for bit as the whole piece would
be, except that an L^p norm adds up its band sums in band order.  |S_k f|
of a complex piece is written into the first half of the band's own
buffer (`_moduli`), so no pass holds a separate real array for it.  Once
the pass is done, the level-l cube sums of every nonzero piece k >= l are
stacked, per exponent r and cube level l, into one array in ascending k,
and each table's sums at that level become a view of its row
(`cubes._stack`), so the stack is their one copy; `cube_means(r, l)`
reads a level's rows off it.  The stacks do not depend on any weight, so
the criteria and `tl_norm_inf` weight a whole stack by one vector per
level.  The reductions are cached, so terms called on one decomposition
share them; a consumer that asks for all it needs up front (`verdict`, the
lower bound's Besov norms, `tl_norm_inf`) makes one pass, and `analyze` is
the only pass that reduces pieces.

A pass that asks only for L^2 and L^4 norms, with no cube exponent, of a
decomposition made from bins (every packet, its product with
e^{-i 2^m x_1}, an exact exponential) makes no piece at all: `_bin_norms`
sums phi_k times each bin by discrete Parseval, every level at once, to a
few ulps of the sample pass.  Its sup norms come from a sample pass only
when something reads them, and `tail_fraction` reads the bins alone.

A level whose boxed product is all exactly zero (a constant's upper
levels, every level but one of an exponential given its exact spectrum,
every level of a wave packet that holds none of its bins) makes no inverse
transform, and made from bins touches no spectrum buffer either: its
piece is zeros and its reductions are those of zeros, bit for bit, its
cube tables the grid's one shared zero table per top level
(`cubes._zero_table`), which has no row in the stacks and which the
overflow check skips.

The 1D and 2D passes differ only in the band set and in the worker split:
in 2D `analyze` splits its levels between the two workers of
`workers._map_rows`.  The calling thread makes the upper levels, one
helper thread the lower half, each in buffers of its own that the calling
thread makes before the helper starts (the helper's sized by its own top
box).  Per level the results are put back in level order, so they do not
depend on the split or on the number of usable CPUs; a pass inside a
runner row stays on that row's thread, and 1D passes stay on one worker.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cubes import _BAND, CubeMeanTable, _band_sums, _check_level, _counts, _lattice_bands, _stack, _zero_table, level_boundaries
from .errors import InvalidInputError, LevelOverflowError
from .grid import (
    INF,
    GridSpec,
    SampledFunction,
    _band_energy_fraction,
    _bin_arrays,
    _forward,
    _level_sums,
    _lp_from_power_sum,
    _lp_from_sum,
    _power,
    _radius,
    _read_only,
    _summed,
    check_exponent,
    is_inf,
    lp_norm,
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

    def _profile(self, axes, scale) -> np.ndarray:
        """phi_0(xi / scale) at the points of the broadcastable per-axis
        coordinates `axes` (a box block's sparse meshgrid, or bins), `scale`
        broadcasting too; elementwise, so no point depends on another."""
        if self.kind is PartitionKind.RADIAL:
            return generator_profile(_radius(axes) / scale)
        return functools.reduce(np.multiply, [generator_profile(np.abs(a) / scale) for a in axes])

    def _symbols_at(self, xi) -> np.ndarray:
        """phi_k, one row per level k, at the points of signed frequencies
        `xi` (a 1D array per axis): bit for bit the level box's entries
        there, and zero off the box, where both terms of phi_k are."""
        scales = np.ldexp(1.0, np.arange(self.k_max + 1))[:, None]
        return np.diff(self._profile(xi, scales), axis=0, prepend=0.0)

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
                block = box[start : start + rows]
                axes = np.meshgrid(m[start : start + rows], *[m] * (self.grid.dim - 1), indexing="ij", sparse=True)
                block[...] = self._profile(axes, float(1 << k))
                if not cumulative and k > 0:
                    block -= self._profile(axes, float(1 << (k - 1)))
            self._cache[key] = box
        return self._cache[key]

    def _fill_level(self, coeffs: np.ndarray, k: int, out: np.ndarray, rows: bool = False) -> bool:
        """Write phi_k c, c = `coeffs`, over the whole level-k box into
        `out`: the level's spectrum in `coeffs`' lattice indices, zero off
        the box (the half layout's buffer may hold only the box's last-axis
        columns), or, with `rows`, the full layout's box rows 0..M, then
        -M..-1, in the first 2M+1 rows of `out`.  Returns whether the
        product has an entry that is not exactly zero (a NaN counts).  The
        caller holds `np.errstate(invalid="ignore")`."""
        n, top = self.grid.n_samples, _box_top(k)
        if rows:
            out = out[: 2 * top + 1]
            out[:, top + 1 : n - top] = 0.0
        else:
            out.fill(0.0)
        box, nonzero = self._box(k, False), False
        for lattice, sub in self._blocks(k, not rows and coeffs.shape != self.grid.shape):
            block = np.multiply(box[sub], coeffs[lattice], out=out[sub[0], lattice[1]] if rows else out[lattice])
            nonzero = nonzero or bool(block.any())
        return nonzero

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
    """The one partition of `grid` and `kind` in the process: its level
    boxes, built when first read, serve every later call."""
    if isinstance(kind, str):
        kind = PartitionKind(kind.lower())
    return _shared_partition(grid, kind)


_shared_partition = functools.cache(DyadicPartition)


class SpectralDecomposition:
    """The frequency pieces (S_0 f, ..., S_K_max f) of one function of
    `dtype`, kept as its forward `coeffs` (`_forward`'s layout) or as its
    full-layout `bins` (lattice indices, one array per axis, and values).

    `analyze` makes each piece in turn into reused buffers and, from one
    |S_k f|, fills every reduction asked for: the sup norm, the L^p norms
    and the cube tables of |S_k f|^r, whose sums it keeps stacked per cube
    level (`cube_means`); L^2 and L^4 norms alone it reads off the bins
    when it has them (`_bin_norms`).  The reductions are kept for the life
    of the object, so every term that reads one decomposition shares them;
    a reduction not yet filled costs one more pass over the pieces.  `pieces`
    builds the whole list anew on each access.
    """

    def __init__(self, partition: DyadicPartition, dtype, coeffs: np.ndarray | None = None, bins: tuple | None = None):
        self.partition = partition
        self.dtype = np.dtype(dtype)
        self.coeffs = coeffs
        self.bins = bins
        self._sup_norms = None
        self._lp_norms = {}  # p -> read-only array over k
        self._tables = {}  # (k, r) -> CubeMeanTable of |S_k f|^r
        self._stacks = {}  # (r, l) -> (levels k, their tables' level-l sums stacked)
        self._tail = None
        self._linf = None  # (weak reference to f, ||f||_inf) of the last f asked

    @property
    def grid(self) -> GridSpec:
        return self.partition.grid

    @property
    def k_max(self) -> int:
        return self.partition.k_max

    @functools.cached_property
    def _bin_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(inside, a), built once, a row per level k and a column per bin:
        whether the bin's signed frequency xi lies in the level-k box, |xi_a|
        <= M_k on every axis, and there a = phi_k(xi) c (`_symbols_at`), +0
        elsewhere, so a NaN bin reaches only the levels whose box holds it."""
        n = self.grid.n_samples
        at, c = self.bins
        xi = [np.where(i <= n // 2, i, i - n) for i in at]
        tops = np.array([_box_top(k) for k in range(self.k_max + 1)])
        inside = np.max(np.abs(xi), axis=0) <= tops[:, None]
        a = np.zeros(inside.shape, dtype=np.complex128)
        with np.errstate(invalid="ignore"):
            np.multiply(self.partition._symbols_at(xi), c, out=a, where=inside)
        return inside, a

    def _fill_level(self, k: int, out: np.ndarray, rows: bool) -> bool:
        """`DyadicPartition._fill_level` of the coefficients; from bins, row
        k of `_bin_table` at the bins inside the box and the layout (in the
        half one, of last index 0..M) written into zeros, bit for bit the box
        multiply, or, if it is all exactly zero (a NaN is not), nothing."""
        if self.coeffs is not None:
            return self.partition._fill_level(self.coeffs, k, out, rows)
        inside, a = self._bin_table
        if not a[k].any():
            return False
        n, top = self.grid.n_samples, _box_top(k)
        keep = inside[k] & (self.bins[0][-1] <= top) if self.dtype == np.float64 else inside[k]
        at = tuple(i[keep] for i in self.bins[0])
        if rows:
            out = out[: 2 * top + 1]
            at = (np.where(at[0] <= top, at[0], at[0] + 2 * top + 1 - n),) + at[1:]
        out.fill(0.0)
        out[at] = a[k, keep]
        return True

    def _first_pass(self, k: int, buf: np.ndarray) -> np.ndarray | None:
        """Level k's boxed spectrum made in `buf` (`_fill_level`) with every
        inverse pass but the last run on it, or None, with no pass run, when
        the boxed product is all exactly zero.  In 1D that is the spectrum
        alone.  In 2D the half layout's box columns are transformed along
        the first axis, and the full layout's box rows 0..M, then -M..-1,
        packed into the first 2M+1 rows of `buf`, along the second; either
        is the first pass of `irfftn` or `ifftn` over the rows or columns
        that are not zero, bit for bit.  The caller holds
        `np.errstate(invalid="ignore")`."""
        top, packed = _box_top(k), self.grid.dim == 2 and self.dtype == np.complex128
        if not self._fill_level(k, buf, packed):
            return None
        if packed:
            buf = buf[: 2 * top + 1]
            np.fft.ifft(buf, axis=1, out=buf)
        elif self.grid.dim == 2:
            cols = buf[:, : top + 1]
            np.fft.ifft(cols, axis=0, out=cols)
        return buf

    def _last_pass(self, k: int, first: np.ndarray, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
        """The samples of S_k f that the last inverse pass makes from
        `first` (`_first_pass`) in `buf`: in 1D the whole piece; in 2D its
        rows lo..hi for a real f (`irfft` along the rows), its columns
        lo..hi for a complex one (`ifft` along the columns, from the box's
        rows and zeros).  Every row or column is transformed as in one
        pass over the lattice, so the bands of a piece are its samples bit
        for bit."""
        n = self.grid.n_samples
        if self.grid.dim == 1:
            return np.fft.irfft(first, n, out=buf) if self.dtype == np.float64 else np.fft.ifft(first, out=buf)
        if self.dtype == np.float64:
            return np.fft.irfft(first[lo:hi], n, axis=-1, out=buf[: hi - lo])
        top = _box_top(k)
        a = buf.reshape(-1)[: n * (hi - lo)].reshape(n, -1)
        a[: top + 1] = first[: top + 1, lo:hi]
        a[top + 1 : n - top] = 0.0
        a[n - top :] = first[top + 1 :, lo:hi]
        return np.fft.ifft(a, axis=0, out=a)

    def _piece(self, k: int, bufs=None) -> np.ndarray:
        """S_k f, real for a real f: the last pass over one band that covers
        the lattice, made in `bufs` = `_pass_buffers(top, whole=True)`, top
        >= k, or in new arrays.  Complex pieces are bit-identical to
        `np.fft.ifftn(symbol * coeffs)`.  A level whose boxed product is all
        exactly zero makes no transform: its samples are zeros, as the
        transform of zeros is +0, bit for bit.  Non-finite coefficients give
        non-finite samples without a warning, for the consumers to reject."""
        first, buf = self._pass_buffers(k, whole=True) if bufs is None else bufs
        with np.errstate(invalid="ignore"):
            first = self._first_pass(k, first)
            if first is None:
                buf.fill(0.0)
                return buf
            return self._last_pass(k, first, 0, self.grid.n_samples, buf)

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
        does, and the tables the pass made are checked once it is done (the
        shared zero table is finite by construction).  Then each cube
        level's sums of every r are stacked (`cube_means`).

        A pass that asks only for L^2 and L^4 norms of a decomposition made
        from bins takes the bins route, `_bin_norms`, with no inverse
        transform; it leaves the sup norms unfilled.  Every other pass
        reduces every level by `_reduce`, in 1D and 2D alike.
        In 2D that pass is split between the two workers of
        `workers._map_rows`: the calling thread makes the upper levels and
        the helper the lower half of them, rounded up (the upper levels'
        first inverse passes cover larger boxes), each in its own
        `_pass_buffers`.  Every level is reduced as in one serial pass, so
        the results do not depend on the split.  In 1D the pass stays on
        one worker."""
        rs = list(dict.fromkeys(float(r) for r in cube_exponents if (0, float(r)) not in self._tables))
        ps = list(dict.fromkeys(check_exponent(p) for p in lp_exponents if float(p) not in self._lp_norms))
        if self._sup_norms is not None and not rs and not ps:
            return
        if ps and not rs and self.bins is not None and set(ps) <= {2.0, 4.0}:
            self._bin_norms(ps)
            return
        k_top = self.k_max
        split = (k_top + 2) // 2 if self.grid.dim == 2 else 0
        halves, tops = [range(split, k_top + 1), range(split)], [k_top, split - 1]
        parts = _map_rows(
            lambda levels, bufs: [(k, self._reduce(k, bufs, rs, ps)) for k in levels],
            halves if split else halves[:1],
            lambda worker: self._pass_buffers(tops[worker]),
        )
        done = dict(itertools.chain.from_iterable(parts))  # k -> (sup, norms, tables or None)
        levels = [done[k] for k in range(k_top + 1)]
        made = {k: tables for k, (_, _, tables) in enumerate(levels) if tables is not None}
        sups = np.array([sup for sup, _, _ in levels])
        if np.isfinite(sups).all():  # so a non-finite table is a power or a sum beyond the float range
            for i, r in enumerate(rs):
                if not all(tables[i].finite() for tables in made.values()):
                    raise InvalidInputError(f"cube means of |S_k f|^{r!r} overflow")
        if self._sup_norms is None:
            self._sup_norms = _read_only(sups)
        for i, p in enumerate(ps):
            self._lp_norms[p] = _read_only(np.array([norms[i] for _, norms, _ in levels]))
        grid = self.grid
        for i, r in enumerate(rs):
            for k in range(k_top + 1):
                self._tables[k, r] = made[k][i] if k in made else _zero_table(grid, min(k, grid.l_max))
            for l in range(min(k_top, grid.l_max) + 1):
                ks = [k for k in made if k >= l]
                self._stacks[r, l] = _read_only(np.array(ks, dtype=np.intp)), _stack(grid, [made[k][i] for k in ks], l)

    def _bin_norms(self, ps: list) -> None:
        """Fill ||S_k f||_p for every level k and every p in `ps`, each 2 or
        4, from the bin table a = phi_k c (`_bin_table`), every level at
        once, with no transform and no buffer.  With s = a / N^dim the
        samples of S_k f are sum_m s_m e^{2 pi i m.n / N}, so by Parseval

            sum_n |S_k f|^2 = N^dim sum_m |s_m|^2,
            sum_n |S_k f|^4 = N^dim sum_t |h_t|^2,

        the second applied to (S_k f)^2, whose bins h are the sparse product
        of s with itself.  Each level adds its own terms in the order of a
        pass over it alone: h_t over its pairs of bins, row-major (one
        `_summed` over the keys (k, t) of every level), then |s_m|^2 and
        |h_t|^2 over its bins and keys, ascending (`_level_sums`).  A term
        overflows only when its level's sum is beyond the float range too,
        so a sum that is not finite is an input error naming p, as in
        `lp_norm`, unless the level's products are not finite: non-finite
        samples.  A level whose products are all exactly zero reads +0."""
        grid, n = self.grid, self.grid.n_samples
        size, levels = n**grid.dim, self.k_max + 1
        inside, a = self._bin_table
        s = a / size
        sums = []
        with np.errstate(over="ignore", invalid="ignore"):
            for p in ps:
                if p == 2.0:
                    h, level = s[inside], np.nonzero(inside)[0]
                else:
                    t = functools.reduce(lambda t, at: t * n + (at[:, None] + at) % n, self.bins[0], 0)
                    k, i, j = np.nonzero(inside[:, :, None] & inside[:, None, :])
                    keys, h = _summed(k * size + t[i, j], s[k, i] * s[k, j])
                    level = keys // size
                sums.append(size * _level_sums(h.real**2 + h.imag**2, level, levels))
        totals = np.array(sums)
        bad = np.flatnonzero(~np.isfinite(totals).all(axis=0))
        if bad.size and not np.isfinite(a[bad[0]]).all():
            raise InvalidInputError("non-finite samples rejected")
        norms = [[_lp_from_power_sum(t, p, grid.cell_volume) for p, t in zip(ps, col)] for col in totals.T]
        for i, p in enumerate(ps):
            self._lp_norms[p] = _read_only(np.array([row[i] for row in norms]))

    def _pass_buffers(self, top: int, whole: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The buffers of `_first_pass` and `_last_pass` for the levels up to
        `top`.  The first is the half-layout spectrum's last-axis columns m
        = 0..M of the level-`top` box (`irfft` zero-pads the rest, bit for
        bit as explicit zeros), the 1D full spectrum, which the last pass
        transforms in place, or in 2D the level-`top` box's packed rows of
        the full layout.  The second holds the piece in 1D or when `whole`;
        else one band of it (`_lattice_bands`): rows of a real piece,
        columns of a complex one."""
        grid, n = self.grid, self.grid.n_samples
        real = self.dtype == np.float64
        if real:
            first = np.empty(grid.shape[:-1] + (_box_top(top) + 1,), dtype=np.complex128)
        elif grid.dim == 1:
            first = np.empty(n, dtype=np.complex128)
            return first, first
        else:
            # the calling worker's box rows (its top is K_max) sit in a lattice-sized
            # array whose last rows are never touched: the allocator maps such an
            # array and unmaps it whole, so a pass leaves no freed heap behind to
            # raise the process's peak RSS (measured with the `verdict-2d` bench)
            first = np.empty((n if top == self.k_max else 2 * _box_top(top) + 1, n), dtype=np.complex128)
        if grid.dim == 1 or whole:
            return first, np.empty(grid.shape, dtype=self.dtype)
        width = max(band[-1] - band[0] for _, band in _lattice_bands(grid))
        return first, np.empty((width, n)) if real else np.empty((n, width), dtype=np.complex128)

    def _reduce(self, k: int, bufs, rs: list, ps: list) -> tuple:
        """The sup norm, the L^p norms (exponents `ps`) and the cube tables
        (exponents `rs`) of |S_k f|, made in `bufs` (`_pass_buffers`) one
        band at a time: `_last_pass` makes a band, which is reduced at once.
        In 1D the one band is the whole piece; in 2D the bands are those of
        `_lattice_bands`, rows of a real piece and columns of a complex one,
        so no 2D pass holds a whole piece.  The sup norm and the cube tables
        are those of the whole piece bit for bit: the max is exact, the
        powers are elementwise and each cube is summed as `CubeMeanTable`
        sums it.  An L^p norm adds up its bands' sums in band order, which
        in 2D rounds differently from one sum over the whole piece.  The
        piece is checked for finiteness once, by its max.  A level whose
        boxed product is all exactly zero makes no inverse transform: its
        sup and L^p norms are those of transformed zeros, bit for bit, and
        its tables None, for `analyze` to give it the grid's one shared zero
        table for every r, and no stack row."""
        grid, n = self.grid, self.grid.n_samples
        first, buf = bufs
        bounds = level_boundaries(grid, grid.l_max)
        bands = _lattice_bands(grid) if grid.dim == 2 else ((0, np.array([0, n])),)
        maxes, totals = [], [0.0] * len(ps)
        # the power of the last finite p (p = inf takes none) may overwrite |S_k f|
        # when no cube table reads it after the norms: no temporary is made for it
        last = max((i for i, p in enumerate(ps) if not is_inf(p)), default=None) if not rs else None
        with np.errstate(invalid="ignore", over="ignore"):
            first = self._first_pass(k, first)
            if first is None:
                return 0.0, [_lp_from_sum(0.0, p, grid.cell_volume, 0.0) for p in ps], None
            finest = [np.empty((bounds.size - 1,) * grid.dim) for _ in rs]
            for start, band in bands:
                a = _moduli(self._last_pass(k, first, band[0], band[-1], buf))
                maxes.append(a.max())
                for i, p in enumerate(ps):
                    if not is_inf(p):
                        totals[i] += np.sum(_power(a, p, in_place=i == last))
                if start is None:  # samples outside every cube
                    continue
                cubes = slice(start, start + _BAND)
                for r, sums in zip(rs, finest):
                    if grid.dim == 1:
                        data = _power(a, r, in_place=r == rs[-1])[bounds[0] : bounds[-1]]
                        np.add.reduceat(data, bounds[:-1] - bounds[0], out=sums)
                    elif self.dtype == np.float64:  # rows band[0]..band[-1]
                        _band_sums(_power(a[:, bounds[0] :], r, in_place=r == rs[-1]), band, bounds, sums[cubes])
                    else:  # columns band[0]..band[-1]
                        _band_sums(_power(a[bounds[0] :], r, in_place=r == rs[-1]), bounds, band, sums[:, cubes])
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

    def cube_means(self, r: float, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(ks, means): the levels k >= `level` whose piece is not all zero,
        ascending, and one row per k of the means of |S_k f|^r over the
        level's cubes, bit for bit `cube_table(k, r).means(level)`.  The
        rows are read off one stack of cube sums per (r, level), which the
        tables' sums at that level are views of; an all-zero level has no
        row, its means being zeros."""
        _check_level(self.grid, level)
        key = (float(r), level)
        if key not in self._stacks:
            self.analyze(cube_exponents=(r,))
        ks, sums = self._stacks[key]
        return ks, sums / _counts(self.grid, level)

    def _sup_of(self, f: SampledFunction) -> float:
        """||f||_inf (`lp_norm`), read once and kept while the same function
        is asked again, so every verdict that reads one decomposition for
        its own function shares one read; any other function is read
        anew."""
        if self._linf is None or self._linf[0]() is not f:
            self._linf = weakref.ref(f), lp_norm(f, INF)
        return self._linf[1]

    def tail_fraction(self) -> float:
        """Fraction of the spectral energy of f outside |m| <= 2^{K_max - 1},
        the part the truncated k-sums miss (computed once, from the bins
        alone when the decomposition carries them)."""
        if self._tail is None:
            # unnormalized: the factor N^dim is a power of two, so the
            # fraction is the same bit for bit, without a copy of the coefficients
            self._tail = _band_energy_fraction(self.grid, self.coeffs, 0.0, 2.0 ** (self.k_max - 1), self.bins)
        return self._tail


def decompose(f: SampledFunction, partition: DyadicPartition) -> SpectralDecomposition:
    """The decomposition of f, of f's dtype, its pieces made on demand: from
    f's exact `spectrum` bins when it carries them, else from the forward
    transform of its samples."""
    if f.grid != partition.grid:
        raise InvalidInputError("function and partition live on different grids")
    if f.spectrum is None:
        return SpectralDecomposition(partition, f.dtype, coeffs=_forward(f.values))
    return SpectralDecomposition(partition, f.dtype, bins=_bin_arrays(f.grid, f.spectrum))


def _ensure_decomposition(f, partition, dec) -> SpectralDecomposition:
    """`dec` when the caller has one, else `decompose(f, partition)`."""
    return dec if dec is not None else decompose(f, partition)
