"""Periodic sampling grid on the torus [-pi, pi)^dim and discrete transforms.

Everything downstream works with trigonometric polynomials sampled on a
regular grid of N = 2^J points per axis, with integer frequencies in
[-N/2, N/2).  Integer frequencies make e^{ik.x} exactly periodic, so the
exponential test functions alias-free as long as |k_i| < N/2.

A function is made from its samples or from its exact spectrum, sparse
bins in the full FFT layout (`SampledFunction.spectrum`, `_from_bins`):
every packet, every exact exponential (`_trig_polynomial` makes a sum of
exponentials from its bins) and every product of two functions that carry
bins.  The bins decide the dtype: such a function is real exactly when
they are Hermitian, and it makes its samples only when they are read, by
one routine (`_samples_of_bins`).
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, CapabilityError, InvalidInputError

INF = math.inf

TWO_PI = 2.0 * math.pi

# Largest lattice, in samples, a GridSpec may describe: 2D J=12.  Every array
# downstream holds N^dim samples, so a larger grid fails here, not in numpy.
MAX_GRID_POINTS = 2**24


def is_inf(p: float) -> bool:
    return math.isinf(p)


def check_exponent(p: float, name: str = "p") -> float:
    """Validate a (quasi-)norm exponent in (0, inf]."""
    if not (p > 0):
        raise InvalidInputError(f"{name} must be positive or INF, got {p!r}")
    return float(p)


def check_finite(**params: complex) -> None:
    """Parameters are finite numbers, real or complex; NaN or inf in any
    part is an input error naming the parameter."""
    for name, value in params.items():
        if not cmath.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value!r}")


def _checked_weight(what: str, *factors: tuple[str, float, float, float]) -> float:
    """The product of base**exponent over `factors`, each (name, value,
    base, exponent), multiplied in that order.  A product beyond the float
    range is an input error naming the parameter whose factor took it
    there; `what` names the weight in the message."""
    w = 1.0
    for name, value, base, exponent in factors:
        try:
            w *= base**exponent
        except OverflowError:
            w = math.inf
        if math.isinf(w):
            raise InvalidInputError(f"{name}={value!r} makes {what} overflow")
    return w


def conjugate_exponent(p: float) -> float:
    """Conjugate index: 1/p + 1/p' = 1, with conjugate(1)=INF, conjugate(INF)=1."""
    p = check_exponent(p)
    if p < 1:
        raise InvalidInputError(f"conjugate exponent undefined for p={p} < 1")
    if is_inf(p):
        return 1.0
    if p == 1.0:
        return INF
    return p / (p - 1.0)


def _layout_radius(grid: GridSpec, shape: tuple[int, ...]) -> np.ndarray:
    """|m| over coefficients of `shape`: the full lattice in FFT layout, or
    the half spectrum of `rfftn`, whose last axis holds m = 0..N/2 only."""
    axes = grid.freqs()
    return _radius(axes[:-1] + (axes[-1][..., : shape[-1]],))


def _radius(axes) -> np.ndarray:
    """Euclidean length of broadcastable per-axis coordinate arrays (float64).

    The first axis is |a| as it stands, so one axis costs no `hypot` call.
    """
    rho = np.abs(axes[0]).astype(np.float64)
    for a in axes[1:]:
        rho = np.hypot(rho, a)
    return rho


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: N = 2^J points per axis on [-pi, pi)^dim, dim in {1, 2}."""

    dim: int
    log2_samples: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise InvalidInputError(f"dim must be 1 or 2, got {self.dim}")
        if self.log2_samples < 6:
            raise InvalidInputError(
                f"need N = 2^J >= 64 samples per axis, got J={self.log2_samples}"
            )
        if self.n_samples**self.dim > MAX_GRID_POINTS:
            raise CapabilityError(
                f"grid of 2^{self.dim * self.log2_samples} points exceeds the limit of {MAX_GRID_POINTS}"
            )

    @property
    def n_samples(self) -> int:
        return 1 << self.log2_samples

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_samples

    @property
    def k_max(self) -> int:
        # Deepest dyadic frequency level; 3*2^(k_max-1) = (3/8) N <= N/2 keeps
        # the top annulus inside the lattice.
        return self.log2_samples - 2

    @functools.cached_property
    def l_max(self) -> int:
        # Deepest dyadic-cube level with >= 8 samples per axis (accuracy guard);
        # computed on the first read, then an attribute of the grid.
        return int(math.floor(math.log2(self.n_samples / (8.0 * TWO_PI))))

    def axis(self) -> np.ndarray:
        n = self.n_samples
        return -math.pi + self.spacing * np.arange(n)

    def points(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, broadcastable to the sample shape."""
        return tuple(np.meshgrid(*[self.axis()] * self.dim, indexing="ij", sparse=True, copy=False))

    def freq_axis(self) -> np.ndarray:
        """Integer frequencies in FFT layout."""
        n = self.n_samples
        return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)

    def freqs(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*[self.freq_axis()] * self.dim, indexing="ij", sparse=True, copy=False))

    def freq_radius(self) -> np.ndarray:
        """Euclidean |m| over the frequency lattice, FFT layout."""
        return _radius(self.freqs())

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_samples,) * self.dim

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of the `rfftn` half spectrum of a real function."""
        return self.shape[:-1] + (self.n_samples // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim


class SampledFunction:
    """A function on the grid, made from its samples or from its bins.

    `SampledFunction(grid, values)` takes samples (row-major, shape
    (N,)*dim).  Real or integer samples are stored as `float64`; complex
    samples whose imaginary part is exactly zero are stored as their real
    part, and any other complex samples as `complex128`.  Samples already
    of the stored dtype are not copied.  Such a function carries no bins.

    `_from_bins(grid, bins)` makes a function from its exact unnormalized
    forward transform, `spectrum`: sparse bins mapping an index tuple of
    the full FFT layout to that bin's coefficient, every other bin zero.
    It is real exactly when the bins are Hermitian (`_hermitian`), and it
    holds no samples until `values` is first read (`_samples_of_bins`).
    Every packet, every exact exponential and every product of two
    functions that carry bins (`_product_bins`) is made this way; every
    other result of arithmetic is made from samples.

    `dtype` is the one place that says whether a function is real: the
    analysis reads it to choose the half spectrum, and the samples, once
    made, have it.  Functions compare by identity.
    """

    def __init__(self, grid: GridSpec, values) -> None:
        self.grid = grid
        self._values = _stored(grid, values)
        self.spectrum = None

    @property
    def values(self) -> np.ndarray:
        """The samples, made on the first read by a function built from bins."""
        if self._values is None:  # two threads that race here make the same samples twice
            self._values = _samples_of_bins(self.grid, self.spectrum, self._dtype)
        return self._values

    @values.setter
    def values(self, vals: np.ndarray) -> None:
        self._values = vals

    @property
    def dtype(self) -> np.dtype:
        """dtype of the samples, read without making them."""
        return self._values.dtype if self.spectrum is None else self._dtype

    def __repr__(self) -> str:
        return f"SampledFunction(grid={self.grid!r})"

    def _combine(self, op, other) -> "SampledFunction":
        """`op` of the samples and `other`: a function on the same grid, or a
        scalar or array that broadcasts against the samples.  A product of
        two functions that carry bins is made from their product's bins."""
        if not isinstance(other, SampledFunction):
            return SampledFunction(self.grid, op(self.values, other))
        if other.grid != self.grid:
            raise InvalidInputError("grid mismatch between operands")
        if op is np.multiply and self.spectrum is not None and other.spectrum is not None:
            return _from_bins(self.grid, _product_bins(self, other))
        return SampledFunction(self.grid, op(self.values, other.values))

    def __mul__(self, other):
        return self._combine(np.multiply, other)

    __rmul__ = __mul__

    def __add__(self, other):
        return self._combine(np.add, other)

    def __sub__(self, other):
        return self._combine(np.subtract, other)

    def __neg__(self):
        return SampledFunction(self.grid, -self.values)


def _stored(grid: GridSpec, values) -> np.ndarray:
    """`values` as `SampledFunction` stores them, shaped to the grid: real
    or integer samples, and complex ones whose imaginary part is exactly
    zero, as `float64`, other complex samples as `complex128`; a count
    that does not fill the grid is an input error."""
    vals = np.asarray(values)
    if np.iscomplexobj(vals):
        vals = vals.astype(np.complex128, copy=False)
        if not vals.imag.any():
            vals = np.ascontiguousarray(vals.real)
    else:
        vals = vals.astype(np.float64, copy=False)
    if vals.size != grid.n_samples**grid.dim:
        raise InvalidInputError(f"expected {grid.n_samples ** grid.dim} samples, got {vals.size}")
    return vals.reshape(grid.shape)


def _from_bins(grid: GridSpec, bins) -> SampledFunction:
    """The function whose full-layout bins are `bins` (checked and copied
    by `_checked_bins`), built without samples: `float64` exactly when the
    bins are Hermitian, else `complex128`."""
    f = SampledFunction.__new__(SampledFunction)
    f.grid, f._values = grid, None
    f.spectrum = _checked_bins(bins, grid.shape)
    f._dtype = np.dtype(np.float64 if _hermitian(grid, f.spectrum) else np.complex128)
    return f


def _hermitian(grid: GridSpec, bins) -> bool:
    """Whether v_{-k} equals conj(v_k) exactly for every bin k of the
    full-layout `bins` (a missing bin is zero), as the bins of a real
    function do: a bin that is its own partner (k = -k mod N, every
    component 0 or N/2) is then real.  A NaN bin is never Hermitian."""
    n = grid.n_samples
    return all(bins.get(tuple(-i % n for i in k), 0j) == v.conjugate() for k, v in bins.items())


def _checked_bins(bins, shape: tuple[int, ...]) -> dict[tuple[int, ...], complex]:
    """A copy of the mapping `bins` whose keys are index tuples inside an
    array of `shape` and whose values are complex; any other key, or a
    `bins` that is not a mapping, is an input error."""
    if not isinstance(bins, Mapping):
        raise InvalidInputError(f"spectrum must map bin indices to coefficients, got {type(bins).__name__}")
    out = {}
    for k, v in bins.items():
        inside = isinstance(k, tuple) and len(k) == len(shape)
        if not (inside and all(isinstance(i, (int, np.integer)) and 0 <= i < n for i, n in zip(k, shape))):
            raise InvalidInputError(f"spectrum bin {k!r} lies outside the layout of shape {shape}")
        out[tuple(map(int, k))] = complex(v)
    return out


def _bin_arrays(grid: GridSpec, bins) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(at, v): the lattice indices of the bins of the mapping `bins`, one
    array per axis, and their coefficients, in the mapping's order."""
    at = np.array(list(bins), dtype=np.intp).reshape(-1, grid.dim).T
    return tuple(at), np.array(list(bins.values()), dtype=np.complex128)


def _sparse_product(n: int, at_1, v_1: np.ndarray, at_2, v_2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, w): the bins of the product of two trigonometric polynomials on
    the N = `n` lattice, the coefficients `v_1` at the lattice indices
    `at_1` (one array per axis) times `v_2` at `at_2`: w_t sums v_1 v_2
    over the pairs of bins whose indices add to t mod N per axis, the
    B_1 B_2 pair products added by `np.bincount`, with no lattice array.
    t is the row-major flat index of each bin, ascending."""
    pairs = (v_1[:, None] * v_2).ravel()
    t = functools.reduce(lambda t, ij: t * n + (ij[0][:, None] + ij[1]).ravel() % n, zip(at_1, at_2), 0)
    t, which = np.unique(t, return_inverse=True)
    return t, np.bincount(which, pairs.real) + 1j * np.bincount(which, pairs.imag)


def _product_bins(f: SampledFunction, g: SampledFunction) -> dict[tuple[int, ...], complex]:
    """The bins of the product f g of two functions that carry bins: the
    sparse product of their bins (`_sparse_product`) over N^dim, as
    samples are the inverse transform of their bins over N^dim.  N^dim is
    a power of two, so the division is exact; times a single bin of
    coefficient N^dim (an exact exponential), the other factor's bins are
    shifted with their coefficients unchanged."""
    grid = f.grid
    t, w = _sparse_product(grid.n_samples, *_bin_arrays(grid, f.spectrum), *_bin_arrays(grid, g.spectrum))
    at = np.unravel_index(t, grid.shape)
    return dict(zip(zip(*(i.tolist() for i in at)), (w / grid.n_samples**grid.dim).tolist()))


def _exact_bins(grid: GridSpec, terms) -> dict[tuple[int, ...], complex]:
    """The full-layout bins of sum a e^{ik.x} over the (k, a) pairs of
    `terms`, k an integer wavevector; terms that meet in one bin are added
    in their order, and a bin that comes to zero is left out.  The grid
    starts at x_0 = (-pi, ..., -pi), so sample n of e^{ik.x} is
    e^{-i pi (k_1 + ... + k_dim)} e^{2 pi i k.n / N}: bin k mod N holds
    N^dim (-1)^(k_1 + ... + k_dim) a."""
    n, size = grid.n_samples, grid.n_samples**grid.dim
    bins = {}
    for k, a in terms:
        i = tuple(ki % n for ki in k)
        bins[i] = bins.get(i, 0.0) + (-size if sum(k) % 2 else size) * a
    return {i: v for i, v in bins.items() if v != 0}


def _trig_polynomial(grid: GridSpec, terms) -> SampledFunction:
    """sum a e^{ik.x} over the (k, a) pairs of `terms`, made from its exact
    bins (`_exact_bins`) by `_from_bins`: real exactly when the terms pair
    up as conjugates (a real cosine, an envelope), and sampled only when
    its samples are read."""
    return _from_bins(grid, _exact_bins(grid, terms))


def _samples_of_bins(grid: GridSpec, bins, dtype: np.dtype) -> np.ndarray:
    """The samples of the full-layout `bins`, which are N^dim-scaled, so no
    factor is needed: for real (Hermitian) bins the `irfftn` of their half
    layout (last index 0..N/2), exactly real; else the `ifftn` of the bins
    written into zeros, in 2D with the first (last-axis) pass run over the
    rows that hold a bin only, bit for bit `ifftn`."""
    if dtype == np.float64:
        return np.fft.irfftn(_written(bins, grid.half_shape), grid.shape, axes=range(grid.dim))
    values = _written(bins, grid.shape)
    if grid.dim == 2:  # ifftn's passes in its order: the rows that hold no bin stay zero in the first
        rows = sorted({i for i, _ in bins})
        values[rows] = np.fft.ifft(values[rows], axis=1)
        return np.fft.ifft(values, axis=0)
    return np.fft.ifftn(values)


def _forward(values: np.ndarray) -> np.ndarray:
    """The unnormalized forward transform of `SampledFunction` samples: the
    `rfftn` half spectrum (last axis m = 0..N/2) of real (`float64`)
    samples, the full `fftn` spectrum of complex ones.  An inf sample, or
    samples whose sum overflows, give non-finite coefficients without a
    warning; the consumers' finiteness checks reject them."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.fft.fftn(values) if np.iscomplexobj(values) else np.fft.rfftn(values)


def _coefficients(f: SampledFunction) -> np.ndarray:
    """The unnormalized forward coefficients of f in `_forward`'s layout:
    its exact `spectrum` bins written into zeros when it carries them (the
    half-layout subset for a real f), else the forward transform of its
    samples."""
    if f.spectrum is None:
        return _forward(f.values)
    return _written(f.spectrum, f.grid.half_shape if f.dtype == np.float64 else f.grid.shape)


def _written(bins, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of `shape` that holds the full-layout `bins` whose
    last index lies inside it (all of them, or in the half layout of
    `rfftn` those of last index 0..N/2), and zeros elsewhere."""
    coeffs = np.zeros(shape, dtype=np.complex128)
    for k, v in bins.items():
        if k[-1] < shape[-1]:
            coeffs[k] = v
    return coeffs


def synthesize(grid: GridSpec, coeffs: np.ndarray) -> SampledFunction:
    vals = np.fft.ifftn(np.asarray(coeffs, dtype=np.complex128)) * coeffs.size
    return SampledFunction(grid, vals)


def lp_norm(f: SampledFunction, p: float) -> float:
    """Discrete L^p norm: (sum |f(x_i)|^p dx)^(1/p); p=INF is max |f|,
    which for a function of one bin c is the constant |c| / N^dim, read
    without samples."""
    check_exponent(p)
    if is_inf(p) and f.spectrum is not None and len(f.spectrum) == 1:
        [c] = f.spectrum.values()
        return _lp_from_sum(0.0, p, f.grid.cell_volume, abs(c) / f.grid.n_samples**f.grid.dim)
    return _abs_lp_norm(np.abs(f.values), p, f.grid.cell_volume, in_place=True)


def _abs_lp_norm(a: np.ndarray, p: float, cell_volume: float, sup=None, in_place: bool = False) -> float:
    """`lp_norm` of samples whose moduli `a` are given; `sup` is `a.max()`
    when the caller has it, and `in_place` lets the power overwrite `a`."""
    sup = a.max() if sup is None else sup
    total = 0.0
    if np.isfinite(sup) and not is_inf(p):
        with np.errstate(over="ignore"):
            total = np.sum(_power(a, p, in_place))
    return _lp_from_sum(total, p, cell_volume, sup)


def _lp_from_sum(total: float, p: float, cell_volume: float, sup: float) -> float:
    """The L^p norm of samples whose moduli have the max `sup` and, for a
    finite p, p-th powers that sum to `total`.  Finiteness is read off the
    max, which a NaN or an inf modulus makes non-finite; an infinite total
    of finite samples is a power or a sum beyond the float range, an input
    error naming p."""
    if not np.isfinite(sup):
        raise InvalidInputError("non-finite samples rejected")
    if is_inf(p):
        return float(sup)
    return _lp_from_power_sum(total, p, cell_volume)


def _lp_from_power_sum(total: float, p: float, cell_volume: float) -> float:
    """The L^p norm, p finite, of finite samples whose p-th powers sum to
    `total`.  A total that is not finite (inf, or NaN where a sum of
    overflowed terms cancels) is beyond the float range: an input error
    naming p."""
    if not math.isfinite(total):
        raise InvalidInputError(f"p={p!r} makes |f|^p overflow")
    return _root(total * cell_volume, p)


def _root(x: float, p: float, name: str = "p") -> float:
    """x^{1/p} as a Python float, the bits of NumPy's scalar power: a root
    beyond the float range (a tiny exponent) is an input error naming it."""
    try:
        return float(x) ** (1.0 / p)
    except OverflowError:
        raise InvalidInputError(f"{name}={p!r} makes a 1/{name}-th root overflow") from None


def _power(a: np.ndarray, r: float, in_place: bool) -> np.ndarray:
    """a**r, bit for bit, made in `a` when `in_place`: r = 1 is `a` itself
    (no pass), and r = 2 squares, which gives the same bits as the general
    power in a third of its time."""
    if r == 1.0:
        return a
    if not in_place:
        return a**r
    return np.square(a, out=a) if r == 2.0 else np.power(a, r, out=a)


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only so that callers can share it."""
    a.setflags(write=False)
    return a


def band_energy_fraction(f: SampledFunction, radius_lo: float, radius_hi: float) -> float:
    """Relative spectral energy of f outside the annulus radius_lo <= |m| <=
    radius_hi.  The samples are transformed as `_forward` does, so a real
    function's energy is read off its half spectrum."""
    return _band_energy_fraction(f.grid, _forward(f.values) / f.values.size, radius_lo, radius_hi)


def _band_energy_fraction(grid: GridSpec, coeffs: np.ndarray, radius_lo: float, radius_hi: float, bins=None) -> float:
    """`band_energy_fraction` of the coefficients `coeffs`, in the full
    layout or in the half one of `rfftn`, where the interior last-axis
    columns m = 1..N/2-1 stand for their conjugate partners too and count
    twice.  `bins`, the full bin set of which `coeffs` holds the ones in
    its layout (lattice indices, one array per axis, and coefficients),
    is read instead of `coeffs`.  A power-of-two factor of the
    coefficients leaves the fraction the same bit for bit."""
    n = grid.n_samples
    if bins is None:
        c = np.abs(coeffs) ** 2
        if coeffs.shape == grid.half_shape:
            c[..., 1 : n // 2] *= 2.0
    else:
        bins, c = bins[0], np.abs(bins[1]) ** 2
    total = float(c.sum())
    if total == 0.0:
        return 0.0
    # a bin's index i <= N/2 is its frequency (up to the sign of N/2), a larger one i - N
    rho = _layout_radius(grid, c.shape) if bins is None else _radius([np.where(i <= n // 2, i, i - n) for i in bins])
    outside = float(c[(rho < radius_lo) | (rho > radius_hi)].sum())
    return outside / total


def make_constant(grid: GridSpec, value: complex = 1.0) -> SampledFunction:
    """The constant `value`; a real value (a complex one with zero imaginary
    part included) fills a `float64` array."""
    c = complex(value)
    return SampledFunction(grid, np.full(grid.shape, c.real if c.imag == 0.0 else c))


def random_band_limited(
    grid: GridSpec, band: float, rng: np.random.Generator
) -> SampledFunction:
    """Random field with i.i.d. complex Gaussian coefficients for |m| <= band."""
    if band >= grid.n_samples // 2:
        raise AliasingError(f"band {band} exceeds the lattice Nyquist range")
    shape = grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[grid.freq_radius() > band] = 0.0
    return synthesize(grid, coeffs)
