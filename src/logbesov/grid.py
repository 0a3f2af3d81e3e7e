"""Periodic sampling grid on the torus [-pi, pi)^dim and discrete transforms.

Everything downstream works with trigonometric polynomials sampled on a
regular grid of N = 2^J points per axis, with integer frequencies in
[-N/2, N/2).  Integer frequencies make e^{ik.x} exactly periodic, so the
exponential test functions alias-free as long as |k_i| < N/2.  A function
may carry its exact spectrum as sparse bins (`SampledFunction.spectrum`);
`_trig_polynomial` makes a sum of exponentials from its bins, and a function
made from bins that fix its dtype makes its samples only when they are read.
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
    """Samples of a function on the grid (row-major, shape (N,)*dim):
    `float64` exactly when the function is real, else `complex128`.

    Real or integer samples are stored as `float64`; complex samples whose
    imaginary part is exactly zero are stored as their real part, and any
    other complex samples as `complex128`.  The dtype (`dtype`) is the one
    place that says whether a function is real: the analysis reads it to
    choose the half spectrum.  Samples already of the stored dtype are not
    copied.

    `spectrum`, when given, is the function's exact unnormalized forward
    transform as sparse bins: a mapping from an index tuple in `_forward`'s
    layout for the stored dtype (the half spectrum of real samples, the
    full one of complex ones) to that bin's coefficient; every other bin is
    zero.  `partition.decompose` builds the coefficients from it instead of
    transforming the samples.  A product of two complex functions that
    carry bins, one of them a single bin, carries the shifted bins
    (`_product_bins`); every other result of arithmetic carries none.

    A function made from its bins (`_from_bins`: every packet, every exact
    exponential, such a product) whose bins alone make its samples complex
    holds no samples until `values` is first read; its `dtype`, its grid
    and its bins are known without them, and the samples it then makes are
    the ones it would have made at once, bit for bit.
    Functions compare by identity.
    """

    def __init__(self, grid: GridSpec, values, spectrum: Mapping | None = None) -> None:
        self.grid = grid
        self._values, self._make = _stored(grid, values), None
        self.spectrum = None
        if spectrum is not None:
            self.spectrum = _checked_bins(spectrum, grid.half_shape if self._values.dtype == np.float64 else grid.shape)

    @classmethod
    def _deferred(cls, grid: GridSpec, bins, make) -> "SampledFunction":
        """The complex function of full-layout `bins` whose samples `make()`
        gives on the first read of `values`."""
        f = cls.__new__(cls)
        f.grid, f._values, f._make = grid, None, make
        f.spectrum = _checked_bins(bins, grid.shape)
        return f

    @property
    def values(self) -> np.ndarray:
        """The samples, made on the first read by a function built without them."""
        if self._values is None:  # two threads that race here make the same samples twice
            vals = _stored(self.grid, self._make())
            assert vals.dtype == np.complex128, "bins that make the samples complex gave real ones"
            self._values = vals
        return self._values

    @values.setter
    def values(self, vals: np.ndarray) -> None:
        self._values = vals

    @property
    def dtype(self) -> np.dtype:
        """dtype of the samples, read without making them."""
        return np.dtype(np.complex128) if self._values is None else self._values.dtype

    def __repr__(self) -> str:
        return f"SampledFunction(grid={self.grid!r})"

    def _combine(self, op, other) -> "SampledFunction":
        """`op` of the samples and `other`: a function on the same grid, or a
        scalar or array that broadcasts against the samples.  The result
        carries a spectrum only as `_product_bins` gives one."""
        if not isinstance(other, SampledFunction):
            return SampledFunction(self.grid, op(self.values, other))
        if other.grid != self.grid:
            raise InvalidInputError("grid mismatch between operands")
        bins = _product_bins(self, other) if op is np.multiply else None
        return _from_bins(self.grid, bins, lambda: op(self.values, other.values))

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


def _from_bins(grid: GridSpec, bins, make) -> SampledFunction:
    """The function whose samples `make()` gives and whose full-layout bins
    are `bins` (None when it has none).  When the bins alone make the
    samples complex (`_complex_bins`), it is built without samples and
    `make` runs on the first read of `values`; else `make` runs now, and
    the function carries the bins when its samples come out complex (real
    samples take the half layout, which full-layout bins do not fit)."""
    if bins is not None and _complex_bins(grid, bins):
        return SampledFunction._deferred(grid, bins, make)
    out = SampledFunction(grid, make())
    if bins is not None and out.dtype == np.complex128:
        out.spectrum = _checked_bins(bins, grid.shape)
    return out


def _complex_bins(grid: GridSpec, bins) -> bool:
    """Whether the samples of the full-layout `bins` come out complex
    whatever their round-off.  The imaginary part of the samples has the
    coefficient (v_k - conj v_{-k}) / 2i at bin k, so by Parseval its root
    mean square over the grid is at least half the skew
    max_k |v_k - conj v_{-k}|, over N^dim.  Samples made by a transform of
    the bins, or as a product of such samples and `np.exp`'s (whose phase
    k.x errs by at most about N pi eps), miss the exact ones by a root mean
    square below 1e-8 of sum |v| / N^dim on every grid a `GridSpec`
    allows, so a skew above 2^-20 of sum |v|, and far above the underflow
    range, leaves a nonzero imaginary part.  A Hermitian bin set
    (a real cosine; e^{-i 2^m x_1} times the Case 5 packet, which is the
    envelope) has no skew: its samples are complex by round-off, if at
    all.  Non-finite bins fail both tests."""
    n, size = grid.n_samples, grid.n_samples**grid.dim
    total = sum(map(abs, bins.values()))
    skew = max((abs(v - bins.get(tuple(-i % n for i in k), 0).conjugate()) for k, v in bins.items()), default=0.0)
    return skew > 2.0**-20 * total and skew > 2.0**-900 * size


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


def _product_bins(f: SampledFunction, g: SampledFunction) -> dict[tuple[int, ...], complex] | None:
    """The bins of the complex product f g when f and g both have complex
    samples and carry bins, one of them (f first) a single bin k of
    coefficient c: the other's bins i -> v shifted to (i + k) mod N, each
    v times c / N^dim.  The samples of a single bin are c / N^dim times
    e^{2 pi i k.n / N}, so the shift is exact when c = N^dim, as for the
    exact exponential.  None otherwise."""
    if any(h.spectrum is None or h.dtype != np.complex128 for h in (f, g)):
        return None
    if len(f.spectrum) != 1:
        f, g = g, f
    if len(f.spectrum) != 1:
        return None
    [(k, c)] = f.spectrum.items()
    n, scale = f.grid.n_samples, c / f.grid.n_samples**f.grid.dim
    return {tuple((i + j) % n for i, j in zip(idx, k)): scale * v for idx, v in g.spectrum.items()}


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
    bins (`_exact_bins`) by `_from_bins`: it carries them when its samples
    are complex, and when the bins alone make them complex (every packet)
    its samples (`_ifftn_of_bins`) are made only when they are read.
    Samples that come out exactly real (a real cosine, or terms whose bins
    all cancel) are stored as `float64`, whose half layout the full-layout
    bins do not fit: such a function carries no bins, as a product with
    real samples carries none (`_combine`)."""
    bins = _exact_bins(grid, terms)
    return _from_bins(grid, bins, functools.partial(_ifftn_of_bins, grid, bins))


def _ifftn_of_bins(grid: GridSpec, bins) -> np.ndarray:
    """The samples of full-layout `bins`, the `ifftn` of the bins written
    into zeros, which are N^dim-scaled, so no factor is needed; in 2D the
    first (last-axis) pass runs over the rows that hold a bin only, bit for
    bit `ifftn`."""
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
    its exact `spectrum` bins written into zeros when it carries them, else
    the forward transform of its samples."""
    if f.spectrum is None:
        return _forward(f.values)
    return _written(f.spectrum, f.grid.half_shape if f.dtype == np.float64 else f.grid.shape)


def _written(bins, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of `shape` that holds `bins` and zeros elsewhere."""
    coeffs = np.zeros(shape, dtype=np.complex128)
    for k, v in bins.items():
        coeffs[k] = v
    return coeffs


def synthesize(grid: GridSpec, coeffs: np.ndarray) -> SampledFunction:
    vals = np.fft.ifftn(np.asarray(coeffs, dtype=np.complex128)) * coeffs.size
    return SampledFunction(grid, vals)


def lp_norm(f: SampledFunction, p: float) -> float:
    """Discrete L^p norm: (sum |f(x_i)|^p dx)^(1/p); p=INF is max |f|."""
    check_exponent(p)
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
    twice.  `bins`, the lattice indices (one array per axis) of every entry
    of `coeffs` that may be nonzero, reads those entries alone.  A
    power-of-two factor of `coeffs` leaves the fraction the same bit for
    bit."""
    n = grid.n_samples
    half = coeffs.shape == grid.half_shape
    if bins is None:
        c = np.abs(coeffs) ** 2
        if half:
            c[..., 1 : n // 2] *= 2.0
    else:
        c = np.abs(coeffs[bins]) ** 2
        if half:
            c[(bins[-1] >= 1) & (bins[-1] < n // 2)] *= 2.0
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
