"""Periodic sampling grid on the torus [-pi, pi)^dim and discrete transforms.

Everything downstream works with trigonometric polynomials sampled on a
regular grid of N = 2^J points per axis, with integer frequencies in
[-N/2, N/2).  Integer frequencies make e^{ik.x} exactly periodic, so the
exponential test functions alias-free as long as |k_i| < N/2.  A function
may carry its exact spectrum as sparse bins (`SampledFunction.spectrum`);
`_trig_polynomial` makes a sum of exponentials from its bins.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

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


def check_finite(**params: float) -> None:
    """Smoothness parameters are finite numbers; NaN or inf is an input error."""
    for name, value in params.items():
        if not math.isfinite(value):
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


@dataclass(eq=False)
class SampledFunction:
    """Samples of a function on the grid (row-major, shape (N,)*dim):
    `float64` exactly when the function is real, else `complex128`.

    Real or integer samples are stored as `float64`; complex samples whose
    imaginary part is exactly zero are stored as their real part, and any
    other complex samples as `complex128`.  The dtype is the one place that
    says whether a function is real: the analysis reads it to choose the
    half spectrum.  Samples already of the stored dtype are not copied.

    `spectrum`, when given, is the function's exact unnormalized forward
    transform as sparse bins: a mapping from an index tuple in `_forward`'s
    layout for the stored dtype (the half spectrum of real samples, the
    full one of complex ones) to that bin's coefficient; every other bin is
    zero.  `partition.decompose` builds the coefficients from it instead of
    transforming the samples.  A product of two complex functions that
    carry bins, one of them a single bin, carries the shifted bins
    (`_product_bins`); every other result of arithmetic carries none.
    Functions compare by identity.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    spectrum: dict[tuple[int, ...], complex] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            vals = vals.astype(np.complex128, copy=False)
            if not vals.imag.any():
                vals = np.ascontiguousarray(vals.real)
        else:
            vals = vals.astype(np.float64, copy=False)
        if vals.size != self.grid.n_samples**self.grid.dim:
            raise InvalidInputError(
                f"expected {self.grid.n_samples ** self.grid.dim} samples, got {vals.size}"
            )
        self.values = vals.reshape(self.grid.shape)
        if self.spectrum is not None:
            shape = self.grid.half_shape if vals.dtype == np.float64 else self.grid.shape
            self.spectrum = _checked_bins(self.spectrum, shape)

    def _combine(self, op, other) -> "SampledFunction":
        """`op` of the samples and `other`: a function on the same grid, or a
        scalar or array that broadcasts against the samples.  The result
        carries a spectrum only as `_product_bins` gives one."""
        if not isinstance(other, SampledFunction):
            return SampledFunction(self.grid, op(self.values, other))
        if other.grid != self.grid:
            raise InvalidInputError("grid mismatch between operands")
        out = SampledFunction(self.grid, op(self.values, other.values))
        if op is np.multiply and out.values.dtype == np.complex128:
            out.spectrum = _product_bins(self, other)
        return out

    def __mul__(self, other):
        return self._combine(np.multiply, other)

    __rmul__ = __mul__

    def __add__(self, other):
        return self._combine(np.add, other)

    def __sub__(self, other):
        return self._combine(np.subtract, other)

    def __neg__(self):
        return SampledFunction(self.grid, -self.values)


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
    if any(h.spectrum is None or h.values.dtype != np.complex128 for h in (f, g)):
        return None
    if len(f.spectrum) != 1:
        f, g = g, f
    if len(f.spectrum) != 1:
        return None
    [(k, c)] = f.spectrum.items()
    n, scale = f.grid.n_samples, c / f.values.size
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
    """sum a e^{ik.x} over the (k, a) pairs of `terms`, carrying its exact
    bins (`_exact_bins`).  Its samples are one `ifftn` of the bins, which
    are N^dim-scaled, so no factor is needed.  Terms whose bins all cancel
    give the zero function, real and with no bins."""
    bins = _exact_bins(grid, terms)
    return SampledFunction(grid, np.fft.ifftn(_written(bins, grid.shape)), bins)


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
    return _written(f.spectrum, f.grid.half_shape if f.values.dtype == np.float64 else f.grid.shape)


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
    if math.isinf(total):
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


def _band_energy_fraction(grid: GridSpec, coeffs: np.ndarray, radius_lo: float, radius_hi: float) -> float:
    """`band_energy_fraction` of the coefficients `coeffs`, in the full
    layout or in the half one of `rfftn`, where the interior last-axis
    columns m = 1..N/2-1 stand for their conjugate partners too and count
    twice.  A power-of-two factor of `coeffs` leaves the fraction the same
    bit for bit."""
    c = np.abs(coeffs) ** 2
    if c.shape == grid.half_shape:
        c[..., 1 : grid.n_samples // 2] *= 2.0
    total = float(c.sum())
    if total == 0.0:
        return 0.0
    rho = _layout_radius(grid, c.shape)
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
