"""Function-space norms: logarithmic Besov, Triebel-Lizorkin at p = infinity,
moduli of smoothness, difference-defined spaces, and the Dini functional.

Every norm is truncated at the grid's K_max (or at the resolution floor for
t-integrals) and reports its truncation diagnostic; nothing is silently
absorbed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import InvalidInputError, ResolutionError
from .grid import (
    INF,
    GridSpec,
    SampledFunction,
    check_exponent,
    check_finite,
    _abs_lp_norm,
    is_inf,
    lp_norm,
)
from .cubes import level_cube_means
from .partition import DyadicPartition, SpectralDecomposition, _ensure_decomposition

PI = math.pi
LN2 = math.log(2.0)


@dataclass(frozen=True)
class BesovParams:
    """(s, b, p, q); p, q in (0, INF] are quasi-norm exponents."""

    s: float
    b: float
    p: float
    q: float

    def __post_init__(self) -> None:
        check_exponent(self.p, "p")
        check_exponent(self.q, "q")
        check_finite(s=self.s, b=self.b)


@dataclass(frozen=True)
class DiffParams:
    """Difference-space parameters; the modulus order m must exceed s."""

    s: float
    b: float
    d: float
    p: float
    q: float
    m: int = 1

    def __post_init__(self) -> None:
        check_exponent(self.p, "p")
        check_exponent(self.q, "q")
        check_finite(s=self.s, b=self.b, d=self.d)
        if self.m <= self.s:
            raise InvalidInputError(f"modulus order m={self.m} must exceed s={self.s}")


@dataclass
class NormResult:
    """A norm value plus its truncation diagnostics."""

    value: float
    tail: float = 0.0
    per_level: list[float] = field(default_factory=list)

    def __float__(self) -> float:
        return self.value


def _lq_combine(terms: np.ndarray, q: float) -> float:
    if is_inf(q):
        return float(terms.max()) if terms.size else 0.0
    return float(np.sum(terms**q) ** (1.0 / q))


def besov_norm(
    f: SampledFunction,
    partition: DyadicPartition,
    params: BesovParams,
    *,
    dec: SpectralDecomposition | None = None,
) -> NormResult:
    """|| {2^{ks} (1+k)^b S_k f} ||_{l^q(L^p)}, truncated at K_max.

    The tail diagnostic is the fraction of spectral energy above the top
    resolved annulus (2^{K_max - 1}); for band-limited inputs it is zero.
    """
    dec = _ensure_decomposition(f, partition, dec)
    s, b = params.s, params.b
    per = [2.0 ** (k * s) * (1.0 + k) ** b * norm for k, norm in enumerate(dec.lp_norms(params.p).tolist())]
    return NormResult(_lq_combine(np.asarray(per), params.q), dec.tail_fraction(), per)


def tl_norm_inf(
    f: SampledFunction,
    partition: DyadicPartition,
    s: float,
    b: float,
    q: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> NormResult:
    """Triebel-Lizorkin norm at p = infinity:

    sup over cube levels k and cubes Q of (mean_Q sum_{j>=k} [2^{js}(1+j)^b
    |S_j f|]^q)^{1/q}; cube levels are limited by the grid guard and the
    j-sum is truncated at K_max.
    """
    check_exponent(q, "q")
    check_finite(s=s, b=b)
    dec = _ensure_decomposition(f, partition, dec)
    weights = [2.0 ** (k * s) * (1.0 + k) ** b for k in range(partition.k_max + 1)]
    best_per_level = _running_cube_sups(dec, weights, q)
    return NormResult(max(best_per_level), dec.tail_fraction(), best_per_level)


def _running_cube_sups(dec: SpectralDecomposition, weights: list[float], q: float) -> list[float]:
    """sup over level-l cubes Q of (mean_Q sum_{k>=l} (weights[k] |S_k f|)^q)^{1/q}
    for l = 0..min(K_max, l_max), the k-sum run down from K_max; at q = INF
    the sum is a pointwise max and the sup runs over all samples."""
    grid = dec.grid
    l_top = min(dec.k_max, grid.l_max)
    best = [0.0] * (l_top + 1)
    running = np.zeros(grid.shape)
    pieces = dec.pieces
    for k in range(dec.k_max, -1, -1):
        term = weights[k] * np.abs(pieces[k].values)
        if is_inf(q):
            np.maximum(running, term, out=running)
        else:
            running += term**q
        if k <= l_top:
            sup = running.max() if is_inf(q) else level_cube_means(grid, running, k).max() ** (1.0 / q)
            best[k] = float(sup)
    return best


# ---------------------------------------------------------------------------
# moduli of smoothness


def _binomial_weights(m: int) -> np.ndarray:
    return np.array([(-1.0) ** (m - j) * comb(m, j) for j in range(m + 1)])


def _roll_into(out: np.ndarray, x: np.ndarray, shift) -> np.ndarray:
    """`np.roll(x, shift)` over every axis, written into `out` by block copies."""
    axes = []
    for s, n in zip(shift, x.shape):
        s %= n
        axes.append([(slice(s, n), slice(0, n - s)), (slice(0, s), slice(n - s, n))])
    for blocks in itertools.product(*axes):
        out[tuple(dst for dst, _ in blocks)] = x[tuple(src for _, src in blocks)]
    return out


def _difference_norm_grid(f: SampledFunction, shift, m: int, p: float, bufs) -> float:
    """||Delta_h^m f||_p for an integer grid shift (exact torus translation),
    made in `bufs`: two complex and one real lattice array, overwritten.
    `modulus` passes one set for all its shifts, so a shift allocates no
    lattice array and its cost does not hinge on whether the allocator
    hands back fresh pages."""
    vals, term, moduli = bufs
    vals.fill(0.0)
    for j, w in enumerate(_binomial_weights(m)):
        vals += np.multiply(w, _roll_into(term, f.values, [-j * s for s in shift]), out=term)
    return _abs_lp_norm(np.abs(vals, out=moduli), p, f.grid.cell_volume)


def _difference_norm_spectral(
    raw_fft: np.ndarray, grid: GridSpec, h: np.ndarray, m: int, p: float
) -> float:
    """||Delta_h^m f||_p for an arbitrary real shift via the exact phase factor
    (e^{i m.h} - 1)^m on the trigonometric interpolant; `raw_fft` is the
    unnormalized forward FFT of the samples."""
    phase = np.zeros(grid.shape, dtype=np.complex128)
    for comp, ms in zip(h, grid.freqs()):
        phase = phase + comp * ms
    mult = (np.exp(1j * phase) - 1.0) ** m
    vals = np.fft.ifftn(mult * raw_fft)
    return lp_norm(SampledFunction(grid, vals), p)


def _shift_candidates_1d(grid: GridSpec, t: float) -> list[tuple[int]]:
    top = int(math.ceil(t / grid.spacing)) - 1
    top = min(top, grid.n_samples // 2)
    return [(s,) for s in range(1, top + 1) if s * grid.spacing < t]


def _shift_candidates_2d(grid: GridSpec, t: float, budget: int = 4096) -> list[tuple[int, int]]:
    top = min(int(math.ceil(t / grid.spacing)), grid.n_samples // 2)
    cands = []
    stride = 1
    while (2 * top // stride + 1) ** 2 // 2 > budget:
        stride *= 2
    for s1 in range(-top, top + 1, stride):
        for s2 in range(0, top + 1, stride):
            if s2 == 0 and s1 <= 0:
                continue  # half-plane: Delta_{-h} has the same norm
            if (s1 * s1 + s2 * s2) * grid.spacing**2 < t * t:
                cands.append((s1, s2))
    return cands


def modulus(f: SampledFunction, m: int, t: float, p: float) -> float:
    """m-th order modulus of smoothness: sup_{|h| < t} ||Delta_h^m f||_p.

    h runs over grid shifts of torus length < t plus near-boundary shifts at
    |h| = t(1 - 1e-9) evaluated spectrally, so suprema attained as |h| -> t
    are captured to high accuracy.
    """
    if m < 1:
        raise InvalidInputError("modulus order must be >= 1")
    if not (0.0 < t <= PI):
        raise InvalidInputError(f"scale t must lie in (0, pi], got {t}")
    if t < f.grid.spacing:
        raise ResolutionError(f"scale t={t:.3e} below one grid cell {f.grid.spacing:.3e}")
    check_exponent(p, "p")
    grid = f.grid
    if grid.dim == 1:
        shifts = _shift_candidates_1d(grid, t)
        boundary_dirs = [np.array([1.0])]
    else:
        shifts = _shift_candidates_2d(grid, t)
        angles = np.linspace(0.0, PI, 32, endpoint=False)
        boundary_dirs = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    best = 0.0
    bufs = np.empty_like(f.values), np.empty_like(f.values), np.empty(grid.shape)
    for s in shifts:
        best = max(best, _difference_norm_grid(f, s, m, p, bufs))
    del bufs  # freed before the boundary shifts allocate theirs
    coeffs = np.fft.fftn(f.values)
    r = t * (1.0 - 1e-9)
    for d in boundary_dirs:
        best = max(best, _difference_norm_spectral(coeffs, grid, r * d, m, p))
    return best


def _dyadic_scale_floor(grid: GridSpec) -> int:
    """Largest j with 2^-j still at least one grid cell."""
    return int(math.floor(-math.log2(grid.spacing)))


def dini_norm(f: SampledFunction, p: float = INF) -> NormResult:
    """Dini functional int_0^{1/2} omega_1(f, t)_p dt/t, trapezoid rule in
    log t over dyadic nodes t_j = 2^{-j}; the tail diagnostic is the last
    resolved omega value (bounds the unresolved head of the integral for
    Lipschitz-type moduli)."""
    j_top = _dyadic_scale_floor(f.grid)
    omegas = [modulus(f, 1, 2.0**-j, p) for j in range(1, j_top + 1)]
    value = sum(
        LN2 * 0.5 * (omegas[i] + omegas[i + 1]) for i in range(len(omegas) - 1)
    )
    return NormResult(float(value), omegas[-1] if omegas else 0.0, omegas)


def diffspace_norm(f: SampledFunction, params: DiffParams) -> NormResult:
    """Difference-defined space norm

        ||f||_p + ( sum_j { 2^{js} (1+j)^b [1+ln(1+j)]^d omega_m(f, 2^-j)_p }^q ln 2 )^{1/q},

    the t-integral discretized over dyadic t_j = 2^{-j}, j = 0..j_max, with
    dt/t -> ln 2; q = INF takes the sup of the weighted omegas.
    """
    j_top = _dyadic_scale_floor(f.grid)
    terms = []
    for j in range(0, j_top + 1):
        w = 2.0 ** (j * params.s) * (1.0 + j) ** params.b
        w *= (1.0 + math.log(1.0 + j)) ** params.d
        terms.append(w * modulus(f, params.m, 2.0**-j, params.p))
    arr = np.asarray(terms)
    if is_inf(params.q):
        semi = float(arr.max())
    else:
        semi = float((np.sum(arr**params.q) * LN2) ** (1.0 / params.q))
    base = lp_norm(f, params.p)
    return NormResult(base + semi, terms[-1] if terms else 0.0, terms)
