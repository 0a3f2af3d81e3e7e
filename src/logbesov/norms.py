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
    _checked_weight,
    _root,
    is_inf,
    lp_norm,
)
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


def _lq_combine(terms: np.ndarray, q: float, dt: float = 1.0) -> float:
    """(sum terms^q dt)^{1/q}, the l^q norm of `terms` with the measure `dt`
    of each (ln 2 for the dyadic t-integrals); q = INF takes the max."""
    if is_inf(q):
        return float(terms.max()) if terms.size else 0.0
    return _root(np.sum(terms**q) * dt, q, "q")


def _weight(k: int, s: float, b: float, d: float = 0.0, *, power: float = 1.0) -> float:
    """The level weight 2^{ks} (1+k)^b [1+ln(1+k)]^d raised to `power`, its
    factors multiplied in that order.  A weight beyond the float range is an
    input error naming the parameter that took it there."""
    return _checked_weight(
        f"the level-{k} weight",
        ("s", s, 2.0, k * s * power),
        ("b", b, 1.0 + k, b * power),
        ("d", d, 1.0 + math.log(1.0 + k), d * power),
    )


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
    weights = [_weight(k, params.s, params.b) for k in range(partition.k_max + 1)]
    dec = _ensure_decomposition(f, partition, dec)
    per = [w * norm for w, norm in zip(weights, dec.lp_norms(params.p).tolist())]
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

    sup over cube levels l and level-l cubes Q of (mean_Q sum_{k>=l}
    [2^{ks}(1+k)^b |S_k f|]^q)^{1/q}; cube levels are limited by the grid
    guard and the k-sum is truncated at K_max.

    The mean of the k-sum is read as sum_{k>=l} w_k^q mean_Q |S_k f|^q off
    the cube tables of one `analyze` pass.  At q = INF the k-sum is a
    pointwise max, so level l takes max_{k>=l} w_k ||S_k f||_inf (rounding
    is monotone: the same bits as the max of the weighted samples).  A
    non-finite piece is an `InvalidInputError`, as in `lp_norm`.
    """
    check_exponent(q, "q")
    check_finite(s=s, b=b)
    weights = [_weight(k, s, b, power=1.0 if is_inf(q) else q) for k in range(partition.k_max + 1)]  # w_k^q
    dec = _ensure_decomposition(f, partition, dec)
    tail = dec.tail_fraction()  # before the pass: its temporaries never meet the tables
    dec.analyze(cube_exponents=() if is_inf(q) else (q,))
    sups = dec.sup_norms().tolist()
    if not all(map(math.isfinite, sups)):
        raise InvalidInputError("non-finite samples rejected")
    levels = range(min(dec.k_max, dec.grid.l_max) + 1)
    if is_inf(q):
        per_level = [max(w * sup for w, sup in zip(weights[l:], sups[l:])) for l in levels]
    else:
        ks = range(dec.k_max, -1, -1)
        sums = (sum(weights[k] * dec.cube_table(k, q).means(l) for k in ks if k >= l) for l in levels)
        per_level = [_root(total.max(), q, "q") for total in sums]
    return NormResult(max(per_level), tail, per_level)


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
    made in `bufs`: two lattice arrays of the samples' dtype (real for a
    real f) and one real one, overwritten.
    `modulus` passes one set for all its shifts, so a shift allocates no
    lattice array and its cost does not hinge on whether the allocator
    hands back fresh pages.  The caller holds `np.errstate` for the NaN
    differences of an inf sample, which `_abs_lp_norm` rejects."""
    vals, term, moduli = bufs
    vals.fill(0.0)
    for j, w in enumerate(_binomial_weights(m)):
        vals += np.multiply(w, _roll_into(term, f.values, [-j * s for s in shift]), out=term)
    return _abs_lp_norm(np.abs(vals, out=moduli), p, f.grid.cell_volume, in_place=True)


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
    return _abs_lp_norm(np.abs(np.fft.ifftn(mult * raw_fft)), p, grid.cell_volume, in_place=True)


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
    are captured to high accuracy.  Differences of finite samples, their
    transforms or their p-th powers beyond the float range are an input
    error naming m and p.
    """
    if m < 1:
        raise InvalidInputError("modulus order must be >= 1")
    # 2^m bounds both sum_j C(m, j) and |e^{i m.h} - 1|^m: finite, so is every weight
    _checked_weight("the difference weights", ("m", m, 2.0, m))
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
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            bufs = np.empty_like(f.values), np.empty_like(f.values), np.empty(grid.shape)
            for s in shifts:
                best = max(best, _difference_norm_grid(f, s, m, p, bufs))
            del bufs  # freed before the boundary shifts allocate theirs
            coeffs = np.fft.fftn(f.values)
            r = t * (1.0 - 1e-9)
            for d in boundary_dirs:
                best = max(best, _difference_norm_spectral(coeffs, grid, r * d, m, p))
    except InvalidInputError:
        if not np.isfinite(f.values).all():
            raise
        raise InvalidInputError(f"m={m!r} and p={p!r} make ||Delta_h^m f||_p overflow") from None
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
    weights = [_weight(j, params.s, params.b, params.d) for j in range(j_top + 1)]
    terms = [w * modulus(f, params.m, 2.0**-j, params.p) for j, w in enumerate(weights)]
    semi = _lq_combine(np.asarray(terms), params.q, LN2)
    base = lp_norm(f, params.p)
    return NormResult(base + semi, terms[-1] if terms else 0.0, terms)
