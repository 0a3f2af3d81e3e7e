"""Constructive test functions: exponentials, indicators, oscillating bumps,
weighted bump stacks, exponential stacks, modulated packets, and the
kernel-calibrated necessity packets.

Every construction is pure and deterministic: same spec, same samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0 as bessel_j0

from .cubes import DyadicCube, cube_sample_windows, level_cube_means, level_index_range
from .errors import (
    AliasingError,
    CalibrationError,
    CapabilityError,
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    LevelOverflowError,
)
from .grid import (
    FrequencyField,
    GridSpec,
    SampledFunction,
    _radius,
    conjugate_exponent,
    is_inf,
    make_constant,
    spectrum,
    synthesize,
)
from .partition import (
    DyadicPartition,
    decompose,
    generator_profile,
    project,
    smoothstep,
)

PI = math.pi

_trapz = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# exponentials and indicators


def make_exponential(grid: GridSpec, k) -> SampledFunction:
    """Samples of e^{i k.x}; exactly one nonzero Fourier coefficient."""
    kv = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if kv.size != grid.dim:
        raise InvalidInputError(f"wavevector has {kv.size} components, grid dim {grid.dim}")
    if np.any(np.abs(kv) >= grid.n_samples // 2):
        raise AliasingError(f"|k| components must be < N/2 = {grid.n_samples // 2}")
    xs = grid.points()
    phase = sum(int(ki) * x for ki, x in zip(kv, xs))
    return SampledFunction(grid, np.exp(1j * phase))


def make_indicator(grid: GridSpec, shape="cube") -> SampledFunction:
    """Characteristic functions: 'cube' is (-1,1)^n, 'halfspace' is {x_n >= 0},
    or an explicit rectangle given as [(a_1,b_1), ..., (a_dim,b_dim)]."""
    if isinstance(shape, str):
        tag = shape.lower()
        if tag == "cube":
            bounds = [(-1.0, 1.0)] * grid.dim
        elif tag == "halfspace":
            bounds = [(-PI, PI)] * (grid.dim - 1) + [(0.0, PI)]
        else:
            raise InvalidInputError(f"unknown indicator shape {shape!r}")
    else:
        bounds = [tuple(map(float, ab)) for ab in shape]
        if len(bounds) != grid.dim:
            raise InvalidInputError("rectangle bounds must match grid dimension")
    for a, b in bounds:
        if not (-PI <= a < b <= PI):
            raise DomainError(f"rectangle [{a}, {b}) not inside [-pi, pi)")
    mask = np.ones(grid.shape, dtype=bool)
    for (a, b), x in zip(bounds, grid.points()):
        mask &= np.broadcast_to((x >= a) & (x < b), grid.shape)
    return SampledFunction(grid, mask.astype(np.complex128))


# ---------------------------------------------------------------------------
# oscillating bump h and its dyadic dilates h_l

def _plateau_profile(u: np.ndarray) -> np.ndarray:
    """Smooth 1D plateau: 1 on [0, 1/4], rising on [-1/8, 0], falling on
    [1/4, 1/2].  The fall uses the full gap between the two plateau cubes,
    which keeps the bump's bandwidth as low as the geometry allows."""
    return smoothstep(8.0 * u + 1.0) * smoothstep(2.0 - 4.0 * u)


def bump_profile(points: tuple[np.ndarray, ...]) -> np.ndarray:
    """Base bump h: +1 on [0,1/4)^n, -1 on [1/2,3/4)^n, support in the unit
    cube centered at (3/8,...,3/8), |h| <= 1.  The negative half is the
    mirror image of the positive one about 3/8 per axis, so the integral is
    exactly zero by symmetry."""
    plus = 1.0
    minus = 1.0
    for u in points:
        plus = plus * _plateau_profile(u)
        minus = minus * _plateau_profile(0.75 - u)
    return plus - minus


@dataclass(frozen=True)
class BumpSpec:
    """h_l(x) = h(2^{l-2}(x - anchor)); the +1 plateau is anchor + [0, 2^-l)^n."""

    level: int
    anchor: tuple[float, ...] = (0.0,)

    def scale(self) -> float:
        return 2.0 ** (self.level - 2)


def _bump_extent(spec: BumpSpec) -> list[tuple[float, float]]:
    s = 1.0 / spec.scale()
    return [(a - s / 8.0, a + 7.0 * s / 8.0) for a in spec.anchor]


def make_bump(grid: GridSpec, spec: BumpSpec) -> SampledFunction:
    """Sample h_l anti-aliased: the profile is evaluated on a refined grid,
    band-limited to the lattice, and mean-corrected to exact zero grid-sum.

    Direct sampling would under-resolve the exp(-1/t) transitions at deep
    levels and pollute the low-frequency pieces; band-limiting keeps the
    projection decay clean down to the machine floor.
    """
    if spec.level < 0:
        raise DomainError("bump level must be >= 0")
    if spec.level > grid.k_max - 1:
        raise LevelOverflowError(f"bump level {spec.level} exceeds K_max-1 = {grid.k_max - 1}")
    if len(spec.anchor) != grid.dim:
        raise InvalidInputError("anchor dimension does not match grid")
    if not all(map(math.isfinite, spec.anchor)):
        raise InvalidInputError(f"bump anchor {spec.anchor} is not finite")
    for lo, hi in _bump_extent(spec):
        if lo < -PI or hi > PI:
            raise DomainError(f"bump support [{lo:.3f}, {hi:.3f}] overflows the torus")
    n = grid.n_samples
    width = (1.0 / spec.scale()) / 8.0  # narrowest transition in torus units
    refine = 1
    while grid.spacing / refine > width / 16.0:
        refine *= 2
    cap = 1 << 21 if grid.dim == 1 else 1 << 11
    refine = min(refine, max(1, cap // n))
    fine = n * refine
    ax = -PI + (2.0 * PI / fine) * np.arange(fine)
    per_axis = [spec.scale() * (ax - a) for a in spec.anchor]
    h_fine = bump_profile(np.meshgrid(*per_axis, indexing="ij", sparse=True, copy=False))
    coeffs_fine = np.fft.fftn(h_fine) / h_fine.size
    keep = np.r_[0 : n // 2, fine - n // 2 : fine]
    out = synthesize(grid, coeffs_fine[np.ix_(*[keep] * grid.dim)])
    out.values -= out.values.mean()
    return out


# ---------------------------------------------------------------------------
# weighted bump stacks (nested anchor cubes)


@dataclass(frozen=True)
class StackSpec:
    """Sum over l of i^l 2^{(lm+n0) dim/p} (1+lm+n0)^{-b} h_{lm+n0}.

    `spacing` is the level stride m, `offset` the residue n0, `depth` the top
    level N (levels lm+n0 <= N enter).  The plateau cubes form the nested
    chain cornered at -1 on each axis, which keeps every dilated support
    inside the torus.
    """

    spacing: int
    offset: int = 0
    depth: int = 0
    p: float = 2.0
    b: float = 0.0

    def levels(self) -> list[int]:
        if not (0 <= self.offset < self.spacing):
            raise InvalidInputError("offset must lie in {0, ..., spacing-1}")
        return [
            lvl
            for lvl in range(self.offset, self.depth + 1, self.spacing)
        ] or [self.offset]


def default_stack_spacing(dim: int, p: float, b: float) -> int:
    """Smallest stride m making consecutive stack terms geometrically dominant
    (the 2^{m dim/p} gain beats the (1+.)^b weight and the partial sums)."""
    over_p = 0.0 if is_inf(p) else dim / p
    if over_p <= 0:
        return 1
    kappa = max(1.0, over_p)
    ratios = [2.0 ** (l * kappa) / (1 + l) ** b for l in range(0, 65)]
    c1 = max(1.0, max(sum(ratios[: i + 1]) / ratios[i] for i in range(1, 65)))
    m = 1
    while m <= 64 and (
        2.0 ** (-m * over_p) * (1 + 2 * m) ** b > 1.0
        or 2.0 ** (-m * over_p) > 1.0 / (2.0 * c1)
    ):
        m += 1
    return m


def make_stack(grid: GridSpec, spec: StackSpec) -> SampledFunction:
    over_p = 0.0 if is_inf(spec.p) else grid.dim / spec.p
    total = np.zeros(grid.shape, dtype=np.complex128)
    for i, (lvl, anchor) in enumerate(stack_plateau_cubes(grid, spec)):
        coeff = (1j**i) * 2.0 ** (lvl * over_p) * (1.0 + lvl) ** (-spec.b)
        total += coeff * make_bump(grid, BumpSpec(lvl, anchor)).values
    return SampledFunction(grid, total)


def stack_plateau_cubes(grid: GridSpec, spec: StackSpec) -> list[tuple[int, tuple[float, ...]]]:
    """(level, corner) of each plateau cube anchor + [0, 2^-level)^n."""
    return [(lvl, (-1.0,) * grid.dim) for lvl in spec.levels()]


# ---------------------------------------------------------------------------
# exponential stacks (proof device for the p = infinity level-sum bound)


def _cis(t: np.ndarray) -> np.ndarray:
    return np.exp(1j * t)


def _dyadic_wave_sum(grid: GridSpec, coeffs, wave) -> np.ndarray:
    """sum over the (j, c) pairs of `coeffs` of c wave(2^j x_1), on the grid;
    the exponential stacks, modulated packets and lacunary series are such sums."""
    x1 = grid.points()[0]
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for j, c in coeffs:
        vals = vals + c * np.broadcast_to(wave((1 << j) * x1), grid.shape)
    return vals


def make_exp_stack(grid: GridSpec, k: int, b: float) -> SampledFunction:
    """g_k(x) = sum_{l=0}^{k} (1+l)^{-b} e^{i 2^l x_1}."""
    if k > grid.k_max - 1:
        raise LevelOverflowError(f"stack top {k} exceeds K_max-1 = {grid.k_max - 1}")
    if k < 0:
        raise InvalidInputError("stack top must be >= 0")
    return SampledFunction(grid, _dyadic_wave_sum(grid, [(l, (1.0 + l) ** (-b)) for l in range(k + 1)], _cis))


# ---------------------------------------------------------------------------
# modulated packets (envelope on the frequency sphere |m| = 2)


def make_envelope(grid: GridSpec) -> FrequencyField:
    """Real envelope with unit coefficient mass on the lattice sphere |m| = 2.

    The closed annulus {3/2 <= |xi| <= 2} meets the integer lattice only on
    |m| = 2, so all admissible envelope mass sits there.
    """
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[np.abs(grid.freq_radius() - 2.0) < 1e-12] = 1.0
    return FrequencyField(grid, coeffs)


@dataclass
class PacketSpec:
    """Psi(x) * sum_j alpha[j] e^{i 2^j x_1}; alpha maps level j -> coefficient."""

    m: int
    alpha: dict[int, complex]


def make_modulated_packet(grid: GridSpec, spec: PacketSpec) -> SampledFunction:
    if spec.m > grid.k_max - 2:
        raise LevelOverflowError(f"packet base level {spec.m} exceeds K_max-2")
    if spec.m < 3:
        raise InvalidInputError("packet needs m >= 3")
    outside = [j for j in spec.alpha if not 1 <= j <= spec.m]
    if outside:
        raise InvalidInputError(f"modulation level {min(outside)} outside [1, m]")
    psi = make_envelope(grid).to_function()
    # a named operand: NumPy may multiply a temporary in place, which rounds complex products differently
    mod = _dyadic_wave_sum(grid, sorted(spec.alpha.items()), _cis)
    return SampledFunction(grid, psi.values * mod)


_PACKET_J0 = 1  # lowest modulation level of the packet families


def expo7_family(
    grid: GridSpec, m: int, b: float, cases=(1, 2, 3, 4, 5)
) -> list[tuple[str, SampledFunction]]:
    """Named packet family, Cases 1-5; Case 3/4 use the ambient b.

    Some cases coincide sample for sample: Case 3 = Case 4 at every b,
    Case 1 = Case 3 at b = 0, and Case 2 = Case 3 at b = 0.5.
    """
    js = range(_PACKET_J0, m - 1)
    patterns = {
        1: {j: 1.0 for j in js},
        2: {j: (1.0 + j) ** (-0.5) for j in js},
        3: {j: (1.0 + j) ** (-b) for j in js},
        4: {j: (1.0 + j) ** (-b) for j in js},
        5: {m: 1.0},
    }
    out = []
    for c in cases:
        if c not in patterns:
            raise InvalidInputError(f"unknown packet case {c}")
        out.append((f"case{c}", make_modulated_packet(grid, PacketSpec(m, patterns[c]))))
    return out


# ---------------------------------------------------------------------------
# lacunary series (rough-but-continuous gallery members)


def make_lacunary(grid: GridSpec, coeffs) -> SampledFunction:
    """sum_j c_j cos(2^j x_1)."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.size > grid.k_max:
        raise LevelOverflowError("too many lacunary levels for this grid")
    return SampledFunction(grid, _dyadic_wave_sum(grid, enumerate(coeffs), np.cos))


# ---------------------------------------------------------------------------
# kernel calibration and the necessity packets


def _kernel_radial(k: int, rho: np.ndarray, dim: int) -> np.ndarray:
    """Continuum inverse transform of phi_k (k >= 1) at radii `rho`.

    phi_k is radial with support {2^{k-1} <= |xi| <= 3 2^{k-1}}; the
    transform reduces to a 1D radial quadrature (cosine in dim 1, Bessel J_0
    in dim 2).
    """
    scale = float(1 << (k - 1))
    r = np.linspace(scale, 3.0 * scale, 4096)
    w = generator_profile(r / (2.0 * scale)) - generator_profile(r / scale)
    if dim == 1:
        core = _trapz(w[None, :] * np.cos(np.outer(rho, r)), r, axis=1)
        return (2.0 * PI) ** -0.5 * 2.0 * core
    return _trapz(w[None, :] * bessel_j0(np.outer(rho, r)) * r[None, :], r, axis=1)


def kernel_phi(k: int, points: np.ndarray, dim: int) -> np.ndarray:
    """Continuum inverse transform of phi_k (radial quadrature at level k) at
    the given spatial points (rows of `points` in dim 2)."""
    if k < 1:
        raise InvalidInputError("kernel_phi handles levels k >= 1")
    pts = np.asarray(points, dtype=np.float64)
    if dim == 1:
        rho = np.abs(np.atleast_1d(pts))
    else:
        rho = np.linalg.norm(np.atleast_2d(pts), axis=-1)
    return _kernel_radial(k, rho, dim)


@dataclass(frozen=True)
class KernelCalibration:
    sigma: int
    nu0: tuple[int, ...]
    lam: float


def _cell_radii(sigma: int, nu0: tuple[int, ...], ts: np.ndarray) -> np.ndarray:
    """|x| at the sample points x = 2^{-sigma}(nu0 + t), t in ts^n, of a cell."""
    axes = np.meshgrid(*[c + ts for c in nu0], indexing="ij", sparse=True)
    return 2.0**-sigma * _radius(axes).ravel()


def calibrate_kernel(partition: DyadicPartition) -> KernelCalibration:
    """Find (sigma, nu0, lambda>0) with phi_1-kernel >= lambda on the doubled
    cube 2^{-sigma}(nu0 +- [0,1)^n), |nu0| in (2^sigma, 3 2^sigma), last
    coordinate >= 1, sigma in 0..3; lambda maximized by a search over 17
    samples per axis."""
    dim = partition.grid.dim
    rho_tab = np.linspace(0.0, 3.0 + 2.0 * math.sqrt(dim), 4096)
    k_tab = _kernel_radial(1, rho_tab, dim)
    best: KernelCalibration | None = None
    ts = np.linspace(-1.0, 1.0, 17)
    for sigma in range(4):
        lo, hi = 1 << sigma, 3 * (1 << sigma)
        candidates = [
            head + (last,)
            for head in itertools.product(range(-hi, hi + 1), repeat=dim - 1)
            for last in range(1, hi + 1)
            if lo < math.hypot(*head, last) < hi
        ]
        for nu0 in candidates:
            lam = float(np.interp(_cell_radii(sigma, nu0, ts), rho_tab, k_tab).min())
            if best is None or lam > best.lam:
                best = KernelCalibration(sigma, nu0, lam)
    assert best is not None
    # re-evaluate the winner exactly (the table scan interpolates)
    sigma, nu0 = best.sigma, best.nu0
    best = KernelCalibration(sigma, nu0, float(_kernel_radial(1, _cell_radii(sigma, nu0, ts), dim).min()))
    if best.lam <= 0:
        raise CalibrationError(f"no positive kernel cell found; best lambda = {best.lam:.3e}")
    return best


@dataclass
class NecessityPacketSpec:
    """Parameters of the projected-weight packet of the necessity argument."""

    k: int
    p: float
    b: float
    shift: int = 6  # frequency separation between the window and the weights
    calibration: KernelCalibration | None = None

    def __post_init__(self) -> None:
        if self.k < 0 or self.shift < 0:
            raise InvalidInputError(f"necessity packet needs k, shift >= 0; got {self.k}, {self.shift}")


def make_necessity_packet(
    f: SampledFunction, partition: DyadicPartition, spec: NecessityPacketSpec
) -> SampledFunction:
    """g_k = sum_{j >= k+N} (1+j)^{-b} ||S_j f||^{1-p'}_{L^{p'}(Q~)}
    S_j(1_{Q~} sgn(S_j f) |S_j f|^{p'-1}), cubes chosen greedily per level.

    Terms whose window carries no S_j f mass are dropped; if everything
    drops, the construction is degenerate.
    """
    grid = f.grid
    if spec.p <= 1:
        raise CapabilityError("necessity packet needs p > 1 (the p=1 case is the closed form)")
    pprime = conjugate_exponent(spec.p)
    cal = spec.calibration or calibrate_kernel(partition)
    level = spec.k + cal.sigma
    if level > grid.l_max:
        raise DomainError(
            f"packet cube level {level} too deep for the grid (l_max={grid.l_max})"
        )
    dec = decompose(f, partition)
    nu_min, nu_max = level_index_range(level)
    # per axis, the window cubes w (as indices into the level's cube means)
    # whose base w - nu0 is also inside the domain
    admissible = [np.arange(max(0, o), nu_max - nu_min + 1 + min(0, o)) for o in cal.nu0]
    if any(w.size == 0 for w in admissible):
        raise DegenerateInputError(f"calibration offset {cal.nu0} leaves no cube at level {level}")
    terms = []
    # terms are normalized by local mass; numerically vanishing projections
    # must be dropped, not normalized into noise
    j_lo = spec.k + spec.shift
    global_scale = float(dec.sup_norms()[j_lo:].max(initial=0.0))
    floor = (1e-8 * max(global_scale, 1e-300)) ** conjugate_exponent(spec.p)
    for j in range(j_lo, partition.k_max + 1):
        sj = dec.pieces[j].values
        absj = np.abs(sj)
        power = absj ** pprime
        sub = level_cube_means(grid, power, level)[np.ix_(*admissible)]
        pick = np.unravel_index(np.argmax(sub), sub.shape)
        if float(sub[pick]) <= floor:
            continue
        window_index = tuple(nu_min + int(w[i]) for w, i in zip(admissible, pick))
        window = cube_sample_windows(grid, DyadicCube(level, window_index))
        mask = np.zeros(grid.shape, dtype=np.float64)
        sl = tuple(slice(i0, i1) for i0, i1 in window)
        mask[sl] = 1.0
        lp_local = (power[sl].sum() * grid.cell_volume) ** (1.0 / pprime)
        if lp_local <= 0.0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            sgn = np.where(absj > 0, np.conj(sj) / np.where(absj > 0, absj, 1.0), 0.0)
        payload = SampledFunction(grid, mask * sgn * absj ** (pprime - 1.0))
        weight = (1.0 + j) ** (-spec.b) * lp_local ** (1.0 - pprime)
        terms.append(weight * project(payload, partition, j).values)
    if not terms:
        raise DegenerateInputError("all necessity-packet terms dropped (no S_j f mass)")
    return SampledFunction(grid, np.sum(terms, axis=0))


# ---------------------------------------------------------------------------
# CLI gallery specs


def _parse_kv(body: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" in item:
            key, val = item.split("=", 1)
            out[key.strip()] = val.strip()
        else:
            out[item.strip()] = "true"
    return out


def _field(kv: dict[str, str], key: str, default: str, parse=int):
    """Spec field `key` (or `default`) read by `parse`; a bad value is an input error."""
    text = kv.get(key, default)
    try:
        return parse(text)
    except ValueError:
        raise InvalidInputError(f"bad value {text!r} for spec field {key!r}") from None


def _case_list(text: str) -> tuple[int, ...]:
    """'lo-hi' (inclusive range) or 'a;b;c'."""
    if "-" in text:
        lo, hi = text.split("-")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(c) for c in text.split(";"))


def gallery_from_spec(grid: GridSpec, text: str) -> SampledFunction:
    """Build one gallery member from a CLI spec like 'exp:m=8,neg' or 'cube'."""
    head, _, body = text.partition(":")
    head = head.strip().lower()
    kv = _parse_kv(body)
    if head == "exp":
        if "m" in kv:
            k1 = _field(kv, "m", "", lambda t: 1 << int(t))
        elif "k" in kv:
            k1 = _field(kv, "k", "")
        else:
            raise InvalidInputError("exp spec needs m= or k=")
        if kv.get("neg") == "true":
            k1 = -k1
        kvec = (k1,) + (0,) * (grid.dim - 1)
        return make_exponential(grid, kvec)
    if head == "cube":
        return make_indicator(grid, "cube")
    if head == "halfspace":
        return make_indicator(grid, "halfspace")
    if head == "const":
        return make_constant(grid, _field(kv, "c", "1", complex))
    if head == "bump":
        level = _field(kv, "l", "4")
        anchor = (_field(kv, "x", "0", float),) * grid.dim
        return make_bump(grid, BumpSpec(level, anchor))
    if head == "stack":
        spec = StackSpec(
            spacing=_field(kv, "m", "2"),
            offset=_field(kv, "n0", "0"),
            depth=_field(kv, "n", str(grid.k_max - 1)),
            p=_field(kv, "p", "2", float),
            b=_field(kv, "b", "0", float),
        )
        return make_stack(grid, spec)
    if head == "packet":
        m = _field(kv, "m", str(grid.k_max - 2))
        b = _field(kv, "b", "0", float)
        case = _field(kv, "case", "1")
        return expo7_family(grid, m, b, cases=(case,))[0][1]
    if head == "lacunary":
        beta = _field(kv, "beta", "0.5", float)
        levels = _field(kv, "levels", str(grid.k_max - 1))
        if levels < 0:
            raise InvalidInputError(f"lacunary spec needs levels >= 0, got {levels}")
        coeffs = [2.0 ** (-beta * j) for j in range(levels + 1)]
        return make_lacunary(grid, coeffs)
    raise InvalidInputError(f"unknown gallery spec {text!r}")


def family_from_spec(grid: GridSpec, text: str) -> list[tuple[str, SampledFunction]]:
    """Build a named test family, e.g. 'packets:cases=1-5,m=8,b=0'."""
    head, _, body = text.partition(":")
    head = head.strip().lower()
    kv = _parse_kv(body)
    if head == "packets":
        m = _field(kv, "m", str(grid.k_max - 2))
        b = _field(kv, "b", "0", float)
        return expo7_family(grid, m, b, cases=_field(kv, "cases", "1-5", _case_list))
    return [(text, gallery_from_spec(grid, text))]
