"""Constructive test functions: exponentials, indicators, oscillating bumps,
weighted bump stacks, modulated packets, and lacunary series.

Every construction is pure and deterministic: same spec, same samples.  A
modulated packet is a trigonometric polynomial made from its exact bins,
its samples one inverse transform of them; the other members are sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    DomainError,
    InvalidInputError,
    LevelOverflowError,
)
from .grid import (
    GridSpec,
    SampledFunction,
    _checked_weight,
    _trig_polynomial,
    check_exponent,
    check_finite,
    is_inf,
    make_constant,
)
from .partition import smoothstep

PI = math.pi


# ---------------------------------------------------------------------------
# exponentials and indicators


def make_exponential(grid: GridSpec, k) -> SampledFunction:
    """Samples of e^{i k.x}; exactly one nonzero Fourier coefficient."""
    kv = _wavevector(grid, k)
    xs = grid.points()
    phase = sum(ki * x for ki, x in zip(kv, xs))
    z = 1j * phase
    return SampledFunction(grid, np.exp(z, out=z))


def _wavevector(grid: GridSpec, k) -> list[int]:
    """The components of the wavevector `k` as Python ints (no overflow);
    a count other than the grid's dim is an input error, and a component
    |k_i| >= N/2 an `AliasingError`."""
    kv = [int(ki) for ki in np.atleast_1d(np.asarray(k, dtype=object))]
    if len(kv) != grid.dim:
        raise InvalidInputError(f"wavevector has {len(kv)} components, grid dim {grid.dim}")
    if any(abs(ki) >= grid.n_samples // 2 for ki in kv):
        raise AliasingError(f"|k| components must be < N/2 = {grid.n_samples // 2}")
    return kv


def make_indicator(grid: GridSpec, shape: str = "cube") -> SampledFunction:
    """Characteristic functions: 'cube' is [-1,1)^n, 'halfspace' is {x_n >= 0}."""
    tag = shape.lower()
    if tag == "cube":
        bounds = [(-1.0, 1.0)] * grid.dim
    elif tag == "halfspace":
        bounds = [(-PI, PI)] * (grid.dim - 1) + [(0.0, PI)]
    else:
        raise InvalidInputError(f"unknown indicator shape {shape!r}")
    x = grid.axis()
    factors = [((x >= a) & (x < b)).astype(np.float64) for a, b in bounds]
    return SampledFunction(grid, functools.reduce(np.multiply.outer, factors))


# ---------------------------------------------------------------------------
# oscillating bump h and its dyadic dilates h_l

def _plateau_profile(u: np.ndarray) -> np.ndarray:
    """Smooth 1D plateau: 1 on [0, 1/4], rising on [-1/8, 0], falling on
    [1/4, 1/2].  The fall uses the full gap between the two plateau cubes,
    which keeps the bump's bandwidth as low as the geometry allows."""
    return smoothstep(8.0 * u + 1.0) * smoothstep(2.0 - 4.0 * u)


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


def _band_limited(profile: np.ndarray, n: int) -> np.ndarray:
    """n samples of the lowest n frequencies of a 1D `profile` given on a
    refined grid: its FFT, truncated to the lattice's bins, synthesized."""
    fine = profile.size
    keep = np.r_[0 : n // 2, fine - n // 2 : fine]
    return np.fft.ifft(np.fft.fft(profile)[keep] / fine) * n


def make_bump(grid: GridSpec, spec: BumpSpec) -> SampledFunction:
    """Sample h_l anti-aliased: the profile is evaluated on a refined grid,
    band-limited to the lattice factor by factor, and mean-corrected to
    exact zero grid-sum.

    The base bump is h(u) = prod_a P(u_a) - prod_a P(3/4 - u_a), P the
    plateau profile: +1 on [0,1/4)^n, -1 on [1/2,3/4)^n, support in the unit
    cube centered at (3/8,...,3/8), |h| <= 1.  The negative half is the
    mirror image of the positive one about 3/8 per axis, so the integral is
    exactly zero by symmetry.  Both halves are products over the axes, so
    the band-limit of h is the difference of two outer products of
    band-limited 1D factors and no refined-grid array of dim > 1 is formed;
    in 1D the one axis band-limits P(u) - P(3/4 - u) as one profile.

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
    if grid.dim == 1:
        (u,) = per_axis
        vals = _band_limited(_plateau_profile(u) - _plateau_profile(0.75 - u), n)
    else:
        plus = [_band_limited(_plateau_profile(u), n) for u in per_axis]
        minus = [_band_limited(_plateau_profile(0.75 - u), n) for u in per_axis]
        vals = functools.reduce(np.multiply.outer, plus)
        vals -= functools.reduce(np.multiply.outer, minus)
    vals -= vals.mean()
    return SampledFunction(grid, vals)


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


def make_stack(grid: GridSpec, spec: StackSpec) -> SampledFunction:
    check_finite(b=spec.b)
    over_p = 0.0 if is_inf(spec.p) else grid.dim / check_exponent(spec.p, "p")
    total = np.zeros(grid.shape, dtype=np.complex128)
    for i, (lvl, anchor) in enumerate(stack_plateau_cubes(grid, spec)):
        weight = _checked_weight("a stack weight", ("p", spec.p, 2.0, lvl * over_p), ("b", spec.b, 1.0 + lvl, -spec.b))
        coeff = (1j**i) * weight
        total += coeff * make_bump(grid, BumpSpec(lvl, anchor)).values
    return SampledFunction(grid, total)


def stack_plateau_cubes(grid: GridSpec, spec: StackSpec) -> list[tuple[int, tuple[float, ...]]]:
    """(level, corner) of each plateau cube anchor + [0, 2^-level)^n."""
    return [(lvl, (-1.0,) * grid.dim) for lvl in spec.levels()]


# ---------------------------------------------------------------------------
# modulated packets (envelope on the frequency sphere |m| = 2)


def _envelope_sphere(grid: GridSpec) -> list[tuple[int, ...]]:
    """The lattice sphere |m| = 2 that carries the envelope: (+-2, 0, ...)
    and its images on the other axes.

    The closed annulus {3/2 <= |xi| <= 2} meets the integer lattice only on
    |m| = 2, so all admissible envelope mass sits there.  The envelope is
    Psi(x) = sum of e^{i m.x} over the sphere: 2 cos(2 x_1), plus
    2 cos(2 x_2) in 2D.
    """
    return [(0,) * axis + (m,) + (0,) * (grid.dim - 1 - axis) for axis in range(grid.dim) for m in (2, -2)]


@dataclass
class PacketSpec:
    """Psi(x) * sum_j alpha[j] e^{i 2^j x_1}; alpha maps level j -> coefficient."""

    m: int
    alpha: dict[int, complex]


def _modulated_packets(grid: GridSpec, specs: list[PacketSpec]) -> list[SampledFunction]:
    """The packet of every spec, a trigonometric polynomial made from its
    exact bins (`_trig_polynomial`): the term alpha[j] e^{i 2^j x_1} times
    the envelope's e^{i m.x} is one bin at 2^j e_1 + m."""
    for spec in specs:
        if spec.m > grid.k_max - 2:
            raise LevelOverflowError(f"packet base level {spec.m} exceeds K_max-2")
        if spec.m < 3:
            raise InvalidInputError("packet needs m >= 3")
        outside = [j for j in spec.alpha if not 1 <= j <= spec.m]
        if outside:
            raise InvalidInputError(f"modulation level {min(outside)} outside [1, m]")
    sphere = _envelope_sphere(grid)
    return [
        _trig_polynomial(grid, [((m[0] + (1 << j),) + m[1:], a) for j, a in spec.alpha.items() for m in sphere])
        for spec in specs
    ]


def make_modulated_packet(grid: GridSpec, spec: PacketSpec) -> SampledFunction:
    """The one packet of `spec`; `expo7_family` builds several at once."""
    return _modulated_packets(grid, [spec])[0]


_PACKET_J0 = 1  # lowest modulation level of the packet families


def _case_pattern(m: int, b: float, case: int) -> dict[int, float]:
    """alpha of packet Case 1-5 at base level m; Cases 3 and 4 use the
    ambient b, which must be finite in every case."""
    check_finite(b=b)
    js = range(_PACKET_J0, m - 1)
    if case == 1:
        return {j: 1.0 for j in js}
    if case == 2:
        return {j: (1.0 + j) ** (-0.5) for j in js}
    if case in (3, 4):
        return {j: _checked_weight("a packet weight", ("b", b, 1.0 + j, -b)) for j in js}
    if case == 5:
        return {m: 1.0}
    raise InvalidInputError(f"unknown packet case {case}")


def expo7_family(
    grid: GridSpec, m: int, b: float, cases=(1, 2, 3, 4, 5)
) -> list[tuple[str, SampledFunction]]:
    """Named packet family, Cases 1-5, one inverse transform per distinct
    member.  Cases with equal coefficients share one member: Case 3 = Case 4
    at every b, Case 1 = Case 3 at b = 0, and Case 2 = Case 3 at b = 0.5.
    """
    return expo7_families(grid, m, [b], cases)[0]


def expo7_families(
    grid: GridSpec, m: int, bs, cases=(1, 2, 3, 4, 5)
) -> list[list[tuple[str, SampledFunction]]]:
    """`expo7_family` of every b in `bs`, one inverse transform per member
    distinct across them: Cases 1, 2 and 5 do not depend on b, so every
    family holds the same three members."""
    specs = [[PacketSpec(m, _case_pattern(m, b, c)) for c in cases] for b in bs]
    flat = [spec for row in specs for spec in row]
    distinct = [spec for i, spec in enumerate(flat) if spec not in flat[:i]]
    members = _modulated_packets(grid, distinct)
    return [[(f"case{c}", members[distinct.index(spec)]) for c, spec in zip(cases, row)] for row in specs]


# ---------------------------------------------------------------------------
# lacunary series (rough-but-continuous gallery members)


def make_lacunary(grid: GridSpec, coeffs) -> SampledFunction:
    """sum_j c_j cos(2^j x_1), summed in increasing j, in `float64` for real c_j."""
    coeffs = np.asarray(coeffs)
    if coeffs.size > grid.k_max:
        raise LevelOverflowError("too many lacunary levels for this grid")
    coeffs = coeffs.astype(np.complex128 if np.iscomplexobj(coeffs) else np.float64)
    x1 = grid.points()[0]
    vals = np.zeros(grid.shape, dtype=coeffs.dtype)
    for j, c in enumerate(coeffs):
        vals += c * np.cos((1 << j) * x1)
    return SampledFunction(grid, vals)


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
            # an m of J or more aliases as m = J does, without a huge integer
            k1 = _field(kv, "m", "", lambda t: 1 << min(int(t), grid.log2_samples))
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
        c = _field(kv, "c", "1", complex)
        check_finite(c=c)
        return make_constant(grid, c)
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
        return make_modulated_packet(grid, PacketSpec(m, _case_pattern(m, b, case)))
    if head == "lacunary":
        beta = _field(kv, "beta", "0.5", float)
        check_finite(beta=beta)
        levels = _field(kv, "levels", str(grid.k_max - 1))
        if levels < 0:
            raise InvalidInputError(f"lacunary spec needs levels >= 0, got {levels}")
        coeffs = [_checked_weight("a lacunary coefficient", ("beta", beta, 2.0, -beta * j)) for j in range(levels + 1)]
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
