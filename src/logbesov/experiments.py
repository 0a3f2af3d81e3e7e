"""Batch experiments reproducing the quantitative asymptotics at desk scale.

Each runner returns a Table (ordered rows plus pass/fail checks); identical
config gives byte-identical serialized output.  Every row carries an
`asymptote` tag naming the predicted growth law it is tested against.

`run_exp_growth` and `run_sandwich` split their work into independent rows
that each build, decompose and read their own functions, and
`workers._map_rows` runs them on two threads (numpy's FFTs and reductions
release the GIL); a 2D analysis pass inside a row stays serial.  A row
drops its decomposition before it returns, so at most one is alive per
thread; tables are assembled in row order, so output does not depend on
the number of threads.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .criteria import verdict
from .errors import InvalidInputError
from .gallery import (
    StackSpec,
    _wavevector,
    expo7_families,
    make_exponential,
    make_indicator,
    make_lacunary,
    make_stack,
)
from .grid import INF, GridSpec, SampledFunction, _forward, _layout_radius, _trig_polynomial, check_exponent, check_finite, is_inf, lp_norm, make_constant
from .norms import BesovParams, dini_norm
from .partition import build_partition, decompose
from .paraproducts import multiplier_lower_bound
from .workers import _map_rows


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int = 1
    log2_samples: int = 14
    kind: str = "radial"
    b_list: tuple[float, ...] = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    p_list: tuple[float, ...] = (1.0, INF)
    m_range: tuple[int, int] = (3, 10)
    shape: str = "cube"

    def grid(self) -> GridSpec:
        return GridSpec(self.dim, self.log2_samples)


@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, **kwargs) -> None:
        self.rows.append(kwargs)

    def to_json(self) -> str:
        def coerce(v):
            if isinstance(v, (np.bool_, bool)):
                return bool(v)
            if isinstance(v, (np.integer, np.floating)):
                return float(v)
            raise TypeError(f"not serializable: {type(v)}")

        payload = {
            "name": self.name,
            "columns": self.columns,
            "rows": self.rows,
            "checks": [
                {"label": c.label, "passed": bool(c.passed), "detail": c.detail}
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, allow_nan=True, default=coerce)

    def to_csv(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, (float, np.floating)):
                return repr(float(v))
            return str(v)

        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(fmt(row.get(c, "")) for c in self.columns))
        return "\n".join(lines) + "\n"


def fit_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least squares of log(ys) against log(xs): (slope, r^2).

    The transform is applied here, so callers pass raw positive values (after
    dividing out any logarithmic correction factor).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 4:
        raise InvalidInputError("fit_slope needs at least 4 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise InvalidInputError("fit_slope needs positive coordinates")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def growth_law(p: float, b: float) -> tuple[float, float, str]:
    """(exponent, log-correction power, tag) of the predicted multiplier-norm
    growth in (1+m) for e^{i 2^m x_1} on the (0, b, p, inf) space."""
    if p == 1.0 or is_inf(p):
        crit = 1.0
    elif p <= 2.0:
        crit = 1.0 / p
    else:
        crit = 0.5
    if p == 1.0 or is_inf(p):
        if b > 1:
            return b, 0.0, f"(1+m)^{b:g}"
        if b == 1:
            return 1.0, 1.0, "(1+m)ln(1+m)"
        if b >= -1:
            return 1.0, 0.0, "(1+m)"
        return -b, 0.0, f"(1+m)^{-b:g}"
    if b > crit:
        return b, 0.0, f"(1+m)^{b:g}"
    if b == crit:
        return crit, crit, f"[(1+m)ln(1+m)]^{crit:g}"
    if b >= -crit:
        return crit, 0.0, f"(1+m)^{crit:g}"
    return -b, 0.0, f"(1+m)^{-b:g}"


def _exact_route(p: float) -> bool:
    return p == 1.0 or is_inf(p)


def _exact_exponential(grid: GridSpec, k: tuple[int, ...]) -> SampledFunction:
    """e^{ik.x} made from its exact spectrum, one bin (`_trig_polynomial`):
    N^dim times the grid's phase (-1)^(k_1 + ... + k_dim) at k mod N.  A
    wavevector the lattice cannot hold is rejected here."""
    return _trig_polynomial(grid, [(_wavevector(grid, k), 1.0)])


def _criterion_value(f, partition, p: float, b: float, *, dec=None) -> float:
    if not _exact_route(p):
        raise InvalidInputError("criterion route only for p in {1, inf}")
    rep = verdict(f, partition, p, b, dec=dec)
    # the p = infinity sweep tracks the two criterion terms alone
    return rep.term2.value + rep.term3.value if is_inf(p) else rep.combined


def run_exp_growth(config: ExperimentConfig) -> Table:
    """Multiplier-norm growth of e^{i 2^m x_1} across (p, b, m).

    p in {1, inf} uses the exact criterion; other p use the packet-family
    lower bound.  Checks: fitted exponent within +-0.15 of the law and
    value/prediction spread within a factor 3.

    On the exact route each m decomposes e^{i 2^m x_1} once, from its exact
    one-bin spectrum (`_exact_exponential`), and reads every (b, p) from it
    (its cube means at r = 1 do not depend on b); only its level m makes
    an inverse transform, the others are exactly zero.  On the packet route
    each m builds the families of every b (`expo7_families`, each distinct
    member once) and decomposes each distinct member and its product with
    e^{-i 2^m x_1} once, read at every (b, p)
    (b enters a Besov norm only as a level weight): e^{-i 2^m x_1} carries
    its one bin and every packet its few, so a member and its product make
    no forward transform, and no inverse one either: their L^2 and L^4
    norms come from the bins by Parseval (`SpectralDecomposition.analyze`).  These rows, one per m and route, run through `_map_rows`;
    table rows and checks come out in p, b, m order.
    """
    for b in config.b_list:
        check_finite(b=b)
    for p in config.p_list:
        if check_exponent(p, "p") < 1:
            raise InvalidInputError(f"exp-growth needs p in [1, inf]: no growth law is stated for p={p:g}")
    grid = config.grid()
    partition = build_partition(grid, config.kind)
    m_lo, m_hi = config.m_range
    # a packet needs m >= 3 (`gallery._modulated_packets`): refused here, before any row runs
    floor = 2 if all(map(_exact_route, config.p_list)) else 3
    if m_lo < floor or m_hi > grid.k_max - 2:
        why = "" if floor == 2 else "; the packet route (p not in {1, inf}) needs m >= 3"
        raise InvalidInputError(
            f"m range [{m_lo},{m_hi}] outside [{floor}, K_max-2]=[{floor},{grid.k_max - 2}]{why}"
        )
    if m_hi - m_lo + 1 < 4:
        raise InvalidInputError(
            f"exp-growth m range [{m_lo},{m_hi}] holds fewer than the 4 values of m its fit needs"
        )
    table = Table(
        "exp-growth",
        ["p", "b", "m", "value", "predicted", "ratio", "asymptote"],
    )
    ms = np.arange(m_lo, m_hi + 1)
    exact_ps = [p for p in config.p_list if _exact_route(p)]
    packet_ps = [p for p in config.p_list if not _exact_route(p)]
    rest = (0,) * (grid.dim - 1)

    # each row's decomposition dies with the row: one alive per worker bounds peak memory
    def exact_row(m: int) -> dict:
        f = _exact_exponential(grid, (1 << m,) + rest)
        dec = decompose(f, partition)
        return {
            (p, b, m): _criterion_value(f, partition, p, b, dec=dec)
            for b in config.b_list
            for p in exact_ps
        }

    def packet_row(m: int) -> dict:
        f = _exact_exponential(grid, (-(1 << m),) + rest)
        families = dict(zip(config.b_list, expo7_families(grid, m, config.b_list)))
        params = [BesovParams(0.0, b, p, INF) for b in config.b_list for p in packet_ps]
        bounds = multiplier_lower_bound(f, partition, params, lambda pr: families[pr.b])
        return {(pr.p, pr.b, m): val for pr, (val, _) in zip(params, bounds)}

    rows = [functools.partial(exact_row, int(m)) for m in ms if exact_ps]
    rows += [functools.partial(packet_row, int(m)) for m in ms if packet_ps]
    value = {}  # (p, b, m) -> value
    for part in _map_rows(lambda row, _: row(), rows):
        value.update(part)
    for p in config.p_list:
        for b in config.b_list:
            expo, logpow, tag = growth_law(p, b)
            values = [value[p, b, m] for m in ms]
            preds = (1.0 + ms) ** expo * np.log(1.0 + ms) ** logpow
            ratios = np.asarray(values) / preds
            for m, v, pr, r in zip(ms, values, preds, ratios):
                table.add(
                    p="inf" if is_inf(p) else p, b=b, m=int(m), value=float(v),
                    predicted=float(pr), ratio=float(r), asymptote=tag,
                )
            corrected = np.asarray(values) / np.log(1.0 + ms) ** logpow
            slope, r2 = fit_slope(1.0 + ms, corrected)
            spread = float(ratios.max() / ratios.min())
            ptag = "inf" if is_inf(p) else f"{p:g}"
            table.checks.append(
                Check(
                    f"growth p={ptag} b={b:g}: exponent {slope:.3f} vs {expo:g}",
                    abs(slope - expo) <= 0.15,
                    f"r2={r2:.4f}",
                )
            )
            table.checks.append(
                Check(
                    f"growth p={ptag} b={b:g}: ratio spread {spread:.2f}",
                    spread <= 3.0,
                )
            )
    return table


def mollify(f: SampledFunction, width: float) -> SampledFunction:
    """Gaussian mollification at scale `width` (spectral multiplier).  The
    samples are transformed by their dtype, as `grid._forward` does, so a
    real f is damped on its half spectrum and comes back real."""
    coeffs = _forward(f.values)
    coeffs *= np.exp(-0.5 * (width * _layout_radius(f.grid, coeffs.shape)) ** 2)
    if coeffs.shape == f.grid.shape:
        return SampledFunction(f.grid, np.fft.ifftn(coeffs))
    return SampledFunction(f.grid, np.fft.irfftn(coeffs, f.grid.shape, axes=range(f.grid.dim)))


def run_charfun(config: ExperimentConfig) -> Table:
    """Projection sup-norms of a characteristic function: no decay in k,
    linearly growing partial sums, and the mollified contrast row.  The fit
    window k in [6, K_max] must hold 4 levels; that is checked first."""
    grid = config.grid()
    k_fit = 6
    if grid.k_max - k_fit + 1 < 4:
        raise InvalidInputError(
            f"charfun fit window k in [{k_fit},K_max]=[{k_fit},{grid.k_max}] holds fewer "
            f"than 4 levels; it needs K_max = J-2 >= {k_fit + 3}, i.e. J >= {k_fit + 5}"
        )
    partition = build_partition(grid, config.kind)
    f = make_indicator(grid, config.shape)
    smooth = mollify(f, 2.0**-4)
    dec = decompose(f, partition)
    dec_s = decompose(smooth, partition)
    sups = dec.sup_norms()
    sups_s = dec_s.sup_norms()
    partial = np.cumsum(sups)
    table = Table(
        "charfun",
        ["k", "sup_norm", "partial_sum", "weighted", "mollified", "asymptote"],
    )
    for k in range(grid.k_max + 1):
        table.add(
            k=k,
            sup_norm=float(sups[k]),
            partial_sum=float(partial[k]),
            weighted=float((1 + k) * sups[k]),
            mollified=float(sups_s[k]),
            asymptote="flat sup-norms; partial sums ~ c K",
        )
    ks = np.arange(k_fit, grid.k_max + 1)
    slope, r2 = fit_slope(2.0**ks, sups[k_fit:])
    table.checks.append(
        Check(
            f"sup-norm log-slope {slope:.3f} over k in [{k_fit},{grid.k_max}]",
            abs(slope) <= 0.1,
            f"r2={r2:.3f}",
        )
    )
    growth = np.polyfit(ks, partial[k_fit:], 1)[0]
    table.checks.append(
        Check(f"partial sums grow at {growth:.4f} per level", growth > 0.01)
    )
    floor = 1e-12
    ratios = [
        sups_s[k + 1] / sups_s[k]
        for k in range(5, grid.k_max)
        if sups_s[k] > floor and sups_s[k + 1] > floor
    ]
    table.checks.append(
        Check(
            f"mollified contrast: max ratio {max(ratios):.3f} beyond k=4",
            len(ratios) > 0 and max(ratios) <= 0.6,
        )
    )
    return table


def run_sandwich(config: ExperimentConfig) -> Table:
    """Lower bounds vs sufficiency values for gallery multipliers, plus the
    smoothness-criterion rows (Dini-regular and constant functions).

    Each m, the Dini-regular row and the constant row are one row of
    `_map_rows`.  The m window is checked before any work: at least 4 values
    (the slope fit needs them) and m <= K_max - 2, as in `run_exp_growth`.
    """
    grid = config.grid()
    b = 0.0
    m_lo = max(config.m_range[0], 4)
    m_hi = config.m_range[1]
    if m_hi - m_lo + 1 < 4:
        raise InvalidInputError(
            f"sandwich m range [{m_lo},{m_hi}] holds fewer than the 4 values of m >= 4 its fit needs"
        )
    if m_hi > grid.k_max - 2:
        raise InvalidInputError(
            f"sandwich m range [{m_lo},{m_hi}] outside [4, K_max-2]=[4,{grid.k_max - 2}]; "
            f"m <= {m_hi} needs J >= {m_hi + 4}"
        )
    partition = build_partition(grid, config.kind)
    table = Table(
        "sandwich",
        ["row", "m", "lower", "upper", "extra", "verdict", "asymptote"],
    )
    ms = np.arange(m_lo, m_hi + 1)
    levels = min(grid.k_max - 1, 10)

    def exp_row(m: int) -> tuple[float, float]:
        f = _exact_exponential(grid, (1 << m,) + (0,) * (grid.dim - 1))
        # stride 1 packs the most levels per stack; the uniform norm bound holds
        # for any stride (larger strides only matter for the pointwise lower bound)
        stack = make_stack(grid, StackSpec(spacing=1, offset=0, depth=m - 2, p=1.0, b=b))
        [(low, _)] = multiplier_lower_bound(
            f, partition, [BesovParams(0.0, b, 1.0, INF)], [("stack", stack)]
        )
        return low, _criterion_value(f, partition, 1.0, b)

    def dini_row():
        # Dini-regular row: lacunary series with Hoelder-type modulus.
        dini_f = make_lacunary(grid, [2.0 ** (-0.5 * j) for j in range(levels + 1)])
        return verdict(dini_f, partition, INF, 0.5), dini_norm(dini_f).value, lp_norm(dini_f, INF)

    def constant_row():
        # Constant row: everything collapses to the L^inf value.
        one = make_constant(grid)
        [(low1, _)] = multiplier_lower_bound(
            one, partition, [BesovParams(0.0, b, 1.0, INF)], [("one", one)]
        )
        return verdict(one, partition, 1.0, b), low1

    # the Dini row costs more than all the others together: first in the list,
    # it starts at once, on the calling thread, while the helper takes the rest
    rows = [dini_row, constant_row] + [functools.partial(exp_row, int(m)) for m in ms]
    (rep, dn, linf), (rep1, low1), *bounds = _map_rows(lambda row, _: row(), rows)
    for m, (low, up) in zip(ms, bounds):
        table.add(
            row="exp-p1", m=int(m), lower=float(low), upper=float(up),
            extra=float(up / low), verdict="", asymptote="(1+m)",
        )
    slope_low, _ = fit_slope(1.0 + ms, [low for low, _ in bounds])
    slope_up, _ = fit_slope(1.0 + ms, [up for _, up in bounds])
    table.checks.append(
        Check(
            f"exp p=1 b=0: lower/upper growth exponents {slope_low:.3f}/{slope_up:.3f}",
            abs(slope_low - slope_up) <= 0.15,
        )
    )
    table.add(
        row="dini-regular", m=levels, lower=float(rep.combined),
        upper=float(linf + dn), extra=float(dn),
        verdict=rep.verdict, asymptote="Dini => multiplier (p=inf, b=1/2)",
    )
    table.checks.append(
        Check("Dini-regular function accepted at p=inf, b=0.5", rep.verdict == "MULTIPLIER")
    )
    table.checks.append(
        Check(
            f"criterion bounded by Dini data (ratio {rep.combined / (linf + dn):.3f})",
            rep.combined <= 20.0 * (linf + dn),
        )
    )
    table.add(
        row="constant", m=0, lower=float(low1), upper=float(rep1.combined),
        extra=0.0, verdict=rep1.verdict, asymptote="~ 1",
    )
    table.checks.append(
        Check(
            f"constant rows ~ 1 (lower {low1:.3f}, combined {rep1.combined:.3f})",
            0.5 <= low1 <= 2.0 and 0.5 <= rep1.combined <= 4.0,
        )
    )
    return table


def run_partition_check(config: ExperimentConfig) -> Table:
    """Partition-of-unity invariants: telescoping, annulus support, and the
    exponential delta-selection identity."""
    grid = config.grid()
    partition = build_partition(grid, config.kind)
    table = Table("partition-check", ["check", "value", "asymptote"])
    worst_tel = 0.0
    acc = np.zeros(grid.shape)
    for k in range(grid.k_max + 1):
        acc = acc + partition.symbol(k)
        worst_tel = max(worst_tel, float(np.abs(acc - partition.cumulative_symbol(k)).max()))
    table.add(check="telescoping max error", value=worst_tel, asymptote="exact partition of unity")
    table.checks.append(Check("telescoping <= 1e-12", worst_tel <= 1e-12))
    rho = grid.freq_radius()
    if config.kind == "tensor" and grid.dim == 2:
        ms = grid.freqs()
        rho = np.maximum(np.abs(ms[0]), np.abs(ms[1])).astype(np.float64)
    worst_leak = 0.0
    for k in range(1, grid.k_max + 1):
        sym = partition.symbol(k)
        outside = (rho < 2.0 ** (k - 1)) | (rho > 3.0 * 2.0 ** (k - 1))
        worst_leak = max(worst_leak, float(np.abs(sym[outside]).max(initial=0.0)))
    table.add(check="annulus leakage", value=worst_leak, asymptote="supp phi_k inside the dyadic annulus")
    table.checks.append(Check("annulus leakage <= 1e-10", worst_leak <= 1e-10))
    worst_delta = 0.0
    for m in range(2, grid.k_max):
        f = make_exponential(grid, (1 << m,) + (0,) * (grid.dim - 1))
        dec = decompose(f, partition)
        for j in range(grid.k_max + 1):
            target = f.values if j == m else 0.0
            worst_delta = max(worst_delta, float(np.abs(dec._piece(j) - target).max()))
    table.add(check="delta-selection max error", value=worst_delta, asymptote="S_j e^{i2^m x} = delta_jm e^{i2^m x}")
    table.checks.append(Check("delta selection <= 1e-10", worst_delta <= 1e-10))
    return table


RUNNERS = {
    "partition-check": run_partition_check,
    "exp-growth": run_exp_growth,
    "charfun": run_charfun,
    "sandwich": run_sandwich,
}
