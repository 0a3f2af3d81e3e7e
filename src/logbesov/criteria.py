"""Multiplier-criterion functionals: sufficiency and necessity terms for
p = 1, p = infinity, and general p, and the verdict that combines them.

The terms form two families, each evaluated by one reducer over the sup
norms and cube tables a `SpectralDecomposition` caches.  Low-high terms,
sup_l sum_{k>=l} ((1+l)/(1+k))^b (cube average of S_k f), go through
`_low_high` (`suff_term2` sums the per-row sups; `nece_term2`, and
`pinf_term2` on the r = 1 tables, take the sup of the per-cube sums).
High-low terms, sup_k sum_{j<=k-2} ((1+k)/(1+j))^b (cube sup of S_k f),
go through `_high_low` (`suff_term3`, `nece_term3`; `pinf_term3` as one
closed-form weight per k).  `verdict` asks its decomposition for every
reduction its terms read before the first term runs, so one pass over the
pieces fills them all.

Every term reports through `_report`: the sup of its per-level values,
tail estimates of its truncated k-series (inf and `divergent` when not
summable), `divergent` also for a sup still climbing at the scan boundary,
and a `note` joining ("; ") "non-finite per-level value", "cube levels
clamped at l_max" and "sup still climbing at the scan boundary".  These are
numerical indicators for the verdict, not proofs.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInputError
from .grid import (
    INF,
    SampledFunction,
    check_finite,
    conjugate_exponent,
    is_inf,
    lp_norm,
)
from .partition import DyadicPartition, SpectralDecomposition, _ensure_decomposition

_SLOPE_DIVERGENT = -1.05  # inner terms ~ (1+k)^slope: summable iff slope < -1


@dataclass
class TermReport:
    """One criterion term: value, per-level breakdown, tail diagnostics."""

    value: float
    per_level: list[float] = field(default_factory=list)
    tail: float = 0.0
    divergent: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _tail_estimate(terms: np.ndarray, scale: float) -> tuple[float, bool]:
    """Estimate the truncated tail of sum_k terms from the trailing trend.

    Fits log(term) against log(1+k) on the last positive entries; a fitted
    power >= -1 (up to margin) marks a non-summable tail.  A trailing run of
    entries that are numerically zero (relative to `scale`, a reference for
    the size of the whole computation) means the series has terminated.
    """
    t = np.asarray(terms, dtype=np.float64)
    floor = 1e-12 * max(t.max(), scale, 1e-300)
    if np.all(t[-3:] <= floor):
        return 0.0, False
    idx = np.nonzero(t > floor)[0]
    use = idx[-4:]
    if use.size < 2:
        return float(t[use].sum()), False
    xs = np.log1p(use.astype(np.float64))
    ys = np.log(t[use])
    slope = float(np.polyfit(xs, ys, 1)[0])
    k_last = use[-1]
    if slope >= _SLOPE_DIVERGENT:
        return math.inf, True
    return float(t[k_last]) * (1.0 + k_last) / (-slope - 1.0), False


def _report(
    dec: SpectralDecomposition,
    per_level: list[float],
    *,
    start: int = 0,
    tails: list | tuple = (),
    clamped: bool = False,
) -> TermReport:
    """The diagnostics path of every term: the sup of `per_level`, the tail
    estimates of the truncated k-series `tails` (scaled by the largest
    ||S_k f||_inf), and a sup over per_level[start:] still climbing at the
    scan boundary (argmax at the last index, the last three values rising)."""
    values = np.asarray(per_level, dtype=np.float64)
    scale = float(dec.sup_norms().max()) if tails else 0.0
    estimates = [_tail_estimate(series, scale) for series in tails]
    v = values[start:]
    climbing = bool(v.size >= 3 and np.argmax(v) == v.size - 1 and v[-1] > v[-2] > v[-3] > 0)
    notes = {
        "non-finite per-level value": not np.isfinite(values).all(),
        "cube levels clamped at l_max": clamped,
        "sup still climbing at the scan boundary": climbing,
    }
    return TermReport(
        float(values.max()),
        per_level,
        max((t for t, _ in estimates), default=0.0),
        any(bad for _, bad in estimates) or climbing,
        "; ".join(text for text, flag in notes.items() if flag),
    )


@contextlib.contextmanager
def _weights(b: float):
    """Level weights computed inside are checked: one beyond the float range
    is an input error naming b, as `norms._weight` reports it, not a numpy
    warning before an INVALID report."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise InvalidInputError(f"b={b!r} makes a level weight overflow") from None


def _low_high_row(dec: SpectralDecomposition, r: float, weight: float, l: int, k: int):
    """Low-high row `weight` (mean_Q |S_k f|^r)^{1/r} over the level-l cubes
    Q; at r = inf the scalar `weight` ||S_k f||_inf."""
    means = dec.sup_norms()[k] if is_inf(r) else dec.cube_table(k, r).means(l) ** (1.0 / r)
    return weight * means


def _low_high_levels(dec: SpectralDecomposition, r: float, b: float, per_cube: bool):
    """Low-high family: the rows of `_low_high_row` for k >= l, weighted by
    ((1+l)/(1+k))^b and accumulated in ascending k.  Level l reads them as
    the sup over Q of the per-cube k-sums (`per_cube`) or as the k-sum of
    the per-row sups.  Returns the per-level values and, per level, the
    per-row sups (the tail series).  At r = inf the levels run to K_max
    instead of l_max.  The weights go through NumPy's power, all inside one
    overflow check: where that is vectorized, Python's `**` can differ from
    it in the last bit."""
    k_top = dec.k_max
    l_top = k_top if is_inf(r) else min(dec.grid.l_max, k_top)
    with _weights(b):
        weights = [[np.power((1.0 + l) / (1.0 + k), b) for l in range(min(k, l_top) + 1)] for k in range(k_top + 1)]
    sups = [[] for _ in range(l_top + 1)]
    sums = [0.0] * (l_top + 1)
    for k in range(k_top + 1):
        for l in range(min(k, l_top) + 1):
            row = _low_high_row(dec, r, weights[k][l], l, k)
            if per_cube:
                sums[l] = sums[l] + row
            sups[l].append(row.max())
    per_level = [float(s.max()) for s in sums] if per_cube else [float(np.sum(row)) for row in sups]
    return per_level, sups


def _at_clamp(dec: SpectralDecomposition, per_level: list[float]) -> bool:
    """The sup of a low-high term sits at its last cube level, which the
    grid guard l_max holds below K_max."""
    top = len(per_level) - 1
    return top < dec.k_max and int(np.argmax(per_level)) == top


def _low_high(dec: SpectralDecomposition, r: float, b: float, per_cube: bool) -> TermReport:
    per_level, sups = _low_high_levels(dec, r, b, per_cube)
    return _report(dec, per_level, tails=sups, clamped=_at_clamp(dec, per_level))


def _high_low(dec: SpectralDecomposition, r: float, b=0.0, q=1.0, *, weight=None) -> TermReport:
    """High-low family: per_level[k] for k >= 2 (0 below) is

    (sum_{j<=min(k-2, l_max)} ((1+k)/(1+j))^{bq} X_k(j)^q)^{1/q}, X_k(j) the
    sup over level-j cubes of (mean_P |S_k f|^r)^{1/r}.  At r = inf (q = 1)
    X_k(j) = ||S_k f||_inf for every j <= k-2, so the value is one weight
    times ||S_k f||_inf: the summed weights, or `weight[k]` when given.
    """
    k_top = dec.k_max
    if is_inf(r):
        if weight is None:
            with _weights(b):
                weight = np.array([np.sum(((1.0 + k) / (1.0 + np.arange(k - 1))) ** b) for k in range(k_top + 1)])
        vals = weight * dec.sup_norms()
        vals[:2] = 0.0
        return _report(dec, vals.tolist(), start=2)
    j_cap = min(dec.grid.l_max, k_top)
    per_level = [0.0, 0.0]
    for k in range(2, k_top + 1):
        n = min(k - 2, j_cap) + 1
        x = np.array([dec.cube_table(k, r).means(j).max() for j in range(n)]) ** (1.0 / r)
        with _weights(b):
            w = ((1.0 + k) / (1.0 + np.arange(n))) ** (b * q)
        per_level.append(float(np.sum(w * x**q)) ** (1.0 / q))
    return _report(dec, per_level, start=2, clamped=k_top - 2 > j_cap)


def suff_term2(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """Sum-of-sups low-high term:

    sup_l sum_{k>=l} ((1+l)/(1+k))^b sup_{l(P)=2^-l} (mean_P |S_k f|^{p'})^{1/p'};
    at p = 1 the inner sup is the plain L^inf norm of S_k f.
    """
    if is_inf(p) or p < 1:
        raise InvalidInputError("suff_term2 needs p in [1, inf); use pinf_term2 at p=inf")
    dec = _ensure_decomposition(f, partition, dec)
    return _low_high(dec, conjugate_exponent(p), b, per_cube=False)


def suff_term3(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """Sup-of-sums high-low term:

    sup_{k>=2} sum_{j<=k-2} ((1+k)/(1+j))^b sup_{l(P)=2^-j} (mean_P |S_k f|^p)^{1/p};
    at p = INF the closed forms apply ((1+k)^b / (1+k) ln(1+k) / (1+k) by b).
    """
    if p < 1:
        raise InvalidInputError("suff_term3 needs p >= 1")
    if is_inf(p):
        return pinf_term3(f, partition, b, dec=dec)
    return _high_low(_ensure_decomposition(f, partition, dec), p, b)


def pinf_term2(
    f: SampledFunction,
    partition: DyadicPartition,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """p = infinity low-high term:

    sup_l (1+l)^b sup_{l(P)=2^-l} mean_P sum_{k>=l} (1+k)^{-b} |S_k f(y)| dy,

    read as the per-cube low-high sum at r = 1: the mean of the k-sum is the
    k-sum of the means.  Its tail series is (1+k)^{-b} ||S_k f||_inf.
    """
    dec = _ensure_decomposition(f, partition, dec)
    per_level, _ = _low_high_levels(dec, 1.0, b, per_cube=True)
    with _weights(b):
        weight = (1.0 + np.arange(dec.k_max + 1)) ** (-b)
    inner = weight * dec.sup_norms()
    return _report(dec, per_level, tails=[inner], clamped=_at_clamp(dec, per_level))


def pinf_term3(
    f: SampledFunction,
    partition: DyadicPartition,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """p = infinity high-low term, closed forms split on b:

    b > 1: sup_{k>=2} (1+k)^b ||S_k f||_inf; b = 1: sup (1+k) ln(1+k) ||.||;
    b < 1: sup (1+k) ||S_k f||_inf.
    """
    dec = _ensure_decomposition(f, partition, dec)
    ks = np.arange(dec.k_max + 1, dtype=np.float64)
    if b > 1:
        with _weights(b):
            w = (1.0 + ks) ** b
    elif b == 1:
        w = (1.0 + ks) * np.log(1.0 + ks)
    else:
        w = 1.0 + ks
    return _high_low(dec, INF, weight=w)


def nece_term2(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """Sup-of-sums variant (one cube for the whole k-sum):

    sup_l sup_{l(Q)=2^-l} sum_{k>=l} ((1+l)/(1+k))^b (mean_Q |S_k f|^{p'})^{1/p'};
    coincides with suff_term2 at p = 1.
    """
    if p < 1:
        raise InvalidInputError("nece_term2 needs p in [1, inf]")
    if p == 1.0:
        return suff_term2(f, partition, 1.0, b, dec=dec)
    return _low_high(_ensure_decomposition(f, partition, dec), conjugate_exponent(p), b, per_cube=True)


def nece_term3(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """l^p version of the high-low term:

    sup_{k>=2} ( sum_{j<=k-2} ((1+k)/(1+j))^{bp} sup_{l(P)=2^-j} mean_P |S_k f|^p )^{1/p};
    at p = INF it is sum_{l<=k-2} ((1+k)/(1+l))^b ||S_k f||_inf.
    """
    if p < 1:
        raise InvalidInputError("nece_term3 needs p >= 1")
    dec = _ensure_decomposition(f, partition, dec)
    return _high_low(dec, p, b, 1.0 if is_inf(p) else p)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class CriterionReport:
    """Combined criterion evaluation with the multiplier verdict."""

    p: float
    b: float
    term_linf: float
    term2: TermReport
    term3: TermReport
    combined: float
    verdict: str
    bracket: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {
            "p": "inf" if is_inf(self.p) else self.p,
            "b": self.b,
            "terms": {
                "linf": self.term_linf,
                "term2": self.term2.value,
                "term3": self.term3.value,
                "combined": self.combined,
            },
            "per_level": {
                "term2": self.term2.per_level,
                "term3": self.term3.per_level,
            },
            "tails": {
                "term2": self.term2.tail,
                "term3": self.term3.tail,
                "term2_divergent": self.term2.divergent,
                "term3_divergent": self.term3.divergent,
            },
            "verdict": self.verdict,
            "bracket": list(self.bracket) if self.bracket else None,
        }


def _invalid_if_nonfinite(state: str, *sums: float) -> str:
    """INVALID when a sum is non-finite, which it is whenever one of its terms is."""
    return state if all(map(math.isfinite, sums)) else "INVALID"


def verdict(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> CriterionReport:
    """Evaluate the multiplier criterion at (p, b).

    p in {1, INF}: the characterization is exact, so the report declares
    MULTIPLIER or NOT_MULTIPLIER from the divergence diagnostics.  For
    p in (1, inf) only a bracket [necessity, sufficiency] exists; the report
    stays at BRACKET, or UNDECIDED when the two sides disagree by more than
    an order of magnitude.  A non-finite L^inf norm, term value or bracket
    end makes the report INVALID (an infinite `tail` only marks divergence).
    A non-finite b or a p below 1 is rejected before anything is decomposed.
    """
    check_finite(b=b)
    if not p >= 1:
        raise InvalidInputError("verdict needs p in [1, inf]")
    dec = _ensure_decomposition(f, partition, dec)
    # every reduction the terms read, filled in one pass over the pieces
    dec.analyze(cube_exponents=(1.0,) if p == 1.0 or is_inf(p) else (conjugate_exponent(p), p))
    linf = lp_norm(f, INF)
    if p == 1.0 or is_inf(p):
        t2 = pinf_term2(f, partition, b, dec=dec) if is_inf(p) else suff_term2(f, partition, p, b, dec=dec)
        t3 = suff_term3(f, partition, p, b, dec=dec)
        state = "NOT_MULTIPLIER" if (t2.divergent or t3.divergent) else "MULTIPLIER"
        combined = linf + t2.value + t3.value
        return CriterionReport(p, b, linf, t2, t3, combined, _invalid_if_nonfinite(state, combined))
    t2 = suff_term2(f, partition, p, b, dec=dec)
    t3 = suff_term3(f, partition, p, b, dec=dec)
    n2 = nece_term2(f, partition, p, b, dec=dec)
    n3 = nece_term3(f, partition, p, b, dec=dec)
    lower = n2.value + n3.value
    upper = linf + t2.value + t3.value
    state = "BRACKET"
    if lower > 0 and upper / lower > 10.0:
        state = "UNDECIDED"
    state = _invalid_if_nonfinite(state, lower, upper)
    return CriterionReport(p, b, linf, t2, t3, upper, state, (lower, upper))
