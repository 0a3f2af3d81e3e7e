"""Multiplier-criterion functionals: sufficiency and necessity terms for
p = 1, p = infinity, and general p, the mixed cube-sequence functional, the
ball-average criterion, and the refined high-low log bounds.

All k-sums are truncated at K_max; every term carries a tail estimate from
the trailing terms' power-law trend, and sup-type terms flag an argmax
pinned at the truncation boundary.  Those diagnostics feed the verdict; they
are numerical indicators, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cubes import level_cube_means, sliding_window_mean_max
from .errors import CapabilityError, InvalidInputError
from .grid import (
    INF,
    SampledFunction,
    conjugate_exponent,
    is_inf,
    lp_norm,
)
from .partition import DyadicPartition, SpectralDecomposition, decompose

_SLOPE_DIVERGENT = -1.05  # inner terms ~ (1+k)^slope: summable iff slope < -1
_TIE = 1e-9  # relative gap below which the greedy cube choice treats values as equal


@dataclass
class TermReport:
    """One criterion term: value, per-level breakdown, tail diagnostics."""

    value: float
    per_level: list[float] = field(default_factory=list)
    tail: float = 0.0
    divergent: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "per_level": self.per_level,
            "tail": self.tail,
            "divergent": self.divergent,
            "note": self.note,
        }


def _dec(f, partition, dec) -> SpectralDecomposition:
    return dec if dec is not None else decompose(f, partition)


def _tail_estimate(terms: np.ndarray, scale: float | None = None) -> tuple[float, bool]:
    """Estimate the truncated tail of sum_k terms from the trailing trend.

    Fits log(term) against log(1+k) on the last positive entries; a fitted
    power >= -1 (up to margin) marks a non-summable tail.  A trailing run of
    entries that are numerically zero (relative to `scale`, a reference for
    the size of the whole computation) means the series has terminated.
    """
    t = np.asarray(terms, dtype=np.float64)
    if t.size == 0:
        return 0.0, False
    floor = 1e-12 * max(t.max(), scale if scale is not None else 0.0, 1e-300)
    if np.all(t[-3:] <= floor):
        return 0.0, False
    idx = np.nonzero(t > floor)[0]
    use = idx[-4:] if idx.size >= 4 else idx
    if use.size < 2:
        return float(t[use].sum()), False
    xs = np.log1p(use.astype(np.float64))
    ys = np.log(t[use])
    slope = float(np.polyfit(xs, ys, 1)[0])
    k_last = use[-1]
    if slope >= _SLOPE_DIVERGENT:
        return math.inf, True
    tail = float(t[k_last]) * (1.0 + k_last) / (-slope - 1.0)
    return tail, False


def _sup_unsaturated(values: np.ndarray) -> bool:
    """True when a sup over a truncated index range is still climbing at the
    boundary (argmax at the last index and the trailing values increasing)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3 or v.max() <= 0:
        return False
    if int(np.argmax(v)) != v.size - 1:
        return False
    return bool(v[-1] > v[-2] > v[-3] > 0)


def _cube_sup_means(
    dec: SpectralDecomposition, r: float, levels: range
) -> np.ndarray:
    """mat[k, l] = sup over level-l cubes of (mean_Q |S_k f|^r)^{1/r}."""
    out = np.zeros((dec.k_max + 1, len(levels)))
    for k in range(dec.k_max + 1):
        table = dec.cube_table(k, r)
        out[k] = [table.means(l).max() for l in levels]
    return out ** (1.0 / r)


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
    dec = _dec(f, partition, dec)
    k_top = dec.k_max
    pprime = conjugate_exponent(p)
    if is_inf(pprime):
        levels = range(0, k_top + 1)
        sup_means = np.tile(dec.sup_norms()[:, None], (1, len(levels)))
    else:
        levels = range(0, min(dec.grid.l_max, k_top) + 1)
        sup_means = _cube_sup_means(dec, pprime, levels)
    per_level = []
    tails = []
    divergent = False
    scale = float(sup_means.max())
    for col, l in enumerate(levels):
        ks = np.arange(l, k_top + 1)
        inner = ((1.0 + l) / (1.0 + ks)) ** b * sup_means[l:, col]
        per_level.append(float(inner.sum()))
        tail, bad = _tail_estimate(inner, scale=scale)
        tails.append(tail)
        divergent = divergent or bad
    values = np.asarray(per_level)
    unsat = _sup_unsaturated(values)
    note = "sup over l still climbing at the scan boundary" if unsat else ""
    worst_tail = max((t for t in tails if math.isfinite(t)), default=0.0)
    return TermReport(
        float(values.max()) if values.size else 0.0,
        per_level,
        math.inf if divergent else worst_tail,
        divergent or unsat,
        note,
    )


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
    dec = _dec(f, partition, dec)
    k_top = dec.k_max
    if is_inf(p):
        return pinf_term3(f, partition, b, dec=dec)
    if p < 1:
        raise InvalidInputError("suff_term3 needs p >= 1")
    levels = range(0, min(dec.grid.l_max, k_top) + 1)
    sup_means = _cube_sup_means(dec, p, levels)
    per_level = [0.0, 0.0]
    clamped = False
    for k in range(2, k_top + 1):
        j_top = min(k - 2, levels.stop - 1)
        clamped = clamped or (k - 2 > j_top)
        js = np.arange(0, j_top + 1)
        w = ((1.0 + k) / (1.0 + js)) ** b
        per_level.append(float(np.sum(w * sup_means[k, : j_top + 1])))
    values = np.asarray(per_level)
    unsat = _sup_unsaturated(values[2:])
    note = "cube levels clamped at l_max" if clamped else ""
    return TermReport(float(values.max()), per_level, 0.0, unsat, note)


def pinf_term2(
    f: SampledFunction,
    partition: DyadicPartition,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """p = infinity low-high term:

    sup_l (1+l)^b sup_{l(P)=2^-l} mean_P sum_{k>=l} (1+k)^{-b} |S_k f(y)| dy.
    """
    dec = _dec(f, partition, dec)
    grid = dec.grid
    k_top = dec.k_max
    l_top = min(grid.l_max, k_top)
    running = np.zeros(grid.shape)
    best = [0.0] * (l_top + 1)
    for k in range(k_top, -1, -1):
        running = running + (1.0 + k) ** (-b) * np.abs(dec.pieces[k].values)
        if k <= l_top:
            means = level_cube_means(grid, running, k)
            best[k] = (1.0 + k) ** b * float(means.max())
    sup_norms = dec.sup_norms()
    inner = (1.0 + np.arange(k_top + 1)) ** (-b) * sup_norms
    tail, divergent = _tail_estimate(inner, scale=float(inner.max()))
    values = np.asarray(best)
    unsat = _sup_unsaturated(values)
    return TermReport(
        float(values.max()),
        best,
        math.inf if divergent else tail,
        divergent or unsat,
        "",
    )


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
    dec = _dec(f, partition, dec)
    sup_norms = dec.sup_norms()
    ks = np.arange(len(sup_norms), dtype=np.float64)
    if b > 1:
        w = (1.0 + ks) ** b
    elif b == 1:
        w = (1.0 + ks) * np.log(1.0 + ks)
    else:
        w = 1.0 + ks
    vals = w * sup_norms
    vals[:2] = 0.0  # the sup starts at k = 2
    unsat = _sup_unsaturated(vals[2:])
    return TermReport(float(vals.max()), list(vals), 0.0, unsat, "")


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
    dec = _dec(f, partition, dec)
    if p == 1.0:
        return suff_term2(f, partition, 1.0, b, dec=dec)
    pprime = conjugate_exponent(p)
    l_top = min(dec.grid.l_max, dec.k_max)
    acc = [0.0] * (l_top + 1)  # acc[l]: per-cube k-sums over the level-l cubes
    inner_norms = [[] for _ in range(l_top + 1)]
    for k in range(dec.k_max + 1):
        table = dec.cube_table(k, pprime)
        for l in range(min(k, l_top) + 1):
            means = table.means(l) ** (1.0 / pprime)
            w = ((1.0 + l) / (1.0 + k)) ** b
            acc[l] = acc[l] + w * means
            inner_norms[l].append(w * float(means.max()))
    per_level = [float(a.max()) for a in acc]
    divergent = False
    tails = []
    scale = float(dec.sup_norms().max())
    for norms in inner_norms:
        tail, bad = _tail_estimate(np.asarray(norms), scale=scale)
        tails.append(tail)
        divergent = divergent or bad
    values = np.asarray(per_level)
    unsat = _sup_unsaturated(values)
    worst_tail = max((t for t in tails if math.isfinite(t)), default=0.0)
    return TermReport(
        float(values.max()) if values.size else 0.0,
        per_level,
        math.inf if divergent else worst_tail,
        divergent or unsat,
        "",
    )


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
    dec = _dec(f, partition, dec)
    k_top = dec.k_max
    if is_inf(p):
        sup_norms = dec.sup_norms()
        per_level = [0.0, 0.0]
        for k in range(2, k_top + 1):
            ls = np.arange(0, k - 1)
            per_level.append(float(np.sum(((1.0 + k) / (1.0 + ls)) ** b) * sup_norms[k]))
        values = np.asarray(per_level)
        return TermReport(float(values.max()), per_level, 0.0, _sup_unsaturated(values[2:]), "")
    if p < 1:
        raise InvalidInputError("nece_term3 needs p >= 1")
    levels = range(0, min(dec.grid.l_max, k_top) + 1)
    sup_means = _cube_sup_means(dec, p, levels)
    per_level = [0.0, 0.0]
    clamped = False
    for k in range(2, k_top + 1):
        j_top = min(k - 2, levels.stop - 1)
        clamped = clamped or (k - 2 > j_top)
        js = np.arange(0, j_top + 1)
        w = ((1.0 + k) / (1.0 + js)) ** (b * p)
        per_level.append(float(np.sum(w * sup_means[k, : j_top + 1] ** p)) ** (1.0 / p))
    values = np.asarray(per_level)
    note = "cube levels clamped at l_max" if clamped else ""
    return TermReport(float(values.max()), per_level, 0.0, _sup_unsaturated(values[2:]), note)


# ---------------------------------------------------------------------------
# mixed cube-sequence functional


def nece_mixed_at_level(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    l: int,
    strategy: str = "greedy",
    *,
    dec: SpectralDecomposition | None = None,
    budget: int = 2_000_000,
) -> float:
    """Level-l value of the mixed functional

        || 2^{l n/p} sum_{j>=l} ((1+l)/(1+j))^b (mean_{P_j}|S_j f|^{p'})^{1/p'} 1_{P_j} ||_{L^p}

    optimized over the cube sequence {P_j}.  The L^p norm uses the exact
    dyadic volumes, so 2^{ln/p} and |P_j|^{1/p} cancel.  'greedy' assigns
    each j its own best cube (a valid lower bound); 'exhaustive' scans all
    assignments (1D, l <= 3, bounded budget).
    """
    if p < 1:
        raise InvalidInputError("nece_mixed needs p in [1, inf]")
    dec = _dec(f, partition, dec)
    grid = dec.grid
    k_top = dec.k_max
    if l > min(grid.l_max, k_top):
        raise InvalidInputError(f"level {l} beyond the cube guard")
    if p == 1.0 or is_inf(p):
        # Indicator weights integrate out (p=1) / the best chain stacks on one
        # cube (p=inf): both reduce to the sup-of-sums term at this level.
        rep = nece_term2(f, partition, p, b, dec=dec)
        return rep.per_level[l]
    pprime = conjugate_exponent(p)
    js = list(range(l, k_top + 1))
    mat = np.asarray([
        ((1.0 + l) / (1.0 + j)) ** b * (dec.cube_table(j, pprime).means(l) ** (1.0 / pprime)).ravel()
        for j in js
    ])  # shape (len(js), n_cubes)
    n_cubes = mat.shape[1]
    if strategy == "greedy":
        # Cubes within _TIE of a row's best tie (mirror cubes agree only to
        # rounding); the tie goes to the cube already carrying the largest
        # load (again within _TIE), then to the lowest index.  A NaN row ties
        # everywhere and so reaches the result.
        loads = np.zeros(n_cubes)
        for row in mat:
            ties = np.flatnonzero(~(row < (1.0 - _TIE) * row.max()))
            tied = loads[ties]
            q = ties[np.flatnonzero(~(tied < (1.0 - _TIE) * tied.max()))[0]]
            loads[q] += row[q]
        return float(np.sum(loads**p) ** (1.0 / p))
    if strategy == "exhaustive":
        if grid.dim != 1 or l > 3:
            raise CapabilityError("exhaustive mixed search only for 1D and l <= 3")
        n = len(js)
        if n > 14 or (1 << n) * n_cubes > budget:
            raise CapabilityError(
                f"exhaustive search over {n} levels x {n_cubes} cubes exceeds the budget"
            )
        # Exact optimum over all cube sequences.  Grouping the j's sharing a
        # cube turns the search into a set-partition problem: maximize
        # sum over groups of (best cube load of the group)^p.  Superadditivity
        # of x^p (p >= 1) lets groups ignore cube-distinctness, so a subset DP
        # over the j-index set is exact and O(3^n).
        full = 1 << n
        loads = np.zeros((full, n_cubes))
        low_j = [0] * full
        for t in range(1, full):
            low = t & -t
            low_j[t] = low.bit_length() - 1
            loads[t] = loads[t ^ low] + mat[low_j[t]]
        group_gain = loads.max(axis=1) ** p
        f_best = np.zeros(full)
        for s_mask in range(1, full):
            lead = s_mask & -s_mask
            best = 0.0
            sub = s_mask
            while sub:
                if sub & lead:
                    cand = group_gain[sub] + f_best[s_mask ^ sub]
                    if cand > best:
                        best = cand
                sub = (sub - 1) & s_mask
            f_best[s_mask] = best
        return float(f_best[full - 1] ** (1.0 / p))
    raise InvalidInputError(f"unknown strategy {strategy!r}")


def nece_mixed(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    strategy: str = "greedy",
    *,
    dec: SpectralDecomposition | None = None,
) -> float:
    """sup over l of the mixed cube-sequence functional (see nece_mixed_at_level)."""
    dec = _dec(f, partition, dec)
    l_top = min(dec.grid.l_max, dec.k_max)
    if strategy == "exhaustive":
        l_top = min(l_top, 3)
    return max(
        nece_mixed_at_level(f, partition, p, b, l, strategy, dec=dec)
        for l in range(l_top + 1)
    )


# ---------------------------------------------------------------------------
# ball-average criterion and the refined high-low bound


def netrusov(
    f: SampledFunction,
    partition: DyadicPartition,
    s: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """Ball-average criterion for positive smoothness s in (0, n):

    sup_i 2^{is} sum_{l<=i} 2^{-ls} sup_x mean_{x + [-2^-l, 2^-l]^n} |S_i f|,
    balls replaced by cubes of comparable side, centers unconstrained.
    """
    grid = f.grid
    if not (0.0 < s < grid.dim):
        raise InvalidInputError(f"s must lie in (0, {grid.dim}), got {s}")
    dec = _dec(f, partition, dec)
    per_level = []
    for i in range(dec.k_max + 1):
        a = np.abs(dec.pieces[i].values)
        total = 0.0
        for l in range(0, i + 1):
            total += 2.0 ** (-l * s) * sliding_window_mean_max(a, grid, 2.0**-l)
        per_level.append(2.0 ** (i * s) * total)
    values = np.asarray(per_level)
    return TermReport(float(values.max()), per_level, 0.0, _sup_unsaturated(values), "")


def pi3_log_bound(
    f: SampledFunction,
    partition: DyadicPartition,
    p: float,
    b: float,
    *,
    dec: SpectralDecomposition | None = None,
) -> TermReport:
    """Refined high-low coefficient bound for p in (1, inf):

    sup_j (1+j)^e [ln(1+j)]^c ||S_j f||_inf with e = max(b, 1/2) and the log
    correction only at b = 1/2 (p >= 2), resp. e = max(b, 1/p), correction at
    b = 1/p (p <= 2).
    """
    if p <= 1 or is_inf(p):
        raise CapabilityError("pi3_log_bound covers p in (1, inf) only")
    crit = 0.5 if p >= 2 else 1.0 / p
    expo = b if b >= crit else crit
    log_pow = crit if b == crit else 0.0
    dec = _dec(f, partition, dec)
    sup_norms = dec.sup_norms()
    ks = np.arange(len(sup_norms), dtype=np.float64)
    w = (1.0 + ks) ** expo * np.log(1.0 + ks) ** log_pow
    vals = w * sup_norms
    vals[0] = 0.0  # the sup runs over j >= 1
    return TermReport(float(vals.max()), list(vals), 0.0, _sup_unsaturated(vals[1:]), "")


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
    """
    dec = _dec(f, partition, dec)
    linf = lp_norm(f, INF)
    if p == 1.0:
        t2 = suff_term2(f, partition, 1.0, b, dec=dec)
        t3 = suff_term3(f, partition, 1.0, b, dec=dec)
        state = "NOT_MULTIPLIER" if (t2.divergent or t3.divergent) else "MULTIPLIER"
        combined = linf + t2.value + t3.value
        return CriterionReport(p, b, linf, t2, t3, combined, _invalid_if_nonfinite(state, combined))
    if is_inf(p):
        t2 = pinf_term2(f, partition, b, dec=dec)
        t3 = pinf_term3(f, partition, b, dec=dec)
        state = "NOT_MULTIPLIER" if (t2.divergent or t3.divergent) else "MULTIPLIER"
        combined = linf + t2.value + t3.value
        return CriterionReport(p, b, linf, t2, t3, combined, _invalid_if_nonfinite(state, combined))
    if p < 1:
        raise InvalidInputError("verdict needs p in [1, inf]")
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
