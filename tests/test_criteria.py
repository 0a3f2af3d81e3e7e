import json
import math

import numpy as np
import pytest

from logbesov.criteria import (
    nece_term2,
    nece_term3,
    pinf_term2,
    pinf_term3,
    suff_term2,
    suff_term3,
    verdict,
)
from logbesov.errors import InvalidInputError
from logbesov.experiments import ExperimentConfig, _exact_exponential, run_exp_growth
from logbesov.gallery import gallery_from_spec, make_exponential, make_indicator
import logbesov.criteria as criteria
import logbesov.cubes as cubes
import logbesov.partition as partition_mod
from logbesov.cubes import CubeMeanTable
from logbesov.grid import INF, GridSpec, lp_norm, make_constant, random_band_limited, synthesize
from logbesov.norms import _weight, tl_norm_inf
from logbesov.partition import SpectralDecomposition, _box_top, build_partition, decompose

from lattice_oracle import spectrum


# --- sufficiency terms -----------------------------------------------------


def test_suff_term2_exponential(part12):
    g = part12.grid
    m = 7
    f = make_exponential(g, (1 << m,))
    for b in (0.0, 0.5, 2.0):
        rep = suff_term2(f, part12, 1.0, b)
        assert rep.value == pytest.approx(1.0, rel=1e-10)
    for b in (-0.5, -2.0):
        rep = suff_term2(f, part12, 1.0, b)
        assert rep.value == pytest.approx((1.0 + m) ** (-b), rel=1e-10)


def test_suff_term2_constant(part12):
    one = make_constant(part12.grid)
    rep = suff_term2(one, part12, 1.0, 0.7)
    assert rep.value == pytest.approx(1.0, rel=1e-10)
    assert not rep.divergent


def test_suff_term2_indicator_divergent(part12):
    f = make_indicator(part12.grid, "cube")
    rep = suff_term2(f, part12, 1.0, 0.0)
    assert rep.divergent


def test_suff_term3_exponential_sums(part12):
    g = part12.grid
    m = 8
    f = make_exponential(g, (1 << m,))
    for b in (0.0, 1.0, 2.0):
        rep = suff_term3(f, part12, 1.0, b)
        expect = sum(((1.0 + m) / (1.0 + j)) ** b for j in range(m - 1))
        assert rep.value == pytest.approx(expect, rel=1e-10)
    # m in {0, 1}: empty sum
    for m_small in (0, 1):
        f = make_exponential(g, (1 << m_small,))
        assert suff_term3(f, part12, 1.0, 1.0).value == pytest.approx(0.0, abs=1e-10)
    one = make_constant(g)
    assert suff_term3(one, part12, 1.0, 1.0).value == pytest.approx(0.0, abs=1e-10)


# --- p = infinity terms -------------------------------------------------------


def test_pinf_term2_exponential(part12):
    g = part12.grid
    m = 6  # within the cube-guard range so the sup over l reaches l = m
    f = make_exponential(g, (1 << m,))
    assert pinf_term2(f, part12, 0.5).value == pytest.approx(1.0, rel=1e-10)
    assert pinf_term2(f, part12, -1.0).value == pytest.approx(1.0 + m, rel=1e-10)
    one = make_constant(g)
    assert pinf_term2(one, part12, 0.7).value == pytest.approx(1.0, rel=1e-10)


def test_low_high_sup_at_the_cube_clamp_is_noted(part12):
    """At b = 1 the level-l value of e^{i 2^m x} is (1+l)/(1+m) up to l = m,
    so for m = 7 > l_max = 6 the sup, 0.875, sits at the last cube level:
    the low-high terms say the levels were clamped.  For m = 3 it sits at
    l = 3, inside the scan, with no such note."""
    g = part12.grid
    assert g.l_max == 6
    clamped = "cube levels clamped at l_max"
    high = make_exponential(g, (1 << 7,))
    rep = pinf_term2(high, part12, 1.0)
    assert rep.value == pytest.approx(0.875, rel=1e-12)
    assert int(np.argmax(rep.per_level)) == g.l_max and clamped in rep.note
    assert clamped in nece_term2(high, part12, 2.0, 1.0).note
    low = make_exponential(g, (1 << 3,))
    for rep in (pinf_term2(low, part12, 1.0), nece_term2(low, part12, 2.0, 1.0), suff_term2(low, part12, 2.0, 1.0)):
        assert clamped not in rep.note


def test_pinf_term2_b0_matches_tl(part10, rng):
    """At b = 0 the low-high term is the F^0_{inf,1} functional."""
    g = part10.grid
    coeffs = (g.freq_radius() >= 4) & (g.freq_radius() <= 2.0 ** (part10.k_max - 1))
    for trial in range(5):
        local = np.random.default_rng(40 + trial)
        f = random_band_limited(g, 2.0 ** (part10.k_max - 1), local)
        c = spectrum(f)
        f = synthesize(g, np.where(coeffs, c, 0.0))
        a = pinf_term2(f, part10, 0.0).value
        b = tl_norm_inf(f, part10, 0.0, 0.0, 1.0).value
        assert a == pytest.approx(b, rel=1e-10)


def test_pinf_cross_identity_b0(part10, rng):
    """b=0: pinf_term2 + pinf_term3 = ||f||_{F^0_{inf,1}} + ||f||_{B^{0,1}_{inf,inf}}
    on fields with no content below level 2."""
    g = part10.grid
    keep = (g.freq_radius() >= 4) & (g.freq_radius() <= 2.0 ** (part10.k_max - 1))
    f = random_band_limited(g, 2.0 ** (part10.k_max - 1), rng)
    f = synthesize(g, np.where(keep, spectrum(f), 0.0))
    dec = decompose(f, part10)
    lhs = pinf_term2(f, part10, 0.0, dec=dec).value + pinf_term3(f, part10, 0.0, dec=dec).value
    sups = dec.sup_norms()
    besov01 = max((1.0 + k) * sups[k] for k in range(part10.k_max + 1))
    rhs = tl_norm_inf(f, part10, 0.0, 0.0, 1.0, dec=dec).value + besov01
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_pinf_term3_branches(part12):
    g = part12.grid
    m = 7
    f = make_exponential(g, (1 << m,))
    assert pinf_term3(f, part12, 2.0).value == pytest.approx((1.0 + m) ** 2, rel=1e-10)
    assert pinf_term3(f, part12, 1.0).value == pytest.approx(
        (1.0 + m) * math.log(1.0 + m), rel=1e-10
    )
    assert pinf_term3(f, part12, 0.0).value == pytest.approx(1.0 + m, rel=1e-10)


# --- necessity terms ------------------------------------------------------------


def test_nece_term2_exponential_matches_suff(part12):
    g = part12.grid
    f = make_exponential(g, (1 << 6,))
    for p in (1.0, 2.0, 4.0):
        a = nece_term2(f, part12, p, 0.5).value
        b = suff_term2(f, part12, p, 0.5).value
        assert a == pytest.approx(b, rel=1e-10)


def test_nece_leq_suff_randomized(part10):
    """Ordering invariants: sup-of-sums <= sum-of-sups, l^p <= l^1."""
    g = part10.grid
    for trial in range(12):
        local = np.random.default_rng(100 + trial)
        f = random_band_limited(g, 2.0 ** (part10.k_max - 1), local)
        p = [1.0, 1.5, 2.0, 4.0][trial % 4]
        b = [-1.0, 0.0, 1.0][trial % 3]
        dec = decompose(f, part10)
        assert (
            nece_term2(f, part10, p, b, dec=dec).value
            <= suff_term2(f, part10, p, b, dec=dec).value * (1 + 1e-12)
        )
        if not math.isinf(p):
            assert (
                nece_term3(f, part10, p, b, dec=dec).value
                <= suff_term3(f, part10, p, b, dec=dec).value * (1 + 1e-12)
            )


def test_nece_term3_exponential_counts(part12):
    g = part12.grid
    m = 7
    f = make_exponential(g, (1 << m,))
    assert nece_term3(f, part12, 1.0, 0.0).value == pytest.approx(m - 1.0, rel=1e-10)
    assert nece_term3(f, part12, 2.0, 0.0).value == pytest.approx(
        math.sqrt(m - 1.0), rel=1e-10
    )
    one = make_constant(g)
    assert nece_term3(one, part12, 2.0, 0.0).value == pytest.approx(0.0, abs=1e-10)


# --- verdicts -------------------------------------------------------------------------


def test_verdict_exponential_p1(part12):
    m = 5
    f = make_exponential(part12.grid, (1 << m,))
    rep = verdict(f, part12, 1.0, 0.0)
    assert rep.verdict == "MULTIPLIER"
    assert rep.combined == pytest.approx(2.0 + (m - 1.0), rel=1e-10)  # ~ 1+m
    d = rep.to_dict()
    assert d["verdict"] == "MULTIPLIER"
    assert d["terms"]["combined"] == pytest.approx(rep.combined)


def test_verdict_indicator_not_multiplier(part12):
    f = make_indicator(part12.grid, "cube")
    for b in (0.0, -1.0, 0.5):
        rep = verdict(f, part12, 1.0, b)
        assert rep.verdict == "NOT_MULTIPLIER"
    for b in (0.0, 2.0):
        rep = verdict(f, part12, INF, b)
        assert rep.verdict == "NOT_MULTIPLIER"


def test_verdict_halfspace_p2_brackets_only(part12):
    f = make_indicator(part12.grid, "halfspace")
    rep = verdict(f, part12, 2.0, 0.0)
    assert rep.verdict in ("BRACKET", "UNDECIDED")  # must NOT claim NOT
    assert rep.bracket is not None
    lo, hi = rep.bracket
    assert 0 < lo <= hi


def test_verdict_2d_cube_finite_bracket():
    """At 2D J=10 the cube indicator's cube means of |S_k f|^2 are tiny; they
    must stay nonnegative so the necessity side of the bracket stays finite."""
    g = GridSpec(2, 10)
    rep = verdict(make_indicator(g, "cube"), build_partition(g), 2.0, 0.5)
    lo, hi = rep.bracket
    assert math.isfinite(lo) and math.isfinite(hi)
    assert 0 <= lo <= hi


@pytest.mark.parametrize(
    "p, term", [(1.0, "suff_term2"), (INF, "pinf_term3"), (2.0, "suff_term3"), (2.0, "nece_term2")]
)
def test_verdict_invalid_on_nonfinite_term(part10, monkeypatch, p, term):
    real = getattr(criteria, term)

    def nan_term(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.value = math.nan
        return rep

    monkeypatch.setattr(criteria, term, nan_term)
    rep = verdict(make_indicator(part10.grid, "cube"), part10, p, 0.5)
    assert rep.verdict == "INVALID"


def test_nonfinite_piece_noted_by_every_term(part10):
    """A NaN piece reaches every term's per_level; each note flags it and
    every verdict is INVALID.  The one NaN coefficient lies in the top
    level's box only, so S_K_max f is the one non-finite piece."""
    g = part10.grid
    f = make_indicator(g, "cube")
    coeffs = decompose(f, part10).coeffs.copy()
    m = _box_top(part10.k_max - 1) + 1  # outside every lower level's box
    assert m <= _box_top(part10.k_max) and m < coeffs.shape[-1]
    coeffs[m] = np.nan
    dec = SpectralDecomposition(part10, coeffs)
    finite = [bool(np.isfinite(dec._piece(k)).all()) for k in range(part10.k_max + 1)]
    assert finite == [True] * part10.k_max + [False]
    reports = [
        suff_term2(f, part10, 1.0, 0.5, dec=dec),
        suff_term2(f, part10, 2.0, 0.5, dec=dec),
        pinf_term2(f, part10, 0.5, dec=dec),
        pinf_term3(f, part10, 0.5, dec=dec),
    ]
    for p in (2.0, INF):
        for term in (suff_term3, nece_term2, nece_term3):
            reports.append(term(f, part10, p, 0.5, dec=dec))
    for rep in reports:
        assert "non-finite per-level value" in rep.note
    for p in (1.0, 2.0, INF):
        assert verdict(f, part10, p, 0.5, dec=dec).verdict == "INVALID"


@pytest.mark.parametrize("p, b", [(2.0, math.nan), (1.0, INF), (INF, -INF), (0.5, 0.0), (math.nan, 0.0)])
def test_verdict_rejects_bad_parameters_before_decomposing(part10, monkeypatch, p, b):
    monkeypatch.setattr(criteria, "_ensure_decomposition", lambda *a: pytest.fail("decomposed"))
    with pytest.raises(InvalidInputError):
        verdict(make_indicator(part10.grid, "cube"), part10, p, b)


def test_verdict_infinite_tail_is_not_invalid(part10):
    rep = verdict(make_indicator(part10.grid, "cube"), part10, 1.0, 0.0)
    assert math.isinf(rep.term2.tail)
    assert rep.verdict == "NOT_MULTIPLIER"


def test_verdict_p2_builds_one_table_per_piece(part10, monkeypatch):
    """The first verdict builds one table per level whose piece is not zero
    and, for the zero levels (level 1 of the halfspace at J=10), the grid's
    shared zero table of each top level once; the second verdict builds
    none."""
    builds = []
    real = CubeMeanTable.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CubeMeanTable, "__init__", counting)
    monkeypatch.setattr(cubes, "_ZERO_TABLES", {})
    f = make_indicator(part10.grid, "halfspace")
    dec = decompose(f, part10)
    zero = [k for k, u in enumerate(dec.pieces) if not u.values.any()]
    assert zero == [1]
    expected = part10.k_max + 1 - len(zero) + len({min(k, part10.grid.l_max) for k in zero})
    verdict(f, part10, 2.0, 0.5, dec=dec)
    assert len(builds) == expected
    verdict(f, part10, 2.0, 1.0, dec=dec)
    assert len(builds) == expected


def test_terms_on_shared_dec_match_fresh(part10):
    f = make_indicator(part10.grid, "cube")
    shared = decompose(f, part10)
    for p in (2.0, 4.0):
        for fn in (suff_term2, suff_term3, nece_term2, nece_term3):
            assert fn(f, part10, p, 0.5, dec=shared).to_dict() == fn(f, part10, p, 0.5).to_dict()
    assert verdict(f, part10, 2.0, 0.5, dec=shared).to_dict() == verdict(f, part10, 2.0, 0.5).to_dict()


def test_verdict_smooth_multiplier_pinf(part12):
    from logbesov.experiments import mollify

    f = mollify(make_indicator(part12.grid, "cube"), 2.0**-4)
    rep = verdict(f, part12, INF, 0.5)
    assert rep.verdict == "MULTIPLIER"


def test_verdict_scaling_homogeneous(part12, rng):
    f = random_band_limited(part12.grid, 100, rng)
    r1 = verdict(f, part12, 2.0, 0.5)
    r2 = verdict(2.0 * f, part12, 2.0, 0.5)
    assert r2.combined == pytest.approx(2 * r1.combined, rel=1e-10)
    assert r2.term2.value == pytest.approx(2 * r1.term2.value, rel=1e-10)
    assert r2.term3.value == pytest.approx(2 * r1.term3.value, rel=1e-10)


def test_functionals_homogeneous(part10, rng):
    f = random_band_limited(part10.grid, 60, rng)
    base = pinf_term2(f, part10, 0.5).value
    scaled = pinf_term2(3.0 * f, part10, 0.5).value
    assert scaled == pytest.approx(3 * base, rel=1e-10)


def test_criteria_2d_smoke():
    g = GridSpec(2, 9)
    part = build_partition(g)
    f = random_band_limited(g, 2.0 ** (part.k_max - 1), np.random.default_rng(77))
    dec = decompose(f, part)
    for p, b in ((2.0, 0.5), (1.0, 0.0)):
        n2 = nece_term2(f, part, p, b, dec=dec).value
        s2 = suff_term2(f, part, p, b, dec=dec).value
        assert 0 < n2 <= s2 * (1 + 1e-12)
        if p != 1.0:
            n3 = nece_term3(f, part, p, b, dec=dec).value
            s3 = suff_term3(f, part, p, b, dec=dec).value
            assert 0 <= n3 <= s3 * (1 + 1e-12)
    rep = verdict(make_indicator(g, "cube"), part, 1.0, 0.0)
    assert rep.verdict == "NOT_MULTIPLIER"


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 8)])
@pytest.mark.parametrize("spec", ["cube", "stack", "halfspace", "exact-exp"])
def test_one_decomposition_read_at_every_b_and_p_matches_fresh_verdicts(dim, J, spec):
    """The cube-mean stacks do not depend on b: one decomposition read at
    the six default b and at p in {1, 2, inf}, in turn, reports what a fresh
    verdict reports for each (b, p).  The inputs are real (`cube`),
    complex (`stack`) and with zero levels (the 1D J=10 halfspace, level 1,
    and an exponential carrying its exact spectrum, every level but one)."""
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    tail = (0,) * (dim - 1)
    f = _exact_exponential(grid, (1 << 3,) + tail) if spec == "exact-exp" else gallery_from_spec(grid, spec)
    dec = decompose(f, part)
    for b in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
        for p in (1.0, 2.0, INF):
            shared = verdict(f, part, p, b, dec=dec).to_dict()
            fresh = verdict(f, part, p, b).to_dict()
            assert json.dumps(shared, sort_keys=True) == json.dumps(fresh, sort_keys=True), (b, p)


def test_verdict_reads_the_sup_of_f_once_per_decomposition(part10, monkeypatch):
    """Every verdict that reads one decomposition for its own function
    shares one read of ||f||_inf, and a runner row reads it once for all
    its (b, p); a decomposition read for another function reports that
    function's own ||.||_inf."""
    reads = []

    def counting(f, p):
        reads.append((f, p))
        return lp_norm(f, p)

    monkeypatch.setattr(partition_mod, "lp_norm", counting)
    f = make_indicator(part10.grid, "cube")
    dec = decompose(f, part10)
    for b in (0.0, 0.5, 2.0):
        for p in (1.0, 2.0, INF):
            assert verdict(f, part10, p, b, dec=dec).term_linf == lp_norm(f, INF)
    assert reads == [(f, INF)]
    g = 3.0 * make_indicator(part10.grid, "halfspace")
    assert verdict(g, part10, 2.0, 0.5, dec=dec).term_linf == lp_norm(g, INF) == 3.0
    assert verdict(f, part10, 2.0, 0.5, dec=dec).term_linf == lp_norm(f, INF) == 1.0
    reads.clear()
    config = ExperimentConfig(log2_samples=10, p_list=(1.0, INF), m_range=(3, 6))
    run_exp_growth(config)
    assert len(reads) == 4 and all(p == INF for _, p in reads)


def _loop_low_high(dec, r, b, per_cube):
    """The low-high reducer as per-(k, l) loops over each piece's cube table,
    accumulating in ascending k."""
    k_top = dec.k_max
    l_top = k_top if r == INF else min(dec.grid.l_max, k_top)
    sups, sums = [[] for _ in range(l_top + 1)], [0.0] * (l_top + 1)
    for k in range(k_top + 1):
        for l in range(min(k, l_top) + 1):
            means = dec.sup_norms()[k] if r == INF else dec.cube_table(k, r).means(l) ** (1.0 / r)
            row = np.power((1.0 + l) / (1.0 + k), b) * means
            if per_cube:
                sums[l] = sums[l] + row
            sups[l].append(row.max())
    return ([float(s.max()) for s in sums] if per_cube else [float(np.sum(s)) for s in sups]), sups


def _loop_high_low(dec, r, b, q):
    """The high-low reducer at a finite r as a loop over k, reading each cube
    level's means off the piece's table."""
    j_cap = min(dec.grid.l_max, dec.k_max)
    per_level = [0.0, 0.0]
    for k in range(2, dec.k_max + 1):
        n = min(k - 2, j_cap) + 1
        x = np.array([dec.cube_table(k, r).means(j).max() for j in range(n)]) ** (1.0 / r)
        w = ((1.0 + k) / (1.0 + np.arange(n))) ** (b * q)
        per_level.append(float(np.sum(w * x**q)) ** (1.0 / q))
    return per_level


def _loop_tl(dec, b, q):
    """tl_norm_inf's finite-q levels: the weighted cube means summed in
    descending k, one table at a time."""
    weights = [_weight(k, 0.0, b, power=q) for k in range(dec.k_max + 1)]
    levels = range(min(dec.k_max, dec.grid.l_max) + 1)
    sums = [sum(weights[k] * dec.cube_table(k, q).means(l) for k in range(dec.k_max, -1, -1) if k >= l) for l in levels]
    return [float(total.max()) ** (1.0 / q) for total in sums]


@pytest.mark.parametrize("dim, J, spec", [(1, 10, "cube"), (1, 10, "exact-exp"), (2, 8, "stack"), (2, 8, "exact-exp")])
def test_reducers_are_the_per_level_loops_bit_for_bit(dim, J, spec):
    """Each criterion reducer and tl_norm_inf's finite-q levels, read as one
    weight vector times a stack of cube means, give the bits of the loops
    over every (k, l) that read each piece's table; a zero piece, which has
    no stack row, adds what its zero table would."""
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    tail = (0,) * (dim - 1)
    f = _exact_exponential(grid, (1 << 4,) + tail) if spec == "exact-exp" else gallery_from_spec(grid, spec)
    dec = decompose(f, part)
    for b in (-2.0, 0.0, 0.5, 1.0, 2.0):
        for r, per_cube in ((INF, False), (1.0, False), (1.0, True), (2.0, False), (2.0, True), (1.5, True)):
            per_level, sups = criteria._low_high_levels(dec, r, b, per_cube)
            want, want_sups = _loop_low_high(dec, r, b, per_cube)
            assert per_level == want
            assert [s.tolist() for s in sups] == [[float(x) for x in s] for s in want_sups]
        for r, q in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 3.0)):
            assert criteria._high_low(dec, r, b, q).per_level == _loop_high_low(dec, r, b, q)
        for q in (1.0, 2.0):
            assert tl_norm_inf(f, part, 0.0, b, q, dec=dec).per_level == _loop_tl(dec, b, q)
