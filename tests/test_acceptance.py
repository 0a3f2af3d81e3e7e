"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing the stated tolerance and runtime budget.

Criterion 3's decay branch and criterion 4's b=0.5 exponent row are known
red: the measured values below are the mathematically exact ones for the
constructed objects, and the stated tolerances cannot hold for them at desk
scale (see "Known red criteria" in the README).  They are asserted at full
strength anyway.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from logbesov.criteria import nece_term2, nece_term3, suff_term2, suff_term3
from logbesov.experiments import ExperimentConfig, run_charfun, run_exp_growth
from logbesov.gallery import BumpSpec, make_bump, make_exponential
from logbesov.grid import GridSpec, band_energy_fraction as summand_band_energy, lp_norm, random_band_limited
from logbesov.norms import BesovParams, besov_norm, dini_norm, modulus
from logbesov.paraproducts import pi2_summand, product_report
from logbesov.partition import build_partition, decompose

INF = math.inf


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


@pytest.fixture(scope="module")
def desk():
    grid = GridSpec(1, 14)
    return grid, build_partition(grid)


def test_criterion_01_partition_exactness():
    t0 = time.monotonic()
    grid = GridSpec(1, 14)
    part = build_partition(grid)
    worst_tel = 0.0
    acc = np.zeros(grid.shape)
    for k in range(part.k_max + 1):
        acc = acc + part.symbol(k)
        worst_tel = max(worst_tel, float(np.abs(acc - part.cumulative_symbol(k)).max()))
    rho = grid.freq_radius()
    worst_leak = 0.0
    for k in range(1, part.k_max + 1):
        outside = (rho < 2.0 ** (k - 1)) | (rho > 3.0 * 2.0 ** (k - 1))
        worst_leak = max(worst_leak, float(np.abs(part.symbol(k)[outside]).max(initial=0.0)))
    elapsed = time.monotonic() - t0
    ok = worst_tel <= 1e-12 and worst_leak < 1e-10 and elapsed < 1.0
    _report(1, ok, f"telescoping {worst_tel:.2e}, leakage {worst_leak:.2e}, {elapsed:.2f}s")
    assert worst_tel <= 1e-12
    assert worst_leak < 1e-10
    assert elapsed < 1.0


def test_criterion_02_delta_selection(desk):
    grid, part = desk
    t0 = time.monotonic()
    worst = 0.0
    for m in range(2, part.k_max):
        f = make_exponential(grid, (1 << m,))
        for j, piece in enumerate(decompose(f, part).pieces):
            target = f.values if j == m else 0.0
            worst = max(worst, float(np.abs(piece.values - target).max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(2, ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_03_bump_decay_rates(desk):
    grid, part = desk
    t0 = time.monotonic()
    l = 9
    h = make_bump(grid, BumpSpec(l, (0.0,)))
    dec = decompose(h, part)
    failures = []
    details = []
    for p, below_target in ((1.0, 1.0), (2.0, 1.5), (INF, 2.0)):
        norms = np.array([lp_norm(piece, p) for piece in dec.pieces])
        js_below = np.arange(2, l)
        below = float(np.polyfit(js_below, np.log2(norms[js_below]), 1)[0])
        js_above = np.arange(l, part.k_max + 1)
        above = float(np.polyfit(js_above, np.log2(norms[js_above]), 1)[0])
        details.append(f"p={p:g}: +{below:.2f}/{above:.2f}")
        if abs(below - below_target) > 0.15:
            failures.append(f"growth branch p={p:g}: {below:.3f} vs {below_target}")
        if abs(above + 1.0) > 0.15:
            failures.append(f"decay branch p={p:g}: {above:.3f} vs -1")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    _report(3, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 30.0
    assert not failures, (
        "bump decay-rate fits outside +-0.15: " + "; ".join(failures)
        + " (structural at desk scale; see 'Known red criteria' in the README)"
    )


def test_criterion_04_exp_growth_p1():
    t0 = time.monotonic()
    config = ExperimentConfig(
        log2_samples=14, b_list=(-2.0, -1.0, 0.0, 0.5, 1.0, 2.0),
        p_list=(1.0,), m_range=(3, 10),
    )
    table = run_exp_growth(config)
    elapsed = time.monotonic() - t0
    bad = [c.label for c in table.checks if not c.passed]
    ok = not bad and elapsed < 120.0
    _report(4, ok, f"{len(table.checks)} checks, failing: {bad or 'none'}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert not bad, (
        "p=1 growth rows failing: " + "; ".join(bad)
        + " (the b=0.5 exponent drift is exact; see 'Known red criteria' in the README)"
    )


def test_criterion_05_exp_growth_pinf():
    t0 = time.monotonic()
    config = ExperimentConfig(
        log2_samples=14, b_list=(-2.0, -1.0, 0.0, 0.5, 1.0, 2.0),
        p_list=(INF,), m_range=(3, 10),
    )
    table = run_exp_growth(config)
    elapsed = time.monotonic() - t0
    bad = [c.label for c in table.checks if not c.passed]
    ok = not bad and elapsed < 120.0
    _report(5, ok, f"{len(table.checks)} checks, failing: {bad or 'none'}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert not bad


def test_criterion_06_lower_bound_family_p4():
    t0 = time.monotonic()
    config = ExperimentConfig(
        log2_samples=14, b_list=(0.0, 2.0, -1.0), p_list=(4.0,), m_range=(5, 10),
    )
    table = run_exp_growth(config)
    elapsed = time.monotonic() - t0
    bad = [c.label for c in table.checks if not c.passed]
    ok = not bad and elapsed < 180.0
    _report(6, ok, f"{len(table.checks)} checks, failing: {bad or 'none'}, {elapsed:.1f}s")
    assert elapsed < 180.0
    assert not bad


def test_criterion_07_characteristic_functions():
    t0 = time.monotonic()
    table = run_charfun(ExperimentConfig(log2_samples=14, shape="cube"))
    elapsed = time.monotonic() - t0
    bad = [c.label for c in table.checks if not c.passed]
    ok = not bad and elapsed < 30.0
    _report(7, ok, f"checks: {[c.label for c in table.checks]}, failing: {bad or 'none'}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert not bad


def test_criterion_08_ordering_invariants():
    t0 = time.monotonic()
    grid = GridSpec(1, 10)
    part = build_partition(grid)
    violations = 0
    for trial in range(50):
        rng = np.random.default_rng(10_000 + trial)
        f = random_band_limited(grid, 2.0 ** (part.k_max - 1), rng)
        p = [1.0, 1.5, 2.0, 4.0][trial % 4]
        b = [-1.0, 0.0, 1.0][trial % 3]
        dec = decompose(f, part)
        n2 = nece_term2(f, part, p, b, dec=dec).value
        s2 = suff_term2(f, part, p, b, dec=dec).value
        n3 = nece_term3(f, part, p, b, dec=dec).value
        s3 = suff_term3(f, part, p, b, dec=dec).value
        if n2 > s2 * (1 + 1e-12) or n3 > s3 * (1 + 1e-12):
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(8, ok, f"{violations} violations over 50 fields, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_09_paraproduct_completeness():
    t0 = time.monotonic()
    grid = GridSpec(1, 12)
    part = build_partition(grid)
    band = 2.0 ** (part.k_max - 3)
    worst_res = 0.0
    worst_env = 0.0
    for trial in range(20):
        rng = np.random.default_rng(20_000 + trial)
        f = random_band_limited(grid, band, rng)
        g = random_band_limited(grid, band, rng)
        rep = product_report(f, g, part)
        worst_res = max(worst_res, rep.residual)
        dec_f = decompose(f, part)
        dec_g = decompose(g, part)
        for k in range(part.k_max + 1):
            s = pi2_summand(f, g, part, k, dec_f=dec_f, dec_g=dec_g)
            if lp_norm(s, 2.0) > 0:
                worst_env = max(worst_env, summand_band_energy(s, 0.0, 5.0 * 2.0**k))
    elapsed = time.monotonic() - t0
    ok = worst_res < 1e-8 and worst_env < 1e-10 and elapsed < 60.0
    _report(9, ok, f"residual {worst_res:.2e}, envelope leakage {worst_env:.2e}, {elapsed:.1f}s")
    assert worst_res < 1e-8
    assert worst_env < 1e-10
    assert elapsed < 60.0


def _oracle_besov(grid, values, s, b, p, q, k_max):
    """From-scratch evaluation of the dyadic-norm definition (no shared code
    with the package: explicit transition formula, raw FFTs, direct sums)."""
    n = grid.n_samples
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    rho = np.abs(freqs)

    def gen(r):
        r = np.asarray(r, dtype=float)
        num = np.where(3.0 - 2.0 * r > 0, np.exp(-1.0 / np.maximum(3.0 - 2.0 * r, 1e-300)), 0.0)
        den = num + np.where(
            2.0 * r - 2.0 > 0, np.exp(-1.0 / np.maximum(2.0 * r - 2.0, 1e-300)), 0.0
        )
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    raw = np.fft.fft(values)
    terms = []
    dx = 2.0 * math.pi / n
    for k in range(k_max + 1):
        sym = gen(rho / 2.0**k) - (gen(rho / 2.0 ** (k - 1)) if k >= 1 else 0.0)
        piece = np.fft.ifft(sym * raw)
        a = np.abs(piece)
        if math.isinf(p):
            norm = a.max()
        else:
            norm = (np.sum(a**p) * dx) ** (1.0 / p)
        terms.append(2.0 ** (k * s) * (1.0 + k) ** b * norm)
    if math.isinf(q):
        return max(terms)
    return sum(t**q for t in terms) ** (1.0 / q)


def test_criterion_10_norm_oracle_equivalence():
    t0 = time.monotonic()
    grid = GridSpec(1, 10)
    part = build_partition(grid)
    ps = [1.0, 2.0, INF]
    qs = [INF, 1.0, 2.0]
    ss = [-1.0, 0.0, 1.0]
    bs = [1.0, -1.0, 0.0]
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(30_000 + trial)
        f = random_band_limited(grid, 2.0 ** (part.k_max - 1), rng)
        p, q = ps[trial % 3], qs[(trial // 3) % 3]
        s, b = ss[trial % 3], bs[(trial // 2) % 3]
        got = besov_norm(f, part, BesovParams(s, b, p, q)).value
        want = _oracle_besov(grid, f.values, s, b, p, q, part.k_max)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 60.0
    _report(10, ok, f"worst relative deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 60.0


def test_criterion_11_modulus_closed_form_and_dini():
    t0 = time.monotonic()
    grid = GridSpec(1, 12)
    f = make_exponential(grid, (1,))
    worst = 0.0
    for j in range(1, 10):
        t = 2.0**-j
        worst = max(worst, abs(modulus(f, 1, t, INF) - 2.0 * math.sin(t / 2.0)))
    got = dini_norm(f).value
    ref = quad(lambda t: 2.0 * math.sin(t / 2.0) / t, 0.0, 0.5)[0]
    rel = abs(got - ref) / ref
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and rel < 0.05
    _report(11, ok, f"modulus err {worst:.2e}, Dini deviation {rel:.3f}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert rel < 0.05
