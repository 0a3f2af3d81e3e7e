import math

import numpy as np
import pytest
from scipy.integrate import quad

from logbesov.errors import InvalidInputError, ResolutionError
from logbesov.gallery import make_exponential, make_lacunary
from logbesov.grid import (
    INF,
    GridSpec,
    SampledFunction,
    lp_norm,
    make_constant,
    random_band_limited,
)
from logbesov.norms import (
    BesovParams,
    DiffParams,
    besov_norm,
    diffspace_norm,
    dini_norm,
    _binomial_weights,
    _difference_norm_grid,
    modulus,
    tl_norm_inf,
)
from logbesov.partition import decompose


# --- Besov norm ---------------------------------------------------------------


def test_besov_exponential_closed_form(part12):
    g = part12.grid
    for m in (3, 6, 9):
        f = make_exponential(g, (1 << m,))
        for b in (-1.0, 0.0, 1.5):
            res = besov_norm(f, part12, BesovParams(0.0, b, INF, INF))
            assert res.value == pytest.approx((1.0 + m) ** b, rel=1e-12)
            assert res.tail < 1e-20


def test_besov_constant(part12):
    c = make_constant(part12.grid, 2.5j)
    res = besov_norm(c, part12, BesovParams(0.0, 3.0, INF, INF))
    assert res.value == pytest.approx(2.5, rel=1e-12)


def test_besov_brute_force_oracle(part12, rng):
    """besov_norm agrees with a from-scratch evaluation of the definition."""
    g = part12.grid
    coeffs_grid = g.freq_radius()
    for trial in range(6):
        f = random_band_limited(g, 2.0 ** (part12.k_max - 1), rng)
        raw = np.fft.fft(f.values)
        p = [1.0, 2.0, INF][trial % 3]
        q = [2.0, INF, 1.0][trial % 3]
        s = [-1.0, 0.0, 1.0][trial % 3]
        b = [1.0, -1.0, 0.0][trial % 3]
        # oracle: rebuild each piece directly from the generator formula
        terms = []
        for k in range(part12.k_max + 1):
            lo = coeffs_grid / 2.0**k
            hi = coeffs_grid / 2.0 ** (k - 1) if k >= 1 else None
            from logbesov.partition import generator_profile

            sym = generator_profile(lo) - (generator_profile(hi) if k >= 1 else 0.0)
            piece = np.fft.ifft(sym * raw)
            a = np.abs(piece)
            if math.isinf(p):
                ln = a.max()
            else:
                ln = (np.sum(a**p) * g.spacing) ** (1.0 / p)
            terms.append(2.0 ** (k * s) * (1.0 + k) ** b * ln)
        oracle = max(terms) if math.isinf(q) else sum(t**q for t in terms) ** (1.0 / q)
        got = besov_norm(f, part12, BesovParams(s, b, p, q)).value
        assert got == pytest.approx(oracle, rel=1e-12)


def test_besov_homogeneous_and_translation_invariant(part10, rng):
    g = part10.grid
    f = random_band_limited(g, 100, rng)
    params = BesovParams(0.0, 0.5, 2.0, INF)
    base = besov_norm(f, part10, params).value
    assert besov_norm(3.0 * f, part10, params).value == pytest.approx(3 * base, rel=1e-12)
    rolled = SampledFunction(g, np.roll(f.values, 37))
    assert besov_norm(rolled, part10, params).value == pytest.approx(base, rel=1e-10)


def test_besov_q_nesting(part10, rng):
    f = random_band_limited(part10.grid, 100, rng)
    vals = [
        besov_norm(f, part10, BesovParams(0.0, 0.0, 2.0, q)).value
        for q in (0.5, 1.0, 2.0, INF)
    ]
    assert all(vals[i] >= vals[i + 1] * (1 - 1e-12) for i in range(len(vals) - 1))


def test_besov_embedding_chain(part10, rng):
    """b > 1: sup (1+k)^b ||S_k f|| >= c sum ||S_k f|| >= c' ||f||_inf."""
    from scipy.special import zeta

    b = 1.5
    f = random_band_limited(part10.grid, 2.0 ** (part10.k_max - 1), rng)
    dec = decompose(f, part10)
    sups = dec.sup_norms()
    weighted = besov_norm(f, part10, BesovParams(0.0, b, INF, INF), dec=dec).value
    assert weighted * zeta(b) >= sups.sum() * (1 - 1e-12)
    assert sups.sum() >= lp_norm(f, INF) * (1 - 1e-12)


def test_besov_band_tail_diagnostic(part10, rng):
    # content above the top annulus is reported, not silently dropped
    g = part10.grid
    f = random_band_limited(g, g.n_samples // 2 - 1, rng)
    res = besov_norm(f, part10, BesovParams(0.0, 0.0, 2.0, INF))
    assert res.tail > 0


# --- Triebel-Lizorkin at p = infinity -------------------------------------------


def test_tl_exponential(part12):
    f = make_exponential(part12.grid, (1 << 6,))
    res = tl_norm_inf(f, part12, 0.0, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_tl_constant(part12):
    c = make_constant(part12.grid, -3.0)
    assert tl_norm_inf(c, part12, 0.0, 0.0, 1.0).value == pytest.approx(3.0, rel=1e-12)


def test_tl_q_monotone(part10, rng):
    f = random_band_limited(part10.grid, 100, rng)
    v1 = tl_norm_inf(f, part10, 0.0, 0.0, 1.0).value
    v2 = tl_norm_inf(f, part10, 0.0, 0.0, 2.0).value
    assert v1 >= v2 * (1 - 1e-12)


# --- modulus of smoothness -------------------------------------------------------


def test_modulus_constant_zero(grid10):
    c = make_constant(grid10, 5.0)
    for m in (1, 2):
        for t in (0.1, 1.0):
            assert modulus(c, m, t, INF) < 1e-13


def test_modulus_exponential_closed_form(grid12):
    f = make_exponential(grid12, (1,))
    for j in range(1, 9):
        t = 2.0**-j
        assert modulus(f, 1, t, INF) == pytest.approx(2 * math.sin(t / 2), abs=1e-6)


def test_modulus_second_order_brute_force(grid10):
    """Second differences of the frequency-1 mode: brute force over shifts."""
    g = grid10
    f = make_exponential(g, (1,))
    t = 0.7
    got = modulus(f, 2, t, INF)
    # brute force over grid shifts only (the sup is attained near |h| -> t)
    xs = np.arange(1, int(t / g.spacing) + 1)
    brute = 0.0
    for s in xs:
        h = s * g.spacing
        if h < t:
            brute = max(brute, abs(np.exp(1j * h) - 1) ** 2)
    assert got >= brute - 1e-12
    assert got == pytest.approx(4 * math.sin(t / 2) ** 2, abs=1e-6)


def test_modulus_monotone_and_bounded(grid10, rng):
    f = random_band_limited(grid10, 50, rng)
    ts = [0.1, 0.2, 0.4, 0.8, 1.6, 3.0]
    vals = [modulus(f, 1, t, 2.0) for t in ts]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert vals[-1] <= 2 * lp_norm(f, 2.0) * (1 + 1e-12)
    # omega_{m+1} <= 2 omega_m
    for t in (0.3, 1.0):
        assert modulus(f, 2, t, 2.0) <= 2 * modulus(f, 1, t, 2.0) * (1 + 1e-12)


def test_modulus_resolution_guard(grid10):
    f = make_constant(grid10)
    with pytest.raises(ResolutionError):
        modulus(f, 1, grid10.spacing / 4, INF)
    with pytest.raises(InvalidInputError):
        modulus(f, 1, 4.0, INF)


def test_modulus_2d(grid2d):
    f = make_exponential(grid2d, (1, 0))
    t = 0.5
    assert modulus(f, 1, t, INF) == pytest.approx(2 * math.sin(t / 2), abs=1e-4)


# --- Dini and difference-space norms ----------------------------------------------


def test_dini_constant(grid10):
    assert dini_norm(make_constant(grid10, 4.0)).value < 1e-12


def test_dini_exponential_vs_quadrature(grid12):
    f = make_exponential(grid12, (1,))
    got = dini_norm(f)
    ref = quad(lambda t: 2 * math.sin(t / 2) / t, 0, 0.5)[0]
    assert abs(got.value - ref) / ref < 0.05


def test_dini_divergence_diagnostic(grid12):
    """Lacunary series with omega_1 ~ 1/(1 - log t): partial Dini sums grow
    like the level count."""
    partials = []
    for levels in (3, 5, 7, 9):
        f = make_lacunary(grid12, [1.0 / (1 + j) ** 2 for j in range(levels + 1)])
        omegas = [modulus(f, 1, 2.0**-j, INF) for j in range(1, levels + 1)]
        partials.append(sum(omegas) * math.log(2))
    diffs = np.diff(partials)
    assert np.all(diffs > 0.02)  # steady growth with depth, no saturation


def test_diffspace_constant(grid10):
    c = make_constant(grid10, 2.0)
    res = diffspace_norm(c, DiffParams(0.0, 0.0, 0.0, INF, 1.0, 1))
    assert res.value == pytest.approx(2.0, abs=1e-10)
    res2 = diffspace_norm(c, DiffParams(0.0, 1.0, 0.0, 2.0, 2.0, 1))
    assert res2.value == pytest.approx(lp_norm(c, 2.0), rel=1e-10)


def test_diffspace_vs_dini_band(grid12):
    """The (0,0,0,1,inf) seminorm is a Dini-type functional; the two dyadic
    discretizations agree within a measured band (they integrate over (0,1]
    vs (0,1/2])."""
    f = make_exponential(grid12, (1,))
    semi = diffspace_norm(f, DiffParams(0.0, 0.0, 0.0, INF, 1.0, 1)).value - lp_norm(f, INF)
    dini = dini_norm(f).value
    assert 1.0 <= semi / dini <= 3.0


def test_diffspace_embedding_vs_besov(part12, rng):
    """B-from-differences controls the dyadic Besov norm on smooth fields:
    besov (0,b,inf,inf) <= C diffspace (0,b,.) with measured C."""
    g = part12.grid
    ratios = []
    for trial in range(5):
        local = np.random.default_rng(600 + trial)
        f = random_band_limited(g, 60, local)
        bs = besov_norm(f, part12, BesovParams(0.0, 1.0, INF, INF)).value
        df = diffspace_norm(f, DiffParams(0.0, 1.0, 0.0, INF, INF, 1)).value
        ratios.append(bs / df)
    assert max(ratios) < 3.0


def test_diffspace_order_guard():
    with pytest.raises(InvalidInputError):
        DiffParams(1.5, 0.0, 0.0, 2.0, 2.0, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_smoothness_rejected(bad, part10):
    f = make_exponential(part10.grid, (4,))
    with pytest.raises(InvalidInputError):
        BesovParams(bad, 0.0, 2.0, INF)
    with pytest.raises(InvalidInputError):
        BesovParams(0.0, bad, 2.0, INF)
    for s, b, d in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
        with pytest.raises(InvalidInputError):
            DiffParams(s, b, d, 2.0, 2.0, 1)
    with pytest.raises(InvalidInputError):
        tl_norm_inf(f, part10, bad, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        tl_norm_inf(f, part10, 0.0, bad, 1.0)


def test_quasi_norm_exponents_accepted(part10, rng):
    f = random_band_limited(part10.grid, 50, rng)
    val = besov_norm(f, part10, BesovParams(0.0, 0.0, 0.5, 0.5)).value
    assert np.isfinite(val) and val > 0


@pytest.mark.parametrize("dim, J", [(1, 8), (2, 6)])
def test_difference_norms_are_the_roll_formula_bit_for_bit(dim, J, rng):
    """Differences made by block copies into reused buffers equal the sum
    of weighted `np.roll`s, for every order, shift (zero, negative, beyond
    N) and p, with the buffers carried from one shift to the next."""
    grid = GridSpec(dim, J)
    n = grid.n_samples
    f = SampledFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    bufs = np.empty_like(f.values), np.empty_like(f.values), np.empty(grid.shape)
    shifts = [(1, 0), (0, 3), (5, -7), (n - 1, n + 2), (-n // 2, 1)]
    for m in (1, 2, 3):
        for shift in (s[:dim] for s in shifts):
            vals = np.zeros_like(f.values)
            for j, w in enumerate(_binomial_weights(m)):
                vals += w * np.roll(f.values, tuple(-j * s for s in shift), axis=tuple(range(dim)))
            for p in (1.0, 2.0, INF):
                assert _difference_norm_grid(f, shift, m, p, bufs) == lp_norm(SampledFunction(grid, vals), p)
