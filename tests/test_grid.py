import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logbesov.errors import AliasingError, CapabilityError, InvalidInputError
from logbesov.grid import (
    INF,
    GridSpec,
    SampledFunction,
    _level_sums,
    conjugate_exponent,
    lp_norm,
    make_constant,
    random_band_limited,
    synthesize,
)

from lattice_oracle import spectrum


def test_grid_invariants():
    g = GridSpec(1, 10)
    assert g.n_samples == 1024
    assert g.k_max == 8
    # the top annulus stays inside the lattice
    assert 3 * 2 ** (g.k_max - 1) <= g.n_samples // 2
    with pytest.raises(InvalidInputError):
        GridSpec(3, 10)
    with pytest.raises(InvalidInputError):
        GridSpec(1, 5)  # N < 64


def test_grid_point_cap():
    """Lattices up to 2^24 points (1D J=24, 2D J=12) are described; larger
    ones are refused at construction, before any array is allocated."""
    for dim, j in ((1, 24), (2, 12)):
        assert GridSpec(dim, j).n_samples ** dim == 2**24
    for dim, j in ((1, 25), (2, 13), (1, 40), (2, 31)):
        with pytest.raises(CapabilityError):
            GridSpec(dim, j)


def test_constant_norms(grid10):
    one = make_constant(grid10)
    assert lp_norm(one, 2.0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-13)
    assert lp_norm(one, INF) == 1.0
    assert lp_norm(one, 1.0) == pytest.approx(2 * math.pi, rel=1e-13)


def test_sin_l2_closed_form():
    g = GridSpec(1, 12)
    f = SampledFunction(g, np.sin(g.axis()))
    assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_lp_norm_rejects_non_finite(grid10):
    vals = np.zeros(grid10.shape, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(InvalidInputError):
        lp_norm(SampledFunction(grid10, vals), 2.0)


def test_parseval(grid10, rng):
    f = random_band_limited(grid10, 100, rng)
    l2sq = lp_norm(f, 2.0) ** 2
    coeff = (2 * math.pi) ** grid10.dim * np.sum(np.abs(spectrum(f)) ** 2)
    assert abs(l2sq - coeff) / coeff < 1e-10


def test_roundtrip(grid10, rng):
    f = random_band_limited(grid10, 200, rng)
    back = synthesize(grid10, spectrum(f))
    err = np.abs(back.values - f.values).max() / np.abs(f.values).max()
    assert err < 1e-12


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(InvalidInputError):
        conjugate_exponent(0.5)


def test_band_limit_guard(grid10, rng):
    with pytest.raises(AliasingError):
        random_band_limited(grid10, grid10.n_samples, rng)


def test_2d_parseval(grid2d, rng):
    f = random_band_limited(grid2d, 20, rng)
    l2sq = lp_norm(f, 2.0) ** 2
    coeff = (2 * math.pi) ** 2 * np.sum(np.abs(spectrum(f)) ** 2)
    assert abs(l2sq - coeff) / coeff < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    p1=st.floats(min_value=0.5, max_value=8.0),
    p2=st.floats(min_value=0.5, max_value=8.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_lp_power_mean_monotonicity(p1, p2, seed):
    # on a probability-normalized domain the p-mean is nondecreasing in p;
    # our measure has total mass 2*pi, so compare normalized means
    g = GridSpec(1, 6)
    f = random_band_limited(g, 10, np.random.default_rng(seed))
    lo, hi = sorted((p1, p2))
    vol = 2 * math.pi
    m_lo = lp_norm(f, lo) / vol ** (1 / lo)
    m_hi = lp_norm(f, hi) / vol ** (1 / hi)
    assert m_lo <= m_hi * (1 + 1e-9)


def test_functions_compare_by_identity():
    """Two functions on one grid compare by identity, never by their sample
    arrays (whose truth value would be ambiguous), and hash."""
    g = GridSpec(1, 10)
    f, same = make_constant(g), make_constant(g)
    assert f == f and f != same and not (f == same)
    assert len({f, same, f}) == 2


def test_level_sums_are_numpys_sums_bit_for_bit():
    """Each level's sum of nonnegative values is `np.sum` of that level's
    values, in their order, bit for bit, across numpy's pairwise blocks
    (levels of 0 to 400 values), and +0 for a level with none."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        counts = rng.integers(0, 400, size=rng.integers(1, 8))
        values = rng.random(counts.sum()) * 10.0 ** rng.integers(-8, 8, counts.sum())
        level = np.repeat(np.arange(counts.size), counts)
        want = [np.sum(v) for v in np.split(values, np.cumsum(counts)[:-1])]
        assert _level_sums(values, level, counts.size).tobytes() == np.array(want).tobytes()
