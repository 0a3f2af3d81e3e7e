import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logbesov.errors import LevelOverflowError
from logbesov.gallery import make_exponential, make_indicator
from logbesov.grid import GridSpec, SampledFunction, lp_norm, make_constant, random_band_limited
from logbesov import partition as partition_mod
from logbesov.partition import (
    DyadicPartition,
    PartitionKind,
    SpectralDecomposition,
    build_partition,
    decompose,
    generator_profile,
)

from lattice_oracle import lattice_partial_sum, lattice_piece, spectrum

INF = float("inf")


def test_generator_profile_plateaus():
    r = np.array([0.0, 0.5, 1.0, 1.2, 1.5, 2.0, 10.0])
    vals = generator_profile(r)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[4] == 0.0 and vals[5] == 0.0 and vals[6] == 0.0
    # monotone nonincreasing
    rr = np.linspace(0, 3, 2000)
    vv = generator_profile(rr)
    assert np.all(np.diff(vv) <= 1e-15)


def test_partition_lattice_values(part12):
    # phi_1(2 e_1) = 1, phi_0(0) = 1, phi_k(0) = 0, phi_k(2^k e_1) = 1
    g = part12.grid
    m = g.freq_axis()
    idx2 = np.nonzero(m == 2)[0][0]
    assert part12.symbol(1)[idx2] == pytest.approx(1.0, abs=1e-15)
    assert part12.symbol(0)[0] == 1.0
    for k in range(1, part12.k_max + 1):
        assert part12.symbol(k)[0] == 0.0
        idx = np.nonzero(m == 2**k)[0][0]
        assert part12.symbol(k)[idx] == pytest.approx(1.0, abs=1e-14)


def test_telescoping_exact(part12):
    acc = np.zeros(part12.grid.shape)
    for k in range(part12.k_max + 1):
        acc = acc + part12.symbol(k)
        err = np.abs(acc - part12.cumulative_symbol(k)).max()
        assert err <= 1e-12


def test_annulus_support_exact(part12):
    rho = part12.grid.freq_radius()
    for k in range(1, part12.k_max + 1):
        sym = part12.symbol(k)
        outside = (rho < 2.0 ** (k - 1)) | (rho > 3.0 * 2.0 ** (k - 1))
        assert np.abs(sym[outside]).max(initial=0.0) == 0.0


def test_delta_selection(part12):
    g = part12.grid
    for m in range(2, g.k_max):
        f = make_exponential(g, (1 << m,))
        for j in range(g.k_max + 1):
            pj = lattice_piece(f, part12, j)
            target = f.values if j == m else 0.0
            assert np.abs(pj.values - target).max() < 1e-10


def test_project_constant(part12):
    one = make_constant(part12.grid)
    assert np.abs(lattice_piece(one, part12, 0).values - 1).max() < 1e-12
    for k in range(1, part12.k_max + 1):
        assert np.abs(lattice_piece(one, part12, k).values).max() < 1e-12


def test_project_disjoint_levels(part10, rng):
    f = random_band_limited(part10.grid, 100, rng)
    for k in (3, 5):
        pk = lattice_piece(f, part10, k)
        for j in range(part10.k_max + 1):
            if abs(j - k) >= 2:
                assert lp_norm(lattice_piece(pk, part10, j), INF) < 1e-12


def test_project_level_guard(part10):
    """A level outside [0, K_max] has no symbol, so no projection."""
    for k in (-1, part10.k_max + 1):
        with pytest.raises(LevelOverflowError):
            part10.symbol(k)
        with pytest.raises(LevelOverflowError):
            part10.cumulative_symbol(k)


def test_partial_sum_bandlimit_and_exponential(part12, rng):
    g = part12.grid
    f = random_band_limited(g, 2.0 ** (g.k_max - 1), rng)
    full = lattice_partial_sum(f, part12, part12.k_max)
    rel = np.abs(full.values - f.values).max() / np.abs(f.values).max()
    assert rel < 1e-10
    m = 6
    e = make_exponential(g, (1 << m,))
    for k in range(0, m - 1):
        assert lp_norm(lattice_partial_sum(e, part12, k), INF) < 1e-12
    for k in range(m + 1, part12.k_max + 1):
        assert np.abs(lattice_partial_sum(e, part12, k).values - e.values).max() < 1e-10
    one = make_constant(g)
    for k in range(part12.k_max + 1):
        assert np.abs(lattice_partial_sum(one, part12, k).values - 1).max() < 1e-12


def test_decomposition_reconstructs(part10, rng):
    f = random_band_limited(part10.grid, 2.0 ** (part10.k_max - 1), rng)
    dec = decompose(f, part10)
    total = sum(p.values for p in dec.pieces)
    assert np.abs(total - f.values).max() / np.abs(f.values).max() < 1e-10


def test_annulus_energy_of_pieces(part10, rng):
    f = random_band_limited(part10.grid, 100, rng)
    pieces = decompose(f, part10).pieces
    rho = part10.grid.freq_radius()
    for k in range(1, part10.k_max + 1):
        c = np.abs(spectrum(pieces[k])) ** 2
        total = c.sum()
        if total == 0:
            continue
        outside = ((rho < 2.0 ** (k - 1)) | (rho > 3 * 2.0 ** (k - 1)))
        assert c[outside].sum() / total < 1e-10


def _full_lattice_cumulative(grid, kind, k):
    """phi_0(2^-k .) evaluated on the whole lattice, from scratch."""
    scale = float(1 << k)
    if kind is PartitionKind.RADIAL:
        return generator_profile(grid.freq_radius() / scale)
    prof = generator_profile(np.abs(grid.freq_axis().astype(np.float64)) / scale)
    return prof if grid.dim == 1 else prof[:, None] * prof[None, :]


@settings(max_examples=12, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    kind=st.sampled_from(list(PartitionKind)),
    data=st.data(),
)
def test_boxed_symbols_match_full_lattice(dim, kind, data):
    """Symbols stored on their boxes expand to the full-lattice formula bit
    for bit, and the boxed products of `decompose` equal the full-lattice
    multiplier F^{-1}(symbol F f), both as the `pieces` list and as the
    pieces one reused buffer holds in turn."""
    J = data.draw(st.integers(6, 11 if dim == 1 else 8), label="J")
    g = GridSpec(dim, J)
    part = build_partition(g, kind)
    f = random_band_limited(g, 2.0 ** (g.k_max - 1), np.random.default_rng(data.draw(st.integers(0, 9999))))
    dec = decompose(f, part)
    pieces = dec.pieces
    bufs = dec._pass_buffers(part.k_max, whole=True)
    streamed = [dec._piece(k, bufs).copy() for k in range(part.k_max + 1)]
    coeffs = np.fft.fftn(f.values)
    prev = None
    for k in range(part.k_max + 1):
        cum = _full_lattice_cumulative(g, kind, k)
        sym = cum if prev is None else cum - prev
        assert part.cumulative_symbol(k).tobytes() == cum.tobytes()
        assert part.symbol(k).tobytes() == sym.tobytes()
        piece = np.fft.ifftn(sym * coeffs)
        assert np.array_equal(pieces[k].values, piece)
        assert np.array_equal(streamed[k], piece)
        prev = cum


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 9999), k=st.integers(0, 6))
def test_telescoping_property(seed, k):
    g = GridSpec(1, 8)
    p = build_partition(g)
    f = random_band_limited(g, 30, np.random.default_rng(seed))
    acc = sum(piece.values for piece in decompose(f, p).pieces[: k + 1])
    ps = lattice_partial_sum(f, p, k)
    assert np.abs(acc - ps.values).max() <= 1e-10 * max(1.0, np.abs(f.values).max())


# --- tensor partition ---------------------------------------------------


def test_tensor_partition_1d_matches_radial(grid10):
    pr = build_partition(grid10, PartitionKind.RADIAL)
    pt = build_partition(grid10, PartitionKind.TENSOR)
    for k in range(pr.k_max + 1):
        assert np.abs(pr.symbol(k) - pt.symbol(k)).max() < 1e-14


def test_tensor_product_indicator_factorization(grid2d):
    """The 2D tensor-partition piece of a product indicator factors into 1D
    pieces: S_k 1_2 = (S_k 1)(S^k 1) + (S^{k-1} 1)(S_k 1) coordinate-wise."""
    g2 = grid2d
    g1 = GridSpec(1, g2.log2_samples)
    p2 = build_partition(g2, PartitionKind.TENSOR)
    p1 = build_partition(g1, PartitionKind.TENSOR)
    f2 = make_indicator(g2, "cube")
    f1 = make_indicator(g1, "cube")
    for k in range(1, p2.k_max + 1):
        lhs = lattice_piece(f2, p2, k).values
        sk = lattice_piece(f1, p1, k).values
        s_up_k = lattice_partial_sum(f1, p1, k).values
        s_up_km1 = lattice_partial_sum(f1, p1, k - 1).values
        rhs = np.outer(sk, s_up_k) + np.outer(s_up_km1, sk)
        assert np.abs(lhs - rhs).max() < 1e-8


# --- annular-sequence synthesis bound -------------------------------------


def test_annular_sequence_besov_bound(part10, rng):
    """Sums of annular pieces u_k are controlled by the weighted sequence norm
    (sum_k (2^{ks} (1+k)^b ||u_k||_p)^q)^{1/q}, with a stable constant over a
    randomized family."""
    from logbesov.norms import BesovParams, besov_norm

    g = part10.grid
    ratios = []
    for trial in range(8):
        local = np.random.default_rng(7000 + trial)
        pieces = [
            lattice_piece(random_band_limited(g, 2.0 ** (g.k_max - 1), local), part10, k)
            for k in range(part10.k_max + 1)
        ]
        total = SampledFunction(g, sum(p.values for p in pieces))
        s, b, p, q = 0.5, 1.0, 2.0, 2.0
        lhs = besov_norm(total, part10, BesovParams(s, b, p, q)).value
        rhs = sum((2.0 ** (k * s) * (1.0 + k) ** b * lp_norm(u, p)) ** q for k, u in enumerate(pieces)) ** (1.0 / q)
        ratios.append(lhs / rhs)
    assert max(ratios) < 5.0
    assert max(ratios) / min(ratios) < 3.0


def test_operations_pure(part10, rng):
    # decomposing, making the pieces and reducing them never mutate the input
    f = random_band_limited(part10.grid, 60, rng)
    before = f.values.copy()
    dec = decompose(f, part10)
    assert len(dec.pieces) == part10.k_max + 1
    dec.analyze(cube_exponents=(1.0,), lp_exponents=(2.0,))
    assert np.array_equal(f.values, before)


def test_2d_radial_partition_smoke():
    g = GridSpec(2, 8)
    p = build_partition(g)
    f = random_band_limited(g, 20, np.random.default_rng(3))
    dec = decompose(f, p)
    total = sum(piece.values for piece in dec.pieces)
    assert np.abs(total - f.values).max() / np.abs(f.values).max() < 1e-10
    acc = np.zeros(g.shape)
    for k in range(p.k_max + 1):
        acc = acc + p.symbol(k)
        assert np.abs(acc - p.cumulative_symbol(k)).max() <= 1e-12


def test_decomposition_caches_are_not_parameters():
    f = make_indicator(GridSpec(1, 6), "cube")
    dec = decompose(f, build_partition(f.grid))
    with pytest.raises(TypeError):
        SpectralDecomposition(dec.partition, dec.coeffs, _tables={})
    fresh = SpectralDecomposition(dec.partition, dec.coeffs)
    assert fresh.cube_table(0, 2.0) is fresh.cube_table(0, 2.0)
    assert fresh.cube_table(0, 2.0) is not dec.cube_table(0, 2.0)


@pytest.mark.parametrize("kind", list(PartitionKind))
@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_box_blocks_change_no_bit(dim, J, kind, monkeypatch):
    """The level boxes are evaluated in blocks of rows: one row at a time
    gives the same symbols, bit for bit, as the whole box at once."""
    grid = GridSpec(dim, J)
    levels = range(grid.k_max + 1)
    monkeypatch.setattr(partition_mod, "_BOX_BLOCK", 1 << 40)
    whole = DyadicPartition(grid, kind)
    expected = [(whole.symbol(k), whole.cumulative_symbol(k)) for k in levels]
    monkeypatch.setattr(partition_mod, "_BOX_BLOCK", 1)
    rows = DyadicPartition(grid, kind)
    for k, (sym, cum) in zip(levels, expected):
        assert np.array_equal(rows.symbol(k), sym) and np.array_equal(rows.cumulative_symbol(k), cum)


@pytest.mark.parametrize("kind", list(PartitionKind))
def test_box_build_holds_one_block_of_temporaries(kind):
    """Building every level box at 2D J=10 peaks below 1.5 times the boxes
    it keeps (3.2 for the radial kind when each box was evaluated whole)."""
    part = DyadicPartition(GridSpec(2, 10), kind)
    tracemalloc.start()
    try:
        for k in range(part.k_max + 1):
            part._box(k, cumulative=False)
            part._box(k, cumulative=True)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * kept
