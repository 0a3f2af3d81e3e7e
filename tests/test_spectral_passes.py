"""A decomposition keeps the forward coefficients only and makes each piece
S_k f once per pass: one forward FFT per decomposed function plus one
inverse FFT per level (in 2D, one per axis pass), for every reduction its
consumers ask for.  A real function is analyzed from its half spectrum."""

import tracemalloc

import numpy as np
import pytest

from logbesov.criteria import verdict
from logbesov.cubes import CubeMeanTable
from logbesov.experiments import ExperimentConfig, run_exp_growth
from logbesov.gallery import expo7_family, gallery_from_spec, make_exponential, make_indicator
from logbesov.grid import INF, GridSpec, SampledFunction, band_energy_fraction, lp_norm, make_constant
from logbesov.norms import BesovParams, besov_norm
from logbesov.paraproducts import multiplier_lower_bound, paraproduct, pi2_summand, product_report
from logbesov.partition import PartitionKind, build_partition, decompose

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def _count_ffts(monkeypatch) -> list[str]:
    calls = []
    for name in FFT_NAMES:
        real = getattr(np.fft, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def test_p2_verdict_makes_each_piece_once(monkeypatch):
    grid = GridSpec(1, 12)
    part = build_partition(grid)
    f = make_indicator(grid, "cube")
    calls = _count_ffts(monkeypatch)
    verdict(f, part, 2.0, 0.5)
    assert calls == ["rfftn"] + ["irfft"] * (part.k_max + 1)


def test_exact_growth_reads_both_p_from_one_pass(monkeypatch):
    ms = range(3, 7)
    config = ExperimentConfig(log2_samples=10, b_list=(0.5,), p_list=(1.0, INF), m_range=(3, 6))
    calls = _count_ffts(monkeypatch)
    run_exp_growth(config)
    assert len(calls) == len(ms) * (1 + config.grid().k_max + 1)


def test_lower_bound_reads_every_params_from_one_pass(monkeypatch):
    grid = GridSpec(1, 10)
    part = build_partition(grid)
    f = make_exponential(grid, (-(1 << 5),))
    family = expo7_family(grid, 5, 0.5)
    distinct = []
    for _, g in family:
        if not any(np.array_equal(g.values, d) for d in distinct):
            distinct.append(g.values)
    params = [BesovParams(0.0, 0.5, p, INF) for p in (2.0, 4.0)]
    calls = _count_ffts(monkeypatch)
    multiplier_lower_bound(f, part, params, family)
    # each distinct member and its product with f
    assert len(calls) == 2 * len(distinct) * (1 + part.k_max + 1)


def test_p2_verdict_holds_a_few_lattice_arrays():
    """The pieces are never held together: a p = 2 verdict at 1D J=16 peaks
    below 6 complex lattice-sized arrays (K_max + 1 = 15 when every piece
    was kept)."""
    grid = GridSpec(1, 16)
    part = build_partition(grid)
    for k in range(part.k_max + 1):
        part.symbol(k)
    f = make_indicator(grid, "cube")
    tracemalloc.start()
    try:
        verdict(f, part, 2.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * f.values.nbytes


def test_pass_reductions_match_the_pieces():
    grid = GridSpec(1, 10)
    part = build_partition(grid)
    f = make_indicator(grid, "halfspace")
    dec = decompose(f, part)
    dec.analyze(cube_exponents=(1.0, 2.0), lp_exponents=(1.0, 3.0, INF))
    pieces = dec.pieces
    assert dec.sup_norms().tolist() == [np.abs(u.values).max() for u in pieces]
    for p in (1.0, 3.0, INF):
        assert dec.lp_norms(p).tolist() == [lp_norm(u, p) for u in pieces]
    table = dec.cube_table(4, 2.0)
    assert table is dec.cube_table(4, 2.0)
    with pytest.raises(ValueError):
        dec.sup_norms()[0] = 0.0


def test_besov_tail_reads_the_kept_coefficients(monkeypatch):
    """The tail fraction is the one `band_energy_fraction` computes from the
    samples, bit for bit, and costs no FFT of its own."""
    grid = GridSpec(1, 10)
    part = build_partition(grid)
    f = make_indicator(grid, "cube")
    want = band_energy_fraction(f, 0.0, 2.0 ** (part.k_max - 1))
    dec = decompose(f, part)
    dec.lp_norms(2.0)
    calls = _count_ffts(monkeypatch)
    for q in (1.0, INF):
        assert besov_norm(f, part, BesovParams(0.0, 0.5, 2.0, q), dec=dec).tail == want
    assert calls == []


def test_pi2_summand_makes_only_the_pieces_it_reads(monkeypatch):
    """One summand reads S_k g, then S_{k-1} f, S_k f and S_{k+1} f: at most
    four inverse FFTs per call on shared decompositions, not 2 (K_max + 1);
    the real f's pieces come from its half spectrum."""
    grid = GridSpec(1, 10)
    part = build_partition(grid)
    f = make_indicator(grid, "cube")
    g = make_exponential(grid, (5,))
    dec_f, dec_g = decompose(f, part), decompose(g, part)
    want = [dec_f.pieces, dec_g.pieces]
    calls = _count_ffts(monkeypatch)
    for k in range(part.k_max + 1):
        levels = [j for j in (k - 1, k, k + 1) if 0 <= j <= part.k_max]
        calls.clear()
        s = pi2_summand(f, g, part, k, dec_f=dec_f, dec_g=dec_g)
        assert calls == ["ifft"] + ["irfft"] * len(levels)
        manual = sum((want[0][j].values * want[1][k].values for j in levels), np.zeros(grid.shape, complex))
        assert np.array_equal(s.values, manual)


def test_decomposition_caches_no_cumulative_box():
    """`decompose` and `analyze` read the symbol boxes only; the cumulative
    boxes phi_0(2^-k .) are built when `partial_sum` asks for them."""
    grid = GridSpec(1, 10)
    part = build_partition(grid)
    dec = decompose(make_indicator(grid, "cube"), part)
    dec.analyze(cube_exponents=(1.0,), lp_exponents=(2.0,))
    assert [key for key in part._cache if key[0] == "cum"] == []
    assert all(("sym", k) in part._cache for k in range(part.k_max + 1))


@pytest.mark.parametrize("spec", ["cube", "halfspace", "const", "lacunary:beta=0.5,levels=5"])
@pytest.mark.parametrize("kind", list(PartitionKind))
@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_real_input_matches_the_full_spectrum(dim, J, kind, spec):
    """A real function keeps its half spectrum and makes real pieces; the
    pieces and every reduction of them match F^{-1}(phi_k F f) from the
    full spectrum to 1e-14 of max |f| (of max |f|^r for the cube means)."""
    grid = GridSpec(dim, J)
    part = build_partition(grid, kind)
    f = gallery_from_spec(grid, spec)
    scale = np.abs(f.values).max()
    dec = decompose(f, part)
    assert dec.coeffs.shape == grid.half_shape
    pieces = dec.pieces
    coeffs = np.fft.fftn(f.values)
    for k in range(part.k_max + 1):
        want = SampledFunction(grid, np.fft.ifftn(part.symbol(k) * coeffs))
        assert np.abs(pieces[k].values - want.values).max() <= 1e-14 * scale
        assert abs(dec.sup_norms()[k] - lp_norm(want, INF)) <= 1e-14 * scale
        for p in (1.0, 2.0):
            unit = lp_norm(make_constant(grid, scale), p)
            assert abs(dec.lp_norms(p)[k] - lp_norm(want, p)) <= 1e-14 * unit
        for r in (1.0, 2.0):
            table, oracle = dec.cube_table(k, r), CubeMeanTable(grid, np.abs(want.values) ** r)
            for level in range(grid.l_max + 1):
                assert np.abs(table.means(level) - oracle.means(level)).max() <= 1e-14 * scale**r


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
def test_one_imaginary_sample_takes_the_full_spectrum(dim, J):
    """A single nonzero imaginary part sends f down the complex path, whose
    pieces are bit-identical to np.fft.ifftn(symbol * fftn(f))."""
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    values = make_indicator(grid, "cube").values.copy()
    values.flat[5] += 1e-30j
    dec = decompose(SampledFunction(grid, values), part)
    assert dec.coeffs.shape == grid.shape
    coeffs = np.fft.fftn(values)
    for k, piece in enumerate(dec.pieces):
        assert np.array_equal(piece.values, np.fft.ifftn(part.symbol(k) * coeffs))


def test_real_input_verdict_peaks_below_complex_input():
    """Half the coefficients and real pieces: a p = 2 verdict at 1D J=16 on
    the real cube indicator peaks below the same verdict on i times it."""
    grid = GridSpec(1, 16)
    part = build_partition(grid)
    for k in range(part.k_max + 1):
        part.symbol(k)
    f = make_indicator(grid, "cube")
    peaks = []
    for g in (f, f * 1j):
        tracemalloc.start()
        try:
            verdict(g, part, 2.0, 0.5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def test_product_report_reads_each_piece_list_once(monkeypatch):
    """The three paraproducts of one report share one piece list of f and
    one of g: 2 (K_max + 1) inverse FFTs, not 6 (K_max + 1), and the same
    paraproducts bit for bit."""
    grid = GridSpec(1, 12)
    part = build_partition(grid)
    f = make_indicator(grid, "cube")
    g = make_exponential(grid, (5,))
    want = [paraproduct(f, g, part, which) for which in (1, 2, 3)]
    calls = _count_ffts(monkeypatch)
    report = product_report(f, g, part)
    n = part.k_max + 1
    assert calls == ["rfftn"] + ["irfft"] * n + ["fftn"] + ["ifft"] * n
    for got, ref in zip((report.pi1, report.pi2, report.pi3), want):
        assert np.array_equal(got.values, ref.values)


@pytest.mark.parametrize("spec", ["cube", "exp:m=5"])
@pytest.mark.parametrize("dim, J", [(1, 11), (2, 7)])
def test_cube_tables_are_the_power_oracle_bit_for_bit(dim, J, spec):
    """The last exponent of a pass raises |S_k f| in place; every table,
    whether its exponent came last or not, equals the one built from
    |S_k f|**r bit for bit."""
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    f = gallery_from_spec(grid, spec)
    rs = (1.0, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0)
    together = decompose(f, part)
    together.analyze(cube_exponents=rs)
    alone = {r: decompose(f, part) for r in rs}
    for r, dec in alone.items():
        dec.analyze(cube_exponents=(r,))
    for k, piece in enumerate(together.pieces):
        a = np.abs(piece.values)
        for r in rs:
            oracle = CubeMeanTable(grid, a**r)
            for dec in (together, alone[r]):
                table = dec.cube_table(k, r)
                for level in range(grid.l_max + 1):
                    assert np.array_equal(table.means(level), oracle.means(level)), (k, r, level)
