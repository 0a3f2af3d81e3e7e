"""A decomposition keeps the forward coefficients only and makes each piece
S_k f once per pass: one forward FFT per decomposed function plus one
inverse FFT per level (in 2D, one per axis pass), for every reduction its
consumers ask for.  A real function is analyzed from its half spectrum."""

import threading
import tracemalloc

import numpy as np
import pytest

import logbesov.cubes as cubes
import logbesov.experiments as experiments
import logbesov.paraproducts as paraproducts
from logbesov.criteria import verdict
from logbesov.cubes import CubeMeanTable
from logbesov.errors import InvalidInputError, ResolutionError
from logbesov.experiments import ExperimentConfig, run_exp_growth
from logbesov.gallery import expo7_family, gallery_from_spec, make_exponential, make_indicator
from logbesov.grid import (
    INF,
    GridSpec,
    SampledFunction,
    _coefficients,
    _exact_bins,
    band_energy_fraction,
    lp_norm,
    make_constant,
)
from logbesov.norms import BesovParams, besov_norm, tl_norm_inf
from logbesov.paraproducts import multiplier_lower_bound, pi2_summand, product_report
from logbesov.partition import (
    DyadicPartition,
    PartitionKind,
    SpectralDecomposition,
    _moduli,
    build_partition,
    decompose,
)
from logbesov.workers import _map_rows

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def _complex_array_bytes(grid: GridSpec) -> int:
    """Bytes of one complex lattice array, the unit of the memory bounds."""
    return np.dtype(np.complex128).itemsize * grid.n_samples**grid.dim


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
    """Each exact-route row reads every b at p = 1 and p = inf from one pass
    over the exponential's exact spectrum: no forward transform, and one
    inverse transform, for level m, the only level that is not zero."""
    ms = range(3, 7)
    config = ExperimentConfig(log2_samples=10, b_list=(-1.0, 0.5, 2.0), p_list=(1.0, INF), m_range=(3, 6))
    calls = _count_ffts(monkeypatch)
    run_exp_growth(config)
    assert calls == ["ifft"] * len(ms)


def _recorded_zero_levels(monkeypatch) -> list[int]:
    """The levels that `SpectralDecomposition._zero_level` reduces, as a
    list that fills as passes run."""
    skipped = []
    zero_level = SpectralDecomposition._zero_level

    def recording(self, k, *args):
        skipped.append(k)
        return zero_level(self, k, *args)

    monkeypatch.setattr(SpectralDecomposition, "_zero_level", recording)
    return skipped


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("spec", ["const", "exact-exp"])
@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_zero_levels_match_the_pieces_reductions(dim, J, spec, usable_cpus, monkeypatch):
    """A real constant and an exponential carrying its exact spectrum have
    one level that is not zero.  Every other level is reduced without a
    transform, on one worker in 1D and on two in 2D, and its sup norm, L^p
    norms and cube tables are those of its own piece, all zero, bit for
    bit."""
    usable_cpus(2)
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    f = make_constant(grid, 2.5) if spec == "const" else experiments._exact_exponential(grid, (8,) + (0,) * (dim - 1))
    skipped = _recorded_zero_levels(monkeypatch)
    dec = decompose(f, part)
    ps, rs = (1.0, 2.0, 3.0, INF), (1.0, 2.0)
    dec.analyze(cube_exponents=rs, lp_exponents=ps)
    pieces = dec.pieces
    assert sorted(skipped) == [k for k, u in enumerate(pieces) if not u.values.any()]
    assert len(skipped) == part.k_max
    for k in skipped:
        a = np.abs(pieces[k].values)
        assert _bits(dec.sup_norms()[k]) == _bits(a.max())
        for p in ps:
            assert _bits(dec.lp_norms(p)[k]) == _bits(lp_norm(pieces[k], p))
        for r in rs:
            table, oracle = dec.cube_table(k, r), CubeMeanTable(grid, a**r, top=min(k, grid.l_max))
            assert [_bits(s) for s in table._sums] == [_bits(s) for s in oracle._sums]


def _binned(grid: GridSpec, name: str) -> SampledFunction:
    """An input that carries exact spectrum bins, by name."""
    tail = (0,) * (grid.dim - 1)
    if name == "exact-exp":
        return experiments._exact_exponential(grid, (1 << 5,) + tail)
    if name == "packet":
        return gallery_from_spec(grid, "packet")
    if name == "packet*exp":
        return gallery_from_spec(grid, "packet") * experiments._exact_exponential(grid, (-(1 << 3),) + tail)
    # e^{i 2^4 x_1} plus a bin at 2^6 whose coefficient is exactly zero
    f = make_exponential(grid, (1 << 4,) + tail) * (1 + 0j)
    return SampledFunction(grid, f.values, _exact_bins(grid, [((1 << 4,) + tail, 1.0), ((1 << 6,) + tail, 0.0)]))


def _without_bins(f: SampledFunction, partition) -> SpectralDecomposition:
    """f's decomposition with no bin positions: every level multiplies its
    whole box."""
    return SpectralDecomposition(partition, _coefficients(f))


def _reductions(dec: SpectralDecomposition) -> list[bytes]:
    ps, rs = (1.0, 2.0, 3.0, INF), (1.0, 2.0)
    dec.analyze(cube_exponents=rs, lp_exponents=ps)
    out = [_bits(dec.sup_norms())] + [_bits(dec.lp_norms(p)) for p in ps]
    for k in range(dec.k_max + 1):
        for r in rs:
            out += [_bits(dec.cube_table(k, r).means(l)) for l in range(min(k, dec.grid.l_max) + 1)]
    return out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["exact-exp", "packet", "packet*exp", "zero-bin"])
@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_bin_path_matches_the_box_multiply_bit_for_bit(dim, J, name, workers, usable_cpus, monkeypatch):
    """A decomposition that keeps its bins' positions makes each level from
    them alone; its reductions, pieces and paraproducts are those of the
    same coefficients made by multiplying whole boxes, bit for bit, on one
    worker and on two."""
    usable_cpus(workers)
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    f = _binned(grid, name)
    assert f.spectrum is not None
    dec = decompose(f, part)
    assert dec.bins is not None
    ref = _without_bins(f, part)
    assert _reductions(dec) == _reductions(ref)
    assert [u.values.tobytes() for u in dec.pieces] == [u.values.tobytes() for u in ref.pieces]
    partner = experiments._exact_exponential(grid, (1 << 2,) + (0,) * (dim - 1))
    got = product_report(f, partner, part)
    monkeypatch.setattr(paraproducts, "decompose", _without_bins)
    want = product_report(f, partner, part)
    assert _bits(got.residual) == _bits(want.residual)
    for a, b in zip((got.pi1, got.pi2, got.pi3), (want.pi1, want.pi2, want.pi3)):
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("kind", list(PartitionKind))
@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_symbol_boxes_hold_no_sign_bit(dim, J, kind):
    """phi_k has no negative or -0 entry, so the box multiply leaves +0
    wherever the coefficients are +0, as the bin path's zero fill does."""
    part = build_partition(GridSpec(dim, J), kind)
    assert not any(np.signbit(part._box(k, False)).any() for k in range(part.k_max + 1))


@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_a_nan_bin_is_a_nonfinite_input_error(dim, J, usable_cpus):
    """A NaN bin makes its levels non-finite on either path, and the L^p
    norms reject them."""
    usable_cpus(2)
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    k = (1 << 4,) + (0,) * (dim - 1)
    f = SampledFunction(grid, make_exponential(grid, k).values, {tuple(i % grid.n_samples for i in k): np.nan})
    for dec in (decompose(f, part), _without_bins(f, part)):
        with pytest.raises(InvalidInputError, match="non-finite"):
            dec.analyze(lp_exponents=(2.0,))


@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_a_zero_level_makes_no_box_multiply_and_no_table(dim, J, usable_cpus, monkeypatch):
    """The exact e^{i 2^6 x_1} has one level that is not zero.  The pass
    multiplies no box, and its zero levels build no cube table: they share
    the grid's zero tables.  Its pieces make the transforms of that level
    alone (in 2D, the first pass over the box's two row blocks, then the
    last pass); the others are zeros, +0 throughout."""
    usable_cpus(2)
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    rs = (1.0, 2.0)
    for top in range(grid.l_max + 1):
        cubes._zero_table(grid, top)
    blocks, builds = [], []
    real_blocks, real_init = DyadicPartition._blocks, CubeMeanTable.__init__

    def counting_blocks(self, *args):
        blocks.append(args)
        return real_blocks(self, *args)

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DyadicPartition, "_blocks", counting_blocks)
    monkeypatch.setattr(CubeMeanTable, "__init__", counting_init)
    dec = decompose(experiments._exact_exponential(grid, (1 << 6,) + (0,) * (dim - 1)), part)
    dec.analyze(cube_exponents=rs)
    assert blocks == []
    assert len(builds) == len(rs)
    zero = [k for k in range(part.k_max + 1) if k != 6]
    for k in zero:
        assert all(dec.cube_table(k, r) is cubes._zero_table(grid, min(k, grid.l_max)) for r in rs)
    calls = _count_ffts(monkeypatch)
    pieces = dec.pieces
    assert calls == ["ifft"] * (1 if dim == 1 else 3)
    assert all(not pieces[k].values.any() and not np.signbit(pieces[k].values.view(np.float64)).any() for k in zero)


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
    # each distinct member once, from its bins: one inverse transform per level
    # that holds one (12 in all); each product with the sample-only f once, from
    # its forward transform: one forward and K_max + 1 inverse transforms
    assert sorted(calls) == ["fftn"] * len(distinct) + ["ifft"] * (12 + len(distinct) * (part.k_max + 1))


def _levels_holding_a_bin(part, h) -> int:
    """The levels k at which phi_k times one of h's bins is not zero."""
    return sum(
        any(part.symbol(k)[i] * v != 0 for i, v in h.spectrum.items()) for k in range(part.k_max + 1)
    )


@pytest.mark.parametrize("b", [-2.0, 0.5, 2.0])
def test_packet_row_transforms_only_the_levels_that_hold_a_bin(monkeypatch, b):
    """A packet-route row builds e^{-i 2^m x_1} with its one bin and the
    packets with theirs, so no member and no product makes a forward
    transform.  Each distinct member's samples are one `ifftn` of its bins;
    beside those, the row makes one inverse transform per level whose boxed
    bins of a distinct member or of its product are not all zero."""
    grid, m = GridSpec(1, 12), 6
    part = build_partition(grid)
    params = [BesovParams(0.0, b, p, INF) for p in (2.0, 4.0)]
    calls = _count_ffts(monkeypatch)
    f = experiments._exact_exponential(grid, (-(1 << m),))
    family = expo7_family(grid, m, b)
    multiplier_lower_bound(f, part, params, family)
    distinct = {id(g): g for _, g in family}.values()
    levels = sum(_levels_holding_a_bin(part, h) for g in distinct for h in (g, f * g))
    assert 0 < levels < 2 * len(distinct) * (part.k_max + 1)
    assert calls == ["ifftn"] * len(distinct) + ["ifft"] * levels


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
    assert peak < 6 * _complex_array_bytes(grid)


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
    boxes phi_0(2^-k .) are built only when `cumulative_symbol` asks for
    them."""
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
            for level in range(min(k, grid.l_max) + 1):
                assert np.abs(table.means(level) - oracle.means(level)).max() <= 1e-14 * scale**r


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
def test_one_imaginary_sample_takes_the_full_spectrum(dim, J):
    """A single nonzero imaginary part sends f down the complex path, whose
    pieces are bit-identical to np.fft.ifftn(symbol * fftn(f))."""
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    values = make_indicator(grid, "cube").values.astype(np.complex128)
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



def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q", [2.0, INF])
def test_tl_norm_streams_its_pieces(q):
    """`tl_norm_inf` reads the sup norms or cube tables of one analysis
    pass, which makes each piece in turn: at 1D J=16 on a given
    decomposition it peaks below 8 complex lattice arrays (about 17 when it
    read the whole piece list)."""
    grid = GridSpec(1, 16)
    part = build_partition(grid)
    for k in range(part.k_max + 1):
        part.symbol(k)
    f = make_indicator(grid, "cube")
    dec = decompose(f, part)
    assert _traced_peak(lambda: tl_norm_inf(f, part, 0.0, 1.0, q, dec=dec)) < 8 * _complex_array_bytes(grid)


def _descending_tl(dec, s: float, b: float, q: float) -> list[float]:
    """tl per-level values as a running sum from K_max down over
    `dec.pieces`: sup over level-l cubes of (mean_Q sum_{k>=l} (w_k
    |S_k f|)^q)^{1/q}, at q = inf the max of the pointwise running max."""
    grid = dec.grid
    l_top = min(dec.k_max, grid.l_max)
    pieces = dec.pieces
    best = [0.0] * (l_top + 1)
    running = np.zeros(grid.shape)
    for k in range(dec.k_max, -1, -1):
        term = 2.0 ** (k * s) * (1.0 + k) ** b * np.abs(pieces[k].values)
        running = np.maximum(running, term) if q == INF else running + term**q
        if k <= l_top:
            best[k] = float(running.max() if q == INF else CubeMeanTable(grid, running).means(k).max() ** (1.0 / q))
    return best


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
@pytest.mark.parametrize("spec", ["cube", "bump:l=3"])
@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_tl_norm_matches_the_descending_running_sum(dim, J, spec, q):
    """Real and complex members: the tl levels read off the cube tables
    agree with the running sum over the pieces to 1e-13 relative, and bit
    for bit at q = inf."""
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    f = gallery_from_spec(grid, spec)
    dec = decompose(f, part)
    want = _descending_tl(dec, 0.5, 1.0, q)
    got = tl_norm_inf(f, part, 0.5, 1.0, q, dec=dec)
    if q == INF:
        assert got.per_level == want
    else:
        assert len(got.per_level) == len(want)
        for g, w in zip(got.per_level, want):
            assert abs(g - w) <= 1e-13 * w
    assert got.value == max(got.per_level)


@pytest.mark.parametrize("dim, J", [(1, 12), (2, 8)])
def test_piece_tables_hold_the_levels_up_to_the_piece(dim, J, usable_cpus):
    """The table of piece k keeps exactly the cube levels 0..min(k, l_max),
    on the 1D pass and on the 2D passes of two workers, with and without
    L^p norms, alike; a level above is a `ResolutionError` naming it."""
    usable_cpus(2)
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    for spec in ("cube", "bump:l=3"):
        for lp in ((), (2.0,)):
            dec = decompose(gallery_from_spec(grid, spec), part)
            dec.analyze(cube_exponents=(2.0,), lp_exponents=lp)
            for k in range(part.k_max + 1):
                table, top = dec.cube_table(k, 2.0), min(k, grid.l_max)
                assert len(table._sums) == top + 1
                for level in range(top + 1):
                    assert table.means(level).min() >= 0.0
                with pytest.raises(ResolutionError, match=f"cube level {top + 1} "):
                    table.means(top + 1)


def test_complex_tail_fraction_holds_no_copy_of_the_coefficients():
    """On a given 2D J=9 complex decomposition, `tail_fraction` reads the
    kept coefficients as they are: it peaks below 2 complex lattice arrays
    (2.54 with a normalized copy of them)."""
    grid = GridSpec(2, 9)
    part = build_partition(grid)
    f = gallery_from_spec(grid, "bump:l=3")
    dec = decompose(f, part)
    assert dec.dtype == np.complex128
    want = band_energy_fraction(f, 0.0, 2.0 ** (part.k_max - 1))
    assert _traced_peak(dec.tail_fraction) < 2 * _complex_array_bytes(grid)
    assert dec.tail_fraction() == want


def test_product_report_holds_a_window_of_pieces():
    """The paraproduct pass holds a few pieces at a time: `product_report`
    at 1D J=16 peaks below 16 complex lattice arrays (35 when both piece
    lists were held)."""
    grid = GridSpec(1, 16)
    part = build_partition(grid)
    for k in range(part.k_max + 1):
        part.symbol(k)
    f = make_indicator(grid, "cube")
    g = gallery_from_spec(grid, "exp:m=5")
    assert _traced_peak(lambda: product_report(f, g, part)) < 16 * _complex_array_bytes(grid)

def _whole_list_paraproducts(dec_f, dec_g) -> list[np.ndarray]:
    """Pi1, Pi2, Pi3 from the whole piece lists of f and g, each sum taken in
    the order of the streamed pass."""
    pf, pg = [u.values for u in dec_f.pieces], [u.values for u in dec_g.pieces]
    n = len(pf)
    zero = np.zeros(pf[0].shape, dtype=np.complex128)
    pi2 = sum((pf[j] * pg[k] for k in range(n) for j in (k - 1, k, k + 1) if 0 <= j < n), zero)
    pi1 = pi3 = low_f = low_g = zero
    for k in range(2, n):
        low_f, low_g = low_f + pf[k - 2], low_g + pg[k - 2]
        pi1, pi3 = pi1 + low_f * pg[k], pi3 + pf[k] * low_g
    return [pi1, pi2, pi3]


def test_product_report_reads_each_piece_list_once(monkeypatch):
    """The three paraproducts of one report come from one pass that makes
    each piece of f and of g once, S_{k+1} f ahead of S_k g: 2 forward and
    2 (K_max + 1) inverse FFTs, not 6 (K_max + 1), and the paraproducts of
    the whole piece lists bit for bit."""
    grid = GridSpec(1, 12)
    part = build_partition(grid)
    f = make_indicator(grid, "cube")
    g = make_exponential(grid, (5,))
    want = _whole_list_paraproducts(decompose(f, part), decompose(g, part))
    calls = _count_ffts(monkeypatch)
    report = product_report(f, g, part)
    n = part.k_max + 1
    assert calls == ["rfftn", "fftn", "irfft"] + ["irfft", "ifft"] * (n - 1) + ["ifft"]
    for got, ref in zip((report.pi1, report.pi2, report.pi3), want):
        assert np.array_equal(got.values, ref)


@pytest.mark.parametrize("specs", [("exp:m=3", "cube"), ("cube", "halfspace"), ("bump:l=3", "exp:m=4")])
@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
def test_streamed_paraproducts_match_the_whole_piece_lists(dim, J, specs):
    """Real and complex factors in either slot, in 1D and 2D: the streamed
    pass gives the paraproducts of the whole piece lists bit for bit."""
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    f, g = (gallery_from_spec(grid, spec) for spec in specs)
    want = _whole_list_paraproducts(decompose(f, part), decompose(g, part))
    report = product_report(f, g, part)
    for got, ref in zip((report.pi1, report.pi2, report.pi3), want):
        assert np.array_equal(got.values, ref)


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
                for level in range(min(k, grid.l_max) + 1):
                    assert np.array_equal(table.means(level), oracle.means(level)), (k, r, level)


def _everything(f, part) -> list:
    """Every reduction a consumer reads, on a fresh decomposition each: the
    verdicts at p = 1, 2, inf, Besov norms (p = 2 and 4) and tl_norm_inf."""
    out = [verdict(f, part, p, 0.5, dec=decompose(f, part)).to_dict() for p in (1.0, 2.0, INF)]
    for p in (2.0, 4.0):
        out.append(besov_norm(f, part, BesovParams(0.0, 1.0, p, 2.0), dec=decompose(f, part)).per_level)
    out.append(tl_norm_inf(f, part, 0.0, 1.0, 2.0, dec=decompose(f, part)).per_level)
    dec = decompose(f, part)
    dec.analyze(cube_exponents=(1.5, 3.0), lp_exponents=(1.0, INF))
    out.append([dec.sup_norms().tolist(), dec.lp_norms(1.0).tolist(), dec.lp_norms(INF).tolist()])
    levels = [(k, l) for k in range(part.k_max + 1) for l in range(min(k, part.grid.l_max) + 1)]
    out.append([dec.cube_table(k, r).means(l).tolist() for k, l in levels for r in (1.5, 3.0)])
    return out


@pytest.mark.parametrize("spec", ["cube", "halfspace", "bump:l=3", "exp:m=3"])
def test_two_worker_pass_matches_one_worker_bit_for_bit(spec, usable_cpus):
    """Real and complex 2D members: every verdict, norm and reduction is the
    same, bit for bit, whether the pass runs on one worker or on two."""
    grid = GridSpec(2, 8)
    part = build_partition(grid)
    f = gallery_from_spec(grid, spec)
    got = {}
    for n in (1, 2):
        usable_cpus(n)
        got[n] = _everything(f, part)
    assert got[1] == got[2]


@pytest.mark.parametrize("spec", ["cube", "lacunary:beta=0.5,levels=5", "bump:l=3", "exp:m=5"])
def test_2d_pass_reductions_match_the_pieces(spec, usable_cpus):
    """A 2D pass makes each piece a band of rows (real) or columns (complex)
    at a time, also when it reads L^p norms: its sup norms and cube tables
    are those of the whole pieces bit for bit, and its L^p norms, whose band
    sums are added in band order, agree with `lp_norm` to 1e-15 relative."""
    usable_cpus(2)
    grid = GridSpec(2, 9)
    part = build_partition(grid)
    f = gallery_from_spec(grid, spec)
    dec = decompose(f, part)
    dec.analyze(cube_exponents=(4.0 / 3.0, 4.0), lp_exponents=(1.0, 3.0, INF))
    pieces = dec.pieces
    assert dec.sup_norms().tolist() == [np.abs(u.values).max() for u in pieces]
    assert dec.lp_norms(INF).tolist() == dec.sup_norms().tolist()
    for p in (1.0, 3.0):
        for got, u in zip(dec.lp_norms(p).tolist(), pieces):
            want = lp_norm(u, p)
            assert abs(got - want) <= 1e-15 * want
    for k, u in enumerate(pieces):
        for r in (4.0 / 3.0, 4.0):
            want = CubeMeanTable(grid, np.abs(u.values) ** r)
            for level in range(min(k, grid.l_max) + 1):
                assert np.array_equal(dec.cube_table(k, r).means(level), want.means(level))


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 8)])
def test_whole_pieces_are_reduced_only_in_1d(dim, J, usable_cpus, monkeypatch):
    """Every pass on a 2D grid is banded, whatever it reads; a 1D pass
    reduces whole pieces."""
    usable_cpus(2)
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    called = []
    for name in ("_reduce_level", "_reduce_bands"):
        real = getattr(SpectralDecomposition, name)

        def recording(self, k, *args, _real=real, _name=name):
            called.append(_name)
            return _real(self, k, *args)

        monkeypatch.setattr(SpectralDecomposition, name, recording)
    for spec in ("cube", "exp:m=3"):
        f = gallery_from_spec(grid, spec)
        for cubes, lp in (((), ()), ((2.0,), ()), ((), (2.0,)), ((1.0,), (1.0, INF))):
            decompose(f, part).analyze(cube_exponents=cubes, lp_exponents=lp)
    want = "_reduce_level" if dim == 1 else "_reduce_bands"
    assert called and set(called) == {want}


@pytest.mark.parametrize("shape", [(1,), (2,), (1 << 10,), (1 << 14,), (64, 64), (256, 256)])
def test_packed_moduli_are_np_abs(shape):
    """|z| written into the first half of z's own bytes is `np.abs(z)` bit
    for bit, contiguous, in z's memory; a real array is taken in place."""
    rng = np.random.default_rng(7)
    z = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) + 1j * rng.standard_normal(shape)
    z.flat[0] = np.inf + 1j
    z.flat[-1] = np.nan
    want = np.abs(z)
    got = _moduli(z)
    assert got.shape == shape and got.dtype == np.float64 and got.flags.c_contiguous
    assert np.shares_memory(got, z)
    assert np.array_equal(got, want, equal_nan=True)
    x = rng.standard_normal(shape)
    want = np.abs(x)
    assert _moduli(x) is x and np.array_equal(x, want)


@pytest.mark.parametrize("spec", ["cube", "bump:l=3"])
def test_nonfinite_sample_on_the_helper_raises_as_serial(spec, usable_cpus, monkeypatch):
    """An inf sample makes every piece non-finite: the helper's levels fail
    too, the caller gets the serial pass's `InvalidInputError`, and no
    thread is left running."""
    grid = GridSpec(2, 8)
    part = build_partition(grid)
    values = gallery_from_spec(grid, spec).values.copy()
    values[3, 5] = np.inf
    f = SampledFunction(grid, values)
    errors = {}
    for n in (1, 2):
        usable_cpus(n)
        with pytest.raises(InvalidInputError) as info:
            decompose(f, part).analyze(lp_exponents=(2.0,))
        errors[n] = str(info.value)
    assert errors[1] == errors[2] == "non-finite samples rejected"
    failed = []
    reduce_bands = SpectralDecomposition._reduce_bands

    def recording(self, k, *args):
        try:
            return reduce_bands(self, k, *args)
        except InvalidInputError:
            failed.append((k, threading.current_thread() is threading.main_thread()))
            raise

    monkeypatch.setattr(SpectralDecomposition, "_reduce_bands", recording)
    start = threading.active_count()
    with pytest.raises(InvalidInputError, match="non-finite samples rejected"):
        decompose(f, part).analyze(lp_exponents=(2.0,))
    assert threading.active_count() == start
    # one failing level per worker: the helper's first is level 0
    assert sorted(on_main for _, on_main in failed) == [False, True]
    assert (0, False) in failed
    with pytest.raises(InvalidInputError, match="non-finite samples rejected"):
        verdict(f, part, 2.0, 0.5)
    assert threading.active_count() == start


@pytest.mark.parametrize("dim, J", [(1, 8), (2, 7)])
def test_overflowing_powers_are_input_errors(dim, J, usable_cpus):
    """|S_0 f|^400 of the constant 10 is beyond the float range: the L^p
    norm names p, as `lp_norm` does, and the cube tables name the exponent,
    on the helper's levels too, without a numpy warning (warnings fail this
    test)."""
    usable_cpus(2)
    grid = GridSpec(dim, J)
    part = build_partition(grid)
    f = make_constant(grid, 10.0)
    with pytest.raises(InvalidInputError, match=r"^p=400.0 makes \|f\|\^p overflow$"):
        decompose(f, part).analyze(lp_exponents=(2.0, 400.0))
    with pytest.raises(InvalidInputError, match=r"^cube means of \|S_k f\|\^400.0 overflow$"):
        decompose(f, part).analyze(cube_exponents=(2.0, 400.0))
    with pytest.raises(InvalidInputError, match="^p=400.0 makes"):
        lp_norm(f, 400.0)


def test_complex_2d_passes_hold_two_lattice_arrays_beside_the_coefficients(usable_cpus):
    """On two workers, a 2D J=9 p = 2 verdict of a complex member peaks
    below its coefficients plus two complex lattice arrays, plus a quarter
    of one: the calling worker's box rows (in a lattice-sized array), the
    helper's, a band of columns per worker with its moduli packed in, and
    the cube tables.  A pass that reads L^p norms makes the pieces in the
    same bands: it peaks below two units (1.78 measured), and on a real
    member below one (0.81 measured), so no worker holds a whole piece.
    The bounds hold when the pass reads p = 1, 3 and inf too: the last
    finite exponent, not the inf one, raises the band in place."""
    usable_cpus(2)
    grid = GridSpec(2, 9)
    part = build_partition(grid)
    for k in range(part.k_max + 1):
        part.symbol(k)
    f = gallery_from_spec(grid, "bump:l=3")
    assert f.values.dtype == np.complex128
    unit = _complex_array_bytes(grid)
    assert _traced_peak(lambda: verdict(f, part, 2.0, 0.5)) < 3.25 * unit
    for spec, bound in (("bump:l=3", 2.0), ("cube", 1.0)):
        for ps in ((2.0,), (1.0, 3.0, INF)):
            dec = decompose(gallery_from_spec(grid, spec), part)
            assert _traced_peak(lambda: dec.analyze(lp_exponents=ps)) < bound * unit, ps


def test_a_pass_inside_a_runner_row_stays_serial(usable_cpus, monkeypatch):
    """2D verdicts run as rows of `_map_rows` start no helper of their own:
    one thread in all for the rows; outside a row the pass starts one."""
    usable_cpus(2)
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    grid = GridSpec(2, 7)
    part = build_partition(grid)
    fs = [gallery_from_spec(grid, spec) for spec in ("cube", "bump:l=3", "exp:m=3")]
    _map_rows(lambda f, _: verdict(f, part, 2.0, 0.5), fs)
    assert len(started) == 1
    verdict(fs[0], part, 2.0, 0.5)
    assert len(started) == 2
