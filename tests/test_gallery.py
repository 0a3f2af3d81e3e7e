import math
import tracemalloc

import numpy as np
import pytest

from logbesov.errors import (
    AliasingError,
    DomainError,
    InvalidInputError,
    LevelOverflowError,
)
from logbesov import gallery
from logbesov.experiments import _exact_exponential
from logbesov.gallery import (
    _case_pattern,
    _plateau_profile,
    BumpSpec,
    PacketSpec,
    StackSpec,
    expo7_family,
    gallery_from_spec,
    make_bump,
    make_exponential,
    make_indicator,
    make_lacunary,
    make_modulated_packet,
    make_stack,
    stack_plateau_cubes,
)
from logbesov.grid import INF, GridSpec, SampledFunction, _exact_bins, _forward, _trig_polynomial, _written, lp_norm
from logbesov.norms import BesovParams, besov_norm
from logbesov.partition import build_partition, decompose

import packet_oracle
from lattice_oracle import lattice_piece, spectrum


# --- exponentials ---------------------------------------------------------


def test_exponential_basics(grid10):
    f = make_exponential(grid10, (0,))
    assert np.abs(f.values - 1.0).max() == 0.0
    f = make_exponential(grid10, (7,))
    c = spectrum(f)
    idx = np.nonzero(np.abs(c) > 1e-12)[0]
    assert list(idx) == [7]
    with pytest.raises(AliasingError):
        make_exponential(grid10, (grid10.n_samples // 2,))


def test_exponential_projection_support(part12):
    """Projections of e^{i5x} are nonzero exactly where phi_j(5) is."""
    g = part12.grid
    f = make_exponential(g, (5,))
    m = g.freq_axis()
    idx5 = np.nonzero(m == 5)[0][0]
    active = {j for j in range(part12.k_max + 1) if part12.symbol(j)[idx5] > 1e-15}
    assert active == {2, 3}  # 5 sits in the level-2 and level-3 annuli
    for j in range(part12.k_max + 1):
        norm = lp_norm(lattice_piece(f, part12, j), INF)
        if j in active:
            assert norm > 1e-3
        else:
            assert norm < 1e-12


# --- indicators ------------------------------------------------------------


def test_indicator_shapes(grid10):
    cube = make_indicator(grid10, "cube")
    assert set(np.unique(cube.values.real)) == {0.0, 1.0}
    assert lp_norm(cube, INF) == 1.0
    half = make_indicator(grid10, "halfspace")
    xs = grid10.axis()
    assert np.array_equal(half.values.real, (xs >= 0).astype(float))
    with pytest.raises(InvalidInputError):
        make_indicator(grid10, "sphere")


def test_indicator_projections_no_decay(part12):
    f = make_indicator(part12.grid, "cube")
    dec = decompose(f, part12)
    sups = dec.sup_norms()
    assert sups[6:].min() > 0.05


def test_halfspace_indicator_2d(grid2d):
    f = make_indicator(grid2d, "halfspace")
    assert f.values[0, 0] == 0.0  # x = (-pi, -pi)
    n = grid2d.n_samples
    assert f.values[0, n // 2] == 1.0  # x2 = 0


# --- bumps ------------------------------------------------------------------


def test_bump_base_shape(grid12):
    h = make_bump(grid12, BumpSpec(2, (0.0,)))
    vals = h.values.real
    assert abs(h.values.mean()) < 1e-14
    assert np.abs(h.values.imag).max() < 1e-12
    assert vals.max() == pytest.approx(1.0, abs=1e-9)
    assert vals.min() == pytest.approx(-1.0, abs=1e-9)
    xs = grid12.axis()
    inside_plus = (xs >= 0.01) & (xs <= 0.24)
    inside_minus = (xs >= 0.51) & (xs <= 0.74)
    assert np.abs(vals[inside_plus] - 1.0).max() < 1e-9
    assert np.abs(vals[inside_minus] + 1.0).max() < 1e-9
    outside = (xs < -0.13) | (xs > 0.89)
    assert np.abs(vals[outside]).max() < 1e-9


def test_bump_support_overflow(grid10):
    with pytest.raises(DomainError):
        make_bump(grid10, BumpSpec(2, (3.0,)))


def test_bump_nan_anchor_rejected(grid10):
    # a NaN anchor passes the support check and would sample as zero
    with pytest.raises(InvalidInputError):
        make_bump(grid10, BumpSpec(2, (math.nan,)))


def test_bump_level_beyond_grid(grid10):
    # above K_max - 1 the samples no longer resolve h_l (its peak is noise)
    assert np.abs(make_bump(grid10, BumpSpec(grid10.k_max - 1, (0.0,))).values).max() > 0.05
    with pytest.raises(LevelOverflowError):
        make_bump(grid10, BumpSpec(grid10.k_max, (0.0,)))


def test_bump_translation_invariance(part12):
    g = part12.grid
    base = BumpSpec(5, (0.0,))
    shifted = BumpSpec(5, (16 * g.spacing,))
    h0 = make_bump(g, base)
    h1 = make_bump(g, shifted)
    for p in (1.0, 2.0, INF):
        for j in (2, 4, 6):
            a = lp_norm(lattice_piece(h0, part12, j), p)
            b = lp_norm(lattice_piece(h1, part12, j), p)
            assert abs(a - b) <= 1e-10 * max(a, 1e-6)


def test_bump_growth_branch_rates(part12):
    """Projection growth toward the bump level: log2-slope n/p' + 1."""
    g = part12.grid
    l = 7
    h = make_bump(g, BumpSpec(l, (0.0,)))
    dec = decompose(h, part12)
    for p, target in ((1.0, 1.0), (2.0, 1.5), (INF, 2.0)):
        norms = np.array([lp_norm(piece, p) for piece in dec.pieces])
        js = np.arange(2, l)
        slope = np.polyfit(js, np.log2(norms[js]), 1)[0]
        assert abs(slope - target) < 0.15


def test_bump_decay_branch_p1(part12):
    g = part12.grid
    l = 7
    h = make_bump(g, BumpSpec(l, (0.0,)))
    dec = decompose(h, part12)
    norms = np.array([lp_norm(piece, 1.0) for piece in dec.pieces])
    js = np.arange(l, part12.k_max + 1)
    slope = np.polyfit(js, np.log2(norms[js]), 1)[0]
    assert abs(slope + 1.0) < 0.2


def _fine_grid_bump(grid, spec):
    """h_l built the way `make_bump` first did it: the whole profile sampled
    on the refined lattice, its `fftn` truncated to the grid's bins and
    synthesized, then the mean removed."""
    n = grid.n_samples
    width = (1.0 / spec.scale()) / 8.0
    refine = 1
    while grid.spacing / refine > width / 16.0:
        refine *= 2
    cap = 1 << 21 if grid.dim == 1 else 1 << 11
    fine = n * min(refine, max(1, cap // n))
    ax = -math.pi + (2.0 * math.pi / fine) * np.arange(fine)
    plus = minus = 1.0
    for u in np.meshgrid(*[spec.scale() * (ax - a) for a in spec.anchor], indexing="ij", sparse=True):
        plus = plus * _plateau_profile(u)
        minus = minus * _plateau_profile(0.75 - u)
    h = plus - minus
    coeffs = np.fft.fftn(h) / h.size
    keep = np.r_[0 : n // 2, fine - n // 2 : fine]
    vals = np.fft.ifftn(coeffs[np.ix_(*[keep] * grid.dim)]) * n**grid.dim
    return vals - vals.mean()


@pytest.mark.parametrize("log2_samples", [6, 7, 8])
def test_bump_2d_matches_fine_grid_oracle(log2_samples):
    """The factor-by-factor build equals the refined-lattice one to rounding,
    at every level, for two anchors, and so do the stacks."""
    g = GridSpec(2, log2_samples)
    oracle = {}
    for anchor in ((-1.0, -1.0), (-2.0, -0.5)):
        for lvl in range(g.k_max):
            want = oracle[lvl, anchor] = _fine_grid_bump(g, BumpSpec(lvl, anchor))
            got = make_bump(g, BumpSpec(lvl, anchor)).values
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    top = g.k_max - 1
    for spec in (StackSpec(spacing=1, depth=top, p=2.0, b=0.5), StackSpec(spacing=2, offset=1, depth=top, p=INF)):
        over_p = 0.0 if spec.p == INF else g.dim / spec.p
        want = sum(
            (1j**i) * 2.0 ** (lvl * over_p) * (1.0 + lvl) ** (-spec.b) * oracle[lvl, anchor]
            for i, (lvl, anchor) in enumerate(stack_plateau_cubes(g, spec))
        )
        got = make_stack(g, spec).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_bump_1d_is_the_fine_grid_oracle_bit_for_bit(grid12):
    for lvl in range(grid12.k_max):
        for anchor in ((-1.0,), (-2.0,)):
            spec = BumpSpec(lvl, anchor)
            assert np.array_equal(make_bump(grid12, spec).values, _fine_grid_bump(grid12, spec))


def test_stack_2d_builds_at_lattice_size():
    """A 2D stack holds at most three lattice-sized complex arrays beside its
    result while it builds: no array of the refined lattice is formed."""
    g = GridSpec(2, 9)
    spec = StackSpec(spacing=2, depth=6, p=2.0, b=0.0)
    make_stack(g, spec)
    tracemalloc.start()
    try:
        result = make_stack(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - result.values.nbytes <= 3 * result.values.nbytes


# --- stacks -----------------------------------------------------------------


def test_stack_single_level_reduces_to_bump(grid12):
    spec = StackSpec(spacing=4, offset=0, depth=3, p=2.0, b=0.5)
    assert spec.levels() == [0]
    st = make_stack(grid12, spec)
    bump = make_bump(grid12, BumpSpec(0, (-1.0,)))
    assert np.abs(st.values - bump.values).max() < 1e-12


def test_stack_coefficients_pinf_b0(grid12):
    # p = INF, b = 0: coefficients are exactly i^l
    spec = StackSpec(spacing=3, offset=0, depth=6, p=INF, b=0.0)
    st = make_stack(grid12, spec)
    parts = [make_bump(grid12, BumpSpec(lvl, (-1.0,))) for lvl in (0, 3, 6)]
    manual = parts[0].values + 1j * parts[1].values - parts[2].values
    assert np.abs(st.values - manual).max() < 1e-12


def test_stack_levels_guard(grid10):
    with pytest.raises(LevelOverflowError):
        make_stack(grid10, StackSpec(spacing=1, offset=0, depth=grid10.k_max))


def test_stack_uniform_besov_bound(part12):
    """The weighted stack stays uniformly bounded in its Besov space as the
    depth grows (measured constants)."""
    g = part12.grid
    p, b = 2.0, 0.5
    spacing = 5  # the least stride whose terms dominate geometrically at dim 1, p = 2, b = 1/2
    norms = []
    for depth in (2, 5, 8):
        st = make_stack(g, StackSpec(spacing=spacing, offset=0, depth=depth, p=p, b=b))
        norms.append(besov_norm(st, part12, BesovParams(0.0, b, p, INF)).value)
    assert max(norms) < 10.0
    assert max(norms) / min(norms) < 2.0


def test_stack_tail_bound(part12):
    """sum_{k>N} ||S_k g||_p <= C (1+N)^{-b} with stable measured C.

    Depths sit on stack levels so the tail always sees the deepest bump's
    spectral peak; stride 3 keeps several levels in play (the tail bound does
    not need the larger stride that the pointwise lower bound wants).
    """
    g = part12.grid
    p, b = 2.0, 1.0
    cs = []
    for depth in (3, 6, 9):
        st = make_stack(g, StackSpec(spacing=3, offset=0, depth=depth, p=p, b=b))
        pieces = decompose(st, part12).pieces
        tail = sum(lp_norm(piece, p) for piece in pieces[depth + 1 :])
        cs.append(tail * (1.0 + depth) ** b)
    assert max(cs) < 10.0
    assert max(cs) / min(cs) < 4.0


def test_stack_pointwise_lower_bound(part12):
    """|g 1_{union}| >= (1/C) sum 2^{l n/p}(1+l)^{-b} 1_{Q_l} on the nested
    plateau cubes, with C stable across depths."""
    g = part12.grid
    p, b = 2.0, 0.5
    spacing = 5  # the least stride whose terms dominate geometrically at dim 1, p = 2, b = 1/2
    xs = g.axis()
    cs = []
    for depth in (4, 8):
        spec = StackSpec(spacing=spacing, offset=0, depth=depth, p=p, b=b)
        st = make_stack(g, spec)
        target = np.zeros(g.shape)
        union = np.zeros(g.shape, dtype=bool)
        for i, (lvl, anchor) in enumerate(stack_plateau_cubes(g, spec)):
            inside = (xs >= anchor[0]) & (xs < anchor[0] + 2.0**-lvl)
            # stay clear of the band-limited plateau edges
            core = (xs >= anchor[0] + 2.0**-lvl * 0.15) & (
                xs < anchor[0] + 2.0**-lvl * 0.85
            )
            target += 2.0 ** (lvl / p) * (1.0 + lvl) ** (-b) * inside
            union |= core
        ratio = target[union] / np.abs(st.values[union])
        cs.append(ratio.max())
    assert max(cs) < 10.0
    assert max(cs) / min(cs) < 3.0


# --- modulated packets -------------------------------------------------------


# the largest gap between a packet and its integer-phase oracle, relative to
# the oracle's max, is 1.3e-15 (1D J=12, J=14 and J=20, 2D J=10)
ORACLE_BOUND = 1e-14


def _oracle_error(f, want) -> float:
    return float(np.abs(f.values - want).max() / np.abs(want).max())


def test_envelope_annulus(grid12):
    """The envelope made from its sphere's terms carries bins only inside
    the closed annulus 3/2 <= |xi| <= 2, some of them nonzero; its samples
    are real to 1e-12 and match the integer-phase oracle."""
    env = _trig_polynomial(grid12, [(m, 1.0) for m in gallery._envelope_sphere(grid12)])
    coeffs = _written(env.spectrum, grid12.shape)
    rho = grid12.freq_radius()
    outside = (rho < 1.5) | (rho > 2.0)
    assert np.abs(coeffs[outside]).max() == 0.0
    assert np.abs(coeffs).max() > 0
    assert np.abs(env.values.imag).max() < 1e-12
    assert _oracle_error(env, packet_oracle.envelope(grid12)) <= ORACLE_BOUND
    # positivity is NOT asserted; the minimum is only reported
    assert env.values.real.min() < 0


@pytest.mark.parametrize("dim, J", [(1, 7), (1, 12), (2, 7), (2, 8)])
def test_envelope_and_packets_match_the_radius_mask_bit_for_bit(dim, J):
    """The envelope's bins, e^{i m.x} over the sphere |m| = 2, are N^dim
    times the radius mask |m| = 2, which is where the closed annulus
    3/2 <= |xi| <= 2 meets the lattice; a Case-5 packet's bins are the
    envelope's shifted by 2^m e_1, and so is every other term's."""
    grid = GridSpec(dim, J)
    envelope = _written(_exact_bins(grid, [(m, 1.0) for m in gallery._envelope_sphere(grid)]), grid.shape)
    rho = grid.freq_radius()
    assert np.array_equal(envelope, grid.n_samples**dim * (np.abs(rho - 2.0) < 1e-12))
    assert not envelope[(rho < 1.5) | (rho > 2.0)].any()
    m = grid.k_max - 2
    for alpha in ({m: 1.0}, {1: 0.5, m - 1: -2.0}):
        f = make_modulated_packet(grid, PacketSpec(m, alpha))
        want = sum(a * np.roll(envelope, 1 << j, axis=0) for j, a in alpha.items())
        assert np.array_equal(_written(f.spectrum, grid.shape), want)


def test_packet_summand_support(grid12):
    m = 7
    f = make_modulated_packet(grid12, PacketSpec(m, {4: 1.0}))
    c = spectrum(f)
    ms = grid12.freq_axis()
    idx = np.nonzero(np.abs(c) > 1e-13)[0]
    assert np.all(np.abs(ms[idx] - 2**4) <= 2)


def test_packet_case5_is_shifted_envelope(grid12):
    m = 7
    f = make_modulated_packet(grid12, PacketSpec(m, {m: 1.0}))
    manual = packet_oracle.envelope(grid12) * packet_oracle.wave(grid12, (1 << m,))
    assert _oracle_error(f, manual) <= ORACLE_BOUND


def test_packet_m3_single_term(grid12):
    """At m = 3 Case 1 keeps the one level j = 1: Psi e^{2 i x_1}, two bins."""
    fam = expo7_family(grid12, 3, 0.0, cases=(1,))
    assert _case_pattern(3, 0.0, 1) == {1: 1.0} and len(fam[0][1].spectrum) == 2
    manual = packet_oracle.envelope(grid12) * packet_oracle.wave(grid12, (2,))
    assert _oracle_error(fam[0][1], manual) <= ORACLE_BOUND


def test_packet_norm_bound_case1(part12):
    """||packet||_{B^{0,b}_{p,inf}} <= C sup_j (1+j)^b |alpha_j| ||Psi||_p."""
    g = part12.grid
    psi = SampledFunction(g, packet_oracle.envelope(g))
    for b in (0.0, 0.5):
        for m in (6, 8):
            fam = expo7_family(g, m, b, cases=(1,))
            val = besov_norm(fam[0][1], part12, BesovParams(0.0, b, 4.0, INF)).value
            bound = (1.0 + (m - 2)) ** b * lp_norm(psi, 4.0)
            assert val <= 4.0 * bound


def test_packet_family_makes_one_inverse_transform_per_member(grid12, monkeypatch):
    """A family build makes one `ifftn` per distinct member and no other
    transform, and no wave of x per level; cases with equal coefficients
    share one member."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    for name in ("exp", "cos", "sin"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    m = 7
    shared = {0.0: ("case1", "case3", "case4"), 0.5: ("case2", "case3", "case4"), 1.0: ("case3", "case4")}
    for b, equal in shared.items():
        calls.clear()
        fam = dict(expo7_family(grid12, m, b))
        assert all(fam[name] is fam[equal[0]] for name in equal)
        distinct = 5 - len(equal) + 1
        assert len({id(f) for f in fam.values()}) == distinct
        assert calls == ["ifftn"] * distinct


def _bins_error(grid, f) -> float:
    """max |bins - _forward(samples)| over the lattice, relative to the max
    modulus of the transform; the bins are written into zeros as
    `decompose` writes them."""
    fw = _forward(f.values)
    return float(np.abs(decompose(f, build_partition(grid)).coeffs - fw).max() / np.abs(fw).max())


@pytest.mark.parametrize("dim, J, ms", [(1, 14, range(3, 11)), (2, 10, range(3, 7)), (1, 20, (16,))], ids=["1-14", "2-10", "1-20"])
def test_packets_match_the_integer_phase_oracle(dim, J, ms):
    """Every packet, built by the family, the one-packet maker and the CLI
    spec alike, matches its integer-phase oracle within `ORACLE_BOUND` of
    its max, for every admissible m (one m at 1D J=20).  Its product with
    e^{-i 2^m x_1} carries bins within `ORACLE_BOUND` of the max of the
    forward transform of the oracle's product (4.9e-16 at worst measured);
    the bins' phase (-1)^k is checked, not assumed."""
    grid = GridSpec(dim, J)
    for m in ms:
        k = (-(1 << m),) + (0,) * (dim - 1)
        f, down = _exact_exponential(grid, k), packet_oracle.wave(grid, k)
        distinct = []  # members of equal bins have equal samples: each is checked once
        for b in (-2.0, 0.5, 2.0):
            family = dict(expo7_family(grid, m, b))
            if b == 2.0:
                one = make_modulated_packet(grid, PacketSpec(m, _case_pattern(m, b, 2)))
                spec = gallery_from_spec(grid, f"packet:m={m},case=4,b={b}")
                assert one.spectrum == family["case2"].spectrum and spec.spectrum == family["case4"].spectrum
            for case in (1, 2, 3, 5):
                g = family[f"case{case}"]
                if any(g.spectrum == d.spectrum for d in distinct):
                    continue
                distinct.append(g)
                want = packet_oracle.packet(grid, _case_pattern(m, b, case))
                assert _oracle_error(g, want) <= ORACLE_BOUND
                h = f * g
                assert h.spectrum is not None and len(h.spectrum) <= 2 * dim * (m - 2)
                fw = np.fft.fftn(want * down)
                assert np.abs(_written(h.spectrum, grid.shape) - fw).max() <= ORACLE_BOUND * np.abs(fw).max()


@pytest.mark.parametrize("k", [(3,), (-5,), (8,), (3, 1), (-4, 1), (6, -2)])
def test_exact_exponential_bin_carries_the_grid_phase(k):
    """e^{ik.x} carries one bin, N^dim (-1)^(k_1 + ... + k_dim) at k mod N,
    which is the forward transform of its samples to 1e-12 of its max."""
    grid = GridSpec(len(k), 10 if len(k) == 1 else 7)
    f = _exact_exponential(grid, k)
    n = grid.n_samples
    assert f.spectrum == {tuple(ki % n for ki in k): complex((-1) ** sum(k) * n ** len(k))}
    assert _bins_error(grid, f) <= 1e-12


def test_packet_level_guard(grid10):
    with pytest.raises(LevelOverflowError):
        make_modulated_packet(grid10, PacketSpec(grid10.k_max, {3: 1.0}))
    with pytest.raises(InvalidInputError):
        make_modulated_packet(grid10, PacketSpec(5, {0: 1.0}))


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_nonfinite_b_is_rejected_before_any_sample(grid10, b, monkeypatch):
    """A non-finite b of a packet family or a stack is an input error naming
    b, raised before any sample is made."""
    monkeypatch.setattr(np.fft, "ifftn", None)
    monkeypatch.setattr(gallery, "make_bump", None)
    with pytest.raises(InvalidInputError, match="^b must be finite"):
        expo7_family(grid10, 6, b)
    with pytest.raises(InvalidInputError, match="^b must be finite"):
        make_stack(grid10, StackSpec(spacing=2, depth=5, b=b))


# --- lacunary + CLI specs ----------------------------------------------------


def test_lacunary_guard(grid10):
    with pytest.raises(LevelOverflowError):
        make_lacunary(grid10, np.ones(grid10.k_max + 1))


def test_gallery_specs(grid10):
    f = gallery_from_spec(grid10, "exp:m=5")
    g = make_exponential(grid10, (32,))
    assert np.abs(f.values - g.values).max() == 0.0
    f = gallery_from_spec(grid10, "exp:k=17,neg")
    g = make_exponential(grid10, (-17,))
    assert np.abs(f.values - g.values).max() == 0.0
    assert gallery_from_spec(grid10, "cube") is not None
    assert gallery_from_spec(grid10, "halfspace") is not None
    assert gallery_from_spec(grid10, "stack:m=2,b=0.5,p=2,n=5") is not None
    assert gallery_from_spec(grid10, "packet:m=6,case=5,b=-1") is not None
    assert gallery_from_spec(grid10, "lacunary:beta=0.5,levels=6") is not None
    with pytest.raises(InvalidInputError):
        gallery_from_spec(grid10, "wavelet:havoc")


def test_bump_2d_shape():
    # J=8 resolves the transitions with ~5 samples; plateau fidelity and the
    # overshoot are limited by the band-limit at this resolution
    g = GridSpec(2, 8)
    h = make_bump(g, BumpSpec(2, (0.0, 0.0)))
    vals = h.values.real
    assert abs(h.values.mean()) < 1e-13
    xs = g.axis()
    plus = (xs >= 0.05) & (xs <= 0.20)
    minus = (xs >= 0.55) & (xs <= 0.70)
    assert np.abs(vals[np.ix_(plus, plus)] - 1.0).max() < 6e-3
    assert np.abs(vals[np.ix_(minus, minus)] + 1.0).max() < 6e-3
    assert np.abs(vals).max() <= 1.02
    outside = (xs < -0.2) | (xs > 0.95)
    assert np.abs(vals[outside, :]).max() < 6e-3


def test_gallery_reproducible_bit_for_bit(grid12):
    a = make_bump(grid12, BumpSpec(5, (0.0,)))
    b = make_bump(grid12, BumpSpec(5, (0.0,)))
    assert np.array_equal(a.values, b.values)
    sa = make_stack(grid12, StackSpec(spacing=2, offset=1, depth=7, p=2.0, b=0.5))
    sb = make_stack(grid12, StackSpec(spacing=2, offset=1, depth=7, p=2.0, b=0.5))
    assert np.array_equal(sa.values, sb.values)
    pa = expo7_family(grid12, 7, 0.5)[0][1]
    pb = expo7_family(grid12, 7, 0.5)[0][1]
    assert np.array_equal(pa.values, pb.values)
