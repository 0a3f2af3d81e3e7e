import numpy as np
import pytest

import logbesov.norms as norms
import logbesov.paraproducts as paraproducts
from logbesov.errors import DegenerateInputError, InvalidInputError
from logbesov.experiments import _exact_exponential
from logbesov.gallery import PacketSpec, expo7_family, make_exponential, make_indicator, make_modulated_packet
from logbesov.grid import INF, SampledFunction, band_energy_fraction, lp_norm, make_constant, random_band_limited
from logbesov.norms import BesovParams, besov_norm
from logbesov.paraproducts import (
    multiplier_lower_bound,
    pi2_summand,
    product_report,
)
from logbesov.partition import decompose

from lattice_oracle import lattice_partial_sum, lattice_piece


def band_limited(grid, band, rng):
    return random_band_limited(grid, band, rng)


def test_decomposition_completeness(part10):
    """Pi1 + Pi2 + Pi3 reconstructs the grid product for band-limited pairs."""
    g = part10.grid
    band = 2.0 ** (part10.k_max - 3)
    for trial in range(5):
        local = np.random.default_rng(trial)
        f = band_limited(g, band, local)
        h = band_limited(g, band, local)
        rep = product_report(f, h, part10)
        assert rep.residual < 1e-8


def test_constant_factor(part10, rng):
    g = part10.grid
    h = band_limited(g, 2.0 ** (part10.k_max - 3), rng)
    one = make_constant(g)
    rep = product_report(one, h, part10)
    assert lp_norm(rep.pi3, INF) < 1e-12  # S_k 1 = 0 for k >= 1
    total = rep.pi1 + rep.pi2
    assert np.abs(total.values - h.values).max() / np.abs(h.values).max() < 1e-10


def test_separated_exponentials_pure_pi3(part12):
    g = part12.grid
    m, j = 8, 4
    f = make_exponential(g, (1 << m,))
    h = make_exponential(g, (1 << j,))
    rep = product_report(f, h, part12)
    p1, p2, p3 = rep.pi1, rep.pi2, rep.pi3
    fg = f * h
    assert lp_norm(p1, INF) < 1e-10
    assert lp_norm(p2, INF) < 1e-10
    assert np.abs(p3.values - fg.values).max() < 1e-10


def test_exponentials_same_level_pure_pi2(part12):
    g = part12.grid
    f = make_exponential(g, (1 << 6,))
    h = make_exponential(g, (-(1 << 6),))
    p2 = product_report(f, h, part12).pi2
    assert np.abs(p2.values - 1.0).max() < 1e-10


def test_pi2_summand_envelope(part10, rng):
    """The k-th comparable-frequency summand lives in |xi| <= 5 2^k."""
    g = part10.grid
    band = 2.0 ** (part10.k_max - 3)
    f = band_limited(g, band, rng)
    h = band_limited(g, band, rng)
    dec_f = decompose(f, part10)
    dec_g = decompose(h, part10)
    for k in range(part10.k_max + 1):
        s = pi2_summand(f, h, part10, k, dec_f=dec_f, dec_g=dec_g)
        if lp_norm(s, 2.0) == 0.0:
            continue
        assert band_energy_fraction(s, 0.0, 5.0 * 2.0**k) < 1e-10


def test_pi1_product_support(part10, rng):
    """(S^{k-2} f)(S_k g) lives in the annulus [2^{k-3}, 2^{k+1}]."""
    g = part10.grid
    band = 2.0 ** (part10.k_max - 3)
    f = band_limited(g, band, rng)
    h = band_limited(g, band, rng)
    dec_f = decompose(f, part10)
    pieces_g = decompose(h, part10).pieces
    for k in range(2, part10.k_max + 1):
        s = lattice_partial_sum(f, part10, k - 2) * pieces_g[k]
        if lp_norm(s, 2.0) == 0.0:
            continue
        assert band_energy_fraction(s, 2.0 ** (k - 3), 2.0 ** (k + 1)) < 1e-10


def test_pi1_besov_bound(part10):
    """||Pi1(f,g)||_B <= C ||f||_inf ||g||_B with stable measured constant."""
    g = part10.grid
    band = 2.0 ** (part10.k_max - 3)
    params = BesovParams(0.0, 0.5, 2.0, INF)
    ratios = []
    for trial in range(8):
        local = np.random.default_rng(300 + trial)
        f = band_limited(g, band, local)
        h = band_limited(g, band, local)
        val = besov_norm(product_report(f, h, part10).pi1, part10, params).value
        ratios.append(val / (lp_norm(f, INF) * besov_norm(h, part10, params).value))
    assert max(ratios) < 3.0
    assert max(ratios) / min(ratios) < 5.0


def test_lower_bound_constant(part10, rng):
    g = part10.grid
    c = make_constant(g, 1.5)
    fam = [("g1", band_limited(g, 30, rng)), ("g2", band_limited(g, 60, rng))]
    [(bound, name)] = multiplier_lower_bound(c, part10, [BesovParams(0, 0, 2.0, INF)], fam)
    assert bound == pytest.approx(1.5, rel=1e-10)
    assert name in ("g1", "g2")


def test_lower_bound_monotone_in_family(part12, rng):
    g = part12.grid
    f = make_exponential(g, (-(1 << 7),))
    params = BesovParams(0.0, 0.0, 4.0, INF)
    fam = expo7_family(g, 7, 0.0)
    [(small, _)] = multiplier_lower_bound(f, part12, [params], fam[:2])
    [(full, _)] = multiplier_lower_bound(f, part12, [params], fam)
    assert full >= small - 1e-12


def test_lower_bound_dominates_linf(part12, rng):
    """Consistency with the multiplier-norm lower bound by ||f||_inf: for
    gallery multipliers the family estimate reaches a fixed fraction of it."""
    g = part12.grid
    params = BesovParams(0.0, 0.5, 2.0, INF)
    family = [("one", make_constant(g))] + [
        (f"rnd{t}", band_limited(g, 50, np.random.default_rng(900 + t))) for t in range(3)
    ]
    for f in (make_constant(g, 2.0), make_exponential(g, (3,))):
        [(bound, _)] = multiplier_lower_bound(f, part12, [params], family)
        assert bound >= 0.5 * lp_norm(f, INF)


def test_lower_bound_rejects_zero_member(part10):
    g = part10.grid
    f = make_constant(g)
    zero = SampledFunction(g, np.zeros(g.shape, dtype=complex))
    with pytest.raises(DegenerateInputError):
        multiplier_lower_bound(f, part10, [BesovParams(0, 0, 2.0, INF)], [("z", zero)])
    with pytest.raises(InvalidInputError):
        multiplier_lower_bound(f, part10, [BesovParams(0, 0, 2.0, INF)], [])


def test_lower_bound_sequence_form_matches_single_calls(part12):
    """One pass over several exponents gives, per entry, exactly the bound and
    argmax name of a call with that entry alone; the case1/case3/case4 tie
    at b=0 keeps the first name."""
    from logbesov.gallery import family_from_spec, gallery_from_spec

    g = part12.grid
    f = gallery_from_spec(g, "exp:m=8,neg")
    family = family_from_spec(g, "packets:cases=1-5,m=8,b=0")
    params = [BesovParams(0.0, 0.0, p, INF) for p in (2.0, 4.0)]
    together = multiplier_lower_bound(f, part12, params, family)
    assert together == [multiplier_lower_bound(f, part12, [pr], family)[0] for pr in params]
    assert [name for _, name in together] == ["case1", "case1"]


def test_lower_bound_sequence_form_guards(part12):
    from logbesov.gallery import family_from_spec, gallery_from_spec

    g = part12.grid
    f = gallery_from_spec(g, "exp:m=8,neg")
    family = family_from_spec(g, "packets:cases=1-5,m=8,b=0")
    params = [BesovParams(0.0, 0.0, p, INF) for p in (2.0, 4.0)]
    zero = SampledFunction(g, np.zeros(g.shape, dtype=complex))
    with pytest.raises(DegenerateInputError):
        multiplier_lower_bound(f, part12, params, family + [("z", zero)])
    with pytest.raises(InvalidInputError):
        multiplier_lower_bound(f, part12, [], family)


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
@pytest.mark.parametrize("shape", ["random", "cube"])
def test_paraproducts_match_defining_sums(dim, J, shape):
    """Pi1, Pi3 and Pi2 equal their defining sums, built from the
    full-lattice pieces and partial sums and from `pi2_summand`."""
    from logbesov.grid import GridSpec
    from logbesov.partition import build_partition

    grid = GridSpec(dim, J)
    part = build_partition(grid)
    local = np.random.default_rng(17 * J + dim)
    band = 2.0 ** (part.k_max - 3)
    f = make_indicator(grid, "cube") if shape == "cube" else band_limited(grid, band, local)
    h = band_limited(grid, band, local)
    levels = range(2, part.k_max + 1)
    oracles = {
        1: sum(lattice_partial_sum(f, part, k - 2).values * lattice_piece(h, part, k).values for k in levels),
        2: sum(pi2_summand(f, h, part, k).values for k in range(part.k_max + 1)),
        3: sum(lattice_piece(f, part, k).values * lattice_partial_sum(h, part, k - 2).values for k in levels),
    }
    rep = product_report(f, h, part)
    for which, oracle in oracles.items():
        got = getattr(rep, f"pi{which}").values
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_lower_bound_tells_members_apart_by_identity_then_bins(part10, monkeypatch):
    """Two packets built apart with equal bins are one member: it and its
    product are decomposed once, and neither a member nor a product makes
    its samples; members without bins are compared by their samples."""
    g = part10.grid
    f = _exact_exponential(g, (-(1 << 5),))
    a, b = (make_modulated_packet(g, PacketSpec(5, {1: 1.0, 3: 0.5})) for _ in range(2))
    assert a is not b and a.spectrum == b.spectrum
    made, real = [], paraproducts.decompose
    monkeypatch.setattr(paraproducts, "decompose", lambda h, part: made.append(h) or real(h, part))
    params = [BesovParams(0.0, 0.5, 2.0, INF)]
    [(bound, name)] = multiplier_lower_bound(f, part10, params, [("a", a), ("b", b)])
    assert len(made) == 2 and name == "a"
    assert all(h._values is None for h in (a, b, *made))
    made.clear()
    twins = [(name, SampledFunction(g, a.values)) for name in ("c", "d")]  # equal samples, no bins
    [(_, name)] = multiplier_lower_bound(f, part10, params, twins)
    assert len(made) == 2 and name == "c"


def test_lower_bound_makes_each_entrys_level_weights_once(part10, monkeypatch):
    """The level weights of each params entry are made once per call, not
    once per decomposition, and the bounds are the ones that `besov_norm`
    gives with weights it makes itself."""
    g = part10.grid
    f = _exact_exponential(g, (-(1 << 5),))
    family = expo7_family(g, 5, 0.5)
    params = [BesovParams(0.0, b, p, INF) for b in (-1.0, 0.5) for p in (2.0, 4.0)]
    made, real = [], norms._weight
    monkeypatch.setattr(norms, "_weight", lambda *a, **k: made.append(a) or real(*a, **k))
    bounds = multiplier_lower_bound(f, part10, params, family)
    assert len(made) == len(params) * (part10.k_max + 1)
    for pr, (bound, name) in zip(params, bounds):
        member = dict(family)[name]
        assert bound == besov_norm(f * member, part10, pr).value / besov_norm(member, part10, pr).value
