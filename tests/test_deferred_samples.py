"""A function made from its exact bins whose bins alone make its samples
complex (a packet, an exact exponential, a product of the two) holds no
samples until they are read, and then they are the samples made at once,
bit for bit.  Bins that leave the dtype open (Hermitian ones, or skews
lost in round-off or underflow) are sampled at once, as before."""

import numpy as np
import pytest

import logbesov.grid as grid_mod
from logbesov.experiments import _exact_exponential
from logbesov.fileio import load_sfn, save_sfn
from logbesov.gallery import expo7_family, make_exponential
from logbesov.grid import GridSpec, SampledFunction, _product_bins, _trig_polynomial, _written
from logbesov.partition import PartitionKind, build_partition, decompose

GRIDS = [(1, 12), (1, 14), (2, 8), (2, 10)]


def _sampled(f: SampledFunction) -> bool:
    return f._values is not None


def _eager(f: SampledFunction) -> SampledFunction:
    """f built from its samples and bins at once."""
    return SampledFunction(f.grid, f.values, f.spectrum)


@pytest.mark.parametrize("kind", [PartitionKind.RADIAL, PartitionKind.TENSOR], ids=["radial", "tensor"])
@pytest.mark.parametrize("dim, J", GRIDS)
def test_deferred_samples_are_the_eager_ones(dim, J, kind):
    """Packets, e^{-i 2^m x_1} and their products hold no samples when
    built, yet carry their dtype and bins; their samples, once read, are
    bytes-equal to the eager construction (`ifftn` of the bins, `np.exp`,
    the product of the factors' samples), and their decompositions agree
    with an eager function's of the same samples and bins."""
    grid = GridSpec(dim, J)
    part = build_partition(grid, kind)
    m, rest = grid.k_max - 2, (0,) * (dim - 1)
    down = _exact_exponential(grid, (-(1 << m),) + rest)
    members = list({id(g): g for _, g in expo7_family(grid, m, 0.5)}.values())
    case5 = members[-1]
    products = [down * g for g in members[:-1]]
    assert not any(map(_sampled, [down] + members + products))
    # the product with Case 5 is the real envelope: sampled at once, from its factors' samples
    products.append(down * case5)
    for h in [down] + members + products:
        assert _sampled(h) == (h is down or h is case5 or h is products[-1])
        assert h.dtype == np.complex128 and h.spectrum
    assert products[-1].values.imag.any()  # complex by round-off, as when sampled at once
    for g in members:
        want = np.fft.ifftn(_written(g.spectrum, grid.shape))
        assert g.values.dtype == want.dtype and g.values.tobytes() == want.tobytes()
    want = make_exponential(grid, (-(1 << m),) + rest).values
    assert down.values.dtype == want.dtype and down.values.tobytes() == want.tobytes()
    for g, h in zip(members, products):
        want = down.values * g.values
        assert h.values.dtype == want.dtype and h.values.tobytes() == want.tobytes()
        assert h.spectrum == _product_bins(down, g)
    assert products[-1].spectrum == _product_bins(down, case5)
    for h in [down] + members + products:
        dec, ref = decompose(h, part), decompose(_eager(h), part)
        assert np.array_equal(dec.coeffs, ref.coeffs)
        for d in (dec, ref):
            d.analyze(lp_exponents=(2.0, 4.0))
        for p in (2.0, 4.0):
            assert dec.lp_norms(p).tobytes() == ref.lp_norms(p).tobytes()
        assert dec.tail_fraction() == ref.tail_fraction()


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
def test_bins_that_leave_the_dtype_open_are_sampled_at_once(dim, J):
    """A real cosine, the envelope as e^{-i 2^m x_1} times the Case 5
    packet, a pair of conjugate complex terms, a skew of 2^-40 and terms
    of 1e-300 are sampled when built, with the dtype the samples give;
    a skew of 2^-10 is not."""
    grid = GridSpec(dim, J)
    rest = (0,) * (dim - 1)
    k, c = (8,) + rest, 0.3 + 0.7j
    mirror = tuple(-i for i in k)
    m = grid.k_max - 2
    case5 = dict(expo7_family(grid, m, 0.0))["case5"]
    envelope = _exact_exponential(grid, (-(1 << m),) + rest) * case5
    assert _sampled(envelope) and envelope.dtype == np.complex128 and envelope.spectrum
    cosine, conjugates = [(k, 1.0), (mirror, 1.0)], [(k, c), (mirror, c.conjugate())]
    for terms in (cosine, conjugates, [(k, c), (mirror, c.conjugate() * (1 + 2.0**-40))], [(k, 1e-300)]):
        f = _trig_polynomial(grid, terms)
        assert _sampled(f)
        eager = SampledFunction(grid, np.fft.ifftn(_written(grid_mod._exact_bins(grid, terms), grid.shape)))
        assert f.dtype == eager.dtype and f.values.tobytes() == eager.values.tobytes()
        assert (f.spectrum is None) == (f.dtype == np.float64)
    skewed = _trig_polynomial(grid, [(k, c), (mirror, c.conjugate() * (1 + 2.0**-10))])
    assert not _sampled(skewed) and skewed.values.imag.any()


@pytest.mark.parametrize("dim, J", [(1, 9), (2, 6)])
def test_deferred_dtype_is_the_dtype_of_the_samples(dim, J):
    """Over random term sets (some bins paired with their conjugates, some
    with a perturbed partner, some alone), the dtype known before the
    samples is the dtype of the samples made at once, and so are the
    samples: `float64` exactly when they come out real."""
    grid = GridSpec(dim, J)
    n, rng = grid.n_samples, np.random.default_rng(J)
    for _ in range(60):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            k = tuple(int(i) for i in rng.integers(-n // 2 + 1, n // 2, dim))
            a = complex(*rng.standard_normal(2))
            terms.append((k, a))
            mode = rng.integers(3)
            if mode:  # the conjugate partner, exact or off by a relative 1e-8
                terms.append((tuple(-i for i in k), a.conjugate() * (1.0 if mode == 1 else 1 + 1e-8)))
        f = _trig_polynomial(grid, terms)
        eager = SampledFunction(grid, np.fft.ifftn(_written(grid_mod._exact_bins(grid, terms), grid.shape)))
        assert f.dtype == eager.dtype
        assert f.values.dtype == eager.values.dtype and f.values.tobytes() == eager.values.tobytes()


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
def test_sfn_round_trip_of_a_deferred_packet(tmp_path, dim, J):
    """Saving a packet that holds no samples writes the samples it makes;
    loading them back gives the same samples, complex."""
    grid = GridSpec(dim, J)
    packet = dict(expo7_family(grid, grid.k_max - 2, 0.0))["case1"]
    assert not _sampled(packet)
    save_sfn(tmp_path / "p.sfn", packet)
    back = load_sfn(tmp_path / "p.sfn")
    assert back.dtype == np.complex128 and back.values.tobytes() == packet.values.tobytes()
