"""A function made from its exact bins (a packet, an exact exponential, a
product of two such functions) holds no samples until they are read.  Its
bins decide its dtype: it is real (`float64`) exactly when they are
Hermitian, v_{-k} = conj(v_k) for every k, and then its samples are the
`irfftn` of their half layout, exactly real; any other bin set is complex
and its samples are the `ifftn` of the bins."""

import numpy as np
import pytest

import packet_oracle
from logbesov.experiments import _exact_exponential
from logbesov.fileio import load_sfn, save_sfn
from logbesov.gallery import expo7_family
from logbesov.grid import GridSpec, _bin_arrays, _exact_bins, _product_bins, _trig_polynomial, _written
from logbesov.partition import PartitionKind, SpectralDecomposition, build_partition, decompose

GRIDS = [(1, 12), (1, 14), (2, 8), (2, 10)]


def _sampled(f) -> bool:
    return f._values is not None


def _transform_of_bins(f) -> np.ndarray:
    """The samples of f's bins made by numpy at once: `irfftn` of the half
    layout for a real f, else `ifftn` of the full layout."""
    grid = f.grid
    if f.dtype == np.float64:
        return np.fft.irfftn(_written(f.spectrum, grid.half_shape), grid.shape, axes=range(grid.dim))
    return np.fft.ifftn(_written(f.spectrum, grid.shape))


def _full_layout_hermitian(grid: GridSpec, bins) -> bool:
    """Whether the bins written into the full layout equal the conjugates
    of their mirror images w[-k mod N], exactly."""
    w = _written(bins, grid.shape)
    mirror = np.roll(np.flip(w), 1, axis=tuple(range(grid.dim)))
    return bool(np.array_equal(w, np.conj(mirror)))


@pytest.mark.parametrize("kind", [PartitionKind.RADIAL, PartitionKind.TENSOR], ids=["radial", "tensor"])
@pytest.mark.parametrize("dim, J", GRIDS)
def test_deferred_samples_are_the_eager_ones(dim, J, kind):
    """Packets, e^{-i 2^m x_1} and their products hold no samples when
    built, yet carry their dtype and bins: every one is complex but the
    product with Case 5, the real envelope.  Their samples, once read, are
    bytes-equal to numpy's transform of the bins made at once.  The real
    product's decomposition holds the half-layout coefficients and the full
    bins, and its L^2 and L^4 norms and tail are those of a full-layout
    decomposition of the same bins, bit for bit."""
    grid = GridSpec(dim, J)
    part = build_partition(grid, kind)
    m, rest = grid.k_max - 2, (0,) * (dim - 1)
    down = _exact_exponential(grid, (-(1 << m),) + rest)
    members = list({id(g): g for _, g in expo7_family(grid, m, 0.5)}.values())
    products = [down * g for g in members]
    envelope = products[-1]
    assert not any(map(_sampled, [down] + members + products))
    for h in [down] + members + products:
        assert h.spectrum and h.dtype == (np.float64 if h is envelope else np.complex128)
    for g, h in zip(members, products):
        assert h.spectrum == _product_bins(down, g)
    for h in [down] + members + products:
        want = _transform_of_bins(h)
        assert h.values.dtype == h.dtype == want.dtype and h.values.tobytes() == want.tobytes()
    dec = decompose(envelope, part)
    assert dec.coeffs.shape == grid.half_shape and dec.dtype == np.float64
    assert np.array_equal(dec.coeffs, _written(envelope.spectrum, grid.half_shape))
    full = SpectralDecomposition(part, _written(envelope.spectrum, grid.shape), _bin_arrays(grid, envelope.spectrum))
    for d in (dec, full):
        d.analyze(lp_exponents=(2.0, 4.0))
    for p in (2.0, 4.0):
        assert dec.lp_norms(p).tobytes() == full.lp_norms(p).tobytes()
    assert dec.tail_fraction() == full.tail_fraction()


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
def test_hermitian_bins_are_real(dim, J):
    """A real cosine, a pair of conjugate complex terms, the envelope as
    e^{-i 2^m x_1} times the Case 5 packet, and a set with real bins at
    m = 0 and m = N/2 (in 2D, bins on the last-axis columns 0 and N/2) are
    `float64`, built without samples; their samples are exactly real and
    match the integer-phase oracle to 2e-15 of its max.  A skew of 2^-40 or
    2^-10, and a lone tiny term, are complex."""
    grid = GridSpec(dim, J)
    n, rest = grid.n_samples, (0,) * (dim - 1)
    k, c = (8,) + rest, 0.3 + 0.7j
    mirror = tuple(-i for i in k)
    m = grid.k_max - 2
    case5 = dict(expo7_family(grid, m, 0.0))["case5"]
    edges = [((0,) * dim, 1.5), ((-n // 2,) + rest, -0.5)]
    if dim == 2:
        edges += [((3, 0), c), ((-3, 0), c.conjugate()), ((5, -n // 2), c), ((-5, -n // 2), c.conjugate())]
    real = {
        "cosine": [(k, 1.0), (mirror, 1.0)],
        "conjugates": [(k, c), (mirror, c.conjugate())],
        "edges": edges,
    }
    made = {name: _trig_polynomial(grid, terms) for name, terms in real.items()}
    made["envelope"] = _exact_exponential(grid, (-(1 << m),) + rest) * case5
    for name, f in made.items():
        assert f.dtype == np.float64 and not _sampled(f), name
        assert _full_layout_hermitian(grid, f.spectrum)
        assert f.values.dtype == np.float64
        want = packet_oracle.envelope(grid)
        if name != "envelope":
            want = sum(a * packet_oracle.wave(grid, kk) for kk, a in real[name])
        assert np.abs(f.values - want).max() <= 2e-15 * np.abs(want).max(), name
    for terms in (
        [(k, c), (mirror, c.conjugate() * (1 + 2.0**-40))],
        [(k, c), (mirror, c.conjugate() * (1 + 2.0**-10))],
        [(k, 1e-300)],
    ):
        f = _trig_polynomial(grid, terms)
        assert f.dtype == np.complex128 and not _full_layout_hermitian(grid, f.spectrum)
        assert f.values.dtype == np.complex128


@pytest.mark.parametrize("dim, J", [(1, 9), (2, 6)])
def test_deferred_dtype_is_the_dtype_of_the_samples(dim, J):
    """Over random term sets (some bins paired with their conjugates, some
    with a partner off by a relative 1e-8, some alone), the dtype known
    before the samples is the dtype of the samples, `float64` exactly when
    the bins written into the full layout are Hermitian.  Complex samples
    are `ifftn` of the bins bit for bit; real ones are the real part of it
    to round-off, whose imaginary part is round-off too."""
    grid = GridSpec(dim, J)
    n, rng = grid.n_samples, np.random.default_rng(J)
    dtypes = []
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
        dtype = f.dtype
        assert (dtype == np.float64) == _full_layout_hermitian(grid, f.spectrum)
        assert f.values.dtype == dtype
        full = np.fft.ifftn(_written(_exact_bins(grid, terms), grid.shape))
        if dtype == np.complex128:
            assert f.values.tobytes() == full.tobytes()
        else:
            scale = np.abs(full).max()
            assert np.abs(f.values - full.real).max() <= 1e-14 * scale
            assert np.abs(full.imag).max() <= 1e-14 * scale
        dtypes.append(dtype)
    assert set(dtypes) == {np.dtype(np.float64), np.dtype(np.complex128)}


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
