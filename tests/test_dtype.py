"""Samples are `float64` exactly when the function is real.

`SampledFunction` stores real or integer samples, and complex samples whose
imaginary part is exactly zero, as `float64`; the analysis picks the half
spectrum by that dtype.  Every consumer gives the same bits whichever way
the real samples were passed in.
"""

import tracemalloc

import numpy as np
import pytest

from logbesov.criteria import verdict
from logbesov.experiments import _exact_exponential
from logbesov.errors import InvalidInputError
from logbesov.fileio import load_sfn, save_sfn
from logbesov.gallery import expo7_family, gallery_from_spec, make_exponential, make_indicator
from logbesov.grid import GridSpec, SampledFunction, _from_bins, make_constant
from logbesov.norms import BesovParams, besov_norm, modulus, tl_norm_inf
from logbesov.paraproducts import multiplier_lower_bound
from logbesov.partition import build_partition, decompose

GRIDS = [GridSpec(1, 10), GridSpec(2, 7)]


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
@pytest.mark.parametrize("spec", ["cube", "halfspace", "const", "const:c=2.5", "lacunary:beta=0.5"])
def test_real_gallery_members_are_float64(grid, spec):
    assert gallery_from_spec(grid, spec).values.dtype == np.float64


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
@pytest.mark.parametrize("spec", ["exp:m=3", "stack:m=2,n=3", "bump:l=3", "const:c=1+2j"])
def test_complex_gallery_members_stay_complex128(grid, spec):
    assert gallery_from_spec(grid, spec).values.dtype == np.complex128


def test_real_arithmetic_stays_real():
    grid = GridSpec(1, 10)
    cube, half = make_indicator(grid, "cube"), make_indicator(grid, "halfspace")
    for g in (cube * half, cube + half, cube - half, -cube, 2.0 * cube, cube * make_constant(grid, 3.0)):
        assert g.values.dtype == np.float64
    assert (cube * gallery_from_spec(grid, "exp:m=3")).values.dtype == np.complex128
    assert (cube * 1j).values.dtype == np.complex128


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_zero_imaginary_part_is_stored_real(grid):
    real = make_indicator(grid, "cube").values
    for imag in (0.0, -0.0):
        f = SampledFunction(grid, real + 1j * imag)
        assert f.values.dtype == np.float64 and f.values.flags.c_contiguous
        assert np.array_equal(f.values, real)
    assert SampledFunction(grid, real.astype(np.int64)).values.dtype == np.float64
    tiny = real.astype(np.complex128)
    tiny.flat[5] += 1e-300j
    assert SampledFunction(grid, tiny).values.dtype == np.complex128


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_sfn_roundtrip_keeps_the_dtype(tmp_path, grid):
    for spec, dtype in (("cube", np.float64), ("exp:m=3", np.complex128)):
        f = gallery_from_spec(grid, spec)
        save_sfn(tmp_path / "f.sfn", f)
        back = load_sfn(tmp_path / "f.sfn")
        assert back.values.dtype == dtype
        assert np.array_equal(back.values, f.values)


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_spectrum_must_have_the_forward_layout(grid):
    """Bins map index tuples of the full `fftn` layout, whatever the dtype,
    to complex coefficients, copied; a bin outside that layout, or bins
    that are not a mapping, are an input error."""
    n, lead = grid.n_samples, (0,) * (grid.dim - 1)
    full_top = lead + (n - 1,)
    bins = {lead + (n // 2,): 1.0, lead + (0,): np.float64(2.0)}
    f = _from_bins(grid, bins)
    assert f.spectrum == {lead + (n // 2,): 1.0 + 0j, lead + (0,): 2.0 + 0j} and f.spectrum is not bins
    assert all(type(v) is complex for v in f.spectrum.values()) and f.dtype == np.float64
    assert _from_bins(grid, {full_top: 1j}).spectrum == {full_top: 1j}
    for spectrum in (
        {lead + (n,): 1.0},
        {lead + (-1,): 1.0},
        {lead + (0, 0): 1.0},
        {lead + (1.0,): 1.0},
        np.zeros(grid.shape, dtype=np.complex128),
        [(lead + (0,), 1.0)],
    ):
        with pytest.raises(InvalidInputError, match="spectrum"):
            _from_bins(grid, spectrum)
    if grid.dim == 1:
        with pytest.raises(InvalidInputError, match="spectrum"):
            _from_bins(grid, {0: 1.0})


def test_arithmetic_drops_the_spectrum():
    """Sums, differences, negation, scalar products and products with a
    factor made from samples carry no spectrum; a product of two functions
    that carry bins is made from its product's bins, real when they are
    Hermitian."""
    grid = GridSpec(1, 10)
    const = _from_bins(grid, {(0,): 2.0 * grid.n_samples})
    e = _exact_exponential(grid, (8,))
    packet = gallery_from_spec(grid, "packet:m=5,case=1")
    cube = make_indicator(grid, "cube")
    assert const.spectrum and e.spectrum and packet.spectrum
    for h in (
        e + packet, e - packet, packet + e, -e, -packet, 2.0 * e, e * 2.0, e * 1j,
        e * cube, packet * cube, packet * make_exponential(grid, (8,)),
    ):
        assert h.spectrum is None
    for h in (packet * packet, const * e, e * const, const * const):
        assert h.spectrum and h._values is None
    i = _from_bins(grid, {(0,): 1j * grid.n_samples})
    assert i.dtype == np.complex128 and (i * i).dtype == np.float64 and (i * i).spectrum == {(0,): -1.0 * grid.n_samples}
    assert (i * i).values.dtype == np.float64 and np.array_equal((i * i).values, np.full(grid.shape, -1.0))


def test_a_one_bin_product_shifts_the_bins():
    """e^{ik.x} g, with k's one bin of coefficient N^dim, carries g's bins
    moved by k (mod N) with their coefficients unchanged, whichever factor
    comes first; a single bin of coefficient c scales them by c / N^dim."""
    for grid in GRIDS:
        n, rest = grid.n_samples, (0,) * (grid.dim - 1)
        e = _exact_exponential(grid, (-8,) + rest)
        packet = gallery_from_spec(grid, "packet:m=3,case=1")
        want = {((i[0] - 8) % n,) + i[1:]: v for i, v in packet.spectrum.items()}
        assert (e * packet).spectrum == want
        assert (packet * e).spectrum == want
        assert (e * e).spectrum == {((-16) % n,) + rest: complex(n**grid.dim)}
        [(k, c)] = e.spectrum.items()
        three_e = _from_bins(grid, {k: 3.0 * c})
        assert (packet * three_e).spectrum == {i: 3.0 * v for i, v in want.items()}


class _NoImag(np.ndarray):
    """Samples whose imaginary part must not be read."""

    @property
    def imag(self):
        raise AssertionError("the imaginary part of real samples was read")


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_decompose_takes_half_spectrum_by_dtype(grid):
    part = build_partition(grid)
    f = make_indicator(grid, "cube")
    expected = decompose(f, part).coeffs
    f.values = f.values.view(_NoImag)
    dec = decompose(f, part)
    assert dec.coeffs.shape == grid.half_shape and dec.dtype == np.float64
    assert np.array_equal(dec.coeffs, expected)


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
@pytest.mark.parametrize("spec", ["cube", "lacunary:beta=0.5"])
def test_consumers_agree_bit_for_bit_on_zero_imaginary_input(grid, spec):
    part = build_partition(grid)
    f = gallery_from_spec(grid, spec)
    z = SampledFunction(grid, f.values.astype(np.complex128))  # zero imaginary part
    params = BesovParams(0.0, 1.0, 2.0, 2.0)
    for p in (1.0, 2.0, float("inf")):
        assert verdict(f, part, p, 0.5).to_dict() == verdict(z, part, p, 0.5).to_dict()
    assert besov_norm(f, part, params) == besov_norm(z, part, params)
    assert tl_norm_inf(f, part, 0.0, 1.0, 2.0) == tl_norm_inf(z, part, 0.0, 1.0, 2.0)
    family = expo7_family(grid, 3, 0.0) + [("self", f)]
    assert multiplier_lower_bound(f, part, [params], family) == multiplier_lower_bound(z, part, [params], family)
    # the moduli difference real samples in real buffers: the same bits as
    # complex samples whose imaginary part is zero
    forced = SampledFunction(grid, f.values)
    forced.values = f.values.astype(np.complex128)
    for p in (1.0, 2.0, float("inf")):
        t = 8 * grid.spacing
        assert modulus(f, 1, t, p) == modulus(z, 1, t, p) == modulus(forced, 1, t, p)


def test_real_2d_verdict_peaks_below_four_real_lattice_arrays():
    """Building a 2D J=10 cube and running its p = 2 verdict peaks below 4
    real lattice arrays: the real samples, their half spectrum, the pass's
    real piece and its spectrum buffer cropped to the top level's box
    (5.2 when the cube was stored complex)."""
    grid = GridSpec(2, 10)
    part = build_partition(grid)
    for k in range(part.k_max + 1):
        part.symbol(k)
    tracemalloc.start()
    try:
        f = make_indicator(grid, "cube")
        verdict(f, part, 2.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * np.dtype(np.float64).itemsize * grid.n_samples**grid.dim
