"""Fourier coefficients, and Littlewood-Paley pieces and partial sums from
the full-lattice formula.

S_k f = F^{-1}(phi_k F f) and S^k f = F^{-1}(phi_0(2^-k .) F f), with the
symbols expanded to the whole lattice and complex transforms throughout:
no level box, no half spectrum, no pruned passes and no reused buffers,
which is how the package makes its pieces.  The tests check the package
against these; `test_boxed_symbols_match_full_lattice` ties the expanded
symbols to their formula and the pieces to these products bit for bit.
"""

import numpy as np

from logbesov.grid import SampledFunction


def spectrum(f):
    """Fourier coefficients c_m with f(x) = sum_m c_m e^{i m.x} on samples."""
    return np.fft.fftn(f.values) / f.values.size


def lattice_piece(f, partition, k):
    """S_k f = F^{-1}(phi_k F f)."""
    return SampledFunction(f.grid, np.fft.ifftn(partition.symbol(k) * np.fft.fftn(f.values)))


def lattice_partial_sum(f, partition, k):
    """S^k f = sum_{j<=k} S_j f = F^{-1}(phi_0(2^-k .) F f)."""
    return SampledFunction(f.grid, np.fft.ifftn(partition.cumulative_symbol(k) * np.fft.fftn(f.values)))
