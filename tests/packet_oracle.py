"""Modulated packets sampled from integer phases, independent of their bins.

The packet Psi(x) sum_j alpha_j e^{i 2^j x_1} has the envelope
Psi(x) = 2 cos(2 x_1) (+ 2 cos(2 x_2) in 2D).  The grid starts at
x_0 = (-pi, ..., -pi) with spacing 2 pi / N, so sample n of e^{ik.x} is
(-1)^(k_1 + ... + k_dim) e^{2 pi i ((k.n) mod N) / N}: the phase is reduced
modulo N in integers, and only e^{2 pi i r / N} for 0 <= r < N is rounded.
The package makes its packets from their bins by an inverse FFT; the tests
compare the two.
"""

import functools

import numpy as np


@functools.lru_cache(maxsize=4)
def _roots(n: int) -> np.ndarray:
    """e^{2 pi i r / n} for r = 0..n-1, read-only."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.setflags(write=False)
    return roots


def wave(grid, k) -> np.ndarray:
    """Samples of e^{ik.x}, k an integer wavevector, from integer phases."""
    n = grid.n_samples
    idx = np.arange(n, dtype=np.int64)
    phase = np.zeros((1,) * grid.dim, dtype=np.int64)
    for axis, ka in enumerate(k):
        shape = [1] * grid.dim
        shape[axis] = n
        phase = (phase + (ka % n) * idx.reshape(shape)) % n
    vals = np.broadcast_to(_roots(n)[phase], grid.shape)
    return -vals if sum(k) % 2 else vals.copy()


def envelope(grid) -> np.ndarray:
    """Psi: e^{2ix_a} + e^{-2ix_a} summed over the axes a."""
    psi = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        for s in (2, -2):
            psi += wave(grid, tuple(s if a == axis else 0 for a in range(grid.dim)))
    return psi


def packet(grid, alpha) -> np.ndarray:
    """Psi(x) sum_j alpha[j] e^{i 2^j x_1}."""
    mod = np.zeros(grid.shape, dtype=np.complex128)
    for j, a in alpha.items():
        mod += a * wave(grid, (1 << j,) + (0,) * (grid.dim - 1))
    return envelope(grid) * mod
