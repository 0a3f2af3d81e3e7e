"""Paraproduct decomposition of pointwise products and lower bounds on the
multiplier operator norm from swept test families.

Products are computed pointwise on the grid; inputs band-limited below
2^{K_max-3} keep the frequency-support bookkeeping exact on the lattice
(no nonlinear aliasing), which is how the decomposition tests run.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .grid import SampledFunction, lp_norm
from .norms import BesovParams, besov_norm
from .partition import (
    DyadicPartition,
    SpectralDecomposition,
    _ensure_decomposition,
    decompose,
)


def _pi2_terms(piece_f, piece_g, levels, k_max: int):
    """The products (S_{k+i} f)(S_k g), i = -1, 0, 1, whose levels lie in
    [0, k_max], k in `levels`; `piece_f(j)` and `piece_g(k)` give the samples."""
    for k in levels:
        g_k = piece_g(k)
        for j in (k - 1, k, k + 1):
            if 0 <= j <= k_max:
                yield piece_f(j) * g_k


def _paraproducts(dec_f: SpectralDecomposition, dec_g: SpectralDecomposition) -> list[SampledFunction]:
    """The three paraproducts of the product f g (sums truncated at K_max):

        1: sum_{k>=2} (S^{k-2} f)(S_k g)   (low-high)
        2: sum_k sum_{|i|<=1} (S_{k+i} f)(S_k g)   (comparable)
        3: sum_{k>=2} (S_k f)(S^{k-2} g)   (high-low)

    from one ascending pass that makes each piece once: step k holds
    S_{k-2..k+1} f and S_{k-2..k} g, and Pi1, Pi3 keep one running partial
    sum S^{k-2} of their low factor (f stays on the left)."""
    grid, k_max = dec_f.grid, dec_f.k_max
    dtype = np.result_type(dec_f.dtype, dec_g.dtype)  # real sums when both functions are real
    pi1, pi2, pi3, low_f, low_g = (np.zeros(grid.shape, dtype) for _ in range(5))
    f, g = {0: dec_f._piece(0)}, {}
    for k in range(k_max + 1):
        if k < k_max:
            f[k + 1] = dec_f._piece(k + 1)
        g[k] = dec_g._piece(k)
        for term in _pi2_terms(f.__getitem__, g.__getitem__, (k,), k_max):
            pi2 += term
        if k >= 2:
            low_f += f.pop(k - 2)
            low_g += g.pop(k - 2)
            pi1 += low_f * g[k]
            pi3 += f[k] * low_g
    return [SampledFunction(grid, total) for total in (pi1, pi2, pi3)]


def pi2_summand(
    f: SampledFunction,
    g: SampledFunction,
    partition: DyadicPartition,
    k: int,
    *,
    dec_f: SpectralDecomposition | None = None,
    dec_g: SpectralDecomposition | None = None,
) -> SampledFunction:
    """k-th comparable-frequency summand sum_{|i|<=1} (S_{k+i} f)(S_k g),
    from the four pieces it reads (at most four inverse FFTs)."""
    partition._check_level(k)
    dec_f = _ensure_decomposition(f, partition, dec_f)
    dec_g = _ensure_decomposition(g, partition, dec_g)
    zero = np.zeros(f.grid.shape)
    return SampledFunction(f.grid, sum(_pi2_terms(dec_f._piece, dec_g._piece, (k,), partition.k_max), zero))


@dataclass
class ProductReport:
    """The three paraproducts and the reconstruction residual."""

    pi1: SampledFunction
    pi2: SampledFunction
    pi3: SampledFunction
    residual: float

    @property
    def total(self) -> SampledFunction:
        return self.pi1 + self.pi2 + self.pi3


def product_report(
    f: SampledFunction, g: SampledFunction, partition: DyadicPartition
) -> ProductReport:
    """Decompose f g and report ||Pi1+Pi2+Pi3 - f g||_2 / ||f g||_2; the
    three paraproducts come from one pass that makes each piece of f and
    of g once."""
    pi1, pi2, pi3 = _paraproducts(decompose(f, partition), decompose(g, partition))
    fg = f * g
    err = lp_norm(pi1 + pi2 + pi3 - fg, 2.0)
    denom = lp_norm(fg, 2.0)
    residual = err / denom if denom > 0 else err
    return ProductReport(pi1, pi2, pi3, residual)


def _norms_on_one_decomposition(g: SampledFunction, partition: DyadicPartition, params_list) -> list[float]:
    """||g||_B for every params, read from one decomposition of g whose
    L^p norms for every p are filled in one pass."""
    dec = decompose(g, partition)
    dec.analyze(lp_exponents=[params.p for params in params_list])
    return [besov_norm(g, partition, params, dec=dec).value for params in params_list]


def multiplier_lower_bound(
    f: SampledFunction,
    partition: DyadicPartition,
    params: Sequence[BesovParams],
    family,
) -> list[tuple[float, str]]:
    """max over the family of ||f g||_B / ||g||_B — a lower bound for the
    multiplier operator norm of f on the (s, b, p, q) space.

    `family` is a sequence of (name, SampledFunction) pairs.  The result
    holds one (bound, argmax name) per entry of `params`.  Each distinct
    member g and its product f g are decomposed once for every entry, one
    decomposition alive at a time; a member whose samples equal an earlier
    one's reuses its ratios, and ties keep the first name.
    """
    params = list(params)
    if not params:
        raise InvalidInputError("params must be nonempty")
    named = list(family)
    if not named:
        raise InvalidInputError("family must be nonempty")
    best = [(-math.inf, "")] * len(params)
    seen: list[tuple[np.ndarray, list[float]]] = []
    for name, g in named:
        ratios = next((r for values, r in seen if np.array_equal(values, g.values)), None)
        if ratios is None:
            denoms = _norms_on_one_decomposition(g, partition, params)
            if any(d <= 0 for d in denoms):
                raise DegenerateInputError(f"family member {name!r} has zero norm")
            numers = _norms_on_one_decomposition(f * g, partition, params)
            ratios = [n / d for n, d in zip(numers, denoms)]
            seen.append((g.values, ratios))
        best = [(r, name) if r > b[0] else b for r, b in zip(ratios, best)]
    return best
