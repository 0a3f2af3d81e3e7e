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


def paraproduct(
    f: SampledFunction,
    g: SampledFunction,
    partition: DyadicPartition,
    which: int | Sequence[int],
    *,
    dec_f: SpectralDecomposition | None = None,
    dec_g: SpectralDecomposition | None = None,
) -> SampledFunction | list[SampledFunction]:
    """One of the three paraproducts of the product f g (sums truncated at
    K_max):

        1: sum_{k>=2} (S^{k-2} f)(S_k g)   (low-high)
        2: sum_k sum_{|i|<=1} (S_{k+i} f)(S_k g)   (comparable)
        3: sum_{k>=2} (S_k f)(S^{k-2} g)   (high-low)

    `which` is one of 1, 2, 3, giving that paraproduct, or a sequence of
    them, giving one per entry; all read one piece list of f and one of g.
    """
    single = not isinstance(which, Sequence)
    whiches = [which] if single else list(which)
    if any(w not in (1, 2, 3) for w in whiches):
        raise InvalidInputError("which must be 1, 2, or 3")
    pieces_f = _ensure_decomposition(f, partition, dec_f).pieces
    pieces_g = _ensure_decomposition(g, partition, dec_g).pieces
    parts = [_paraproduct(pieces_f, pieces_g, w) for w in whiches]
    return parts[0] if single else parts


def _paraproduct(pieces_f: list[SampledFunction], pieces_g: list[SampledFunction], which: int) -> SampledFunction:
    """`paraproduct` from the piece lists of f and g."""
    grid, k_max = pieces_f[0].grid, len(pieces_f) - 1
    total = np.zeros(grid.shape, dtype=np.complex128)
    if which == 2:
        terms = _pi2_terms(lambda j: pieces_f[j].values, lambda k: pieces_g[k].values, range(k_max + 1), k_max)
        return SampledFunction(grid, sum(terms, total))
    # Pi1, Pi3: one running partial sum S^{k-2} of the low factor; f stays on the left.
    low, high = (pieces_f, pieces_g) if which == 1 else (pieces_g, pieces_f)
    partial = np.zeros(grid.shape, dtype=np.complex128)
    for k in range(2, k_max + 1):
        partial += low[k - 2].values
        total += partial * high[k].values if which == 1 else high[k].values * partial
    return SampledFunction(grid, total)


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
    zero = np.zeros(f.grid.shape, dtype=np.complex128)
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
    three paraproducts read one piece list of f and one of g."""
    parts = paraproduct(f, g, partition, (1, 2, 3))
    fg = f * g
    err = lp_norm(parts[0] + parts[1] + parts[2] - fg, 2.0)
    denom = lp_norm(fg, 2.0)
    residual = err / denom if denom > 0 else err
    return ProductReport(parts[0], parts[1], parts[2], residual)


def _norms_on_one_decomposition(g: SampledFunction, partition: DyadicPartition, params_list) -> list[float]:
    """||g||_B for every params, read from one decomposition of g whose
    L^p norms for every p are filled in one pass."""
    dec = decompose(g, partition)
    dec.analyze(lp_exponents=[params.p for params in params_list])
    return [besov_norm(g, partition, params, dec=dec).value for params in params_list]


def multiplier_lower_bound(
    f: SampledFunction,
    partition: DyadicPartition,
    params: BesovParams | Sequence[BesovParams],
    family,
) -> tuple[float, str] | list[tuple[float, str]]:
    """max over the family of ||f g||_B / ||g||_B — a lower bound for the
    multiplier operator norm of f on the (s, b, p, q) space.

    `family` is a sequence of (name, SampledFunction) pairs.  `params` is one
    BesovParams, giving (bound, argmax name), or a sequence of them, giving
    one (bound, argmax name) per entry.  Each distinct member g and its
    product f g are decomposed once for every entry, one decomposition alive
    at a time; a member whose samples equal an earlier one's reuses its
    ratios, and ties keep the first name.
    """
    single = isinstance(params, BesovParams)
    params_list = [params] if single else list(params)
    if not params_list:
        raise InvalidInputError("params must be nonempty")
    named = list(family)
    if not named:
        raise InvalidInputError("family must be nonempty")
    best = [(-math.inf, "")] * len(params_list)
    seen: list[tuple[np.ndarray, list[float]]] = []
    for name, g in named:
        ratios = next((r for values, r in seen if np.array_equal(values, g.values)), None)
        if ratios is None:
            denoms = _norms_on_one_decomposition(g, partition, params_list)
            if any(d <= 0 for d in denoms):
                raise DegenerateInputError(f"family member {name!r} has zero norm")
            numers = _norms_on_one_decomposition(f * g, partition, params_list)
            ratios = [n / d for n, d in zip(numers, denoms)]
            seen.append((g.values, ratios))
        best = [(r, name) if r > b[0] else b for r, b in zip(ratios, best)]
    return best[0] if single else best
