"""From-scratch oracle for the criterion-term formulas.

Each term's docstring formula is evaluated by plain loops: the pieces come
from the full-lattice formula (`lattice_piece`), and every cube average
from `cube_mean_power` on each `DyadicCube` of the level.  Cube levels stop
at the grid guard l_max, as in the terms.
"""

import itertools

import numpy as np
import pytest

from logbesov.criteria import nece_term2, nece_term3, pinf_term2, suff_term2, suff_term3
from logbesov.cubes import DyadicCube, cube_mean_power, level_index_range
from logbesov.gallery import make_indicator
from logbesov.grid import INF, GridSpec, SampledFunction, conjugate_exponent, random_band_limited
from logbesov.partition import build_partition, decompose

from lattice_oracle import lattice_piece

B_VALUES = (-1.0, 0.5, 1.5)


def _cubes(grid, level):
    lo, hi = level_index_range(level)
    for index in itertools.product(range(lo, hi + 1), repeat=grid.dim):
        yield DyadicCube(level, index)


class Oracle:
    def __init__(self, f, partition):
        self.grid = f.grid
        self.k_top = partition.k_max
        self.l_top = min(self.grid.l_max, self.k_top)
        self.pieces = [lattice_piece(f, partition, k) for k in range(self.k_top + 1)]
        self._cube_powers = {}

    def cube_powers(self, k, r, level):
        """[(mean_Q |S_k f|^r)^{1/r} for every level cube Q]."""
        key = (k, r, level)
        if key not in self._cube_powers:
            self._cube_powers[key] = [
                cube_mean_power(self.pieces[k], cube, r) for cube in _cubes(self.grid, level)
            ]
        return self._cube_powers[key]

    def sup_norm(self, k):
        return float(np.abs(self.pieces[k].values).max())

    def suff_term2(self, p, b):
        r = conjugate_exponent(p)
        best = 0.0
        for l in range(self.l_top + 1):
            total = 0.0
            for k in range(l, self.k_top + 1):
                total += ((1 + l) / (1 + k)) ** b * max(self.cube_powers(k, r, l))
            best = max(best, total)
        return best

    def nece_term2(self, p, b):
        r = conjugate_exponent(p)
        best = 0.0
        for l in range(self.l_top + 1):
            n_cubes = len(self.cube_powers(l, r, l))
            for q in range(n_cubes):
                total = 0.0
                for k in range(l, self.k_top + 1):
                    total += ((1 + l) / (1 + k)) ** b * self.cube_powers(k, r, l)[q]
                best = max(best, total)
        return best

    def suff_term3(self, p, b):
        best = 0.0
        for k in range(2, self.k_top + 1):
            total = 0.0
            for j in range(min(k - 2, self.l_top) + 1):
                total += ((1 + k) / (1 + j)) ** b * max(self.cube_powers(k, p, j))
            best = max(best, total)
        return best

    def nece_term3(self, p, b):
        best = 0.0
        for k in range(2, self.k_top + 1):
            total = 0.0
            if p == INF:
                for j in range(k - 1):
                    total += ((1 + k) / (1 + j)) ** b * self.sup_norm(k)
            else:
                for j in range(min(k - 2, self.l_top) + 1):
                    total += ((1 + k) / (1 + j)) ** (b * p) * max(self.cube_powers(k, p, j)) ** p
                total = total ** (1 / p)
            best = max(best, total)
        return best

    def pinf_term2(self, b):
        best = 0.0
        for l in range(self.l_top + 1):
            inner = sum((1 + k) ** (-b) * np.abs(self.pieces[k].values) for k in range(l, self.k_top + 1))
            g = SampledFunction(self.grid, inner)
            means = [cube_mean_power(g, cube, 1.0) for cube in _cubes(self.grid, l)]
            best = max(best, (1 + l) ** b * max(means))
        return best


@pytest.fixture(
    scope="module",
    params=[(1, 10, "cube"), (1, 10, "random"), (2, 8, "random")],
    ids=["1d-cube", "1d-random", "2d-random"],
)
def case(request):
    dim, log2_samples, kind = request.param
    grid = GridSpec(dim, log2_samples)
    partition = build_partition(grid)
    if kind == "cube":
        f = make_indicator(grid, "cube")
    else:
        f = random_band_limited(grid, 2.0 ** (partition.k_max - 1), np.random.default_rng(11))
    return f, partition, decompose(f, partition), Oracle(f, partition)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, INF])
def test_terms_match_loop_oracle(case, p):
    f, partition, dec, oracle = case
    for b in B_VALUES:
        pairs = [
            (nece_term2(f, partition, p, b, dec=dec).value, oracle.nece_term2(p, b)),
            (nece_term3(f, partition, p, b, dec=dec).value, oracle.nece_term3(p, b)),
        ]
        if p != INF:
            pairs.append((suff_term2(f, partition, p, b, dec=dec).value, oracle.suff_term2(p, b)))
            pairs.append((suff_term3(f, partition, p, b, dec=dec).value, oracle.suff_term3(p, b)))
        else:
            pairs.append((pinf_term2(f, partition, b, dec=dec).value, oracle.pinf_term2(b)))
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
