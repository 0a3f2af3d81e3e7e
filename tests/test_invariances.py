"""Invariances of the multiplier criteria under conjugation and scaling.

A pointwise multiplier space is closed under complex conjugation, and every
criterion term is homogeneous of degree 1: |S_k conj(f)| = |S_k f| because
both kinds of symbol are even, and S_k (3f) = 3 S_k f.  So `verdict` gives
f, 3f and conj(f) the same state, and 3f three times every value, up to the
rounding of the transforms; a real member is its own conjugate, bit for
bit.  (Shifts change the values, since the dyadic cubes do not wrap the
torus, and are not checked here.)
"""

import math

import numpy as np
import pytest

from logbesov.criteria import verdict
from logbesov.gallery import gallery_from_spec
from logbesov.grid import INF, GridSpec, SampledFunction
from logbesov.partition import build_partition

MEMBERS = [
    ((1, 12), "cube"),
    ((1, 12), "bump:l=3"),
    ((1, 12), "exp:m=5"),
    ((1, 12), "lacunary:beta=0.5"),
    ((1, 12), "halfspace"),
    ((1, 12), "stack:m=2,n=6"),
    ((2, 8), "cube"),
    ((2, 8), "bump:l=3"),
    ((2, 8), "exp:m=4"),
]
B_VALUES = (-1.0, 0.5, 2.0)
RTOL = 1e-14  # measured: at most 5.8e-16 under f -> 3f, 4.5e-16 under f -> conj(f)


def _values(rep) -> list[float]:
    """Every value of a report that scales with f: the L^inf norm, the two
    term values, `combined` and the bracket ends."""
    return [rep.term_linf, rep.term2.value, rep.term3.value, rep.combined, *(rep.bracket or ())]


def _close(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and all(math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0) for a, b in zip(got, want))


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("shape, spec", MEMBERS, ids=[f"{d}d-{s}" for (d, _), s in MEMBERS])
def test_verdict_is_conjugation_invariant_and_homogeneous(shape, spec, p):
    grid = GridSpec(*shape)
    part = build_partition(grid)
    f = gallery_from_spec(grid, spec)
    scaled = SampledFunction(grid, 3.0 * f.values)
    conj = SampledFunction(grid, np.conj(f.values))
    for b in B_VALUES:
        rep = verdict(f, part, p, b)
        rep_scaled = verdict(scaled, part, p, b)
        rep_conj = verdict(conj, part, p, b)
        assert rep_scaled.verdict == rep.verdict == rep_conj.verdict
        assert _close(_values(rep_scaled), [3.0 * v for v in _values(rep)])
        assert _close(_values(rep_conj), _values(rep))
        if f.values.dtype == np.float64:
            assert rep_conj.to_dict() == rep.to_dict()
