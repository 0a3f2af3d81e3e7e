"""The benchmark's four workloads: input pools, seeded schedules, set-up and ops.

An op is one call of a public entry point: `experiments.run_exp_growth` for
one configuration, or `criteria.verdict` for one gallery member.  Every
entry point is looked up on its module at call time, so the tracer's
wrappers are the ones called when tracing is on.

Each workload draws its inputs from a fixed pool, and every seed lands in
the same cost class.  A growth schedule holds every b of B_LIST (b drives
the cost of a row) and the seed picks each b's m-window and the order; a
verdict schedule holds distinct gallery members, which cost about the
same, and the seed picks them, their b and their order.  The run cycles
through the schedule.

`ReferenceKernel` is fixed numpy work shaped like the workload's
bottleneck.  The harness times it between ops to gauge how fast the shared
machine runs at that moment; it never calls logbesov.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from numpy.fft import fftn, ifftn  # bound here, so the tracer's FFT wrappers never see the kernel

import logbesov.criteria as criteria
import logbesov.experiments as experiments
import logbesov.gallery as gallery
import logbesov.grid as grid_mod
import logbesov.partition as partition_mod

INF = math.inf
B_LIST = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
VERDICT_B = (0.0, 0.5, 1.0)
VERDICT_P = 2.0
GROWTH_J = 14
WINDOW = 4  # m values per growth op; fit_slope needs at least 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "growth" or "verdict"
    dim: int
    log2_samples: int
    pool: tuple
    picks: int  # inputs one seed draws: m-windows per b (growth) or members (verdict)
    trace_ops: int  # ops in the traced pass
    kernel: str  # reference kernel: "compute" or "stream" (see ReferenceKernel)
    kernel_reps: int  # its repetitions, timed next to each op
    expect_nonzero: tuple[str, ...]  # per-layer metrics this workload must produce
    members: tuple[str, ...] = field(default=())  # gallery specs (verdict workloads)

    def key(self, inp) -> str:
        if self.kind == "growth":
            p_list, b, m_lo = inp
            ps = ",".join("inf" if math.isinf(p) else f"{p:g}" for p in p_list)
            return f"p={ps} b={b:g} m={m_lo}-{m_lo + WINDOW - 1}"
        spec, b = inp
        return f"{spec} b={b:g}"

    def schedule(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        if self.kind == "verdict":
            # distinct members, so every seed holds the same number of inputs
            return [(spec, rng.choice(VERDICT_B)) for spec in rng.sample(self.members, self.picks)]
        inputs = []
        for b in B_LIST:
            inputs += rng.sample([inp for inp in self.pool if inp[1] == b], self.picks)
        rng.shuffle(inputs)
        return inputs

    def grid(self):
        return grid_mod.GridSpec(self.dim, self.log2_samples)


class ReferenceKernel:
    """Fixed numpy work, timed next to every op.

    "compute": FFT round trip, |.|^1.5 and a prefix sum over 2^14 complex
    points, which stay in cache, like the growth runners' J=14 arrays, then
    block means and prefix sums over 12 dyadic levels of a 2^14-point real
    array, like the cube reductions, then a plain Python loop, like the
    runners' per-row bookkeeping.  The mix follows a change in the
    machine's speed more closely than the FFT alone, which slowed less
    than the growth ops when other tenants were busy.
    "stream": |.|^1.5 and a prefix sum over real arrays of the workload's
    grid size, into buffers allocated once, bound by memory bandwidth like
    the verdicts' reductions over 2^20 points.  The stream kernel allocates
    nothing: how often a fresh allocation page-faults depends on the
    allocator's history, which would make its time differ from one process
    to the next.  Either kernel slows with the machine as its workload
    does, and neither calls logbesov.
    """

    def __init__(self, wl: Workload):
        rng = np.random.default_rng(0)
        self.compute = wl.kernel == "compute"
        if self.compute:
            self.x = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
            self.r = rng.standard_normal(1 << 14)
        else:
            self.x = rng.standard_normal(math.prod(wl.grid().shape))
            self.y = np.empty_like(self.x)
            self.z = np.empty_like(self.x)
        self.reps = wl.kernel_reps

    def _once(self) -> None:
        if self.compute:
            float(np.cumsum(np.abs(ifftn(fftn(self.x))) ** 1.5).max())
            for level in range(1, 13):
                float(np.diff(np.cumsum(self.r.reshape(1 << level, -1).mean(axis=1))).max())
            total = 0
            for i in range(3000):
                total += i * i % 7
        else:
            np.abs(self.x, out=self.y)
            np.power(self.y, 1.5, out=self.y)
            float(np.cumsum(self.y, out=self.z).max())

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(self.reps):
            self._once()
        return perf_counter() - t0


@dataclass
class State:
    partition: object
    functions: dict


def _exact_route(p: float) -> bool:
    """run_exp_growth's split: exact criterion at p in {1, inf}, packets otherwise."""
    return p == 1.0 or math.isinf(p)


def prepare(wl: Workload, inputs) -> State:
    """Set-up: the partition with every symbol built, then the gallery.

    Verdict workloads build every pool member, so set-up cost does not depend
    on the seed, and keep the ones in `inputs`.  Growth runners build their
    own partition and functions; here set-up builds the gallery inputs of the
    first scheduled configuration.
    """
    grid = wl.grid()
    partition = partition_mod.build_partition(grid)
    for k in range(grid.k_max + 1):
        partition.symbol(k)
    functions = {}
    if wl.kind == "verdict":
        keep = {spec for spec, _ in inputs}
        for spec in wl.members:
            f = gallery.gallery_from_spec(grid, spec)
            if spec in keep:
                functions[spec] = f
    else:
        p_list, b, m_lo = inputs[0]
        for m in range(m_lo, m_lo + WINDOW):
            gallery.make_exponential(grid, (1 << m,))
            if not all(_exact_route(p) for p in p_list):
                gallery.expo7_family(grid, m, b)
    return State(partition, functions)


def run_op(wl: Workload, state: State, inp):
    """One public-entry call; returns (raw output, number of results)."""
    if wl.kind == "growth":
        p_list, b, m_lo = inp
        config = experiments.ExperimentConfig(
            dim=wl.dim,
            log2_samples=wl.log2_samples,
            p_list=p_list,
            b_list=(b,),
            m_range=(m_lo, m_lo + WINDOW - 1),
        )
        table = experiments.run_exp_growth(config)
        return table, len(table.rows)
    spec, b = inp
    return criteria.verdict(state.functions[spec], state.partition, VERDICT_P, b), 1


def record(wl: Workload, out) -> dict:
    """JSON-ready form of an op's output, the thing the gate compares."""
    if wl.kind == "growth":
        cols = {c: [row[c] for row in out.rows] for c in out.columns}
        return {"columns": cols, "checks": [bool(c.passed) for c in out.checks]}
    return out.to_dict()


LARGE_MEMBERS = (
    "exp:m=6",
    "exp:m=14",
    "cube",
    "halfspace",
    "const",
    "bump:l=6,x=-1",
    "lacunary:beta=0.5,levels=12",
    "packet:m=10,case=1",
)
PLANE_MEMBERS = (
    "cube",
    "halfspace",
    "bump:l=3",
    "stack:m=2,n=6",
    "exp:m=3",
    "exp:m=6",
    "const",
    "lacunary:beta=0.5,levels=6",
)


def _verdict_pool(members) -> tuple:
    return tuple((spec, b) for spec in members for b in VERDICT_B)


_GROWTH_COVERAGE = (
    "grid.fft_calls",
    "grid.fft_points",
    "partition.decompose_calls",
    "partition.decompose_unique_ratio",
    "experiments.runner_self_s",
)
_VERDICT_COVERAGE = (
    "grid.fft_calls",
    "grid.fft_points",
    "partition.decompose_calls",
    "partition.decompose_unique_ratio",
    "partition.symbol_build_s",
    "partition.pieces_bytes",
    "cubes.table_builds",
    "cubes.reduce_calls",
    "cubes.reduce_s",
    "criteria.suff_term2_self_s",
    "criteria.suff_term3_self_s",
    "criteria.nece_term2_self_s",
    "criteria.nece_term3_self_s",
    "gallery.build_calls",
    "gallery.build_s",
)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="growth-exact",
            why="run_exp_growth at 1D J=14, p in {1, inf}: ~0.1 s ops on a small grid, "
            "one cube level per array; fixed per-call overhead shows here",
            kind="growth",
            dim=1,
            log2_samples=GROWTH_J,
            pool=tuple(((1.0, INF), b, m) for b in B_LIST for m in range(2, 11 - WINDOW + 1)),
            picks=3,
            trace_ops=18,
            kernel="compute",
            kernel_reps=5,
            expect_nonzero=_GROWTH_COVERAGE
            + (
                "cubes.table_builds",
                "cubes.reduce_calls",
                "criteria.suff_term2_self_s",
                "criteria.suff_term3_self_s",
                "criteria.pinf_term2_self_s",
                "criteria.pinf_term3_self_s",
            ),
        ),
        Workload(
            name="growth-packets",
            why="run_exp_growth at 1D J=14, p in {2, 4}: packet-family lower bound, "
            "FFT-bound, many inputs each decomposed once, no cube reductions",
            kind="growth",
            dim=1,
            log2_samples=GROWTH_J,
            pool=tuple(((2.0, 4.0), b, m) for b in B_LIST for m in range(3, 11 - WINDOW + 1)),
            picks=1,
            trace_ops=6,
            kernel="compute",
            kernel_reps=40,
            expect_nonzero=_GROWTH_COVERAGE
            + (
                "gallery.build_calls",
                "gallery.build_s",
                "norms.besov_calls",
                "norms.besov_self_s",
                "paraproducts.lower_bound_self_s",
            ),
        ),
        Workload(
            name="verdict-large",
            why="verdict at 1D J=20, p=2: one input decomposed and read by many terms; "
            "bound by cube reductions over every level and by memory",
            kind="verdict",
            dim=1,
            log2_samples=20,
            members=LARGE_MEMBERS,
            pool=_verdict_pool(LARGE_MEMBERS),
            picks=4,
            trace_ops=2,
            kernel="stream",
            kernel_reps=16,
            expect_nonzero=_VERDICT_COVERAGE,
        ),
        Workload(
            name="verdict-2d",
            why="verdict at 2D J=10, p=2: the only 2D path through grid, partition, cubes "
            "and criteria; carries the NaN-bracket defect of the summed-area tables",
            kind="verdict",
            dim=2,
            log2_samples=10,
            members=PLANE_MEMBERS,
            pool=_verdict_pool(PLANE_MEMBERS),
            picks=4,
            trace_ops=3,
            kernel="stream",
            kernel_reps=16,
            expect_nonzero=_VERDICT_COVERAGE,
        ),
    )
}
