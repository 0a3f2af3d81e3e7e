import math
import sys
import threading
import time

import numpy as np
import pytest

import logbesov.experiments as experiments
from logbesov.cli import main
from logbesov.errors import InvalidInputError
from logbesov.experiments import (
    ExperimentConfig,
    _criterion_value,
    fit_slope,
    growth_law,
    mollify,
    run_charfun,
    run_exp_growth,
    run_partition_check,
    run_sandwich,
)
from logbesov.gallery import expo7_family, make_exponential, make_indicator
from logbesov.grid import INF, GridSpec
from logbesov.norms import BesovParams
from logbesov.paraproducts import multiplier_lower_bound
from logbesov.partition import DyadicPartition, PartitionKind, build_partition, decompose
from logbesov.workers import _map_rows


def test_fit_slope_basic():
    xs = np.arange(1.0, 9.0)
    slope, r2 = fit_slope(xs, xs)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    ys = xs**2 * (1 + 0.01 * rng.standard_normal(xs.size))
    slope, _ = fit_slope(xs, ys)
    assert slope == pytest.approx(2.0, abs=0.05)
    slope, _ = fit_slope(xs, np.full_like(xs, 3.0))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_guards():
    with pytest.raises(InvalidInputError):
        fit_slope([1, 2, 3], [1, 2, 3])
    with pytest.raises(InvalidInputError):
        fit_slope([1, 2, 3, 4], [1, -2, 3, 4])


def test_growth_law_table():
    assert growth_law(1.0, 2.0)[0] == 2.0
    assert growth_law(1.0, 1.0)[:2] == (1.0, 1.0)
    assert growth_law(1.0, 0.0)[:2] == (1.0, 0.0)
    assert growth_law(1.0, -1.0)[:2] == (1.0, 0.0)
    assert growth_law(1.0, -2.0)[0] == 2.0
    assert growth_law(INF, 0.5)[:2] == (1.0, 0.0)
    assert growth_law(4.0, 0.0)[0] == 0.5
    assert growth_law(4.0, 0.5)[:2] == (0.5, 0.5)
    assert growth_law(4.0, -2.0)[0] == 2.0
    assert growth_law(1.5, 0.0)[0] == pytest.approx(2.0 / 3.0)


def test_partition_check_runner():
    table = run_partition_check(ExperimentConfig(log2_samples=10))
    assert table.ok
    table2 = run_partition_check(ExperimentConfig(log2_samples=8, dim=2, kind="tensor"))
    assert table2.ok


def test_exp_growth_small():
    config = ExperimentConfig(log2_samples=11, b_list=(0.0, -2.0), p_list=(1.0,), m_range=(3, 7))
    table = run_exp_growth(config)
    assert table.ok
    assert all(row["asymptote"] for row in table.rows)


def test_exp_growth_m_range_guard():
    config = ExperimentConfig(log2_samples=10, m_range=(3, 10))
    with pytest.raises(InvalidInputError):
        run_exp_growth(config)


def test_exp_growth_matches_per_row_oracle():
    """Every row's value equals the straightforward per-(p, b, m) computation
    on freshly built functions (the exponential carrying its exact
    spectrum on both routes, as the runner builds it), and rows and checks
    come out in p, b, m order."""
    ps, bs, ms = (1.0, INF, 2.0, 4.0), (0.0, 0.5, 2.0), range(3, 7)
    config = ExperimentConfig(log2_samples=10, b_list=bs, p_list=ps, m_range=(3, 6))
    table = run_exp_growth(config)
    grid = config.grid()
    part = build_partition(grid)
    expected = []
    for p in ps:
        for b in bs:
            for m in ms:
                if p == 1.0 or p == INF:
                    val = _criterion_value(experiments._exact_exponential(grid, (1 << m,)), part, p, b)
                else:
                    f = experiments._exact_exponential(grid, (-(1 << m),))
                    params = BesovParams(0.0, b, p, INF)
                    [(val, _)] = multiplier_lower_bound(f, part, [params], expo7_family(grid, m, b))
                expected.append(("inf" if p == INF else p, b, m, val))
    assert [(r["p"], r["b"], r["m"], r["value"]) for r in table.rows] == expected
    prefixes = [f"growth p={'inf' if p == INF else f'{p:g}'} b={b:g}:" for p in ps for b in bs]
    assert [c.label.split(":")[0] + ":" for c in table.checks] == [x for x in prefixes for _ in range(2)]


def test_exact_growth_is_the_closed_form():
    """At p = 1 the criterion of e^{i 2^m x} has the closed form
    1 + max(1, (1+m)^-b) + (1+m)^b sum_{j=1}^{m-1} j^-b: the L^inf norm, the
    one nonzero piece's term and the lower pieces' tail.  From the exact
    one-bin spectrum every row meets it to 1e-14 relative (5.6e-16
    measured; the FFT of the samples gives 5.8e-13)."""
    config = ExperimentConfig(log2_samples=14, p_list=(1.0,))
    table = run_exp_growth(config)
    assert {row["b"] for row in table.rows} == set(config.b_list)
    assert {row["m"] for row in table.rows} == set(range(3, 11))
    for row in table.rows:
        b, m = row["b"], row["m"]
        want = 1.0 + max(1.0, (1.0 + m) ** -b) + (1.0 + m) ** b * sum(j**-b for j in range(1, m))
        assert abs(row["value"] - want) <= 1e-14 * want, (b, m)


@pytest.mark.parametrize("dim, J, m_hi", [(1, 14, 10), (2, 10, 6)])
def test_exact_growth_is_the_closed_form_at_p_inf(dim, J, m_hi):
    """At p = inf the row of e^{i 2^m x_1} is the low-high term, whose level
    l reads the one nonzero piece's cube means (all 1) weighted by
    ((1+l)/(1+m))^b over the cube levels l <= min(m, l_max), plus the
    closed-form high-low weight w_m of its sup norm 1: (1+m)^b for b > 1,
    (1+m) ln(1+m) at b = 1, (1+m) for b < 1.  The cube clamp at l_max
    holds for m > l_max.  Every row meets it to 1e-14 relative (4.5e-16
    measured)."""
    config = ExperimentConfig(dim=dim, log2_samples=J, p_list=(INF,), m_range=(3, m_hi))
    l_max = config.grid().l_max
    assert l_max < m_hi
    table = run_exp_growth(config)
    assert {row["b"] for row in table.rows} == set(config.b_list)
    assert {row["m"] for row in table.rows} == set(range(3, m_hi + 1))
    for row in table.rows:
        b, m = row["b"], row["m"]
        low_high = max(((1.0 + l) / (1.0 + m)) ** b for l in range(min(m, l_max) + 1))
        w = (1.0 + m) ** b if b > 1 else (1.0 + m) * math.log(1.0 + m) if b == 1 else 1.0 + m
        want = low_high + w
        assert abs(row["value"] - want) <= 1e-14 * want, (b, m)


def test_exp_growth_decomposes_each_distinct_function_once(monkeypatch):
    """One decomposition per m on the exact route, whatever the b, and on the
    packet route one per member that is distinct across the families of
    every b at that m and one per its product, across all p."""
    import logbesov.experiments as experiments
    import logbesov.paraproducts as paraproducts
    import logbesov.partition as partition_mod

    original = partition_mod.decompose
    inputs = []

    def counting(f, partition):
        inputs.append(f.spectrum)
        return original(f, partition)

    # every module name the runner and the lower bound reach decompose by
    for mod in (partition_mod, experiments, paraproducts):
        monkeypatch.setattr(mod, "decompose", counting)
    bs, ms = (0.0, 1.0), range(3, 7)
    config = ExperimentConfig(log2_samples=10, b_list=bs, p_list=(1.0, INF, 2.0, 4.0), m_range=(3, 6))
    run_exp_growth(config)
    grid = config.grid()
    exact = 0
    for m in ms:
        e = experiments._exact_exponential(grid, (1 << m,)).spectrum
        count = inputs.count(e)
        assert count == 1, f"m={m}: {count} decompositions of e^(i2^m x)"
        exact += count
    distinct = 0
    for m in ms:
        kept = []
        for b in bs:
            for _, g in expo7_family(grid, m, b):
                if g.spectrum not in kept:
                    kept.append(g.spectrum)
        distinct += len(kept)
    assert len(inputs) - exact == 2 * distinct


def test_charfun_small():
    table = run_charfun(ExperimentConfig(log2_samples=12))
    assert table.ok
    ks = [row["k"] for row in table.rows]
    assert ks == sorted(ks)


def test_mollify_decays(grid10):
    f = make_indicator(grid10, "cube")
    smooth = mollify(f, 2.0**-4)
    from logbesov.partition import build_partition, decompose

    part = build_partition(grid10)
    sups = decompose(smooth, part).sup_norms()
    assert sups[7] < 0.01 * sups[4]


@pytest.mark.parametrize("dim, J", [(1, 10), (2, 7)])
def test_mollify_keeps_a_real_function_real(dim, J):
    """A real f is damped on its half spectrum: the result is `float64`, and
    it agrees with the full-spectrum multiplier to round-off; a complex f
    stays complex."""
    grid = GridSpec(dim, J)
    f = make_indicator(grid, "cube")
    smooth = mollify(f, 2.0**-4)
    assert smooth.values.dtype == np.float64
    damp = np.exp(-0.5 * (2.0**-4 * grid.freq_radius()) ** 2)
    want = np.fft.ifftn(damp * np.fft.fftn(f.values))
    assert np.abs(smooth.values - want).max() <= 1e-15 * np.abs(want).max()
    assert mollify(f * 1j, 2.0**-4).values.dtype == np.complex128


def test_sandwich_small():
    # m <= K_max - 2 = J - 4: J = 13 is the smallest grid that admits m = 9
    table = run_sandwich(ExperimentConfig(log2_samples=13, m_range=(4, 9)))
    assert table.ok


def test_tables_deterministic():
    config = ExperimentConfig(log2_samples=10, b_list=(0.0,), p_list=(1.0,), m_range=(3, 6))
    a = run_exp_growth(config).to_json()
    b = run_exp_growth(config).to_json()
    assert a == b
    ca = run_exp_growth(config).to_csv()
    cb = run_exp_growth(config).to_csv()
    assert ca.encode() == cb.encode()


def test_runners_same_tables_on_one_and_two_workers(usable_cpus):
    """exp-growth (both routes) and sandwich serialize byte for byte alike
    on one worker and on two."""
    runs = [
        (run_exp_growth, ExperimentConfig(log2_samples=10, b_list=(0.0, 2.0), p_list=(1.0, INF), m_range=(3, 6))),
        (run_exp_growth, ExperimentConfig(log2_samples=10, b_list=(0.0, 2.0), p_list=(2.0, 4.0), m_range=(3, 6))),
        (run_sandwich, ExperimentConfig(log2_samples=11, m_range=(4, 7))),
    ]
    for run, config in runs:
        out = {}
        for n in (1, 2):
            usable_cpus(n)
            table = run(config)
            out[n] = (table.to_json(), table.to_csv())
        assert out[1] == out[2], (run.__name__, config)


def test_helper_thread_error_exits_2_without_traceback(monkeypatch, capsys, usable_cpus, raise_on_helper):
    usable_cpus(2)
    start = threading.active_count()
    err = InvalidInputError("exponential refused on the helper thread")
    monkeypatch.setattr(experiments, "_exact_exponential", raise_on_helper(err, experiments._exact_exponential))
    argv = ["--grid", "J=10", "exp-growth", "--p-list", "1", "--b-list", "0", "--m-min", "3", "--m-max", "6"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert "Traceback" not in captured.out
    assert threading.active_count() == start


def test_runner_threads_end_with_the_run(monkeypatch, usable_cpus, raise_on_helper):
    """No thread outlives a run, whether it succeeds or raises, and the
    rows of a slow helper are waited for."""
    usable_cpus(2)
    start = threading.active_count()

    def slow_on_helper(x, _):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)
        return x

    assert _map_rows(slow_on_helper, [0, 1]) == [0, 1]
    assert threading.active_count() == start
    run_exp_growth(ExperimentConfig(log2_samples=10, b_list=(0.0,), p_list=(1.0, 2.0), m_range=(3, 6)))
    assert threading.active_count() == start
    err = InvalidInputError("no packet family on the helper thread")
    monkeypatch.setattr(experiments, "expo7_families", raise_on_helper(err, experiments.expo7_families))
    with pytest.raises(InvalidInputError) as info:
        run_exp_growth(ExperimentConfig(log2_samples=10, b_list=(0.0,), p_list=(4.0,), m_range=(3, 6)))
    assert info.value is err
    assert threading.active_count() == start


def test_fresh_partition_first_used_by_several_threads():
    """Concurrent first use of a fresh partition builds the same boxes, and
    so the same symbols and pieces, as serial use (four threads, more than
    the runners start, switching as often as the interpreter allows)."""
    grid = GridSpec(2, 7)
    f = make_indicator(grid, "cube")
    levels = range(grid.k_max + 1)
    for kind in ("radial", "tensor"):
        serial = DyadicPartition(grid, PartitionKind(kind))
        dec = decompose(f, serial)
        expected = [(serial.symbol(k), dec._piece(k)) for k in levels]
        fresh = DyadicPartition(grid, PartitionKind(kind))
        got = {}

        def use(t):
            dec = decompose(f, fresh)
            got[t] = [(fresh.symbol(k), dec._piece(k)) for k in levels]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for pairs in got.values():
            for (s0, p0), (s1, p1) in zip(expected, pairs):
                assert np.array_equal(s0, s1) and np.array_equal(p0, p1)


def test_runner_calls_share_the_level_boxes(monkeypatch):
    """`build_partition` gives one partition per grid and kind for the life
    of the process, named by string or by member, so a second
    `run_exp_growth` call, on either route, builds no level box."""
    config = ExperimentConfig(log2_samples=10, b_list=(0.5,), p_list=(1.0, 4.0), m_range=(3, 6))
    assert build_partition(config.grid(), "Radial") is build_partition(config.grid(), PartitionKind.RADIAL)
    run_exp_growth(config)
    profiles = []
    profile = DyadicPartition._profile

    def counting(self, *args):
        profiles.append(args)
        return profile(self, *args)

    monkeypatch.setattr(DyadicPartition, "_profile", counting)
    run_exp_growth(config)
    assert profiles == []


def test_sandwich_and_charfun_windows_checked_before_work(monkeypatch):
    def no_partition(*args, **kwargs):
        raise AssertionError("a partition was built before the window check")

    monkeypatch.setattr(experiments, "build_partition", no_partition)
    with pytest.raises(InvalidInputError, match="needs J >= 14"):
        run_sandwich(ExperimentConfig(dim=2, log2_samples=10))
    with pytest.raises(InvalidInputError, match="fewer than the 4 values"):
        run_sandwich(ExperimentConfig(log2_samples=14, m_range=(3, 6)))
    with pytest.raises(InvalidInputError, match="J >= 11"):
        run_charfun(ExperimentConfig(dim=2, log2_samples=10))
