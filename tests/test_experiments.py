import numpy as np
import pytest

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
from logbesov.grid import INF
from logbesov.norms import BesovParams
from logbesov.paraproducts import multiplier_lower_bound
from logbesov.partition import build_partition


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
    on freshly built functions, and rows and checks come out in p, b, m order."""
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
                    val = _criterion_value(make_exponential(grid, (1 << m,)), part, p, b)
                else:
                    f = make_exponential(grid, (-(1 << m),))
                    params = BesovParams(0.0, b, p, INF)
                    val, _ = multiplier_lower_bound(f, part, params, expo7_family(grid, m, b))
                expected.append(("inf" if p == INF else p, b, m, val))
    assert [(r["p"], r["b"], r["m"], r["value"]) for r in table.rows] == expected
    prefixes = [f"growth p={'inf' if p == INF else f'{p:g}'} b={b:g}:" for p in ps for b in bs]
    assert [c.label.split(":")[0] + ":" for c in table.checks] == [x for x in prefixes for _ in range(2)]


def test_exp_growth_decomposes_each_distinct_function_once(monkeypatch):
    """One decomposition per (b, m) on the exact route, and one per distinct
    packet member and one per product on the packet route, across all p."""
    import logbesov.experiments as experiments
    import logbesov.paraproducts as paraproducts
    import logbesov.partition as partition_mod

    original = partition_mod.decompose
    inputs = []

    def counting(f, partition):
        inputs.append(f.values)
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
        e = make_exponential(grid, (1 << m,)).values
        count = sum(np.array_equal(e, v) for v in inputs)
        assert count == len(bs), f"m={m}: {count} decompositions of e^(i2^m x)"
        exact += count
    distinct = 0
    for b in bs:
        for m in ms:
            kept = []
            for _, g in expo7_family(grid, m, b):
                if not any(np.array_equal(g.values, k) for k in kept):
                    kept.append(g.values)
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


def test_sandwich_small():
    table = run_sandwich(ExperimentConfig(log2_samples=12, m_range=(4, 9)))
    assert table.ok


def test_tables_deterministic():
    config = ExperimentConfig(log2_samples=10, b_list=(0.0,), p_list=(1.0,), m_range=(3, 6))
    a = run_exp_growth(config).to_json()
    b = run_exp_growth(config).to_json()
    assert a == b
    ca = run_exp_growth(config).to_csv()
    cb = run_exp_growth(config).to_csv()
    assert ca.encode() == cb.encode()
