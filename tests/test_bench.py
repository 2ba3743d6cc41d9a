import importlib.util
import statistics
import warnings
from pathlib import Path

import numpy as np
import pytest

from boxprop import bench as bench_module
from boxprop.bench import (
    DetailRecord,
    GapRecord,
    GridSpec,
    compare,
    detail_lines,
    gap,
    gap_profiles,
    gen_ising_grid,
    gen_ternary_grid,
    grid_edges,
    median_gap,
    profiles_csv,
    run_method,
    summary_csv,
)
from boxprop.factorgraph import validate, write_fg
from boxprop.measure import Box, Measure
from boxprop.propagation import boxprop_sawtree, boxprop_subtree, build_saw_tree, build_subtree
from helpers import graph_from, permute_states, triangle_graph


def box1(lower, upper):
    return Box(
        Measure((0,), (len(lower),), np.asarray(lower, float)),
        Measure((0,), (len(upper),), np.asarray(upper, float)),
    )


# ----------------------------------------------------------------- generators


def test_grid_edges_count():
    assert len(grid_edges(5, 5)) == 40
    assert len(grid_edges(1, 4)) == 3


def test_gen_ising_grid_structure():
    g = gen_ising_grid(GridSpec(5, 5, 2, 1.0, 42))
    assert g.num_variables == 25
    unary = [f for f in g.factors if len(f.scope) == 1]
    pairwise = [f for f in g.factors if len(f.scope) == 2]
    assert len(unary) == 25 and len(pairwise) == 40
    assert all(f.table.min() > 0 for f in g.factors)
    assert validate(g) == []


def test_gen_ternary_grid_structure():
    g = gen_ternary_grid(GridSpec(5, 5, 3, 1.0, 42))
    assert g.num_variables == 25
    assert g.num_factors == 40
    assert all(f.table.size == 9 and f.table.min() > 0 for f in g.factors)
    assert validate(g) == []


def test_generators_deterministic():
    for maker, dom in ((gen_ising_grid, 2), (gen_ternary_grid, 3)):
        a = maker(GridSpec(4, 3, dom, 1.3, 7))
        b = maker(GridSpec(4, 3, dom, 1.3, 7))
        assert write_fg(a) == write_fg(b)
        c = maker(GridSpec(4, 3, dom, 1.3, 8))
        assert write_fg(a) != write_fg(c)


def test_beta_scaling_reuses_one_draw():
    base = gen_ising_grid(GridSpec(3, 3, 2, 1.0, 5))
    doubled = gen_ising_grid(GridSpec(3, 3, 2, 2.0, 5))
    for f1, f2 in zip(base.factors, doubled.factors):
        # exp(2*theta) == exp(theta)**2 entrywise when the same draw is reused
        assert np.allclose(f2.table, f1.table**2, rtol=1e-12)


def test_tiny_beta_near_uniform_and_tiny_gaps():
    g = gen_ising_grid(GridSpec(5, 5, 2, 1e-8, 9))
    for f in g.factors:
        assert np.abs(f.table - 1.0).max() < 1e-6
    for v in (0, 12):
        assert gap(boxprop_subtree(g, build_subtree(g, v, 5000)).box) < 1e-4
        assert gap(boxprop_sawtree(g, build_saw_tree(g, v, 1000)).box) < 1e-4
    g3 = gen_ternary_grid(GridSpec(4, 4, 3, 1e-8, 9))
    for f in g3.factors:
        assert np.abs(f.table - 1.0).max() < 1e-6


def test_generators_refuse_overflowing_beta():
    for maker, dom in ((gen_ising_grid, 2), (gen_ternary_grid, 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows exp"):
                maker(GridSpec(3, 3, dom, 800.0, 0))


def test_grid_spec_validation(monkeypatch):
    with pytest.raises(ValueError):
        GridSpec(0, 5, 2, 1.0, 1)
    with pytest.raises(ValueError):
        GridSpec(5, 5, 4, 1.0, 1)
    with pytest.raises(ValueError):
        GridSpec(5, 5, 2, 0.0, 1)
    with pytest.raises(ValueError):
        gen_ising_grid(GridSpec(2, 2, 3, 1.0, 1))
    with pytest.raises(ValueError):
        gen_ternary_grid(GridSpec(2, 2, 2, 1.0, 1))
    # The largest squares whose tables a .fg file may hold, and the first past it.
    for domain, largest in ((2, 2590), (3, 1931)):
        GridSpec(largest, largest, domain, 1.0, 1)
        with pytest.raises(ValueError, match=r"table entries, above the \.fg cap 67108864$"):
            GridSpec(largest + 1, largest + 1, domain, 1.0, 1)
    with pytest.raises(ValueError, match="^a 2600x2600 grid of domain 2 has 67579200 "):
        GridSpec(2600, 2600, 2, 1.0, 1)
    # The count is the generated one: with the cap set to a small grid's own
    # entries that grid passes, and one entry less refuses it.
    counted = []
    for rows, cols in ((1, 2), (1, 5), (2, 2), (3, 4), (4, 3)):
        for domain, gen in ((2, gen_ising_grid), (3, gen_ternary_grid)):
            spec = GridSpec(rows, cols, domain, 1.0, 1)
            counted.append((spec, sum(f.table.size for f in gen(spec).factors)))
    for spec, entries in counted:
        monkeypatch.setattr(bench_module, "TABLE_CAP", entries - 1)
        with pytest.raises(ValueError, match=f"has {entries} table entries"):
            GridSpec(spec.rows, spec.cols, spec.domain_size, 1.0, 1)
        monkeypatch.setattr(bench_module, "TABLE_CAP", entries)
        GridSpec(spec.rows, spec.cols, spec.domain_size, 1.0, 1)


# ------------------------------------------------------------------ gap


def test_gap_golden():
    assert gap(box1([2 / 7, 2 / 7], [5 / 7, 5 / 7])) == pytest.approx(3 / 7, abs=1e-12)
    assert gap(box1([0.3, 0.7], [0.3, 0.7])) == 0.0
    assert gap(box1([0.0, 0.0], [1.0, 1.0])) == 1.0


def test_gap_invariant_under_state_relabeling():
    g = triangle_graph((1.0, 3.0, 2.0, 0.5))
    permuted = permute_states(g, 1, [1, 0])
    for graph in (g, permuted):
        assert validate(graph) == []
    for v in range(3):
        a = gap(boxprop_subtree(g, build_subtree(g, v, 100)).box)
        b = gap(boxprop_subtree(permuted, build_subtree(permuted, v, 100)).box)
        assert a == pytest.approx(b, abs=1e-12)
        a = gap(boxprop_sawtree(g, build_saw_tree(g, v, 10_000)).box)
        b = gap(boxprop_sawtree(permuted, build_saw_tree(permuted, v, 10_000)).box)
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------- compare


def test_compare_triangle():
    g = triangle_graph()
    result = compare(g, {"subtree": 100, "sawtree": 10_000}, run_bp=True)
    sub = {r.variable: r for r in result.gap_records if r.method == "subtree"}
    assert sub[0].gap == pytest.approx(3 / 7, abs=1e-12)
    assert result.exact is not None
    for rec in result.detail_records:
        ex = result.exact[rec.variable].values
        assert np.all(ex >= np.array(rec.lower) - 1e-9)
        assert np.all(ex <= np.array(rec.upper) + 1e-9)
    bp_rows = [r for r in result.gap_records if r.method == "bp"]
    assert len(bp_rows) == 3
    assert all(r.gap <= 1e-6 for r in bp_rows)  # BP is exact here


def test_compare_empty_methods():
    result = compare(triangle_graph(), {}, exact=False)
    assert result.gap_records == [] and result.detail_records == []


def test_compare_records_sorted_and_invariant():
    g = gen_ising_grid(GridSpec(3, 3, 2, 1.0, 11))
    result = compare(g, {"sawtree": 500, "subtree": 500})
    keys = [(r.method, r.variable) for r in result.gap_records]
    assert keys == sorted(keys)
    for rec in result.detail_records:
        assert all(0.0 <= lo <= hi <= 1.0 for lo, hi in zip(rec.lower, rec.upper))
        assert sum(rec.lower) <= 1.0 + 1e-12
        assert sum(rec.upper) >= 1.0 - 1e-12


def test_compare_failure_becomes_note():
    # A 25-state variable whose incoming box has spread in every state blows
    # the corner cap at the root; the failure must become a per-record note,
    # not abort the run, and the other variable must still succeed.
    rng = np.random.default_rng(0)
    big = graph_from(
        [
            ((0, 1), (2, 25), rng.uniform(0.1, 2.0, 50)),
            ((1,), (25,), rng.uniform(0.1, 2.0, 25)),
            ((0,), (2,), rng.uniform(0.1, 2.0, 2)),
        ]
    )
    result = compare(big, {"subtree": 4}, exact=False)
    notes = {r.variable: r.note for r in result.detail_records}
    assert notes[1] == "CapacityExceededError"
    assert notes[0] == ""


def test_compare_keeps_its_rows_when_bp_finds_a_vanishing_product():
    # Without the exact oracle nothing stops this zero-partition graph before
    # BP, whose messages into variable 0 multiply to zero: the method rows
    # stay and the result keeps BP's message instead of its beliefs.
    g = graph_from([((0, 1), (2, 2), np.ones(4)), ((0,), (2,), (1, 0)), ((0,), (2,), (0, 1))])
    result = compare(g, {"subtree": 4}, run_bp=True, exact=False)
    assert result.bp is None
    assert result.bp_error == "the BP messages into variable 0 multiply to zero"
    assert [(r.variable, r.note) for r in result.detail_records] == [(0, "ZeroMeasureError"), (1, "")]
    assert [(r.variable, r.method) for r in result.gap_records] == [(1, "subtree")]


def test_compare_determinism_of_summary():
    g = gen_ising_grid(GridSpec(3, 3, 2, 1.0, 13))
    budgets = {"subtree": 300, "sawtree": 300}

    def stripped(res):
        rows = summary_csv(res.gap_records).splitlines()
        return [",".join(r.split(",")[:3]) for r in rows]

    a = compare(g, budgets)
    b = compare(g, budgets)
    assert stripped(a) == stripped(b)


def test_median_sawtree_beats_subtree_on_grid():
    g = gen_ising_grid(GridSpec(5, 5, 2, 1.0, 42))
    result = compare(g, {"subtree": 5000, "sawtree": 2000})
    assert median_gap(result.gap_records, "sawtree") <= median_gap(result.gap_records, "subtree")


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_median_gap_equals_statistics_median(n):
    rng = np.random.default_rng(n)
    gaps = rng.uniform(0.0, 1.0, n).tolist()
    records = [GapRecord(v, "subtree", x, 1.0) for v, x in enumerate(gaps)]
    records += [GapRecord(0, "sawtree", 2.0, 1.0)]
    assert median_gap(records, "subtree") == statistics.median(gaps)
    assert median_gap(records, "sawtree") == 2.0
    with pytest.raises(ValueError):
        median_gap(records, "bp")


# ----------------------------------------------------------------- reports


def test_summary_csv_schema():
    records = [GapRecord(1, "subtree", 0.25, 1.0), GapRecord(0, "sawtree", 0.5, 2.0)]
    text = summary_csv(records)
    lines = text.splitlines()
    assert lines[0] == "variable,method,gap,time_ms"
    assert lines[1].startswith("0,sawtree,0.5,")
    assert lines[2].startswith("1,subtree,0.25,")


def test_detail_lines_schema():
    rec = DetailRecord(0, "subtree", (0.2, 0.2), (0.8, 0.8), 5, 1.25)
    fail = DetailRecord(1, "subtree", (), (), 0, 0.1, note="CapacityExceededError")
    import json

    objs = [json.loads(line) for line in detail_lines([rec, fail]).splitlines()]
    assert objs[0] == {
        "variable": 0,
        "method": "subtree",
        "lower": [0.2, 0.2],
        "upper": [0.8, 0.8],
        "nodes_used": 5,
        "time_ms": 1.25,
    }
    assert objs[1]["note"] == "CapacityExceededError"


def test_gap_profiles_sorted():
    records = [
        GapRecord(0, "subtree", 0.5, 1.0),
        GapRecord(1, "subtree", 0.2, 1.0),
        GapRecord(0, "sawtree", 0.1, 1.0),
    ]
    profiles = gap_profiles(records)
    assert profiles["subtree"] == [0.2, 0.5]
    text = profiles_csv(profiles)
    assert text.splitlines()[0] == "method,rank,gap"
    assert "sawtree,0,0.1" in text


# ------------------------------------------------------------ desk benchmark


def _grid_benchmark_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_grid_benchmarks.py"
    spec = importlib.util.spec_from_file_location("run_grid_benchmarks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_benchmark_script_fails_on_a_missed_box(tmp_path, monkeypatch, capsys):
    script = _grid_benchmark_script()
    argv = ["--out-dir", str(tmp_path), "--rows", "3", "--cols", "3", "--betas", "0.5",
            "--family", "binary", "--max-nodes", "200", "--bp"]
    assert script.main(argv) == 0

    def shifted(*args, **kwargs):
        result = compare(*args, **kwargs)
        result.exact = [Measure(m.scope, m.sizes, m.values + 1.0) for m in result.exact]
        return result

    monkeypatch.setattr(script, "compare", shifted)
    assert script.main(argv) == 1
    out, err = capsys.readouterr()
    assert "exact in boxes: NO" in out
    assert "error: exact marginal outside a box: binary beta=0.5" in err


def test_run_method_refuses_an_unknown_method():
    with pytest.raises(ValueError) as err:
        run_method(triangle_graph(), "bogus", 0, 10)
    assert str(err.value) == "unknown method 'bogus'; expected one of ('subtree', 'sawtree')"
