import json
import time

import numpy as np
import pytest

from boxprop import bench as bench_module
from boxprop import cli as cli_module
from boxprop import measure, propagation
from boxprop.cli import main
from boxprop.errors import CapacityExceededError
from boxprop.factorgraph import parse_fg, write_fg
from boxprop.measure import Box, Measure
from helpers import (
    HUGE_BLOCK_ERROR,
    HUGE_BLOCK_FG,
    OVERLONG_FG,
    REPEATED_INDEX_ERROR,
    REPEATED_INDEX_FG,
    TOTAL_PAST_CAP_ERROR,
    TOTAL_PAST_CAP_FG,
    WIDE_FACTOR_FG,
    graph_from,
    random_tree_graph,
    triangle_graph,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "example2.fg"
    path.write_text(write_fg(triangle_graph()))
    return str(path)


def test_gen_then_bound_end_to_end(tmp_path, capsys):
    fg = tmp_path / "g.fg"
    out = tmp_path / "b.txt"
    code, _, err = run(
        capsys, "gen", "grid", "--rows", "5", "--cols", "5", "--domain", "2",
        "--beta", "1.0", "--seed", "42", "--out", str(fg),
    )
    assert code == 0
    assert "# boxprop gen grid" in err
    g = parse_fg(fg.read_text())
    assert g.num_variables == 25

    code, _, _ = run(
        capsys, "bound", "--method", "sawtree", "--max-nodes", "500",
        "--in", str(fg), "--out", str(out),
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 25
    assert all(r["method"] == "sawtree" for r in records)
    assert all(len(r["lower"]) == 2 for r in records)


def test_bound_prints_example_two_box(triangle_file, capsys):
    code, out, err = run(
        capsys, "bound", "--method", "subtree", "--in", triangle_file, "--root", "0",
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert np.allclose(rec["lower"], [2 / 7, 2 / 7], atol=1e-12)
    assert np.allclose(rec["upper"], [5 / 7, 5 / 7], atol=1e-12)
    assert "# boxprop bound" in err


def test_validate_ok(triangle_file, capsys):
    code, out, _ = run(capsys, "validate", "--in", triangle_file)
    assert code == 0
    assert out.strip() == "ok"


def test_gen_grid_overflow_is_exit_2(tmp_path, capsys):
    fg = tmp_path / "g.fg"
    code, _, err = run(
        capsys, "gen", "grid", "--rows", "3", "--cols", "3", "--beta", "800", "--out", str(fg),
    )
    assert code == 2
    assert "overflows exp" in err
    assert not fg.exists()


def graph_never_generated(spec):
    raise AssertionError("the grid was generated before the options were checked")


@pytest.mark.parametrize(
    "option",
    [
        ("--rows", "0"),
        ("--cols", "-2"),
        ("--beta", "0"),
        ("--beta", "-1"),
        ("--beta", "nan"),
        ("--beta", "inf"),
        ("--seed", "-1"),
    ],
)
def test_gen_grid_refuses_bad_options_before_generating(tmp_path, capsys, monkeypatch, option):
    monkeypatch.setattr(cli_module, "gen_ising_grid", graph_never_generated)
    monkeypatch.setattr(cli_module, "gen_ternary_grid", graph_never_generated)
    fg = tmp_path / "g.fg"
    code, out, err = run(
        capsys, "gen", "grid", "--rows", "3", "--cols", "3", *option, "--out", str(fg),
    )
    assert code == 1 and out == ""
    assert option[0] in err
    assert not fg.exists()


def test_gen_grid_refuses_a_one_cell_ternary_grid(tmp_path, capsys, monkeypatch):
    # A ternary grid has pairwise factors only, so one cell would have none.
    monkeypatch.setattr(cli_module, "gen_ternary_grid", graph_never_generated)
    fg = tmp_path / "g.fg"
    code, out, err = run(
        capsys, "gen", "grid", "--rows", "1", "--cols", "1", "--domain", "3", "--out", str(fg),
    )
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == ["error: a 1x1 ternary grid has no edges, so no factors"]
    assert not fg.exists()


def test_gen_grid_refuses_a_grid_past_the_fg_table_cap(tmp_path, capsys, monkeypatch):
    # 2600x2600 binary tables hold 67,579,200 entries, which parse_fg would refuse.
    monkeypatch.setattr(cli_module, "gen_ising_grid", graph_never_generated)
    fg = tmp_path / "g.fg"
    code, out, err = run(
        capsys, "gen", "grid", "--rows", "2600", "--cols", "2600", "--out", str(fg),
    )
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == [
        "error: a 2600x2600 grid of domain 2 has 67579200 table entries, above the .fg cap 67108864"
    ]
    assert not fg.exists()


def test_bound_sawtree_serves_a_wide_frontier_message(tmp_path, capsys):
    # The root's 4-ary ternary factor sends a frontier message over 27 other
    # states; the joint rule used to enumerate 2**27 corners and exit 2.
    path = tmp_path / "wide.fg"
    path.write_text(WIDE_FACTOR_FG)
    boxes = {}
    for method in ("sawtree", "subtree"):
        code, out, _ = run(
            capsys, "bound", "--method", method, "--max-nodes", "3", "--root", "0",
            "--in", str(path),
        )
        assert code == 0
        rec = json.loads(out)
        boxes[method] = (rec["lower"], rec["upper"])
    assert boxes["sawtree"] == boxes["subtree"]


def test_bound_time_covers_tree_build(triangle_file, capsys, monkeypatch):
    # time_ms is taken around run_method, as in compare, not read from the
    # propagation-only BoundResult.elapsed.
    real = cli_module.run_method

    def slow(*args):
        time.sleep(0.05)
        res = real(*args)
        res.elapsed = 0.0
        return res

    monkeypatch.setattr(cli_module, "run_method", slow)
    code, out, _ = run(capsys, "bound", "--method", "subtree", "--in", triangle_file, "--root", "0")
    assert code == 0
    assert json.loads(out)["time_ms"] >= 50.0


def test_bound_refuses_a_box_that_breaks_the_invariants(triangle_file, tmp_path, capsys, monkeypatch):
    # bound checks its records as compare does, and writes no file on failure.
    def broken(g, method, root, max_nodes):
        half = Measure((root,), (2,), (0.6, 0.6))
        return propagation.BoundResult(root, Box(half, half), method, 1, 0.0)

    monkeypatch.setattr(cli_module, "run_method", broken)
    out = tmp_path / "b.jsonl"
    code, _, err = run(
        capsys, "bound", "--method", "subtree", "--in", triangle_file, "--root", "0",
        "--out", str(out),
    )
    assert code == 2
    assert "violates box invariants" in err
    assert not out.exists()


def test_bound_root_past_the_last_variable_is_exit_2(triangle_file, capsys):
    code, out, err = run(capsys, "bound", "--method", "subtree", "--in", triangle_file, "--root", "3")
    assert code == 2 and out == ""
    assert "root 3 is not a variable of the graph" in err


def test_validate_reports_violations(tmp_path, capsys):
    g = graph_from(
        [
            ((0, 1), (2, 2), (1.0, 2.0, 0.0, 0.0)),
            ((0,), (2,), (1.0, 1.0)),
            ((1,), (2,), (1.0, 1.0)),
        ]
    )
    path = tmp_path / "bad.fg"
    path.write_text(write_fg(g))
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 2
    assert "factor 0" in out


def test_bound_refuses_invalid_graph(tmp_path, capsys):
    g = graph_from([((0,), (2,), (1.0, 1.0)), ((1,), (2,), (1.0, 1.0))])
    path = tmp_path / "disc.fg"
    path.write_text(write_fg(g))
    code, _, err = run(capsys, "bound", "--method", "subtree", "--in", str(path))
    assert code == 2
    assert "disconnected" in err


def test_exact_brute_capacity_is_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(1)
    g = random_tree_graph(rng, 30, max_domain=2)
    path = tmp_path / "big.fg"
    path.write_text(write_fg(g))
    code, _, err = run(capsys, "exact", "--engine", "brute", "--in", str(path))
    assert code == 2
    assert "error:" in err


def test_exact_varelim_on_triangle(triangle_file, capsys):
    code, out, _ = run(capsys, "exact", "--engine", "varelim", "--in", triangle_file)
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert np.allclose(rec["marginal"], [0.5, 0.5], atol=1e-12)


def test_bp_smoke(triangle_file, capsys):
    code, out, _ = run(capsys, "bp", "--in", triangle_file)
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["converged"] is True


@pytest.mark.parametrize(
    "graph",
    [triangle_graph(), bench_module.gen_ising_grid(bench_module.GridSpec(3, 3, 2, 1.0, 7))],
    ids=["triangle", "grid3x3"],
)
def test_bp_without_options_prints_the_library_defaults(graph, tmp_path, capsys):
    path = tmp_path / "g.fg"
    path.write_text(write_fg(graph))
    code, out, _ = run(capsys, "bp", "--in", str(path))
    res = propagation.bp_marginals(parse_fg(path.read_text()))
    expected = [{"converged": res.converged, "iterations": res.iterations, "residual": res.residual}]
    expected += [{"variable": i, "belief": b.values.tolist()} for i, b in enumerate(res.beliefs)]
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == expected


def test_bp_exits_2_when_the_messages_into_a_variable_vanish(tmp_path, capsys, recwarn):
    path = tmp_path / "vanish.fg"
    path.write_text(
        write_fg(graph_from([((0, 1), (2, 2), np.ones(4)), ((0,), (2,), (1, 0)), ((0,), (2,), (0, 1))]))
    )
    assert run(capsys, "validate", "--in", str(path))[0] == 0
    code, out, err = run(capsys, "bp", "--in", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: the BP messages into variable 0 multiply to zero"
    assert not recwarn.list


def test_damped_bp_and_compare_exit_2_on_a_zero_joint_measure(tmp_path, capsys, recwarn):
    path = tmp_path / "vanish.fg"
    path.write_text(
        write_fg(graph_from([((0, 1), (2, 2), np.ones(4)), ((0,), (2,), (1, 0)), ((0,), (2,), (0, 1))]))
    )
    code, out, err = run(capsys, "bp", "--in", str(path), "--damping", "0.5")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: the BP messages into variable 0 multiply to zero"
    code, out, err = run(capsys, "compare", "--in", str(path), "--methods", "subtree", "--bp")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "error: every joint assignment has weight zero, so the marginal of variable 1 has zero mass"
    )
    assert "warning" not in err
    assert not recwarn.list


def test_varelim_past_the_floating_point_range_exits_2_and_compare_skips_bp(
    tmp_path, capsys, recwarn
):
    path = tmp_path / "t150.fg"
    code, _, _ = run(
        capsys, "gen", "grid", "--rows", "5", "--cols", "5", "--domain", "3",
        "--beta", "150", "--seed", "42", "--out", str(path),
    )
    assert code == 0
    error = "variable elimination left the floating-point range at the bucket of variable 12"
    code, out, err = run(capsys, "exact", "--engine", "varelim", "--in", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == [f"error: {error}"]
    code, out, err = run(
        capsys, "compare", "--in", str(path), "--methods", "subtree", "--max-nodes", "50", "--bp"
    )
    assert code == 0
    assert err.splitlines()[1:] == [f"warning: skipped the bp rows: exact marginals: {error}"]
    assert ",bp," not in out
    assert not recwarn.list


def test_brute_past_the_floating_point_range_exits_2_without_a_warning(tmp_path, capsys, recwarn):
    # Every entry is 1e300, so the joint table overflows at factor 1's product.
    path = tmp_path / "e300.fg"
    path.write_text("2\n\n2\n0 1\n2 2\n4\n0 1e300\n1 1e300\n2 1e300\n3 1e300\n"
                    "\n1\n0\n2\n2\n0 1e300\n1 1e300\n")
    code, out, err = run(capsys, "exact", "--engine", "brute", "--in", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == ["error: brute force left the floating-point range at factor 1"]
    assert not recwarn.list


E308_FG = "2\n\n2\n0 1\n2 2\n4\n0 1e308\n1 1e308\n2 1e308\n3 1e308\n\n1\n0\n2\n2\n0 1\n1 1\n"


@pytest.mark.parametrize(
    "args, error",
    [
        (("bound", "--method", "sawtree"), "sawtree propagation left the floating-point range at root 0"),
        (("bound", "--method", "subtree"), "subtree propagation left the floating-point range at root 0"),
        (("bp",), "BP left the floating-point range in sweep 1"),
    ],
    ids=["sawtree", "subtree", "bp"],
)
def test_bounds_and_bp_past_the_floating_point_range_exit_2_without_a_warning(
    tmp_path, capsys, recwarn, args, error
):
    # The pairwise factor's column sums are 2e308, past the largest float.
    path = tmp_path / "e308.fg"
    path.write_text(E308_FG)
    code, out, err = run(capsys, *args, "--in", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == [f"error: {error}"]
    assert not recwarn.list


def test_compare_notes_the_roots_past_the_floating_point_range(tmp_path, capsys, recwarn):
    path, details = tmp_path / "e308.fg", tmp_path / "details.jsonl"
    path.write_text(E308_FG)
    code, out, err = run(capsys, "compare", "--in", str(path), "--details-out", str(details))
    assert code == 0 and out == "variable,method,gap,time_ms\n"
    assert len(err.splitlines()) == 1
    records = [json.loads(line) for line in details.read_text().splitlines()]
    assert [(r["method"], r["variable"], r["note"]) for r in records] == [
        (m, v, "CapacityExceededError") for m in ("sawtree", "subtree") for v in (0, 1)
    ]
    assert not recwarn.list


def test_compare_bp_skips_the_bp_rows_when_bp_leaves_the_floating_point_range(
    tmp_path, capsys, recwarn
):
    # BP and elimination both leave the range on this file: ``compare --bp``
    # still exits 0 with the method rows of ``compare`` and one warning line.
    path = tmp_path / "e308.fg"
    path.write_text(E308_FG)
    rows = []
    for flags in ((), ("--bp",)):
        details = tmp_path / f"details{len(flags)}.jsonl"
        code, out, err = run(capsys, "compare", "--in", str(path), *flags, "--details-out", str(details))
        assert code == 0 and out == "variable,method,gap,time_ms\n"
        records = [json.loads(line) for line in details.read_text().splitlines()]
        for r in records:
            del r["time_ms"]
        rows.append(records)
    assert rows[0] == rows[1] and len(rows[0]) == 4
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        "warning: skipped the bp rows: BP: BP left the floating-point range in sweep 1; "
        "exact marginals: variable elimination left the floating-point range at the bucket "
        "of variable 0"
    ]
    assert "Traceback" not in err
    assert not recwarn.list


def test_compare_writes_files(triangle_file, tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    details = tmp_path / "details.jsonl"
    profiles = tmp_path / "profiles.csv"
    code, _, _ = run(
        capsys, "compare", "--in", triangle_file, "--bp",
        "--summary-out", str(summary), "--details-out", str(details),
        "--profiles-out", str(profiles),
    )
    assert code == 0
    lines = summary.read_text().splitlines()
    assert lines[0] == "variable,method,gap,time_ms"
    assert len(lines) == 1 + 3 * 3  # bp, sawtree, subtree rows for 3 variables
    detail = [json.loads(l) for l in details.read_text().splitlines()]
    assert len(detail) == 6
    assert profiles.read_text().splitlines()[0] == "method,rank,gap"


def test_compare_notes_a_failing_root_and_exits_0(tmp_path, capsys, monkeypatch):
    # With a one-combination cap every root but variable 2 fails at budget 3;
    # the run still succeeds, and each failing root's record carries its note
    # and an empty box.
    monkeypatch.setattr(measure, "ENUMERATION_CAP", 1)
    path, details = tmp_path / "g.fg", tmp_path / "details.jsonl"
    sym = (1.0, 2.0, 2.0, 1.0)
    path.write_text(write_fg(graph_from(
        [((0, 1), (2, 2), sym), ((0, 2), (2, 2), sym), ((1, 2), (2, 2), sym),
         ((2, 3), (2, 2), sym), ((3, 4), (2, 2), sym)]
    )))
    code, out, _ = run(
        capsys, "compare", "--in", str(path), "--methods", "subtree", "--max-nodes", "3",
        "--details-out", str(details),
    )
    assert code == 0
    records = [json.loads(line) for line in details.read_text().splitlines()]
    assert [r.get("note") for r in records] == ["CapacityExceededError"] * 2 + [None] + [
        "CapacityExceededError"
    ] * 2
    assert all(r["lower"] == r["upper"] == [] for r in records if "note" in r)
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["2"]


def test_compare_prints_summary_to_stdout(triangle_file, capsys):
    code, out, _ = run(capsys, "compare", "--in", triangle_file, "--methods", "subtree")
    assert code == 0
    assert out.splitlines()[0] == "variable,method,gap,time_ms"


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, _ = run(capsys, "bound", "--method", "bogus", "--in", "nope.fg")
    assert code == 1
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1
    code, _, _ = run(capsys, "bound", "--method", "subtree", "--in", str(tmp_path / "missing.fg"))
    assert code == 1  # unreadable path is a usage-level failure


def graph_never_read(path):
    raise AssertionError("the graph was read before the options were checked")


@pytest.mark.parametrize("command", [("bound", "--method", "subtree"), ("compare",)])
def test_max_nodes_below_one_is_a_usage_error(triangle_file, capsys, monkeypatch, command):
    monkeypatch.setattr(cli_module, "_load_graph", graph_never_read)
    code, out, err = run(capsys, *command, "--in", triangle_file, "--max-nodes", "0")
    assert code == 1 and out == ""
    assert "--max-nodes" in err


def test_negative_root_is_a_usage_error(triangle_file, capsys, monkeypatch):
    monkeypatch.setattr(cli_module, "_load_graph", graph_never_read)
    code, out, err = run(capsys, "bound", "--method", "subtree", "--in", triangle_file, "--root", "-1")
    assert code == 1 and out == ""
    assert "--root" in err


@pytest.mark.parametrize("methods", ["subtree,bogus", ",", "subtree,subtree"])
def test_compare_refuses_a_bad_method_list_before_any_work(
    triangle_file, capsys, monkeypatch, methods
):
    # An unknown, empty or repeated entry is refused while parsing.
    monkeypatch.setattr(cli_module, "_load_graph", graph_never_read)
    code, out, err = run(capsys, "compare", "--in", triangle_file, "--methods", methods)
    assert code == 1 and out == ""
    assert "--methods" in err


@pytest.mark.parametrize(
    "option",
    [
        ("--max-iter", "0"),
        ("--max-iter", "-3"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--damping", "1"),
        ("--damping", "nan"),
    ],
)
def test_bp_refuses_bad_options_before_reading_the_graph(
    triangle_file, capsys, monkeypatch, option
):
    monkeypatch.setattr(cli_module, "_load_graph", graph_never_read)
    code, out, err = run(capsys, "bp", "--in", triangle_file, *option)
    assert code == 1 and out == ""
    assert option[0] in err


def test_compare_without_bp_skips_the_exact_oracle(triangle_file, tmp_path, capsys, monkeypatch):
    methods = list(bench_module.METHODS)
    expected = bench_module.compare(triangle_graph(), dict.fromkeys(methods, 5000))

    def oracle_never_called(*args, **kwargs):
        raise AssertionError("compare without --bp computed exact marginals")

    monkeypatch.setattr(bench_module, "exact_marginals", oracle_never_called)
    details = tmp_path / "details.jsonl"
    code, out, _ = run(capsys, "compare", "--in", triangle_file, "--details-out", str(details))
    assert code == 0

    def untimed(summary, detail_text):
        rows = [line.rsplit(",", 1)[0] for line in summary.splitlines()]
        records = [json.loads(line) for line in detail_text.splitlines()]
        for r in records:
            del r["time_ms"]
        return rows, records

    assert untimed(out, details.read_text()) == untimed(
        bench_module.summary_csv(expected.gap_records),
        bench_module.detail_lines(expected.detail_records),
    )


def test_compare_bp_says_why_it_skipped_the_bp_rows(tmp_path, capsys, monkeypatch):
    fg = tmp_path / "grid.fg"
    run(capsys, "gen", "grid", "--rows", "3", "--cols", "3", "--domain", "2",
        "--beta", "0.2", "--seed", "3", "--out", str(fg))
    code, out, err = run(capsys, "compare", "--methods", "subtree", "--bp", "--in", str(fg))
    assert code == 0 and ",bp," in out and "warning" not in err
    monkeypatch.setattr(propagation, "VARELIM_BUCKET_CAP", 4)
    code, out, err = run(capsys, "compare", "--methods", "subtree", "--bp", "--in", str(fg))
    assert code == 0
    assert ",bp," not in out and len(out.splitlines()) == 10
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: skipped the bp rows: exact marginals: eliminating variable 0 needs a "
        "8-entry table (cap 4)"
    ]


def test_compare_bp_skips_the_bp_rows_when_bp_fails(tmp_path, capsys, monkeypatch):
    fg = tmp_path / "grid.fg"
    run(capsys, "gen", "grid", "--rows", "3", "--cols", "3", "--domain", "2",
        "--beta", "0.2", "--seed", "3", "--out", str(fg))
    code, plain, _ = run(capsys, "compare", "--methods", "subtree", "--in", str(fg))
    assert code == 0

    def failing(g):
        raise CapacityExceededError("BP left the floating-point range in sweep 3")

    monkeypatch.setattr(bench_module, "bp_marginals", failing)
    code, out, err = run(capsys, "compare", "--methods", "subtree", "--bp", "--in", str(fg))
    assert code == 0
    untimed = lambda csv: [line.rsplit(",", 1)[0] for line in csv.splitlines()]
    assert untimed(out) == untimed(plain) and len(out.splitlines()) == 10
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        "warning: skipped the bp rows: BP: BP left the floating-point range in sweep 3"
    ]


def test_compare_bp_warns_when_bp_did_not_converge(tmp_path, capsys, monkeypatch):
    fg = tmp_path / "grid.fg"
    run(capsys, "gen", "grid", "--rows", "3", "--cols", "3", "--domain", "2",
        "--beta", "0.2", "--seed", "3", "--out", str(fg))
    code, converged_out, err = run(capsys, "compare", "--methods", "subtree", "--bp", "--in", str(fg))
    assert code == 0 and "warning" not in err
    bp = propagation.bp_marginals
    monkeypatch.setattr(bench_module, "bp_marginals", lambda g: bp(g, max_iter=2))
    code, out, err = run(capsys, "compare", "--methods", "subtree", "--bp", "--in", str(fg))
    assert code == 0
    res = bp(parse_fg(fg.read_text()), max_iter=2)
    assert not res.converged
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert warnings == [
        f"warning: BP did not converge in 2 sweeps (residual {res.residual!r}); "
        "the bp rows are its last sweep's error"
    ]

    def rows(text, method):
        return [line.split(",")[:3] for line in text.splitlines() if f",{method}," in line]

    assert len(rows(out, "bp")) == 9 and rows(out, "subtree") == rows(converged_out, "subtree")


def test_bound_lines_equal_compare_details(tmp_path, capsys):
    fg, details = tmp_path / "g.fg", tmp_path / "details.jsonl"
    fg.write_text(write_fg(bench_module.gen_ising_grid(bench_module.GridSpec(5, 5, 2, 1.0, 42))))
    code, _, _ = run(
        capsys, "compare", "--in", str(fg), "--max-nodes", "300", "--details-out", str(details)
    )
    assert code == 0

    def untimed(text):
        records = [json.loads(line) for line in text.splitlines()]
        for r in records:
            del r["time_ms"]
        return records

    bound = []
    for method in ("sawtree", "subtree"):
        code, out, _ = run(capsys, "bound", "--method", method, "--max-nodes", "300", "--in", str(fg))
        assert code == 0
        bound += untimed(out)
    assert bound == untimed(details.read_text())


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.fg"
    path.write_text("not a number\n")
    code, _, err = run(capsys, "validate", "--in", str(path))
    assert code == 2
    assert "line 1" in err


def test_validate_exits_2_on_blocks_past_the_declared_count(tmp_path, capsys):
    # The second block used to be dropped silently, so every command answered
    # for a one-factor graph.
    path = tmp_path / "overlong.fg"
    path.write_text(OVERLONG_FG)
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 2
    assert "line 10: content past the declared 1 block(s)" in err
    assert out == ""


def test_validate_exits_2_on_a_table_past_the_cap(tmp_path, capsys):
    path = tmp_path / "huge.fg"
    path.write_text(HUGE_BLOCK_FG)
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: {HUGE_BLOCK_ERROR}"


@pytest.mark.parametrize(
    "text,said",
    [(TOTAL_PAST_CAP_FG, TOTAL_PAST_CAP_ERROR), (REPEATED_INDEX_FG, REPEATED_INDEX_ERROR)],
    ids=["tables-past-the-cap-in-total", "repeated-index"],
)
def test_validate_exits_2_on_a_refused_file(tmp_path, capsys, text, said):
    # The total-cap file's second block is refused before its table is
    # allocated.
    path = tmp_path / "refused.fg"
    path.write_text(text)
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: {said}"


@pytest.mark.parametrize(
    "exc,said",
    [(MemoryError("Unable to allocate 512. MiB"), "Unable to allocate 512. MiB"),
     (MemoryError(), "MemoryError")],
    ids=["numpy-message", "no-message"],
)
def test_validate_exits_2_when_memory_runs_out(triangle_file, capsys, monkeypatch, exc, said):
    # A file inside the table cap can still need more memory than the host
    # has; the reader's MemoryError is an error line, not a traceback.
    def parse_fg(text):
        raise exc

    monkeypatch.setattr(cli_module, "parse_fg", parse_fg)
    code, out, err = run(capsys, "validate", "--in", triangle_file)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: {said}"
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "bound" in out and "compare" in out
