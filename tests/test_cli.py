import json
import time

import numpy as np
import pytest

from boxprop import bench as bench_module
from boxprop import cli as cli_module
from boxprop.cli import main
from boxprop.factorgraph import parse_fg, write_fg
from helpers import graph_from, random_tree_graph, triangle_graph


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
    expected = bench_module.compare(triangle_graph(), methods, dict.fromkeys(methods, 5000))

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


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "bound" in out and "compare" in out
