import time
import tracemalloc

import numpy as np
import pytest

from boxprop import factorgraph
from boxprop.errors import FgFormatError
from boxprop.factorgraph import (
    Factor,
    FactorGraph,
    parse_fg,
    validate,
    write_fg,
)
from helpers import (
    HUGE_BLOCK_ERROR,
    HUGE_BLOCK_FG,
    OVERLONG_FG,
    REPEATED_INDEX_ERROR,
    REPEATED_INDEX_FG,
    TOTAL_PAST_CAP_ERROR,
    TOTAL_PAST_CAP_FG,
    graph_from,
    grid_and_triangle_tables,
    random_connected_graph,
    reference_validate,
    triangle_graph,
)

TRIANGLE_FG = """# three binary variables, three pairwise couplings
3

2
0 1
2 2
4
0 1.0
1 2.0
2 2.0
3 1.0

2
0 2
2 2
4
0 1.0
1 2.0
2 2.0
3 1.0

2
1 2
2 2
4
0 1.0
1 2.0
2 2.0
3 1.0
"""

SMALLEST_FG = "1\n\n1\n0\n2\n2\n0 1.0\n1 1.0\n"


def test_parse_triangle():
    g = parse_fg(TRIANGLE_FG)
    assert g.num_variables == 3
    assert g.num_factors == 3
    assert all(len(f.scope) == 2 for f in g.factors)
    assert np.array_equal(g.factors[0].table, [1.0, 2.0, 2.0, 1.0])
    assert write_fg(g) == write_fg(triangle_graph())


def test_parse_smallest_legal_input():
    g = parse_fg(SMALLEST_FG)
    assert g.num_variables == 1
    assert g.num_factors == 1
    assert np.array_equal(g.factors[0].table, [1.0, 1.0])


def test_parse_sparse_entries_default_to_zero():
    text = "1\n\n1\n0\n3\n1\n1 5.0\n"
    g = parse_fg(text)
    assert np.array_equal(g.factors[0].table, [0.0, 5.0, 0.0])


def test_roundtrip_random_graphs():
    rng = np.random.default_rng(101)
    for _ in range(50):
        g = random_connected_graph(rng)
        assert write_fg(parse_fg(write_fg(g))) == write_fg(g)


def test_roundtrip_triangle():
    g = triangle_graph()
    assert write_fg(parse_fg(write_fg(g))) == write_fg(g)


def test_write_smallest_layout():
    g = parse_fg(SMALLEST_FG)
    text = write_fg(g)
    lines = text.split("\n")
    assert len(lines) == 10
    assert lines[0] == "1"
    assert lines[1] == ""
    assert write_fg(parse_fg(text)) == text


def test_write_lists_zero_entries():
    g = graph_from([((0,), (2,), (0.0, 5.0))])
    text = write_fg(g)
    assert "0 0.0" in text
    assert write_fg(parse_fg(text)) == text


@pytest.mark.parametrize(
    "text,said",
    [
        ("x\n", "integer"),  # syntax error in the header
        ("1\n\n2\n0 0\n2 2\n0\n", "duplicate"),  # repeated variable in scope
        ("2\n\n1\n0\n2\n0\n\n1\n0\n3\n0\n", "inconsistent"),  # domain size clash
        ("1\n\n1\n0\n2\n1\n7 1.0\n", "out of range"),  # bad table index
        ("1\n\n1\n0\n2\n1\n0 -1.0\n", "nonnegative"),  # negative value
        ("1\n\n1\n5\n2\n0\n", "dense"),  # ids not dense
        ("1\n\n1\n0\n1\n0\n", ">= 2"),  # one-state variable
        ("2\n\n1\n0\n2\n0\n", "end of input"),  # truncated file
        (OVERLONG_FG, "line 10: content past the declared 1 block(s): '1'"),
        ("", "line 1: unexpected end of input, expected factor count"),  # empty file
        ("# a comment\n\n", "line 1: unexpected end of input"),  # comments only
        (HUGE_BLOCK_FG, HUGE_BLOCK_ERROR),  # a table past TABLE_CAP
        (TOTAL_PAST_CAP_FG, TOTAL_PAST_CAP_ERROR),  # tables past it in total
        (REPEATED_INDEX_FG, REPEATED_INDEX_ERROR),
        # Number tokens are ASCII without "_", which int() and float() accept.
        ("1\n\n1\n0\n1_0\n0\n", "line 5: expected integer domain size, got '1_0'"),
        ("1\n\n1\n0\n2\n1\n0 \u0663\n", "line 7: bad table value '\u0663'"),
        ("1\n\n1\n\u0660\n2\n0\n", "line 4: expected integer variable id, got '\u0660'"),
        ("1\n\n1\n0\n2\n1\n0 2_5\n", "line 7: bad table value '2_5'"),
        ("0\n", "line 1: factor count must be >= 1, got 0"),
        ("1\n\n0\n", "line 3: scope size must be >= 1, got 0"),
        ("1\n\n2\n0\n", "line 4: expected 2 variable ids, got 1"),
        ("1\n\n1\n-1\n", "line 4: variable ids must be nonnegative"),
        ("1\n\n1\n0\n2 2\n", "line 5: expected 1 domain sizes, got 2"),
        ("1\n\n1\n0\n2\n-1\n", "line 6: entry count must be >= 0, got -1"),
        ("1\n\n1\n0\n2\n1\n0 1 2\n", "line 7: expected 'index value', got '0 1 2'"),
        ("1\n\n1\n0\n2\n1\n0 inf\n", "line 7: table value must be finite, got inf"),
        ("1\n\n1\n0\n2\n1\n0 nan\n", "line 7: table value must be finite, got nan"),
        ("1\n\n1\n0\n2\n1\n0 1e999\n", "line 7: table value must be finite, got inf"),
        ("1\n\n1\n0\n2\n2\n0 1\n", "line 7: unexpected end of input, expected table entry"),
    ],
)
def test_parse_errors(text, said):
    with pytest.raises(FgFormatError) as err:
        parse_fg(text)
    assert said in str(err.value)
    assert err.value.lineno >= 1


def test_parse_error_reports_line_number():
    with pytest.raises(FgFormatError) as err:
        parse_fg("1\n\n1\n0\n2\n1\nbogus entry\n")
    assert err.value.lineno == 7


def test_validate_triangle_passes():
    assert validate(triangle_graph()) == []


def test_validate_positivity_zero_column():
    # Second column of the (0,1) factor is all zero: summing over variable 0
    # at assignment x_1 = 1 gives zero.
    g = graph_from(
        [
            ((0, 1), (2, 2), (1.0, 2.0, 0.0, 0.0)),
            ((0,), (2,), (1.0, 1.0)),
            ((1,), (2,), (1.0, 1.0)),
        ]
    )
    violations = validate(g)
    positivity = [v for v in violations if v.kind == "positivity"]
    assert positivity
    hit = [v for v in positivity if v.factor == 0 and v.variable == 0]
    assert hit and hit[0].assignment == (1,)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_factor_rejects_a_non_finite_entry(value):
    with pytest.raises(ValueError) as err:
        graph_from([((0, 1), (2, 2), (1.0, 2.0, float(value), 1.0)), ((1,), (2,), (1.0, 1.0))])
    assert str(err.value) == (
        f"factor 0: table entry 2 is {value}; entries must be finite and nonnegative"
    )


def test_validate_disconnected():
    grid, triangle = grid_and_triangle_tables(np.random.default_rng(1301))
    # Variable 0's component is {0, 2, 5}, joined by one 3-ary factor, and
    # interleaves with {1, 3} and {4, 6}.
    three = [
        ((0, 2, 5), (2, 2, 2), np.arange(1.0, 9.0)),
        ((1, 3), (2, 2), (1.0, 2.0, 2.0, 1.0)),
        ((4, 6), (2, 3), np.arange(1.0, 7.0)),
        ((5,), (2,), (1.0, 3.0)),
        ((6,), (3,), (1.0, 1.0, 2.0)),
    ]
    cases = [
        ([((0,), (2,), (1.0, 1.0)), ((1,), (2,), (1.0, 1.0))], "1/2 variables and 1/2 factors"),
        (grid + triangle, "9/12 variables and 14/18 factors"),
        (three, "3/7 variables and 2/5 factors"),
    ]
    for tables, reached in cases:
        violations = validate(graph_from(tables))
        assert [(v.kind, v.message) for v in violations] == [
            ("disconnected", f"graph is disconnected: reached {reached} from variable 0")
        ]


def _defect_graph(rng):
    """Seeded graph of unary, pairwise and 3-ary factors over domains 2-4, some
    with zero-sum slices.

    Variables that no factor drew get a unary factor, so ids stay dense; the
    graph is often disconnected. Returns the graph and the (arity, defective)
    of each factor, defective meaning zero slices were cut into it.
    """
    n = int(rng.integers(3, 9))
    sizes = [int(d) for d in rng.integers(2, 5, n)]
    tables, kinds = [], []
    for _ in range(int(rng.integers(4, 16))):
        scope = tuple(int(v) for v in rng.choice(n, int(rng.integers(1, 4)), replace=False))
        shape = tuple(sizes[v] for v in scope)
        nd = rng.uniform(0.1, 2.0, shape)  # indexed like Factor.table_nd()
        defective = bool(rng.integers(0, 2))
        if defective:
            if rng.random() < 0.5:
                nd[rng.random(shape) < 0.6] = 0.0
            for _ in range(int(rng.integers(1, 3))):
                at = [int(rng.integers(d)) for d in shape]
                at[int(rng.integers(len(shape)))] = slice(None)
                nd[tuple(at)] = 0.0
        tables.append((scope, shape, nd.ravel(order="F")))
        kinds.append((len(scope), defective))
    for v in sorted(set(range(n)) - {u for scope, _, _ in tables for u in scope}):
        tables.append(((v,), (sizes[v],), rng.uniform(0.1, 2.0, sizes[v])))
        kinds.append((1, False))
    return graph_from(tables), kinds


@pytest.mark.parametrize("stack_entries", [factorgraph.STACK_ENTRIES, 8])
def test_validate_equals_the_per_factor_loop(monkeypatch, stack_entries):
    # At 8 entries most groups span several stacks and a 3-ary table of 27 or
    # more entries is checked alone.
    monkeypatch.setattr(factorgraph, "STACK_ENTRIES", stack_entries)
    rng = np.random.default_rng(2001)
    seen = set()
    for _ in range(300):
        g, kinds = _defect_graph(rng)
        got, want = validate(g), reference_validate(g)
        assert got == want
        assert repr(got) == repr(want)  # Python ints in every assignment
        flagged = {v.factor for v in got}
        assert all(defective for fid, (_, defective) in enumerate(kinds) if fid in flagged)
        seen |= {arity for fid, (arity, _) in enumerate(kinds) if fid in flagged}
        seen |= {v.kind for v in got}
    assert seen == {"disconnected", "positivity", 1, 2, 3}


def test_validate_extra_memory_stays_within_the_stack_budget():
    # 2,000 tables of 64 entries fill two stacks; one table of twice the
    # budget is stacked alone. validate copies a stack's tables and keeps one
    # byte per entry for the positivity mask; the slack covers numpy's
    # reduction buffers and the Python objects, not a second copy (1 MB).
    budget = factorgraph.STACK_ENTRIES
    tables = [((v, v + 1), (8, 8), np.ones(64)) for v in range(2000)]
    tables.append(((2000, 2001, 2002), (8, 64, budget // 256), np.ones(2 * budget)))
    g = graph_from(tables)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert validate(g) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 * budget + 128 * 1024


def _bfs_components(g):
    """Labels and sizes from a plain breadth-first search of the bipartite graph."""
    n = g.num_variables
    nbrs = [[n + fid for fid in g.var_factors(v)] for v in range(n)]
    nbrs += [list(f.scope) for f in g.factors]
    label, size = {}, []
    for s in range(n):
        if s in label:
            continue
        label[s], queue = len(size), [s]
        for u in queue:
            for w in nbrs[u]:
                if w not in label:
                    label[w] = len(size)
                    queue.append(w)
        size.append(len(queue))
    return tuple(label[v] for v in range(n)), tuple(size)


def test_components_match_a_plain_search():
    rng = np.random.default_rng(1701)
    seen = set()
    for _ in range(40):
        tables, offset = [], 0
        for _ in range(int(rng.integers(1, 4))):
            part = random_connected_graph(rng, max_vars=6)
            tables += [
                (tuple(v + offset for v in f.scope), f.sizes, f.table) for f in part.factors
            ]
            offset += part.num_variables
        # Renumber the variables so that components interleave.
        perm = rng.permutation(offset)
        g = graph_from([(tuple(int(perm[v]) for v in s), d, t) for s, d, t in tables])
        label, size = _bfs_components(g)
        assert sum(size) == g.num_variables + g.num_factors
        disconnected = [v.message for v in validate(g) if v.kind == "disconnected"]
        if len(size) > 1:
            reached = label.count(0)
            assert disconnected == [
                f"graph is disconnected: reached {reached}/{g.num_variables} variables "
                f"and {size[0] - reached}/{g.num_factors} factors from variable 0"
            ]
        else:
            assert disconnected == []
        seen.add(len(size))
    assert seen == {1, 2, 3}


def test_bipartite_consistency():
    rng = np.random.default_rng(7)
    for g in [triangle_graph(), parse_fg(TRIANGLE_FG)] + [
        random_connected_graph(rng) for _ in range(10)
    ]:
        for f in g.factors:
            for v in f.scope:
                assert f.id in g.var_factors(v)
        for i in range(g.num_variables):
            for fid in g.var_factors(i):
                assert i in g.factors[fid].scope
        # The bipartite adjacency: variables first, then factors at n + fid.
        n = g.num_variables
        assert len(g.nbrs) == n + g.num_factors
        for v in range(n):
            assert g.nbrs[v] == tuple(n + fid for fid in g.var_factors(v))
        for f in g.factors:
            assert g.nbrs[n + f.id] == tuple(sorted(f.scope))


def test_factor_construction_errors():
    with pytest.raises(ValueError):
        Factor(0, (0, 0), (2, 2), np.ones(4))  # duplicate scope
    with pytest.raises(ValueError):
        Factor(0, (0,), (2,), np.array([1.0, -1.0]))  # negative entry
    with pytest.raises(ValueError):
        Factor(0, (0,), (2,), np.ones(3))  # wrong length
    with pytest.raises(ValueError):
        Factor(0, (), (), np.ones(1))  # empty scope


def test_factor_rejects_a_negative_variable_id():
    # Such a factor used to build a graph whose adjacency wrapped variable -1
    # onto the last id, so validate, the tree builders and variable
    # elimination each failed in their own way.
    with pytest.raises(ValueError, match="negative variable id"):
        FactorGraph([Factor(0, (-1, 0), (2, 2), [1, 2, 3, 4])])


def test_factor_rejects_a_negative_entry_beside_a_nan():
    # The first bad entry is named, whichever defect it has.
    with pytest.raises(ValueError, match="entry 0 is nan; entries must be finite and nonnegative"):
        Factor(0, (0,), (3,), [np.nan, -1.0, 2.0])
    with pytest.raises(ValueError, match="entry 1 is -1.0; entries must be finite and nonnegative"):
        Factor(0, (0,), (3,), [1.0, -1.0, np.nan])
    with pytest.raises(ValueError, match="entry 0 is nan"):
        Factor(0, (0,), (3,), [np.nan, 1.0, 2.0])


def test_graph_construction_errors():
    f_ok = Factor(0, (0,), (2,), np.ones(2))
    with pytest.raises(ValueError):
        FactorGraph([])
    with pytest.raises(ValueError):
        FactorGraph([f_ok, Factor(1, (0,), (3,), np.ones(3))])  # size clash
    with pytest.raises(ValueError):
        FactorGraph([Factor(0, (1,), (2,), np.ones(2))])  # missing variable 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Factor(0, (0, 1), (2,), np.ones(2)), "factor 0: scope/sizes length mismatch"),
        (lambda: Factor(0, (0,), (1,), np.ones(1)), "factor 0: domain sizes must be >= 2, got (1,)"),
        (lambda: FactorGraph([Factor(1, (0,), (2,), np.ones(2))]),
         "factor ids must equal list positions; got 1 at 0"),
    ],
)
def test_factor_and_graph_refuse_bad_arguments(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_a_far_variable_id_is_refused_at_bounded_cost():
    # Gaps in the variable ids are found by count and at most the first ten
    # missing ids are named, so a huge id costs neither time nor memory.
    start = time.perf_counter()
    with pytest.raises(FgFormatError) as err:
        parse_fg("1\n\n1\n1000000000\n2\n2\n0 1\n1 1\n")
    assert time.perf_counter() - start < 1.0
    assert len(str(err.value)) < 300
    assert str(err.value).endswith(
        "missing 1000000000 ids, the first ten [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"
    )
    # Up to ten missing ids are all named.
    with pytest.raises(FgFormatError) as err:
        parse_fg("1\n\n2\n0 11\n2 2\n0\n")
    assert str(err.value).endswith("missing [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]")


def test_parse_holds_each_table_once():
    # parse_fg hands its fresh table to Factor, which keeps it instead of
    # copying it; the slack covers the nonnegativity mask (1/8 of the table).
    tracemalloc.start()
    try:
        g = parse_fg("1\n\n2\n0 1\n1024 1024\n1\n5 2.5\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = g.factors[0].table
    assert table.nbytes == 8 << 20 and table[5] == 2.5
    assert peak < 1.25 * table.nbytes


def test_parse_holds_a_fully_listed_table_about_once():
    # Lines are cut one at a time and repeats are found in the table itself,
    # so no list of lines or dict of listed indices grows with the block.
    n = 512 * 512
    text = "1\n\n2\n0 1\n512 512\n%d\n" % n + "".join(f"{i} {i % 7 + 0.5}\n" for i in range(n))
    tracemalloc.start()
    try:
        g = parse_fg(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = g.factors[0].table
    assert table.nbytes == 2 << 20 and table[n - 1] == (n - 1) % 7 + 0.5
    assert peak < 2 * table.nbytes


def test_stacked_table_slices_have_the_table_nd_strides():
    # BP's stacked contractions make the same BLAS calls as a per-edge loop
    # only if every slice is strided as Factor.table_nd() is.
    rng = np.random.default_rng(2207)
    for sizes in [(3,), (2, 3), (3, 2, 4)]:
        scope = tuple(range(len(sizes)))
        fs = [Factor(j, scope, sizes, rng.uniform(0.0, 2.0, np.prod(sizes))) for j in range(4)]
        nd = factorgraph.stacked_tables(fs)
        for j, f in enumerate(fs):
            assert nd[j].strides == f.table_nd().strides
            assert np.array_equal(nd[j], f.table_nd())


def test_factor_copies_a_writable_table():
    arr = np.arange(4.0)
    f = Factor(0, (0, 1), (2, 2), arr)
    assert arr.flags.writeable and not np.shares_memory(arr, f.table)
    arr[0] = 9.0
    assert f.table.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_tables_are_immutable():
    g = triangle_graph()
    with pytest.raises(ValueError):
        g.factors[0].table[0] = 9.0
