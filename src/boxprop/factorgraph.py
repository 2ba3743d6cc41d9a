"""Factor-graph data model, ``.fg`` file I/O, validation, and structural queries.

A factor graph is a bipartite graph of variables (finite domains, ids dense in
``[0, N)``) and factors (nonnegative dense tables over an ordered scope of
variables). Tables use little-endian linear indexing: the first scope variable
cycles fastest, so the flat index of the joint assignment ``(x_1, ..., x_k)``
over domain sizes ``(d_1, ..., d_k)`` is ``x_1 + d_1*(x_2 + d_2*(x_3 + ...))``.

Graphs are immutable after construction and safe for concurrent shared reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import inf, isfinite, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import FgFormatError

__all__ = [
    "Factor",
    "FactorGraph",
    "Violation",
    "parse_fg",
    "write_fg",
    "validate",
    "TABLE_CAP",
]

# The most table entries one ``.fg`` file may hold, summed over its blocks and
# checked by ``parse_fg`` at each sizes line before that table is allocated;
# also the most joint states the brute-force oracle enumerates.
TABLE_CAP = 1 << 26
# The most table entries ``validate`` stacks into one array; a larger table goes alone.
STACK_ENTRIES = 1 << 16
# About how many characters of ``.fg`` text ``parse_fg`` splits into lines at once.
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class Factor:
    """Finite, nonnegative dense table over an ordered, duplicate-free variable scope.

    A NaN, infinite or negative entry is refused at construction, so every
    engine and oracle reads finite, nonnegative tables.
    """

    id: int
    scope: tuple[int, ...]
    sizes: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        scope = tuple(map(int, self.scope))
        sizes = tuple(map(int, self.sizes))
        if not scope:
            raise ValueError("factor scope must be nonempty")
        if len(set(scope)) != len(scope):
            raise ValueError(f"factor {self.id}: duplicate variable in scope {scope}")
        if min(scope) < 0:
            raise ValueError(f"factor {self.id}: negative variable id in scope {scope}")
        if len(sizes) != len(scope):
            raise ValueError(f"factor {self.id}: scope/sizes length mismatch")
        if min(sizes) < 2:
            raise ValueError(f"factor {self.id}: domain sizes must be >= 2, got {sizes}")
        # A frozen array that owns its data, as parse_fg hands over, is kept if
        # it is float64; anything else, a caller's writable array too, is copied.
        t = self.table
        frozen = isinstance(t, np.ndarray) and t.flags.owndata and not t.flags.writeable
        table = (np.asarray if frozen else np.array)(t, dtype=np.float64).ravel()
        if table.size != prod(sizes):
            raise ValueError(
                f"factor {self.id}: table length {table.size} != product of sizes {prod(sizes)}"
            )
        # A NaN fails both comparisons; no mask is built unless one fails.
        if not (np.minimum.reduce(table) >= 0.0 and np.maximum.reduce(table) < inf):
            i = int(np.argmin((table >= 0.0) & (table < inf)))
            raise ValueError(f"factor {self.id}: table entry {i} is {table[i]}; "
                             "entries must be finite and nonnegative")
        table.setflags(write=False)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "table", table)

    def table_nd(self) -> np.ndarray:
        """Table as an ndarray with one axis per scope variable, in scope order."""
        return self.table.reshape(self.sizes, order="F")

    @cached_property
    def matrices(self) -> dict[int, np.ndarray]:
        """Per scope variable v, the read-only C-order (d_v, other states little-endian) table."""
        mats, sizes = {}, self.sizes
        for k, (v, d) in enumerate(zip(self.scope, sizes)):
            # The flat table in C order is (states after v, d, states before v).
            cube = self.table.reshape(-1, d, prod(sizes[:k])).transpose(1, 0, 2)
            mats[v] = mat = np.ascontiguousarray(cube).reshape(d, -1)
            mat.setflags(write=False)
        return mats


class FactorGraph:
    """Immutable bipartite graph of variables and factors.

    Variable ids must be dense and 0-based; domain sizes must agree wherever a
    variable occurs. ``nbrs`` is the bipartite adjacency: node ``v`` is variable
    ``v``, node ``num_variables + fid`` is factor ``fid``, and ``nbrs[i]``
    lists node ``i``'s neighbours in ascending order.
    """

    def __init__(self, factors: Sequence[Factor]):
        factors = list(factors)
        if not factors:
            raise ValueError("a factor graph needs at least one factor")
        for pos, f in enumerate(factors):
            if f.id != pos:
                raise ValueError(f"factor ids must equal list positions; got {f.id} at {pos}")
        sizes: dict[int, int] = {}
        for f in factors:
            for v, d in zip(f.scope, f.sizes):
                if sizes.setdefault(v, d) != d:
                    raise ValueError(
                        f"inconsistent domain size for variable {v}: {sizes[v]} vs {d}"
                    )
        n = max(sizes) + 1
        if len(sizes) != n:
            # At most len(sizes) + 11 ids are tried, however large the largest id.
            missing = list(islice((i for i in range(n) if i not in sizes), 11))
            if len(missing) > 10:
                missing = f"{n - len(sizes)} ids, the first ten {missing[:10]}"
            raise ValueError(f"variable ids must be dense 0-based; missing {missing}")
        self.factors: tuple[Factor, ...] = tuple(factors)
        # Domain size of each variable, by id.
        self.sizes: tuple[int, ...] = tuple(sizes[i] for i in range(n))
        ids: list[list[int]] = [[] for _ in range(n)]
        nodes: list[list[int]] = [[] for _ in range(n)]
        for f in factors:
            for v in f.scope:
                ids[v].append(f.id)
                nodes[v].append(n + f.id)
        self._var_factors: tuple[tuple[int, ...], ...] = tuple(map(tuple, ids))
        self.nbrs: tuple[tuple[int, ...], ...] = tuple(map(tuple, nodes)) + tuple(
            tuple(sorted(f.scope)) for f in factors
        )

    @property
    def num_variables(self) -> int:
        return len(self.sizes)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def domain_size(self, i: int) -> int:
        return self.sizes[i]

    def var_factors(self, i: int) -> tuple[int, ...]:
        """Ids of factors incident to variable ``i``, in ascending order."""
        return self._var_factors[i]


@dataclass(frozen=True)
class Violation:
    """A structural or positivity defect reported by :func:`validate`."""

    kind: str  # "disconnected" | "positivity"
    factor: int | None
    variable: int | None
    assignment: tuple[int, ...] | None
    message: str


def validate(g: FactorGraph) -> list[Violation]:
    """Check connectedness and the positivity condition.

    Tables are finite and nonnegative from construction (see :class:`Factor`).
    The positivity condition requires, for every factor, every scope variable
    ``i`` and every joint assignment of the remaining scope variables, that
    the sum of the table over ``x_i`` is strictly positive. A factor then
    sends a nonzero message whenever its incoming messages are nonzero, but
    the messages into one variable can still multiply to zero (see
    :func:`boxprop.propagation.bp_marginals`).

    Violations are returned, not raised; an empty list means the graph passed.
    """
    out: list[Violation] = []

    # One breadth-first search over ``nbrs`` from variable 0.
    n, nbrs = g.num_variables, g.nbrs
    queue, seen = [0], bytearray(len(nbrs))
    seen[0] = 1
    for u in queue:
        for w in nbrs[u]:
            if not seen[w]:
                seen[w] = 1
                queue.append(w)
    if len(queue) < len(nbrs):
        message = (
            f"graph is disconnected: reached {sum(seen[:n])}/{n} variables "
            f"and {sum(seen[n:])}/{g.num_factors} factors from variable 0"
        )
        out.append(Violation("disconnected", None, None, None, message))

    found: dict[int, list[Violation]] = {}  # by factor id, the output order
    groups: dict[tuple[int, ...], list[Factor]] = {}
    for f in g.factors:
        groups.setdefault(f.sizes, []).append(f)
    for sizes, group in groups.items():
        step = max(1, STACK_ENTRIES // prod(sizes))
        for start in range(0, len(group), step):
            _check_stack(group[start : start + step], found)
    out.extend(v for fid in sorted(found) for v in found[fid])
    return out


def stacked_tables(fs: Sequence[Factor]) -> np.ndarray:
    """One C-order copy of the tables of ``fs``, factors of one shape; slice j is table_nd()."""
    sizes = fs[0].sizes
    nd = np.stack([f.table for f in fs]).reshape((len(fs),) + sizes[::-1])
    return nd.transpose((0,) + tuple(range(len(sizes), 0, -1)))


def _check_stack(fs: list[Factor], found: dict[int, list[Violation]]) -> None:
    """Add to ``found`` the violations of factors ``fs``, which share their sizes."""
    nd = stacked_tables(fs)
    n, k = len(fs), len(fs[0].sizes)
    # On nonnegative tables a sum is positive exactly when a summand is.
    positive = nd > 0.0
    zero = [~positive.any(axis=pos + 1) for pos in range(k)]
    flagged = np.any([z.reshape(n, -1).any(axis=1) for z in zero], axis=0)
    for j in np.flatnonzero(flagged).tolist():
        f = fs[j]
        found[f.id] = [
            Violation("positivity", f.id, v, at, f"factor {f.id}: sum over variable {v} is zero "
                      f"at assignment {dict(zip(f.scope[:pos] + f.scope[pos + 1 :], at))}")
            for pos, v in enumerate(f.scope)
            for at in map(tuple, np.argwhere(zero[pos][j]).tolist())
        ]


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each stripped line that is neither blank nor a comment, with its number.

    The text is split about ``_CHUNK`` characters at a time, so the lines
    held at once stay few however long the text is.
    """
    start = lineno = 0
    while start <= len(text):
        end = text.find("\n", start + _CHUNK)
        if end < 0:
            end = len(text)
        for raw in text[start:end].split("\n"):
            lineno += 1
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line
        start = end + 1


# Both number readers take only ASCII tokens without "_": ``int`` and ``float``
# alone would read ``1_0`` as 10, and non-ASCII digits, such as Arabic-Indic
# ones, by value.
def _parse_int(token: str, lineno: int, what: str) -> int:
    if token.isascii() and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    raise FgFormatError(lineno, f"expected integer {what}, got {token!r}")


def _parse_float(token: str, lineno: int) -> float:
    if token.isascii() and "_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    raise FgFormatError(lineno, f"bad table value {token!r}")


def parse_fg(text: str) -> FactorGraph:
    """Parse ``.fg`` text into a validated-structure FactorGraph.

    Grammar (line oriented; ``#`` starts a comment line, blank lines separate
    blocks): first line holds the number of factor blocks; each block holds the
    scope size ``k``, then ``k`` variable ids, then ``k`` aligned domain sizes,
    then the number ``m`` of listed entries, then ``m`` lines ``index value``.
    Unlisted indices default to 0; an index listed twice, and content past
    the last block, are errors. Numbers are ASCII tokens without ``_``. Once
    the blocks' sizes multiply to more than ``TABLE_CAP`` entries in total,
    the block that passes it is refused at its sizes line, before its table
    is allocated. Every error is an :class:`FgFormatError` naming a line;
    input with no content line names line 1.
    """
    lines = _content_lines(text)
    lineno = 1  # the line read last

    def next_line(what: str) -> str:
        nonlocal lineno
        for lineno, line in lines:
            return line
        raise FgFormatError(lineno, f"unexpected end of input, expected {what}")

    line = next_line("factor count")
    nfactors = _parse_int(line, lineno, "factor count")
    if nfactors < 1:
        raise FgFormatError(lineno, f"factor count must be >= 1, got {nfactors}")

    sizes_seen: dict[int, tuple[int, int]] = {}  # var -> (size, declaring line)
    entries = 0  # table entries of the blocks read so far
    factors: list[Factor] = []
    for fid in range(nfactors):
        line = next_line("scope size")
        k = _parse_int(line, lineno, "scope size")
        if k < 1:
            raise FgFormatError(lineno, f"scope size must be >= 1, got {k}")

        line = next_line("variable ids")
        tokens = line.split()
        if len(tokens) != k:
            raise FgFormatError(lineno, f"expected {k} variable ids, got {len(tokens)}")
        scope = tuple(_parse_int(t, lineno, "variable id") for t in tokens)
        if min(scope) < 0:
            raise FgFormatError(lineno, "variable ids must be nonnegative")
        if len(set(scope)) != k:
            raise FgFormatError(lineno, f"duplicate variable in scope {scope}")

        line = next_line("domain sizes")
        tokens = line.split()
        if len(tokens) != k:
            raise FgFormatError(lineno, f"expected {k} domain sizes, got {len(tokens)}")
        sizes = tuple(_parse_int(t, lineno, "domain size") for t in tokens)
        if min(sizes) < 2:
            raise FgFormatError(lineno, f"domain sizes must be >= 2, got {sizes}")
        size = prod(sizes)
        entries += size
        if entries > TABLE_CAP:
            raise FgFormatError(lineno, f"{entries} table entries, above the cap {TABLE_CAP}")
        for v, d in zip(scope, sizes):
            prev = sizes_seen.setdefault(v, (d, lineno))
            if prev[0] != d:
                raise FgFormatError(
                    lineno,
                    f"inconsistent domain size for variable {v}: "
                    f"{d} here vs {prev[0]} on line {prev[1]}",
                )

        line = next_line("entry count")
        m = _parse_int(line, lineno, "entry count")
        if m < 0:
            raise FgFormatError(lineno, f"entry count must be >= 0, got {m}")
        table, count_line, listed = np.zeros(size), lineno, 0
        listed_at = bytearray(size)  # 1 where an entry was listed
        for listed, (lineno, line) in enumerate(islice(lines, m), start=1):
            tokens = line.split()
            if len(tokens) != 2:
                raise FgFormatError(lineno, f"expected 'index value', got {line!r}")
            idx = _parse_int(tokens[0], lineno, "table index")
            if not 0 <= idx < size:
                raise FgFormatError(lineno, f"table index {idx} out of range [0, {size})")
            if listed_at[idx]:
                first = next(n for n, entry in _content_lines(text)
                             if n > count_line and int(entry.split()[0]) == idx)
                raise FgFormatError(
                    lineno, f"table index {idx} repeated, first set on line {first}"
                )
            value = _parse_float(tokens[1], lineno)
            if not isfinite(value):
                raise FgFormatError(lineno, f"table value must be finite, got {value}")
            if value < 0.0:
                raise FgFormatError(lineno, f"table value must be nonnegative, got {value}")
            table[idx], listed_at[idx] = value, 1
        if listed < m:
            raise FgFormatError(lineno, "unexpected end of input, expected table entry")
        table.setflags(write=False)  # so that Factor keeps it instead of copying
        factors.append(Factor(fid, scope, sizes, table))
    for lineno, line in lines:
        raise FgFormatError(lineno, f"content past the declared {nfactors} block(s): {line!r}")

    try:
        return FactorGraph(factors)
    except ValueError as exc:
        raise FgFormatError(lineno, str(exc)) from None


def write_fg(g: FactorGraph) -> str:
    """Serialize to the ``.fg`` format, listing every entry including zeros.

    Values are written as shortest round-tripping decimal literals, so
    ``parse_fg(write_fg(g))`` reproduces the tables exactly.
    """
    out: list[str] = [str(g.num_factors)]
    for f in g.factors:
        out.append("")
        out.append(str(len(f.scope)))
        out.append(" ".join(str(v) for v in f.scope))
        out.append(" ".join(str(d) for d in f.sizes))
        out.append(str(f.table.size))
        out.extend(f"{i} {float(x)!r}" for i, x in enumerate(f.table))
    out.append("")
    return "\n".join(out) + "\n"
