"""Span tracing around boxprop's public functions, installed from outside.

Modules bind imported names at import time, so a function is wrapped in every
module namespace it is called through (``boxprop.propagation``,
``boxprop.bench``, ``boxprop.cli``, ...). Each call records a span: name,
wrapper entry, call start, call end, wrapper exit, parent span and root id.
Spans stay in memory (flat arrays) and are written out once, when the run ends.

A span's self time is its call length minus the wrapper lengths (entry to
exit) of its direct children. Counting and key hashing happen in the wrapper,
outside the call, so tracing work never lands in a layer's own time; it shows
only as the traced pass's extra wall time.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from boxprop import bench, cli, factorgraph, propagation
from boxprop.measure import Simplex

# (span name, namespaces the function is looked up in at call time).
TRACED = (
    ("measure.bound_sum_product_joint", (propagation,)),
    ("measure.bound_sum_product", (propagation,)),
    ("measure.box_product_disjoint_sbb", (propagation,)),
    ("measure.box_product_same_scope", (propagation,)),
    ("measure.normalized_corner_box", (propagation,)),
    ("propagation.build_saw_tree", (propagation, bench)),
    ("propagation.boxprop_sawtree", (propagation, bench)),
    ("propagation.build_subtree", (propagation, bench)),
    ("propagation.boxprop_subtree", (propagation, bench)),
    ("propagation.bp_marginals", (propagation, bench)),
    ("propagation.exact_marginals", (propagation, bench)),
    ("factorgraph.parse_fg", (factorgraph, cli)),
    ("factorgraph.validate", (factorgraph, cli)),
    ("bench.run_method", (bench,)),
    ("bench.compare", (bench, cli)),
    ("bench.summary_csv", (cli,)),
    ("bench.detail_lines", (cli,)),
    ("bench.gap_profiles", (cli,)),
    ("bench.profiles_csv", (cli,)),
    ("cli.main", (cli,)),
)
REPORTS = ("bench.summary_csv", "bench.detail_lines", "bench.gap_profiles", "bench.profiles_csv")
SAW_KINDS = ("inner", "dead_end", "cycle", "truncated")


def _free_corners(box) -> int:
    return 1 << int(np.count_nonzero(box.upper.values > box.lower.values))


def saw_node_kinds(tree) -> Counter:
    """Walk a ``SawTree`` and count its nodes by kind (the root excluded)."""
    kinds: Counter = Counter()
    stack = list(tree.root_node.children)
    while stack:
        node = stack.pop()
        kinds[node.kind] += 1
        stack.extend(node.children)
    return kinds


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = [name for name, _ in TRACED]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.entry = array("d")
        self.start = array("d")
        self.end = array("d")
        self.exit = array("d")
        self._stack = [-1]
        self._root = -1
        self._pass_start = 0
        self.reset_counters()

    def reset_counters(self) -> None:
        self.counts: Counter = Counter()
        self.corners_max = 0
        self._msg_keys: set = set()

    def begin_root(self) -> None:
        """Start a new root: spans recorded from here on share a fresh id."""
        self._root += 1

    # Hooks run in the wrapper, outside the call's own [start, end].

    def _before(self, name, args):
        if name == "measure.bound_sum_product_joint":
            factor, keep, joint = args
            self._count_corners(_free_corners(joint))
            self._msg_keys.add((id(factor), keep, joint.scope,
                                joint.lower.values.tobytes(), joint.upper.values.tobytes()))
            self.counts["factor_msg.calls"] += 1
        elif name == "measure.bound_sum_product":
            factor, keep, incoming = args
            corners, parts = 1, []
            for v in sorted(incoming):
                ms = incoming[v]
                if isinstance(ms, Simplex):
                    corners *= ms.domain_size
                    parts.append((v, ms.domain_size))
                else:
                    corners *= _free_corners(ms)
                    parts.append((v, ms.lower.values.tobytes(), ms.upper.values.tobytes()))
            self._count_corners(corners)
            self._msg_keys.add((id(factor), keep, tuple(parts)))
            self.counts["factor_msg.calls"] += 1
        elif name == "measure.normalized_corner_box":
            self._count_corners(_free_corners(args[0]))

    def _count_corners(self, corners: int) -> None:
        self.counts["corners"] += corners
        self.corners_max = max(self.corners_max, corners)

    def _after(self, name, result):
        if name == "propagation.build_saw_tree":
            self.counts.update({f"saw_nodes.{k}": n for k, n in saw_node_kinds(result).items()})
        elif name == "propagation.bp_marginals":
            self.counts["bp_iterations"] += result.iterations

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        hooked_before = name.startswith("measure.")
        hooked_after = name in ("propagation.build_saw_tree", "propagation.bp_marginals")

        def traced(*args, **kwargs):
            entry = perf_counter()
            if hooked_before:
                self._before(name, args)
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.root.append(self._root)
            self.entry.append(entry)
            self.start.append(0.0)
            self.end.append(0.0)
            self.exit.append(0.0)
            self._stack.append(i)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.start[i] = start
                self.end[i] = end
                self.exit[i] = end
            if hooked_after:
                self._after(name, result)
            self.exit[i] = perf_counter()
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block, then restore."""
        saved = []
        try:
            for name, modules in TRACED:
                attr = name.rsplit(".", 1)[1]
                for mod in modules:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _arrays(self, lo: int):
        n = len(self.name)
        # Copies, so no view pins the arrays' buffers while spans are appended.
        get = lambda a, dt: np.frombuffer(a, dtype=dt)[lo:n].copy()
        return (get(self.name, np.int64), get(self.parent, np.int64), get(self.entry, np.float64),
                get(self.start, np.float64), get(self.end, np.float64), get(self.exit, np.float64))

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures for the spans and counters since the last call."""
        lo = self._pass_start
        name, parent, entry, start, end, exit_ = self._arrays(lo)
        self._pass_start = len(self.name)
        k = len(self.names)
        dur = end - start
        local = parent - lo
        inside = local >= 0
        cover = np.bincount(local[inside], weights=(exit_ - entry)[inside], minlength=name.size)
        self_t = dur - cover
        total = dict(zip(self.names, np.bincount(name, weights=dur, minlength=k)))
        own = dict(zip(self.names, np.bincount(name, weights=self_t, minlength=k)))
        calls = dict(zip(self.names, np.bincount(name, minlength=k)))
        c = self.counts
        msg_calls = c["factor_msg.calls"]
        out = {
            "measure.factor_msg.calls": msg_calls,
            "measure.factor_msg.distinct": len(self._msg_keys),
            "measure.factor_msg.distinct_ratio": len(self._msg_keys) / msg_calls if msg_calls else 0.0,
            "measure.corners": c["corners"],
            "measure.corners_max": self.corners_max,
            "propagation.boxprop_sawtree.self_s": own["propagation.boxprop_sawtree"],
            "propagation.build_subtree.s": total["propagation.build_subtree"],
            "propagation.boxprop_subtree.self_s": own["propagation.boxprop_subtree"],
            "propagation.bp_marginals.s": total["propagation.bp_marginals"],
            "propagation.bp_marginals.iterations": c["bp_iterations"],
            "propagation.exact_marginals.s": total["propagation.exact_marginals"],
            "factorgraph.parse_fg.s": total["factorgraph.parse_fg"],
            "factorgraph.validate.s": total["factorgraph.validate"],
            "bench.compare.self_s": own["bench.compare"],
            "bench.reports.s": sum(total[r] for r in REPORTS),
            "cli.main.self_s": own["cli.main"],
        }
        for fn in ("bound_sum_product_joint", "bound_sum_product", "box_product_disjoint_sbb",
                   "box_product_same_scope", "normalized_corner_box"):
            out[f"measure.{fn}.s"] = total[f"measure.{fn}"]
            out[f"measure.{fn}.calls"] = calls[f"measure.{fn}"]
        out["propagation.build_saw_tree.s"] = total["propagation.build_saw_tree"]
        out["propagation.build_saw_tree.calls"] = calls["propagation.build_saw_tree"]
        for kind in SAW_KINDS:
            out[f"propagation.saw_nodes.{kind}"] = c[f"saw_nodes.{kind}"]
        self.reset_counters()
        return {key: float(v) for key, v in out.items()}

    def save(self, path) -> None:
        """Write every span recorded in this run as one ``.npz`` file."""
        name, parent, entry, start, end, exit_ = self._arrays(0)
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            root=np.frombuffer(self.root, dtype=np.int64), entry=entry,
                            start=start, end=end, exit=exit_)
