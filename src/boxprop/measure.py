"""Measure and box algebra: the computational kernel for box propagation.

A :class:`Measure` is a nonnegative dense table over the joint domain of an
ordered variable scope, stored flat with the same little-endian indexing as
factor tables. A :class:`Box` is a pair of pointwise lower/upper measures and
stands for the set of all measures between them; a :class:`Simplex` stands for
the set of all probability measures on one variable. Both kinds of sets are
convex, and the bound computations below only ever need their extreme points:
the corners of a box, or the one-hot measures of a simplex.

All operations are pure functions of immutable inputs and are safe to call
concurrently. They are also deterministic: equal input bytes give equal output
bytes. ``boxprop.propagation`` relies on that to memoize variable and factor
messages per graph, keyed on interned ids that each stand for one box's exact
bytes (at most ``MESSAGE_MEMO_CAP`` entries per graph node before a fresh
memo is started), so a memo hit is bit-identical to a recomputation. The
only state kept here is the per-factor cache of summed-out table matrices,
which likewise dies with its factor, and the read-only corner-selection bit
table per number of free states (at most 20, one per count the cap allows;
the table for ``f`` free states is ``2**f * f`` bytes, at most 1/8 of the
corner matrix built from it).

Extreme-point enumeration is exponential in the number of free states, so
every enumerating operation is capped at ``ENUMERATION_CAP`` combinations and
raises :class:`CapacityExceededError` beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import Iterable, Mapping, Sequence, Union
from weakref import WeakKeyDictionary

import numpy as np

from .errors import CapacityExceededError, ZeroMeasureError
from .factorgraph import Factor

__all__ = [
    "ENUMERATION_CAP",
    "Measure",
    "Box",
    "Simplex",
    "MessageSet",
    "scalar_measure",
    "normalize",
    "multiply",
    "marginalize_out",
    "box_corner_matrix",
    "box_product_same_scope",
    "box_product_disjoint_sbb",
    "bound_sum_product",
    "bound_sum_product_joint",
    "normalized_corner_box",
    "full_box",
    "unit_box",
]

ENUMERATION_CAP = 1 << 20


@dataclass(eq=False)
class Measure:
    """Nonnegative, finite dense table over the joint domain of an ordered scope.

    ``scope`` may be empty, in which case the measure is a single scalar.
    """

    scope: tuple[int, ...]
    sizes: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.scope = tuple(int(v) for v in self.scope)
        self.sizes = tuple(int(d) for d in self.sizes)
        if len(self.scope) != len(self.sizes):
            raise ValueError("scope and sizes must align")
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"duplicate variable in scope {self.scope}")
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size != prod(self.sizes):
            raise ValueError(
                f"values length {values.size} != product of sizes {prod(self.sizes)}"
            )
        if (values < 0.0).any():
            raise ValueError("measure values must be nonnegative")
        if not np.isfinite(values).all():
            raise ValueError("measure values must be finite")
        self.values = values

    def nd(self) -> np.ndarray:
        """View with one axis per scope variable, in scope order."""
        return self.values.reshape(self.sizes, order="F")

    @classmethod
    def _new(cls, scope: tuple[int, ...], sizes: tuple[int, ...], values: np.ndarray):
        # Internal fast path: callers guarantee the invariants already hold.
        m = object.__new__(cls)
        m.scope = scope
        m.sizes = sizes
        m.values = values
        return m


def scalar_measure(value: float = 1.0) -> Measure:
    return Measure((), (), np.array([value]))


def normalize(m: Measure) -> Measure:
    """Rescale to total mass 1; raises :class:`ZeroMeasureError` on zero mass."""
    z = m.values.sum()
    if not z > 0.0:
        raise ZeroMeasureError("cannot normalize a zero measure")
    return Measure._new(m.scope, m.sizes, m.values / z)


def _aligned(m: Measure, scope: tuple[int, ...]) -> np.ndarray:
    """ndarray with axes following ``scope``, singleton where a variable is absent."""
    present = [v for v in scope if v in m.scope]
    perm = [m.scope.index(v) for v in present]
    nd = m.nd().transpose(perm)
    missing = tuple(k for k, v in enumerate(scope) if v not in m.scope)
    return np.expand_dims(nd, axis=missing) if missing else nd


def multiply(a: Measure, b: Measure) -> Measure:
    """Pointwise product under the natural embedding into the union scope.

    The result scope is ``a``'s scope followed by ``b``'s new variables, in
    order. Shared variables must agree on domain size.
    """
    for v, d in zip(b.scope, b.sizes):
        if v in a.scope and a.sizes[a.scope.index(v)] != d:
            raise ValueError(f"domain mismatch for variable {v}")
    scope = a.scope + tuple(v for v in b.scope if v not in a.scope)
    size_of = dict(zip(a.scope, a.sizes)) | dict(zip(b.scope, b.sizes))
    sizes = tuple(size_of[v] for v in scope)
    out = _aligned(a, scope) * _aligned(b, scope)
    return Measure._new(scope, sizes, np.ravel(out, order="F"))


def marginalize_out(m: Measure, drop: Iterable[int]) -> Measure:
    """Sum over the dropped variables; survivor order is preserved."""
    drop = set(drop)
    unknown = drop - set(m.scope)
    if unknown:
        raise ValueError(f"cannot marginalize unknown variables {sorted(unknown)}")
    if not drop:
        return Measure._new(m.scope, m.sizes, m.values.copy())
    axes = tuple(k for k, v in enumerate(m.scope) if v in drop)
    keep = tuple(k for k, v in enumerate(m.scope) if v not in drop)
    summed = m.nd().sum(axis=axes)
    scope = tuple(m.scope[k] for k in keep)
    sizes = tuple(m.sizes[k] for k in keep)
    return Measure._new(scope, sizes, np.ravel(summed, order="F"))


def _reordered(m: Measure, scope: tuple[int, ...]) -> Measure:
    if tuple(scope) == m.scope:
        return m
    if set(scope) != set(m.scope):
        raise ValueError(f"scope {scope} is not a permutation of {m.scope}")
    perm = [m.scope.index(v) for v in scope]
    nd = m.nd().transpose(perm)
    return Measure._new(tuple(scope), tuple(m.sizes[p] for p in perm), np.ravel(nd, order="F"))


@dataclass(eq=False)
class Box:
    """All measures between a pointwise lower and upper bound on one scope."""

    lower: Measure
    upper: Measure

    def __post_init__(self):
        if self.lower.scope != self.upper.scope or self.lower.sizes != self.upper.sizes:
            raise ValueError("box bounds must share scope and sizes")
        if not np.all(self.lower.values <= self.upper.values):
            raise ValueError("box lower bound must be <= upper bound pointwise")

    @property
    def scope(self) -> tuple[int, ...]:
        return self.lower.scope

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.lower.sizes

    def is_degenerate(self) -> bool:
        return bool(np.array_equal(self.lower.values, self.upper.values))

    @classmethod
    def _new(cls, lower: Measure, upper: Measure):
        # Internal fast path: callers guarantee lower <= upper on one scope.
        b = object.__new__(cls)
        b.lower = lower
        b.upper = upper
        return b


@dataclass(frozen=True)
class Simplex:
    """The set of all probability measures on a single variable."""

    var: int
    domain_size: int

    def __post_init__(self):
        if self.domain_size < 2:
            raise ValueError("simplex variable needs domain size >= 2")


MessageSet = Union[Simplex, Box]


def full_box(var: int, domain_size: int) -> Box:
    """The [0,1] box on one variable: the loosest box containing the simplex."""
    scope, sizes = (var,), (domain_size,)
    return Box._new(
        Measure._new(scope, sizes, np.zeros(domain_size)),
        Measure._new(scope, sizes, np.ones(domain_size)),
    )


def unit_box(var: int, domain_size: int) -> Box:
    """Degenerate box at the constant-1 measure (multiplicative identity)."""
    scope, sizes = (var,), (domain_size,)
    ones = np.ones(domain_size)
    return Box._new(Measure._new(scope, sizes, ones), Measure._new(scope, sizes, ones))


@cache
def _corner_table(n: int) -> np.ndarray:
    """Read-only ``(2**n, n)`` bool table: row ``c`` has ``True`` at bit ``k`` of ``c``."""
    table = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    table.flags.writeable = False
    return table


def box_corner_matrix(box: Box) -> np.ndarray:
    """All corners of a box as rows of a fresh ``(n_corners, n_states)`` matrix.

    States where lower equals upper do not branch, so the corner count is
    ``2**f`` with ``f`` the number of free states. Corner ``c`` is upper at the
    ``k``-th free state where bit ``k`` of ``c`` is set, read from a bit table
    cached per ``f``; ENUMERATION_CAP allows ``f <= 20``, and a table's
    ``2**f * f`` bytes are at most 1/8 of the float matrix returned with it.
    """
    lower = box.lower.values
    upper = box.upper.values
    free = np.flatnonzero(upper > lower)
    n = int(free.size)
    if n == 0:
        return lower.reshape(1, -1).copy()
    if 1 << n > ENUMERATION_CAP:
        raise CapacityExceededError(
            f"box has {n} free states; 2**{n} corners exceed the cap of {ENUMERATION_CAP}"
        )
    table = _corner_table(n)
    if n == lower.size:
        return np.where(table, upper, lower)
    corners = np.repeat(lower[None, :], 1 << n, axis=0)
    corners[:, free] = np.where(table, upper[free], lower[free])
    return corners


def _extreme_matrix(ms: MessageSet) -> np.ndarray:
    """Extreme points stacked as rows, without wrapping them as Measures."""
    if isinstance(ms, Simplex):
        return np.eye(ms.domain_size)
    return box_corner_matrix(ms)


def box_product_same_scope(boxes: Sequence[Box]) -> Box:
    """Product of boxes on one shared scope: bounds multiply pointwise."""
    if not boxes:
        raise ValueError("box_product_same_scope needs at least one box")
    scope, sizes = boxes[0].scope, boxes[0].sizes
    for b in boxes[1:]:
        if b.scope != scope or b.sizes != sizes:
            raise ValueError("all boxes must share one scope")
    lower = boxes[0].lower.values
    upper = boxes[0].upper.values
    for b in boxes[1:]:
        lower = lower * b.lower.values
        upper = upper * b.upper.values
    return Box._new(Measure._new(scope, sizes, lower), Measure._new(scope, sizes, upper))


def box_product_disjoint_sbb(boxes: Sequence[Box]) -> Box:
    """Smallest bounding box of a product of boxes on pairwise disjoint scopes.

    The result lives on the union scope (operand order); its lower/upper bounds
    are the outer products of the operand bounds. An empty product yields the
    degenerate scalar-1 box on the empty scope.
    """
    seen: set[int] = set()
    for b in boxes:
        overlap = seen & set(b.scope)
        if overlap:
            raise ValueError(f"scopes must be pairwise disjoint; {sorted(overlap)} repeat")
        seen.update(b.scope)
    if len(boxes) == 1:
        return boxes[0]
    # Flat outer products, each entry one product taken in the same order as
    # ``multiply`` would take it (IEEE products commute), so the bytes match.
    lower = upper = np.ones(1)
    for b in boxes:
        lower = np.multiply.outer(b.lower.values, lower).ravel()
        upper = np.multiply.outer(b.upper.values, upper).ravel()
    scope = tuple(v for b in boxes for v in b.scope)
    sizes = tuple(d for b in boxes for d in b.sizes)
    return Box._new(Measure._new(scope, sizes, lower), Measure._new(scope, sizes, upper))


def _bounding_box_of_normalized(
    images: np.ndarray, scope: tuple[int, ...], sizes: tuple[int, ...]
) -> Box:
    """Smallest bounding box of the normalized nonzero columns of ``images``.

    Columns that sum to zero are skipped: a zero pre-normalization image has no
    normalized counterpart, and any admissible measure inside the incoming sets
    maps to a nonnegative combination of the column images, whose normalization
    is a convex combination of the normalized nonzero columns. If every column
    is zero the incoming sets admit no normalizable image at all.
    """
    z = images.sum(axis=0)
    mask = z > 0.0
    if not mask.all():
        if not mask.any():
            raise ZeroMeasureError("every enumerated combination gives a zero measure")
        images = images[:, mask]
        z = z[mask]
    norm = images / z
    return Box._new(
        Measure._new(scope, sizes, norm.min(axis=1)),
        Measure._new(scope, sizes, norm.max(axis=1)),
    )


_SUMMED_MATRICES: "WeakKeyDictionary[Factor, dict[int, np.ndarray]]" = WeakKeyDictionary()


def _summed_out_matrix(factor: Factor, keep: int) -> np.ndarray:
    """Factor table as a (d_keep, other_states) matrix, cached per factor.

    Columns follow little-endian order over the non-keep scope variables.
    """
    per_factor = _SUMMED_MATRICES.get(factor)
    if per_factor is None:
        per_factor = _SUMMED_MATRICES.setdefault(factor, {})
    mat = per_factor.get(keep)
    if mat is None:
        kpos = factor.scope.index(keep)
        mat = np.ascontiguousarray(
            np.moveaxis(factor.table_nd(), kpos, 0).reshape(
                (factor.sizes[kpos], -1), order="F"
            )
        )
        per_factor[keep] = mat
    return mat


def _check_single_var(ms: MessageSet, var: int) -> None:
    if isinstance(ms, Simplex):
        if ms.var != var:
            raise ValueError(f"message set is on variable {ms.var}, expected {var}")
    elif ms.scope != (var,):
        raise ValueError(f"message set is on scope {ms.scope}, expected ({var},)")


def bound_sum_product(
    factor: Factor, keep: int, incoming: Mapping[int, MessageSet]
) -> Box:
    """Bound the normalized sum-product image of a factor over message sets.

    For every combination of extreme points of the per-variable incoming sets,
    computes the normalization of ``sum over scope minus keep of table times
    the chosen points`` and returns the smallest bounding box of the results.
    The box contains the normalized image of every selection of measures inside
    the incoming sets whose image is nonzero.
    """
    if keep not in factor.scope:
        raise ValueError(f"variable {keep} not in factor scope {factor.scope}")
    others = [v for v in factor.scope if v != keep]
    point_mats: list[np.ndarray] = []
    n_combos = 1
    for v in others:
        if v not in incoming:
            raise ValueError(f"missing incoming message set for variable {v}")
        ms = incoming[v]
        _check_single_var(ms, v)
        mat = _extreme_matrix(ms)
        n_combos *= mat.shape[0]
        if n_combos > ENUMERATION_CAP:
            raise CapacityExceededError(
                f"{n_combos}+ extreme-point combinations exceed the cap of {ENUMERATION_CAP}"
            )
        point_mats.append(mat)
    d_keep = factor.sizes[factor.scope.index(keep)]
    if not point_mats:
        images = _summed_out_matrix(factor, keep)
    elif len(point_mats) == 1:
        images = _summed_out_matrix(factor, keep) @ point_mats[0].T
    else:
        kpos = factor.scope.index(keep)
        cur = np.moveaxis(factor.table_nd(), kpos, 0)
        for mat in point_mats:
            cur = np.tensordot(cur, mat, axes=([1], [1]))
        images = cur.reshape(d_keep, -1)
    return _bounding_box_of_normalized(images, (keep,), (d_keep,))


def bound_sum_product_joint(factor: Factor, keep: int, incoming_joint: Box) -> Box:
    """Like :func:`bound_sum_product`, but over one joint box on the rest.

    The joint box need not factorize over variables; its corners are enumerated
    directly. For two-variable factors this coincides with
    :func:`bound_sum_product` applied to the same single-variable box.
    """
    if keep not in factor.scope:
        raise ValueError(f"variable {keep} not in factor scope {factor.scope}")
    others = tuple(v for v in factor.scope if v != keep)
    if set(incoming_joint.scope) != set(others):
        raise ValueError(
            f"joint box scope {incoming_joint.scope} must cover {others}"
        )
    if incoming_joint.scope != others:
        incoming_joint = Box(
            _reordered(incoming_joint.lower, others),
            _reordered(incoming_joint.upper, others),
        )
    corners = box_corner_matrix(incoming_joint)
    images = _summed_out_matrix(factor, keep) @ corners.T
    d_keep = factor.sizes[factor.scope.index(keep)]
    return _bounding_box_of_normalized(images, (keep,), (d_keep,))


def normalized_corner_box(box: Box) -> Box:
    """Smallest bounding box of the normalized nonzero corners of a box."""
    images = box_corner_matrix(box).T
    return _bounding_box_of_normalized(images, box.lower.scope, box.lower.sizes)
