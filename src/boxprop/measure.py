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
messages per graph in one memo, keyed on the very boxes a message was computed
from (at most ``MESSAGE_MEMO_CAP`` entries per graph node before the memo is
cleared), so a memo hit is bit-identical to a recomputation. Every box the
engine makes comes from ``Box._new(scope, sizes, lower, upper)``, which wraps
two flat arrays without checks. The factor kernels read tables through
:attr:`Factor.matrices`. The only state kept here is a read-only corner bit
table per number ``f`` of free states (``f <= 20`` by the cap; ``2**f * f``
bytes, at most 1/8 of the corner matrix built from it). A simplex's extreme
points, the rows of ``np.eye(d)``, are made per call: the frontier table of
``boxprop.propagation`` serves most simplex children.

This module holds what the bound engine calls. The exact oracles' products
and sums of dense tables live beside them in ``boxprop.propagation``.

Extreme-point enumeration is exponential in the number of free states, so
every enumerating operation is capped at ``ENUMERATION_CAP`` combinations and
raises :class:`CapacityExceededError` beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import CapacityExceededError, ZeroMeasureError
from .factorgraph import Factor

__all__ = [
    "ENUMERATION_CAP",
    "Measure",
    "Box",
    "Simplex",
    "MessageSet",
    "box_corner_matrix",
    "box_product_same_scope",
    "box_product_disjoint_sbb",
    "bound_sum_product",
    "bound_sum_product_joint",
    "normalized_corner_box",
    "frontier_boxes",
    "full_box",
    "unit_box",
]

ENUMERATION_CAP = 1 << 20


@dataclass(eq=False, slots=True)
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

    @classmethod
    def _new(cls, scope: tuple[int, ...], sizes: tuple[int, ...], values: np.ndarray):
        # Internal fast path: callers guarantee the invariants already hold.
        m = object.__new__(cls)
        m.scope = scope
        m.sizes = sizes
        m.values = values
        return m


@dataclass(eq=False, slots=True)
class Box:
    """All measures between a pointwise lower and upper bound on one scope.

    ``eq=False`` keeps identity hashing, which ``propagation``'s memo keys need.
    """

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

    @classmethod
    def _new(cls, scope: tuple[int, ...], sizes: tuple[int, ...], lower, upper):
        # Internal fast path: callers guarantee lower <= upper, flat on one scope.
        b = object.__new__(cls)
        b.lower = Measure._new(scope, sizes, lower)
        b.upper = Measure._new(scope, sizes, upper)
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
    return Box._new((var,), (domain_size,), np.zeros(domain_size), np.ones(domain_size))


def unit_box(var: int, domain_size: int) -> Box:
    """Degenerate box at the constant-1 measure (multiplicative identity)."""
    ones = np.ones(domain_size)
    return Box._new((var,), (domain_size,), ones, ones)


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
    above = upper > lower
    n = int(np.count_nonzero(above))
    if n == 0:
        return lower.reshape(1, -1).copy()
    if 1 << n > ENUMERATION_CAP:
        raise CapacityExceededError(
            f"box has {n} free states; 2**{n} corners exceed the cap of {ENUMERATION_CAP}"
        )
    table = _corner_table(n)
    if n == lower.size:
        return np.where(table, upper, lower)
    free = above.nonzero()[0]
    corners = np.repeat(lower[None, :], 1 << n, axis=0)
    corners[:, free] = np.where(table, upper[free], lower[free])
    return corners


def box_product_same_scope(boxes: Sequence[Box]) -> Box:
    """Product of boxes on one shared scope: bounds multiply pointwise."""
    if not boxes:
        raise ValueError("box_product_same_scope needs at least one box")
    first = boxes[0]
    scope, sizes = first.lower.scope, first.lower.sizes
    lower, upper = first.lower.values, first.upper.values
    for b in boxes[1:]:
        if b.lower.scope != scope or b.lower.sizes != sizes:
            raise ValueError("all boxes must share one scope")
        lower = lower * b.lower.values
        upper = upper * b.upper.values
    return Box._new(scope, sizes, lower, upper)


def box_product_disjoint_sbb(boxes: Sequence[Box]) -> Box:
    """Smallest bounding box of a product of boxes on pairwise disjoint scopes.

    The result lives on the union scope (operand order); its lower/upper bounds
    are the outer products of the operand bounds. An empty product yields the
    degenerate scalar-1 box on the empty scope.
    """
    scope = tuple(v for b in boxes for v in b.lower.scope)
    if len(set(scope)) < len(scope):
        raise ValueError(f"scopes must be pairwise disjoint; {scope} repeats a variable")
    if not boxes:
        ones = np.ones(1)
        return Box._new((), (), ones, ones)
    if len(boxes) == 1:
        return boxes[0]
    # Flat outer products: each entry multiplies the operands' entries left to
    # right (IEEE products commute), as aligned tables multiplied in operand
    # order would, so the bytes match.
    lower, upper = boxes[0].lower.values, boxes[0].upper.values
    for b in boxes[1:]:
        lower = np.multiply.outer(b.lower.values, lower).ravel()
        upper = np.multiply.outer(b.upper.values, upper).ravel()
    sizes = tuple(d for b in boxes for d in b.lower.sizes)
    return Box._new(scope, sizes, lower, upper)


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
    z = np.add.reduce(images, axis=0)
    if not np.minimum.reduce(z) > 0.0:
        mask = z > 0.0
        if not mask.any():
            raise ZeroMeasureError("every enumerated combination gives a zero measure")
        images = images[:, mask]
        z = z[mask]
    norm = images / z
    return Box._new(scope, sizes, np.minimum.reduce(norm, axis=1), np.maximum.reduce(norm, axis=1))


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
        mat = np.eye(ms.domain_size) if isinstance(ms, Simplex) else box_corner_matrix(ms)
        n_combos *= mat.shape[0]
        if n_combos > ENUMERATION_CAP:
            raise CapacityExceededError(
                f"{n_combos}+ extreme-point combinations exceed the cap of {ENUMERATION_CAP}"
            )
        point_mats.append(mat)
    d_keep = factor.sizes[factor.scope.index(keep)]
    if len(point_mats) == 1:
        images = factor.matrices[keep] @ point_mats[0].T
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
    directly. Its scope must be the factor's scope without ``keep``, in factor
    order. For two-variable factors this coincides with
    :func:`bound_sum_product` applied to the same single-variable box.
    """
    if keep not in factor.scope:
        raise ValueError(f"variable {keep} not in factor scope {factor.scope}")
    others = tuple(v for v in factor.scope if v != keep)
    if incoming_joint.scope != others:
        raise ValueError(f"joint box scope {incoming_joint.scope} must be {others}")
    corners = box_corner_matrix(incoming_joint)
    images = factor.matrices[keep] @ corners.T
    d_keep = factor.sizes[factor.scope.index(keep)]
    return _bounding_box_of_normalized(images, (keep,), (d_keep,))


def frontier_boxes(factors: Iterable[Factor]) -> dict[tuple[int, int], Box]:
    """Each ``(factor id, keep)``'s box when every other scope variable sends a simplex.

    The box is the smallest one around the normalized columns of the pair's
    matrix in :attr:`Factor.matrices`, with the bytes of :func:`bound_sum_product`
    on simplex children (images ``S @ I``, which is ``S``). Every normalized
    image of a corner of the [0,1] box on the other variables is a convex
    combination of those columns, so it is also the exact box of
    :func:`bound_sum_product_joint` on that box, and no corner is enumerated.
    Matrices of one shape are stacked and bounded together. Pairs with a zero
    column, an overflowing column sum or over ``ENUMERATION_CAP`` columns are
    left out.
    """
    groups: dict[tuple[int, int], list[tuple[Factor, int]]] = {}
    for f in factors:
        for v, d in zip(f.scope, f.sizes):
            groups.setdefault((d, f.table.size // d), []).append((f, v))
    boxes = {}
    for (d, k), pairs in groups.items():
        if k > ENUMERATION_CAP:
            continue
        mats = np.stack([f.matrices[v] for f, v in pairs])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # left out below
            z = np.add.reduce(mats, axis=1)
            norm = mats / z[:, None, :]
        lower, upper = np.minimum.reduce(norm, axis=2), np.maximum.reduce(norm, axis=2)
        for r in np.flatnonzero(((z > 0.0) & (z < np.inf)).all(axis=1)).tolist():
            f, v = pairs[r]
            boxes[f.id, v] = Box._new((v,), (d,), lower[r], upper[r])
    return boxes


def normalized_corner_box(box: Box) -> Box:
    """Smallest bounding box of the normalized nonzero corners of a box."""
    images = box_corner_matrix(box).T
    return _bounding_box_of_normalized(images, box.lower.scope, box.lower.sizes)
