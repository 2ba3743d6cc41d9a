import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from boxprop.errors import CapacityExceededError, ZeroMeasureError
from boxprop.factorgraph import Factor
from boxprop import measure
from boxprop.measure import (
    Box,
    Measure,
    Simplex,
    bound_sum_product,
    bound_sum_product_joint,
    box_corner_matrix,
    box_product_disjoint_sbb,
    box_product_same_scope,
    full_box,
    normalized_corner_box,
)
from boxprop.propagation import _marginal, _marginalize_out, _multiply
from helpers import (
    extreme_points,
    measure_value,
    partition_sum,
    reference_bound_sum_product,
    reference_bound_sum_product_joint,
    reference_bounding_box_of_normalized,
    reference_box_corner_matrix,
    reference_summed_out_matrix,
    smallest_bounding_box,
)

SYM = Factor(0, (0, 1), (2, 2), np.array([1.0, 2.0, 2.0, 1.0]))


def m(scope, sizes, values):
    return Measure(tuple(scope), tuple(sizes), np.asarray(values, dtype=float))


def box(scope, sizes, lower, upper):
    return Box(m(scope, sizes, lower), m(scope, sizes, upper))


# ---------------------------------------------------------------- basics


def test_partition_sum():
    assert partition_sum(m((0,), (2,), (1, 2))) == 3.0
    assert partition_sum(m((0, 1), (2, 2), (1, 2, 2, 1))) == 6.0
    assert partition_sum(m((0,), (2,), (0, 0))) == 0.0


def test_normalize():
    n = _marginal(m((0,), (2,), (1, 2)), 0)
    assert np.allclose(n.values, [1 / 3, 2 / 3], atol=1e-15)
    again = _marginal(n, 0)
    assert np.allclose(again.values, n.values, atol=1e-15)
    with pytest.raises(ZeroMeasureError):
        _marginal(m((0,), (2,), (0, 0)), 0)


def test_multiply_disjoint_scopes():
    prod = _multiply(m((0,), (2,), (1, 2)), m((1,), (2,), (3, 4)))
    assert prod.scope == (0, 1)
    assert np.array_equal(prod.values, [3, 6, 4, 8])


def test_multiply_identical_scopes():
    prod = _multiply(m((0, 1), (2, 2), (1, 2, 3, 4)), m((0, 1), (2, 2), (2, 2, 2, 2)))
    assert prod.scope == (0, 1)
    assert np.array_equal(prod.values, [2, 4, 6, 8])


def test_multiply_by_ones_embeds():
    a = m((0,), (2,), (1, 2))
    prod = _multiply(a, m((1,), (3,), np.ones(3)))
    assert prod.scope == (0, 1)
    assert np.array_equal(prod.values, [1, 2, 1, 2, 1, 2])


def test_measure_rejects_a_negative_entry_beside_a_nan():
    with pytest.raises(ValueError, match="nonnegative"):
        Measure((0,), (3,), [np.nan, -1.0, 2.0])


@pytest.mark.parametrize(
    "values, message",
    [
        ([np.nan, np.nan], "finite"),
        ([np.inf, np.inf], "finite"),
        ([np.nan, 1.0], "finite"),
        ([np.inf, 1.0], "finite"),
        ([-np.inf, 1.0], "nonnegative"),
    ],
)
def test_measure_rejects_a_non_finite_entry(values, message):
    with pytest.raises(ValueError, match=message):
        Measure((0,), (2,), values)


def test_marginalize_out():
    psi = m((0, 1), (2, 2), (1, 2, 2, 1))
    assert np.array_equal(_marginalize_out(psi, {1}).values, [3, 3])
    assert np.array_equal(_marginalize_out(psi, set()).values, psi.values)
    scalar = _marginalize_out(psi, {0, 1})
    assert scalar.scope == ()
    assert scalar.values[0] == partition_sum(psi)


@given(st.data())
def test_multiply_matches_pointwise_oracle(data):
    size_of = {v: data.draw(st.integers(2, 3), label=f"size{v}") for v in range(4)}

    def draw_measure(label):
        # Any order, so that b's axes are transposed into the result's order.
        order = data.draw(st.permutations(range(4)), label=label)
        scope = tuple(order[: data.draw(st.integers(0, 3), label=label + "_len")])
        sizes = tuple(size_of[v] for v in scope)
        n = int(np.prod(sizes)) if scope else 1
        vals = data.draw(
            st.lists(st.floats(0, 5, allow_nan=False), min_size=n, max_size=n),
            label=label + "_vals",
        )
        return m(scope, sizes, vals)

    a = draw_measure("a")
    b = draw_measure("b")
    prod = _multiply(a, b)
    assert prod.scope == a.scope + tuple(v for v in b.scope if v not in a.scope)
    ranges = [range(size_of[v]) for v in prod.scope]
    for states in itertools.product(*ranges):
        x = dict(zip(prod.scope, states))
        expect = measure_value(a, x) * measure_value(b, x)
        # One IEEE multiplication per entry: exact.
        assert measure_value(prod, x) == expect


@given(st.data())
def test_marginalize_matches_enumeration_oracle(data):
    scope = (0, 1, 2)
    sizes = (2, 3, 2)
    vals = data.draw(st.lists(st.floats(0, 5, allow_nan=False), min_size=12, max_size=12))
    psi = m(scope, sizes, vals)
    drop = set(data.draw(st.sets(st.sampled_from(scope), max_size=3)))
    out = _marginalize_out(psi, drop)
    keep = [v for v in scope if v not in drop]
    assert out.scope == tuple(keep)
    for states in itertools.product(*[range(sizes[scope.index(v)]) for v in keep]):
        x = dict(zip(keep, states))
        total = 0.0
        for dropped in itertools.product(*[range(sizes[scope.index(v)]) for v in sorted(drop)]):
            full = dict(x)
            full.update(zip(sorted(drop), dropped))
            total += measure_value(psi, full)
        assert measure_value(out, x) == pytest.approx(total, abs=1e-9)


# ---------------------------------------------------------------- convexity


@given(
    st.lists(st.floats(0.01, 10, allow_nan=False), min_size=3, max_size=3),
    st.floats(1e-6, 1e6),
)
def test_normalize_scale_invariance(vals, c):
    a = m((0,), (3,), vals)
    b = m((0,), (3,), np.asarray(vals) * c)
    assert np.allclose(_marginal(a, 0).values, _marginal(b, 0).values, atol=1e-12)


@given(
    st.lists(st.floats(0.01, 10, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 10, allow_nan=False), min_size=3, max_size=3),
    st.floats(0, 1),
)
def test_normalizing_a_blend_is_a_blend_of_normalizations(v1, v2, lam):
    # Normalizing lam*x1 + (1-lam)*x2 must land on the segment between the
    # normalized inputs, with a weight that can be written down in closed form.
    x1, x2 = m((0,), (3,), v1), m((0,), (3,), v2)
    z1, z2 = partition_sum(x1), partition_sum(x2)
    blended = m((0,), (3,), lam * x1.values + (1 - lam) * x2.values)
    left = _marginal(blended, 0)
    mu = lam * z1 / (lam * z1 + (1 - lam) * z2)
    assert 0.0 <= mu <= 1.0
    recon = mu * _marginal(x1, 0).values + (1 - mu) * _marginal(x2, 0).values
    assert np.allclose(left.values, recon, atol=1e-12)


# ---------------------------------------------------------------- boxes


def test_extreme_points_simplex():
    pts = extreme_points(Simplex(0, 2))
    assert sorted(tuple(p.values) for p in pts) == [(0.0, 1.0), (1.0, 0.0)]


def test_extreme_points_box_corners():
    b = box((0,), (2,), (1 / 3, 1 / 3), (2 / 3, 2 / 3))
    pts = {tuple(np.round(p.values, 12)) for p in extreme_points(b)}
    third, two_thirds = round(1 / 3, 12), round(2 / 3, 12)
    assert pts == {
        (third, third),
        (third, two_thirds),
        (two_thirds, third),
        (two_thirds, two_thirds),
    }


def test_extreme_points_degenerate_box():
    b = box((0,), (2,), (0.5, 0.5), (0.5, 0.5))
    assert len(extreme_points(b)) == 1


def test_extreme_points_capacity_cap():
    d = 25
    b = full_box(0, d)
    with pytest.raises(CapacityExceededError):
        extreme_points(b)


@pytest.mark.parametrize("d", [63, 64, 65])
def test_corner_matrix_refuses_63_or_more_free_states(d):
    # The corner count ``1 << n`` must be a Python int: with numpy's int64 it
    # wrapped to a negative number or zero, passed the cap and gave no corners.
    with pytest.raises(CapacityExceededError, match=f"box has {d} free states"):
        box_corner_matrix(full_box(0, d))


def corners_by_bit_formula(b):
    """Corner c takes upper at the k-th free state iff bit k of c is set."""
    lower, upper = b.lower.values, b.upper.values
    free = [k for k in range(lower.size) if upper[k] > lower[k]]
    rows = []
    for c in range(1 << len(free)):
        row = lower.copy()
        for bit, k in enumerate(free):
            if c >> bit & 1:
                row[k] = upper[k]
        rows.append(row)
    return np.array(rows)


def test_box_corner_matrix_matches_the_bit_formula():
    lower = [0.1, 0.25, 0.3, 0.05]
    cases = [
        box((0,), (4,), lower, lower),  # no free state
        box((0,), (4,), lower, [0.1, 0.5, 0.3, 0.9]),  # states 1 and 3 free
        box((0,), (4,), lower, [0.2, 0.5, 0.7, 0.9]),  # every state free
        box((0, 1), (2, 3), [0.1] * 6, [0.1, 0.4, 0.1, 0.4, 0.4, 0.1]),
    ]
    for b in cases:
        bounds = b.lower.values.tobytes() + b.upper.values.tobytes()
        expected = corners_by_bit_formula(b)
        got = box_corner_matrix(b)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        # The result is the caller's own: writing into it changes no later result.
        got[...] = -1.0
        assert box_corner_matrix(b).tobytes() == expected.tobytes()
        assert b.lower.values.tobytes() + b.upper.values.tobytes() == bounds


def test_smallest_bounding_box_golden():
    pts = [m((0,), (2,), v) for v in ((0.2, 0.8), (0.8, 0.2), (0.5, 0.5))]
    b = smallest_bounding_box(pts)
    assert np.allclose(b.lower.values, [0.2, 0.2], atol=1e-15)
    assert np.allclose(b.upper.values, [0.8, 0.8], atol=1e-15)


def test_smallest_bounding_box_singleton_and_simplex_corners():
    only = smallest_bounding_box([m((0,), (2,), (0.3, 0.7))])
    assert np.array_equal(only.lower.values, only.upper.values)
    full = smallest_bounding_box([m((0,), (2,), (0, 1)), m((0,), (2,), (1, 0))])
    assert np.array_equal(full.lower.values, [0, 0])
    assert np.array_equal(full.upper.values, [1, 1])


def test_smallest_bounding_box_errors():
    with pytest.raises(ValueError):
        smallest_bounding_box([])
    with pytest.raises(ValueError):
        smallest_bounding_box([m((0,), (2,), (1, 1)), m((1,), (2,), (1, 1))])


@given(st.lists(st.lists(st.floats(0, 5, allow_nan=False), min_size=3, max_size=3), min_size=1, max_size=6))
def test_sbb_idempotent_on_its_own_corners(rows):
    points = [m((0,), (3,), row) for row in rows]
    b = smallest_bounding_box(points)
    again = smallest_bounding_box([m((0,), (3,), row) for row in box_corner_matrix(b)])
    assert np.array_equal(again.lower.values, b.lower.values)
    assert np.array_equal(again.upper.values, b.upper.values)


def test_box_product_same_scope_golden():
    b = box((0,), (2,), (1 / 3, 1 / 3), (2 / 3, 2 / 3))
    prod = box_product_same_scope([b, b])
    assert np.allclose(prod.lower.values, [1 / 9, 1 / 9], atol=1e-15)
    assert np.allclose(prod.upper.values, [4 / 9, 4 / 9], atol=1e-15)


def test_box_product_same_scope_identity_and_zero_lower():
    b = box((0,), (2,), (0.25, 0.5), (0.5, 0.75))
    ones = box((0,), (2,), (1, 1), (1, 1))
    prod = box_product_same_scope([b, ones])
    assert np.array_equal(prod.lower.values, b.lower.values)
    assert np.array_equal(prod.upper.values, b.upper.values)
    # Per state the interval product [a,b]*[c,d] is [ac, bd]; with a = 0 the
    # lower end collapses to 0.
    zl = box_product_same_scope([box((0,), (2,), (0.0, 0.0), (2.0, 2.0)), b])
    assert np.array_equal(zl.lower.values, [0.0, 0.0])
    assert np.allclose(zl.upper.values, [1.0, 1.5], atol=1e-15)


@given(st.data())
def test_box_product_same_scope_contains_and_achieves(data):
    lows1 = data.draw(st.lists(st.floats(0, 2, allow_nan=False), min_size=2, max_size=2))
    lows2 = data.draw(st.lists(st.floats(0, 2, allow_nan=False), min_size=2, max_size=2))
    ups1 = [lo + data.draw(st.floats(0, 2)) for lo in lows1]
    ups2 = [lo + data.draw(st.floats(0, 2)) for lo in lows2]
    b1, b2 = box((0,), (2,), lows1, ups1), box((0,), (2,), lows2, ups2)
    prod = box_product_same_scope([b1, b2])
    u1 = np.array(data.draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    u2 = np.array(data.draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    p1 = b1.lower.values + u1 * (b1.upper.values - b1.lower.values)
    p2 = b2.lower.values + u2 * (b2.upper.values - b2.lower.values)
    inside = p1 * p2
    assert np.all(inside >= prod.lower.values - 1e-12)
    assert np.all(inside <= prod.upper.values + 1e-12)
    # Tightness: both corner products are achieved exactly.
    assert np.array_equal(prod.lower.values, b1.lower.values * b2.lower.values)
    assert np.array_equal(prod.upper.values, b1.upper.values * b2.upper.values)


def test_box_product_disjoint_golden():
    b1 = box((0,), (2,), (1, 1), (2, 2))
    b2 = box((1,), (2,), (3, 3), (4, 4))
    prod = box_product_disjoint_sbb([b1, b2])
    assert prod.scope == (0, 1)
    assert np.array_equal(prod.lower.values, [3, 3, 3, 3])
    assert np.array_equal(prod.upper.values, [8, 8, 8, 8])


def test_box_product_disjoint_single_and_degenerate():
    b1 = box((0,), (2,), (1, 2), (3, 4))
    alone = box_product_disjoint_sbb([b1])
    assert np.array_equal(alone.lower.values, b1.lower.values)
    deg = box((1,), (2,), (2, 2), (2, 2))
    prod = box_product_disjoint_sbb([b1, deg])
    # The degenerate operand contributes no spread in its variable's direction:
    # fixing a state of variable 0 fixes the interval width ratio.
    assert np.allclose(prod.upper.values / prod.lower.values, [3, 2, 3, 2])
    with pytest.raises(ValueError):
        box_product_disjoint_sbb([b1, box((0,), (2,), (1, 1), (1, 1))])


# ---------------------------------------------------- bound_sum_product


def test_bound_sum_product_simplex_golden():
    out = bound_sum_product(SYM, 0, {1: Simplex(1, 2)})
    assert np.allclose(out.lower.values, [1 / 3, 1 / 3], atol=1e-12)
    assert np.allclose(out.upper.values, [2 / 3, 2 / 3], atol=1e-12)


def test_bound_sum_product_box_golden():
    incoming = box((1,), (2,), (1 / 3, 1 / 3), (2 / 3, 2 / 3))
    out = bound_sum_product(SYM, 0, {1: incoming})
    assert np.allclose(out.lower.values, [4 / 9, 4 / 9], atol=1e-12)
    assert np.allclose(out.upper.values, [5 / 9, 5 / 9], atol=1e-12)


def test_bound_sum_product_uniform_factor_degenerate():
    uniform = Factor(0, (0, 1), (2, 2), np.ones(4))
    out = bound_sum_product(uniform, 0, {1: Simplex(1, 2)})
    assert np.array_equal(out.lower.values, out.upper.values)
    assert np.allclose(out.lower.values, [0.5, 0.5], atol=1e-15)


def test_bound_sum_product_containment_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        sizes = (2, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        f = Factor(0, (0, 1, 2), sizes, rng.uniform(0.05, 3.0, int(np.prod(sizes))))
        lows1 = rng.uniform(0, 1, sizes[1])
        b1 = box((1,), (sizes[1],), lows1, lows1 + rng.uniform(0, 1, sizes[1]))
        incoming = {1: b1, 2: Simplex(2, sizes[2])}
        out = bound_sum_product(f, 0, incoming)
        for _ in range(25):
            u = rng.uniform(0, 1, sizes[1])
            m1 = b1.lower.values + u * (b1.upper.values - b1.lower.values)
            w = rng.dirichlet(np.ones(sizes[2]))
            img = np.einsum("ijk,j,k->i", f.table_nd(), m1, w)
            img = img / img.sum()
            assert np.all(img >= out.lower.values - 1e-12)
            assert np.all(img <= out.upper.values + 1e-12)


def test_bound_sum_product_scale_invariant():
    rng = np.random.default_rng(5)
    f = Factor(0, (0, 1), (2, 3), rng.uniform(0.1, 2.0, 6))
    scaled = Factor(0, (0, 1), (2, 3), f.table * 37.5)
    incoming = {1: Simplex(1, 3)}
    a = bound_sum_product(f, 0, incoming)
    b = bound_sum_product(scaled, 0, incoming)
    assert np.allclose(a.lower.values, b.lower.values, atol=1e-12)
    assert np.allclose(a.upper.values, b.upper.values, atol=1e-12)


def test_bound_sum_product_capacity():
    sizes = (2, 8, 8, 8)
    f = Factor(0, (0, 1, 2, 3), sizes, np.ones(int(np.prod(sizes))))
    incoming = {
        v: Box(
            m((v,), (8,), np.zeros(8)),
            m((v,), (8,), np.ones(8)),
        )
        for v in (1, 2, 3)
    }
    with pytest.raises(CapacityExceededError):
        bound_sum_product(f, 0, incoming)


def test_bound_sum_product_errors():
    with pytest.raises(ValueError):
        bound_sum_product(SYM, 5, {1: Simplex(1, 2)})
    with pytest.raises(ValueError):
        bound_sum_product(SYM, 0, {})
    with pytest.raises(ZeroMeasureError):
        zero = box((1,), (2,), (0, 0), (0, 0))
        bound_sum_product(SYM, 0, {1: zero})


def test_bound_sum_product_joint_matches_pairwise():
    incoming = box((1,), (2,), (0.2, 0.4), (0.7, 0.9))
    a = bound_sum_product(SYM, 0, {1: incoming})
    b = bound_sum_product_joint(SYM, 0, incoming)
    assert np.allclose(a.lower.values, b.lower.values, atol=1e-15)
    assert np.allclose(a.upper.values, b.upper.values, atol=1e-15)


def test_bound_sum_product_joint_degenerate_box():
    fixed = box((1,), (2,), (0.25, 0.75), (0.25, 0.75))
    out = bound_sum_product_joint(SYM, 0, fixed)
    img = SYM.table_nd() @ np.array([0.25, 0.75])
    img = img / img.sum()
    assert np.array_equal(out.lower.values, out.upper.values)
    assert np.allclose(out.lower.values, img, atol=1e-15)


def test_bound_sum_product_joint_ternary_containment():
    # A factor of three binary variables; the joint box over the two summed
    # variables has four states, up to 16 corners. A thousand random interior
    # selections must land inside the reported box.
    rng = np.random.default_rng(23)
    f = Factor(0, (0, 1, 2), (2, 2, 2), rng.uniform(0.05, 3.0, 8))
    lower = rng.uniform(0, 0.5, 4)
    upper = lower + rng.uniform(0, 1, 4)
    joint = box((1, 2), (2, 2), lower, upper)
    out = bound_sum_product_joint(f, 0, joint)
    mat = np.moveaxis(f.table_nd(), 0, 0).reshape((2, -1), order="F")
    for _ in range(1000):
        u = rng.uniform(0, 1, 4)
        inside = lower + u * (upper - lower)
        img = mat @ inside
        img = img / img.sum()
        assert np.all(img >= out.lower.values - 1e-12)
        assert np.all(img <= out.upper.values + 1e-12)


def test_bound_sum_product_joint_scope_reorder():
    # The joint box must follow the factor's scope order; a permutation of it
    # is refused rather than transposed.
    rng = np.random.default_rng(31)
    f = Factor(0, (0, 1, 2), (2, 2, 2), rng.uniform(0.1, 2.0, 8))
    lower = rng.uniform(0, 0.5, 4)
    upper = lower + rng.uniform(0, 1, 4)
    bound_sum_product_joint(f, 0, box((1, 2), (2, 2), lower, upper))
    with pytest.raises(ValueError, match="must be"):
        bound_sum_product_joint(f, 0, box((2, 1), (2, 2), lower, upper))


# ------------------------------------------------ kernel tails vs reference


def outcome(fn, *args):
    """A kernel's result as bytes, or its error's type and message."""
    try:
        out = fn(*args)
    except (ValueError, CapacityExceededError) as e:
        return type(e), str(e)
    if isinstance(out, Box):
        return out.scope, out.lower.values.tobytes(), out.upper.values.tobytes()
    return out.shape, out.tobytes()


def random_box(rng, v, d, n_free):
    """A box on ``v`` with ``n_free`` free states, zeros among its entries."""
    lower = rng.uniform(0.0, 1.0, d) * (rng.uniform(size=d) < 0.7)
    upper = lower.copy()
    free = rng.choice(d, n_free, replace=False)
    upper[free] += rng.uniform(0.01, 1.0, n_free)
    return box((v,), (d,), lower, upper)


def test_corner_matrix_and_tail_match_the_reference():
    rng = np.random.default_rng(1207)
    for d in range(1, 9):
        for n_free in range(d + 1):
            b = random_box(rng, 0, d, n_free)
            assert outcome(box_corner_matrix, b) == outcome(reference_box_corner_matrix, b)
            assert outcome(normalized_corner_box, b) == outcome(
                lambda b: reference_bounding_box_of_normalized(
                    reference_box_corner_matrix(b).T, b.scope, b.sizes
                ),
                b,
            )
    wide = box((0,), (21,), np.zeros(21), np.ones(21))
    assert outcome(box_corner_matrix, wide) == outcome(reference_box_corner_matrix, wide)
    assert outcome(box_corner_matrix, wide)[0] is CapacityExceededError
    tail = measure._bounding_box_of_normalized
    for zeros in (0, 1, 3, 5):
        images = rng.uniform(0.0, 2.0, (3, 5))
        images[:, rng.choice(5, zeros, replace=False)] = 0.0
        args = (images, (4,), (3,))
        assert outcome(tail, *args) == outcome(reference_bounding_box_of_normalized, *args)
    assert outcome(tail, *args)[0] is ZeroMeasureError


def test_summed_out_matrices_match_the_reference():
    rng = np.random.default_rng(1208)
    for arity in range(1, 5):
        for _ in range(5):
            scope = tuple(int(v) for v in rng.permutation(6)[:arity])
            sizes = tuple(int(d) for d in rng.integers(2, 4, arity))
            f = Factor(0, scope, sizes, rng.uniform(0.0, 2.0, int(np.prod(sizes))))
            for keep in rng.permutation(scope):
                mat = f.matrices[int(keep)]
                assert mat.flags.c_contiguous and not mat.flags.writeable
                assert (mat.shape, mat.tobytes()) == outcome(reference_summed_out_matrix, f, int(keep))


def test_factor_kernels_match_the_reference():
    # Scopes in any order, arity up to 4, Simplex and box children with 0 to
    # all states free, zero table slices (zero columns, all-zero images).
    rng = np.random.default_rng(1209)
    for trial in range(300):
        arity = int(rng.integers(1, 5))
        scope = tuple(int(v) for v in rng.permutation(7)[:arity])
        sizes = tuple(int(d) for d in rng.integers(2, 4, arity))
        table = rng.uniform(0.0, 2.0, int(np.prod(sizes)))
        if trial % 3 == 0:
            table *= rng.uniform(size=table.size) < 0.5
        f = Factor(0, scope, sizes, table)
        for keep in scope:
            incoming = {}
            for v, d in zip(scope, sizes):
                if v != keep:
                    incoming[v] = (
                        Simplex(v, d) if rng.uniform() < 0.3
                        else random_box(rng, v, d, int(rng.integers(0, d + 1)))
                    )
            assert outcome(bound_sum_product, f, keep, incoming) == outcome(
                reference_bound_sum_product, f, keep, incoming
            )
            others = [incoming[v] for v in scope if v != keep]
            joint = box_product_disjoint_sbb(
                [full_box(o.var, o.domain_size) if isinstance(o, Simplex) else o for o in others]
            )
            if np.count_nonzero(joint.upper.values > joint.lower.values) <= 10:
                assert outcome(bound_sum_product_joint, f, keep, joint) == outcome(
                    reference_bound_sum_product_joint, f, keep, joint
                )
    # Too many extreme-point combinations, and an all-zero image.
    f = Factor(0, (5, 1, 3), (2, 11, 11), rng.uniform(0.1, 2.0, 242))
    wide = {v: box((v,), (11,), np.zeros(11), np.ones(11)) for v in (1, 3)}
    assert outcome(bound_sum_product, f, 5, wide)[0] is CapacityExceededError
    assert outcome(bound_sum_product, f, 5, wide) == outcome(
        reference_bound_sum_product, f, 5, wide
    )
    zero = {1: Simplex(1, 2), 3: box((3,), (2,), (0, 0), (0, 0))}
    f = Factor(0, (1, 5, 3), (2, 2, 2), rng.uniform(0.1, 2.0, 8))
    assert outcome(bound_sum_product, f, 5, zero)[0] is ZeroMeasureError
    assert outcome(bound_sum_product, f, 5, zero) == outcome(
        reference_bound_sum_product, f, 5, zero
    )
