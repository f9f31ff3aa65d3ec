import itertools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from helpers import row_batches, window_grid_reference, window_samples_reference
from tiltlab import (
    INF,
    ConeIntersection,
    DimensionMismatch,
    FullSpace,
    HalfSpace,
    InfeasibleTruncation,
    MembershipViolation,
    NormSpec,
    Orthant,
    SampleDomain,
    contains,
    norm,
    norms_of_rows,
    project,
)
from tiltlab.spaces import (
    _BROADCAST_CAP,
    FACE_CAP,
    MEMBERSHIP_TOL,
    PROJECTION_TOL,
    ball_bound,
    first_rows,
    fold_rows,
    in_ball,
    mesh_blocks,
    mesh_rows,
    sample_windows,
    spread_axes,
)

SPECS = [
    NormSpec(3, 1.0),
    NormSpec(3, 2.0),
    NormSpec(3, INF),
    NormSpec(3, 3.5),
    NormSpec(3, 2.0, weights=(1.0, 2.0, 0.5)),
    NormSpec(3, INF, weights=(2.0, 1.0, 3.0)),
]


def test_norm_examples():
    assert norm([3, -4], NormSpec(2, 1.0)) == 7.0
    assert norm([3, -4], NormSpec(2, 2.0)) == 5.0
    assert norm([3, -4], NormSpec(2, INF)) == 4.0
    for spec in (NormSpec(2, 1.0), NormSpec(2, 2.0), NormSpec(2, INF)):
        assert norm([0, 0], spec) == 0.0


def test_norm_validation():
    with pytest.raises(ValueError):
        NormSpec(2, 0.5)
    with pytest.raises(ValueError):
        NormSpec(0, 2.0)
    with pytest.raises(ValueError):
        NormSpec(2, 2.0, weights=(1.0, -1.0))
    with pytest.raises(DimensionMismatch):
        NormSpec(2, 2.0, weights=(1.0,))
    with pytest.raises(DimensionMismatch):
        norm([1.0, 2.0, 3.0], NormSpec(2, 2.0))


@pytest.mark.parametrize("spec", SPECS)
def test_norm_axioms_seeded(spec):
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = rng.uniform(-10, 10, spec.dimension)
        v = rng.uniform(-10, 10, spec.dimension)
        a = float(rng.uniform(-5, 5))
        nv = norm(v, spec)
        assert nv >= 0.0
        assert abs(norm(a * v, spec) - abs(a) * nv) <= 1e-12 * max(1.0, abs(a) * nv)
        assert norm(u + v, spec) <= norm(u, spec) + nv + 1e-12
    assert norm(np.zeros(spec.dimension), spec) == 0.0
    e = np.zeros(spec.dimension)
    e[1] = 1e-150
    assert norm(e, spec) > 0.0


def test_norm_monotone_in_p():
    rng = np.random.default_rng(3)
    X = rng.uniform(-10, 10, (1000, 4))
    l1 = norms_of_rows(X, NormSpec(4, 1.0))
    l2 = norms_of_rows(X, NormSpec(4, 2.0))
    linf = norms_of_rows(X, NormSpec(4, INF))
    assert np.all(linf <= l2) and np.all(l2 <= l1)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.floats(-100.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_norm_homogeneity_hypothesis(vals, alpha):
    spec = NormSpec(3, 2.0)
    v = np.array(vals)
    assert abs(norm(alpha * v, spec) - abs(alpha) * norm(v, spec)) <= 1e-9 * max(
        1.0, abs(alpha) * norm(v, spec)
    )


def test_rows_match_scalar():
    rng = np.random.default_rng(5)
    X = rng.uniform(-4, 4, (50, 3))
    for spec in SPECS:
        rows = norms_of_rows(X, spec)
        for i in range(len(X)):
            assert rows[i] == pytest.approx(norm(X[i], spec), abs=1e-14)


def test_contains_examples():
    orthant = Orthant(2)
    assert contains(orthant, [1, 2], 0.0)
    assert contains(orthant, [-1e-9, 2], 1e-8)
    assert not contains(orthant, [-1e-9, 2], 0.0)
    hs = HalfSpace(2, normal=(1, 1), offset=2.0)
    assert not contains(hs, [0, 0], 0.0)
    assert contains(hs, [1, 1], 0.0)


def test_project_examples():
    assert np.allclose(project(Orthant(2), [-1, 2]), [0, 2])
    assert np.allclose(project(HalfSpace(2, normal=(1, 1), offset=2.0), [0, 0]), [1, 1])
    assert np.allclose(project(FullSpace(2), [5, -7]), [5, -7])


SETS = [
    FullSpace(2),
    Orthant(2),
    Orthant(2, lower=(-1.0, 2.0)),
    HalfSpace(2, normal=(1.0, 1.0), offset=2.0),
    HalfSpace(2, normal=(-1.0, 2.0), offset=-3.0),
    ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(1.0, 0.0), offset=0.0),
            HalfSpace(2, normal=(1.0, 1.0), offset=1.0),
        ),
        ray=(1.0, 1.0),
    ),
]


@pytest.mark.parametrize("set_", SETS)
def test_projection_idempotent_and_member(set_):
    rng = np.random.default_rng(8)
    for _ in range(300):
        z = rng.uniform(-20, 20, set_.dimension)
        p = project(set_, z)
        assert contains(set_, p, 1e-12)
        p2 = project(set_, p)
        assert float(np.abs(p2 - p).max()) <= 1e-12


@pytest.mark.parametrize("set_", SETS)
def test_unboundedness_witness(set_):
    base, ray = set_.ray_base, set_.ray_direction
    assert contains(set_, base, 1e-9)
    for t in (1.0, 10.0, 1e4):
        assert contains(set_, base + t * ray, 1e-6 * max(1.0, t))


def test_halfspace_projection_formula():
    hs = HalfSpace(3, normal=(2.0, -1.0, 0.5), offset=4.0)
    rng = np.random.default_rng(11)
    a = np.array(hs.normal)
    for _ in range(100):
        z = rng.uniform(-10, 10, 3)
        expect = z if a @ z >= 4.0 else z + (4.0 - a @ z) / (a @ a) * a
        assert np.allclose(project(hs, z), expect, atol=1e-14)


@pytest.mark.parametrize(
    "normal", [(5e-324,), (np.nan,), (np.inf,)], ids=["underflow", "nan", "inf"]
)
def test_halfspace_rejects_normals_it_cannot_project_with(normal):
    # Projection divides by normal . normal: a normal whose square underflows
    # to 0 would project to inf, and a non-finite one to nan.
    with pytest.raises(ValueError, match="normal"):
        HalfSpace(1, normal=normal, offset=0.0)


@pytest.mark.parametrize("offset", [np.nan, np.inf])
def test_halfspace_rejects_non_finite_offset(offset):
    with pytest.raises(ValueError, match="finite"):
        HalfSpace(1, normal=(1.0,), offset=offset)


def test_cone_projection_is_euclidean_on_an_obtuse_corner():
    # From (-1, -3) the nearest point of {x >= 0, x + y >= 0} is (1, -1) on
    # the second face, at distance sqrt(8); alternating projections through
    # the two faces stop at (1.5, -1.5) instead.
    cone = ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(1.0, 0.0), offset=0.0),
            HalfSpace(2, normal=(1.0, 1.0), offset=0.0),
        ),
        ray=(1.0, 0.0),
    )
    assert float(np.abs(cone.project([-1.0, -3.0]) - [1.0, -1.0]).max()) <= 1e-12


def test_cone_thin_wedge_projects_to_its_apex():
    # Normals 1e-8 apart: the wedge 0 <= y <= 1e-8 x.  The apex is nearest to
    # (-1e8, 1e8), with multipliers near 1e16.
    thin = ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(0.0, 1.0), offset=0.0),
            HalfSpace(2, normal=(1e-8, -1.0), offset=0.0),
        ),
        ray=(1.0, 0.0),
        base=(0.0, 0.0),
    )
    z = np.array([-1e8, 1e8])
    p = thin.project(z)
    assert float(np.abs(p).max()) <= 1e-8 * float(np.abs(z).max())


def test_cone_empty_intersection_rejected_at_construction():
    # The ray is orthogonal to both opposed normals, so it passes the witness
    # check; the set {x + y >= 0, x + y <= -1} is still empty.
    with pytest.raises(ValueError, match="empty"):
        ConeIntersection(
            2,
            constraints=(
                HalfSpace(2, normal=(1.0, 1.0), offset=0.0),
                HalfSpace(2, normal=(-1.0, -1.0), offset=1.0),
            ),
            ray=(-1.0, 1.0),
        )


def test_cone_face_count_is_capped():
    # 30 half-spaces in R^3 give 1 + 30 + 435 + 4060 = 4526 candidate faces.
    angles = np.linspace(0.0, np.pi / 2, 30)
    constraints = tuple(
        HalfSpace(3, normal=(np.cos(t), np.sin(t), 0.0), offset=-1.0) for t in angles
    )
    with pytest.raises(ValueError, match="4526 candidate faces"):
        ConeIntersection(3, constraints=constraints, ray=(1.0, 1.0, 0.0))
    assert FACE_CAP < 4526


def _random_cone(rng) -> ConeIntersection:
    """A nonempty cone, n 1-3, 1-4 half-spaces, offsets of either sign: every
    normal accepts the ray, and a random point lies inside."""
    n = int(rng.integers(1, 4))
    ray = rng.normal(size=n)
    inside = rng.uniform(-3.0, 3.0, n)
    constraints = []
    for _ in range(int(rng.integers(1, 5))):
        a = rng.normal(size=n)
        if a @ ray < 0.0:
            a = -a
        offset = a @ inside - rng.uniform(0.0, 2.0)
        constraints.append(HalfSpace(n, normal=tuple(a), offset=offset))
    return ConeIntersection(n, constraints=tuple(constraints), ray=tuple(ray))


def test_cone_projection_is_nearest_feasible_point_on_random_cones():
    rng = np.random.default_rng(41)
    for _ in range(150):
        cone = _random_cone(rng)
        n = cone.dimension
        Z = rng.uniform(-10.0, 10.0, (8, n))
        P = cone.project_rows(Z)
        assert np.all(cone.violations_of_rows(P) <= 1e-12)
        # idempotent, and each row the same alone or in another batch
        assert _bits(cone.project_rows(P)) == _bits(P)
        order = rng.permutation(len(Z))
        assert _bits(cone.project_rows(Z[order])) == _bits(P[order])
        for z, p in zip(Z, P):
            assert _bits(cone.project(z)) == _bits(p)
            near = np.vstack(
                [p + rng.uniform(-s, s, (200, n)) for s in (1e-3, 0.1, 1.0, 10.0)]
            )
            near = near[cone.violations_of_rows(near) <= 0.0]
            gap = np.sqrt(((near - z) ** 2).sum(axis=1)).min() - np.sqrt((p - z) @ (p - z))
            assert gap >= -1e-9


def test_cone_requires_valid_ray():
    box = (
        HalfSpace(1, normal=(1.0,), offset=0.0),
        HalfSpace(1, normal=(-1.0,), offset=-1.0),
    )
    with pytest.raises(ValueError, match="unbounded"):
        ConeIntersection(1, constraints=box, ray=(1.0,))
    with pytest.raises(ValueError, match="unbounded"):
        ConeIntersection(1, constraints=box[:1], ray=(0.0,))
    with pytest.raises(ValueError, match="base witness"):
        ConeIntersection(1, constraints=box[:1], ray=(1.0,), base=(np.nan,))


def test_project_rows_matches_scalar():
    rng = np.random.default_rng(21)
    Z = rng.uniform(-10, 10, (64, 2))
    for set_ in SETS:
        rows = set_.project_rows(Z)
        for i in range(len(Z)):
            assert np.allclose(rows[i], project(set_, Z[i]), atol=1e-12)


def test_in_ball_takes_one_radius_per_row_with_the_same_tolerance():
    # A row on the shell, one just inside the 1e-12 relative tolerance and
    # one just outside it; radii below 1 get the absolute 1e-12.
    spec = NormSpec(2, 2.0)
    radii = np.array([0.5, 1.0, 3.0, 3.0, 3.0, 1e6])
    scale = np.array([1.0, 1.0, 1.0, 1.0 + 0.9e-12, 1.0 + 1.1e-12, 1.0 + 0.9e-12])
    X = np.column_stack([radii * scale, np.zeros(6)])
    mask = in_ball(X, radii, spec)
    assert mask.tolist() == [True, True, True, True, False, True]
    for i, r in enumerate(radii.tolist()):
        assert in_ball(X[i : i + 1], r, spec)[0] == mask[i]
        assert ball_bound(r) == ball_bound(radii)[i] == r + 1e-12 * max(1.0, r)


def test_sample_domain_emissions_feasible_and_in_ball():
    spec = NormSpec(2, INF)
    for set_ in SETS:
        window = SampleDomain(set_, spec, 5.0, 9)
        pts = window.grid_points()
        assert len(pts) > 0
        assert np.all(set_.violations_of_rows(pts) <= 1e-12)
        assert np.all(norms_of_rows(pts, spec) <= 5.0 + 1e-9)
        rng = np.random.default_rng(2)
        rand = window.random_points(40, rng)
        assert len(rand) > 0
        assert np.all(set_.violations_of_rows(rand) <= 1e-12)
        assert np.all(norms_of_rows(rand, spec) <= 5.0 + 1e-9)
        lds = window.low_discrepancy_points(40, seed=3)
        assert np.all(set_.violations_of_rows(lds) <= 1e-12)
        assert np.all(norms_of_rows(lds, spec) <= 5.0 + 1e-9)


def test_grid_lexicographic_order_and_dedup():
    window = SampleDomain(Orthant(2), NormSpec(2, INF), 1.0, 3)
    pts = window.grid_points()
    # box grid {-1,0,1}^2 projects onto the orthant: 4 distinct points
    expect = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(pts, expect)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        contains(Orthant(2), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        project(FullSpace(2), [1.0])
    with pytest.raises(DimensionMismatch):
        Orthant(2, lower=(0.0,))
    with pytest.raises(DimensionMismatch):
        SampleDomain(Orthant(2), NormSpec(3, 2.0), 1.0, 3)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _assert_batch_independent(kernel, X):
    """Row i of a batch call equals the one-row call, bit for bit."""
    batch = kernel(X)
    for i in range(len(X)):
        assert _bits(batch[i]) == _bits(kernel(X[i : i + 1])[0])


@st.composite
def _norms_and_rows(draw):
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from((1.0, 2.0, 3.0, INF)))
    weights = draw(
        st.none() | st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)
    )
    return NormSpec(n, p, weights=weights), draw(row_batches(n))


@given(_norms_and_rows())
@settings(max_examples=300, deadline=None)
def test_norms_of_rows_batch_independent_hypothesis(case):
    spec, X = case
    _assert_batch_independent(lambda Y: norms_of_rows(Y, spec), X)


@st.composite
def _sets_and_rows(draw):
    n = draw(st.integers(1, 8))
    variant = draw(st.sampled_from(("full_space", "orthant", "half_space", "cone")))
    offsets = st.floats(-5.0, 5.0)
    normals = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n).filter(
        lambda a: np.dot(a, a) > 1e-6
    )
    if variant == "full_space":
        set_ = FullSpace(n)
    elif variant == "orthant":
        set_ = Orthant(n, lower=tuple(draw(st.lists(offsets, min_size=n, max_size=n))))
    elif variant == "half_space":
        set_ = HalfSpace(n, normal=tuple(draw(normals)), offset=draw(offsets))
    else:
        # General normals and offsets; a draw whose cone is empty, or whose
        # ray escapes a half-space after rounding, is rejected.
        ray = np.array(draw(normals))
        constraints = []
        for _ in range(draw(st.integers(1, 4))):
            a = np.array(draw(normals))
            if a @ ray < 0.0:
                a = -a
            constraints.append(HalfSpace(n, normal=tuple(a), offset=draw(offsets)))
        try:
            set_ = ConeIntersection(n, constraints=tuple(constraints), ray=tuple(ray))
        except ValueError:
            reject()
    return set_, draw(row_batches(n))


@given(_sets_and_rows())
@settings(max_examples=300, deadline=None)
def test_set_kernels_batch_independent_hypothesis(case):
    set_, X = case
    _assert_batch_independent(set_.violations_of_rows, X)
    _assert_batch_independent(set_.project_rows, X)


# Entries that stress the fold: NaN, both infinities and both zeros, next
# to ordinary and extreme finite values.
_ENTRIES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0)
)


@st.composite
def _special_rows(draw, min_width: int, max_width: int) -> np.ndarray:
    w = draw(st.integers(min_width, max_width))
    k = draw(st.integers(1, 12))
    return np.array(draw(st.lists(_ENTRIES, min_size=w * k, max_size=w * k))).reshape(k, w)


def _nan_bits(a) -> bytes:
    """The bytes of ``a`` with every NaN as numpy's own: a NaN's sign and
    payload follow the operand order of the machine code, not the values."""
    return _bits(np.where(np.isnan(a), np.nan, a))


@given(_special_rows(1, 20), st.sampled_from((np.maximum, np.minimum)))
@settings(max_examples=400, deadline=None)
def test_fold_rows_keeps_maximum_and_minimum_reduce_hypothesis(X, ufunc):
    folded, reduced = fold_rows(ufunc, X), ufunc.reduce(X, axis=-1)
    assert np.array_equal(folded, reduced, equal_nan=True)
    if X.shape[1] <= 8:  # beyond, numpy's vectorised reduce may pick the other zero
        assert _nan_bits(folded) == _nan_bits(reduced)


@given(_special_rows(1, 7))
@settings(max_examples=400, deadline=None)
def test_fold_rows_sums_like_add_reduce_below_8_terms_hypothesis(X):
    with np.errstate(all="ignore"):
        assert np.array_equal(fold_rows(np.add, X), np.add.reduce(X, axis=-1), equal_nan=True)


def test_fold_rows_keeps_the_sign_of_a_sum_of_negative_zeros():
    X = np.array([[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]])
    assert np.signbit(fold_rows(np.add, X)).tolist() == [True, False]
    assert np.array_equal(fold_rows(np.add, X), np.add.reduce(X, axis=-1))


@given(_special_rows(1, 10), st.sampled_from((np.add, np.maximum, np.minimum)))
@settings(max_examples=300, deadline=None)
def test_fold_rows_batch_independent_hypothesis(X, ufunc):
    with np.errstate(all="ignore"):
        batch = fold_rows(ufunc, X)
        for i in range(len(X)):
            assert _nan_bits(batch[i]) == _nan_bits(fold_rows(ufunc, X[i : i + 1])[0])


@st.composite
def _rows_with_repeats(draw) -> np.ndarray:
    w = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, 6))
    values = st.sampled_from((np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5))
    pool = np.array(draw(st.lists(values, min_size=w * distinct, max_size=w * distinct)))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=30))
    return pool.reshape(distinct, w)[picks]


@given(_rows_with_repeats())
@settings(max_examples=400, deadline=None)
def test_first_rows_matches_unique_first_occurrences_hypothesis(X):
    expect = np.sort(np.unique(X, axis=0, return_index=True)[1])
    assert np.array_equal(first_rows(X), expect)


def test_first_rows_examples():
    nan = np.nan
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -0.0], [nan, 0.0], [nan, 0.0], [0.0, 1.0]])
    assert first_rows(X).tolist() == [0, 1, 3, 4]


def _unique_grid(window: SampleDomain) -> np.ndarray:
    """The grid rule written with ``np.unique``: mesh in index order, project,
    keep the ball, keep each distinct row's first occurrence."""
    axis = np.linspace(-window.radius, window.radius, window.resolution)
    mesh = np.meshgrid(*[axis] * window.domain.dimension, indexing="ij")
    pts = window.domain.project_rows(np.stack([g.ravel() for g in mesh], axis=1))
    r = window.radius
    pts = pts[norms_of_rows(pts, window.norm) <= r + 1e-12 * max(1.0, r)]
    if len(pts) == 0:
        return pts
    return pts[np.sort(np.unique(pts, axis=0, return_index=True)[1])]


@st.composite
def _windows(draw) -> SampleDomain:
    n = draw(st.integers(1, 3))
    spec = NormSpec(n, draw(st.sampled_from((1.0, 1.5, 2.0, INF))))
    lower = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    normals = lower.filter(lambda a: np.dot(a, a) > 1e-3)
    set_ = draw(st.sampled_from(("full_space", "orthant", "half_space", "cone")))
    if set_ == "full_space":
        domain = FullSpace(n)
    elif set_ == "orthant":
        domain = Orthant(n, lower=tuple(draw(lower)))
    elif set_ == "half_space":
        domain = HalfSpace(n, normal=tuple(draw(normals)), offset=draw(st.floats(-2.0, 2.0)))
    else:
        # Normals turned to accept the ray; a draw whose cone is empty is rejected.
        ray = np.array(draw(normals))
        constraints = []
        for _ in range(draw(st.integers(1, 3))):
            a = np.array(draw(normals))
            if a @ ray < 0.0:
                a = -a
            constraints.append(HalfSpace(n, normal=tuple(a), offset=draw(st.floats(-2.0, 2.0))))
        try:
            domain = ConeIntersection(n, constraints=tuple(constraints), ray=tuple(ray))
        except ValueError:
            reject()
    resolution = draw(st.integers(1, {1: 41, 2: 21, 3: 11}[n]))
    return SampleDomain(domain, spec, draw(st.floats(0.1, 4.0)), resolution)


@given(_windows())
@settings(max_examples=200, deadline=None)
def test_grid_points_equal_the_unique_formula_hypothesis(window):
    assert _bits(window.grid_points()) == _bits(_unique_grid(window))


@st.composite
def _window_batches(draw):
    """One to four windows on one drawn set and norm, with mixed radii and
    resolutions, and each window's sample count."""
    first = draw(_windows())
    n = first.domain.dimension
    windows = [first] + [
        SampleDomain(first.domain, first.norm, draw(st.floats(0.1, 4.0)),
                     draw(st.integers(1, {1: 41, 2: 21, 3: 11}[n])))
        for _ in range(draw(st.integers(0, 3)))
    ]
    counts = draw(st.lists(st.sampled_from((0, 1, 5, 16, 40)),
                           min_size=len(windows), max_size=len(windows)))
    return windows, counts


def _assert_windows_match_their_own_calls(windows, counts, seed, grids=True):
    """sample_windows gives each window bit for bit its grid and samples
    built alone, and draws as many rounds from its generator; returns each
    window's draw rounds alone."""
    rngs = lambda: [np.random.default_rng([seed, i]) for i in range(len(windows))]
    batched = rngs()
    draws = [(c, w.uniform(r)) for w, c, r in zip(windows, counts, batched)]
    made, samples = sample_windows(windows, draws, grids)
    assert len(made) == (len(windows) if grids else 0) and len(samples) == len(windows)
    for w, g in zip(windows, made):
        want = window_grid_reference(w)
        assert g.shape == want.shape and _bits(g) == _bits(want)
    rounds = []
    for w, c, r, got, used in zip(windows, counts, rngs(), samples, batched):
        want, k = window_samples_reference(w, c, r)
        assert got.shape == want.shape and _bits(got) == _bits(want)
        assert used.bit_generator.state == r.bit_generator.state
        rounds.append(k)
    return rounds


@given(_window_batches(), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sample_windows_equal_each_window_built_alone_hypothesis(batch, seed, grids):
    _assert_windows_match_their_own_calls(*batch, seed, grids)


@pytest.mark.parametrize("variant", ["half_space", "cone", "orthant"])
def test_sample_windows_keep_drawing_for_thin_windows_and_pass_empty_ones(variant):
    # Sets at x0 >= 1.5 under p = 1.5: the window of radius 1 has no point,
    # so its grid is empty and it draws all 50 rounds; the one of radius 1.6
    # is a thin sliver that needs several rounds; the others fill in one or
    # two.  Each window still gets the grid and samples it gets alone.
    n = 2
    floor = HalfSpace(n, normal=(1.0, 0.0), offset=1.5)
    domain = {
        "half_space": floor,
        "cone": ConeIntersection(n, constraints=(
            floor, HalfSpace(n, normal=(1.0, 1.0), offset=0.0)), ray=(1.0, 0.0)),
        "orthant": Orthant(n, lower=(1.5, -3.0)),
    }[variant]
    spec = NormSpec(n, 1.5)
    windows = [SampleDomain(domain, spec, r, k) for r, k in ((4.0, 9), (1.0, 7), (1.6, 5), (3.0, 3))]
    rounds = _assert_windows_match_their_own_calls(windows, [16, 16, 16, 5], seed=7)
    assert rounds[1] == 50 and rounds[2] > 2 and rounds[0] < rounds[2], rounds
    assert len(window_grid_reference(windows[1])) == 0


def _assert_hull_blocks(blocks, cap: int) -> list[np.ndarray]:
    """Each block's rows, after checking that it has at most ``cap`` and is
    its members' hull: each axis's first and last values are some
    member's."""
    rows = []
    for block in blocks:
        tail = block.tail
        assert math.prod(len(a) for a in tail) <= cap
        if block.inside is not None:
            for j in range(len(tail)):
                taken = block.inside.any(axis=tuple(k for k in range(len(tail)) if k != j))
                assert taken[0] and taken[-1]
        rows.append(block.rows().copy())
        assert len(rows[-1])
    return rows


@given(_windows(), st.sampled_from((1, 2, 7, 64)))
@settings(max_examples=200, deadline=None)
def test_a_window_without_points_is_refused_and_hull_blocks_join_to_its_grid_hypothesis(
        window, cap):
    """require_points refuses exactly the windows whose grid is empty, and
    on full space and orthants under p in {1, 2, inf} the window's hull
    blocks, joined, are its grid, bit for bit."""
    pts = window.grid_points()
    if len(pts):
        assert window.require_points() is window
    else:
        with pytest.raises(InfeasibleTruncation, match=r"^no feasible grid point"):
            window.require_points()
    if window.domain.coordinatewise and window.norm.fold is not None:
        rows = _assert_hull_blocks(window.blocks(cap, hull=True), cap)
        n = window.domain.dimension
        assert _bits(np.concatenate([np.empty((0, n))] + rows)) == _bits(pts)


def _grid_with_dedups(window: SampleDomain, monkeypatch) -> tuple[np.ndarray, int]:
    """``window.grid_points()`` and the number of :func:`first_rows` calls it made."""
    import tiltlab.spaces as spaces

    calls = []
    dedup = spaces.first_rows
    monkeypatch.setattr(spaces, "first_rows", lambda X: calls.append(len(X)) or dedup(X))
    pts = window.grid_points()
    monkeypatch.undo()
    return pts, len(calls)


@pytest.mark.parametrize("n, resolution", [(1, 33), (2, 17), (3, 9)])
def test_grid_points_skip_the_dedup_when_no_mesh_row_moved(n, resolution, monkeypatch):
    window = SampleDomain(FullSpace(n), NormSpec(n, 2.0), 1.5, resolution)
    pts, dedups = _grid_with_dedups(window, monkeypatch)
    assert dedups == 0
    assert _bits(pts) == _bits(_unique_grid(window))


def test_grid_points_dedup_rows_projected_onto_unmoved_nodes(monkeypatch):
    # Axis -1, -0.5, 0, 0.5, 1 and lower bounds on its nodes: a projected row
    # lands on a node row that the projection left in place.  An orthant's
    # grid is the mesh of its clipped axes, so no dedup of the whole mesh runs.
    window = SampleDomain(Orthant(2, lower=(-0.5, 0.0)), NormSpec(2, INF), 1.0, 5)
    pts, dedups = _grid_with_dedups(window, monkeypatch)
    assert dedups == 0
    assert _bits(pts) == _bits(_unique_grid(window))
    assert len(pts) == 4 * 3


@pytest.mark.parametrize("variant", ["half_space", "cone"])
def test_grid_points_dedup_the_projected_mesh_of_other_sets(variant, monkeypatch):
    # The same lower bounds as half-spaces: x >= -0.5 alone, or with y >= 0
    # as a cone.  These sets project and dedup the whole mesh, once.
    x = HalfSpace(2, normal=(1.0, 0.0), offset=-0.5)
    y = HalfSpace(2, normal=(0.0, 1.0), offset=0.0)
    cone = ConeIntersection(2, constraints=(x, y), ray=(1.0, 1.0))
    window = SampleDomain(x if variant == "half_space" else cone, NormSpec(2, INF), 1.0, 5)
    pts, dedups = _grid_with_dedups(window, monkeypatch)
    assert dedups == 1
    assert _bits(pts) == _bits(_unique_grid(window))
    assert len(pts) == 4 * (5 if variant == "half_space" else 3)


@pytest.mark.parametrize("n", [1, 2])
def test_grid_points_dedup_an_axis_that_repeats_a_value(n, monkeypatch):
    # linspace over a subnormal radius repeats values, so rows repeat with no
    # projection moving any of them; each axis keeps its distinct values, and
    # no dedup of the whole mesh runs.
    window = SampleDomain(FullSpace(n), NormSpec(n, 2.0), 5e-324, 9)
    axis = np.linspace(-5e-324, 5e-324, 9)
    assert len(np.unique(axis)) < 9
    pts, dedups = _grid_with_dedups(window, monkeypatch)
    assert dedups == 0
    assert _bits(pts) == _bits(_unique_grid(window))
    assert len(pts) == len(np.unique(axis)) ** n


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
@pytest.mark.parametrize("set_", ["full_space", "weighted", "orthant"])
def test_grid_points_of_large_box_windows_equal_the_unique_formula(set_, p):
    # 41^3 windows, above the resolutions the hypothesis test draws in 3-D.
    # The orthant's first bound is -0.0: every axis value below 0 projects
    # onto it, and the first zero of that run, -0.0, is the one kept (the
    # node 0.0 projects onto either zero, as np.maximum breaks the tie).
    weights = (1.0, 1.5, 1.25) if set_ == "weighted" else None
    domain = Orthant(3, lower=(-0.0, 0.3, -0.7)) if set_ == "orthant" else FullSpace(3)
    window = SampleDomain(domain, NormSpec(3, p, weights=weights), 2.0, 41)
    pts, expect = window.grid_points(), _unique_grid(window)
    assert pts.shape == expect.shape
    assert _bits(pts) == _bits(expect)
    if set_ == "orthant":
        assert pts[0, 0] == 0.0 and np.signbit(pts[0, 0])


def test_an_orthant_beyond_the_ball_has_no_grid():
    # The lower bound 2.5 > radius 2 clips the second axis to one value
    # outside the ball: the grid is empty and require_grid refuses it.
    window = SampleDomain(Orthant(3, lower=(0.25, 2.5, 0.0)), NormSpec(3, 2.0), 2.0, 9)
    assert window.grid_points().shape == (0, 3)
    assert _bits(window.grid_points()) == _bits(_unique_grid(window))
    with pytest.raises(InfeasibleTruncation, match=r"^no feasible grid point inside the ball "
                       r"of radius 2\.0$"):
        window.require_grid()


# Axis values that stress the per-axis terms: both zeros, subnormals, values
# whose squares underflow or overflow, and ordinary ones.
_AXIS_VALUES = st.floats(-1e3, 1e3) | st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e-160, -1e-170, 1e155, -1e160, 1.7e308, -1.7e308)
)


@st.composite
def _fold_norms_and_axes(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from((1.0, 2.0, INF)))
    weights = draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    length = {1: 9, 2: 7, 3: 5, 4: 4, 5: 3}[n]
    axes = [np.array(draw(st.lists(_AXIS_VALUES, min_size=0, max_size=length)))
            for _ in range(n)]
    radius = draw(st.floats(1e-300, 1e300) | st.sampled_from((1.0, 1e154, 1.7e308)))
    return NormSpec(n, p, weights=weights), axes, radius


@given(_fold_norms_and_axes())
@settings(max_examples=400, deadline=None)
def test_the_mesh_form_of_a_norm_keeps_the_row_bits_hypothesis(case):
    """The per-axis fold makes the ufunc calls of norms_of_rows on the mesh
    rows, also continued from the fold of each tuple of leading columns
    over the trailing terms spread over their mesh (as mesh_blocks' l1 and
    l2 masks do), and mesh_blocks yields the rows in_ball keeps, as one
    block and in blocks of at most 1, 2 and 7 rows.  A bounded max-norm
    block is a view of a buffer that the next block overwrites, so each is
    copied as it is drawn."""
    spec, axes, radius = case
    n = len(axes)
    with np.errstate(over="ignore", under="ignore"):
        rows = mesh_rows(axes)
        norms = norms_of_rows(rows, spec)
        fold = spec.fold
        mesh = fold.mesh_norms(axes)
        assert mesh.shape == tuple(len(a) for a in axes)
        assert _nan_bits(mesh.ravel()) == _nan_bits(norms)
        lead = n // 2
        if lead:
            spread = spread_axes(fold.axis_terms(axes[lead:], lead))
            tails = []
            for acc in fold.mesh(axes[:lead]).ravel():
                for t in spread:
                    acc = fold.ufunc(acc, t)
                tails.append(fold.finished(acc))
            assert _nan_bits(np.concatenate([[]] + tails)) == _nan_bits(norms)
        members = rows[in_ball(rows, radius, spec)]
        for cap in (1, 2, 7, None):
            blocks = [b.rows().copy() for b in mesh_blocks(axes, radius, spec, cap)]
            assert cap is not None or len(blocks) <= 1
            assert all(len(b) <= (cap or len(rows)) for b in blocks)
            assert _bits(np.concatenate([np.empty((0, n))] + blocks)) == _bits(members)


@given(_fold_norms_and_axes())
@settings(max_examples=300, deadline=None)
def test_hull_blocks_yield_the_rows_in_ball_keeps_hypothesis(case):
    """With ``hull``, mesh_blocks yields the rows in_ball keeps, in order
    and bit for bit, in blocks of at most ``cap`` rows, each cut to its
    members' hull."""
    spec, axes, radius = case
    n = len(axes)
    with np.errstate(over="ignore", under="ignore"):
        rows = mesh_rows(axes)
        members = rows[in_ball(rows, radius, spec)]
        for cap in (1, 2, 7, 64):
            blocks = _assert_hull_blocks(mesh_blocks(axes, radius, spec, cap, hull=True), cap)
            assert _bits(np.concatenate([np.empty((0, n))] + blocks)) == _bits(members)


@pytest.mark.parametrize("p, cap", [(1.5, 4), (2.0, None)])
def test_hull_blocks_refuse_a_norm_without_a_fold_or_a_walk_without_a_cap(p, cap):
    axis = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="hull blocks need"):
        list(mesh_blocks([axis, axis], 1.0, NormSpec(2, p), cap, hull=True))


def _reduce_norms(X, spec: NormSpec) -> np.ndarray:
    """``norms_of_rows`` written with numpy's row reductions, for finite rows."""
    w = spec._weight_array
    if spec.p == 2.0:
        return np.sqrt(np.add.reduce(X * X if w is None else X * X * w, axis=1))
    A = np.abs(X)
    if spec.p is INF:
        return (A if w is None else A * w).max(axis=1)
    if spec.p == 1.0:
        return (A if w is None else A * w).sum(axis=1)
    m = A.max(axis=1)
    scaled = (A / np.where(m > 0.0, m, 1.0)[:, None]) ** spec.p
    if w is not None:
        scaled = scaled * w
    return np.where(m > 0.0, m * scaled.sum(axis=1) ** (1.0 / spec.p), 0.0)


@st.composite
def _general_norms_and_rows(draw):
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0, INF)))
    weights = draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    values = st.floats(-1e3, 1e3) | st.sampled_from((0.0, -0.0))
    k = draw(st.integers(1, 12))
    X = np.array(draw(st.lists(values, min_size=n * k, max_size=n * k))).reshape(k, n)
    return NormSpec(n, p, weights=weights), X


@given(_general_norms_and_rows())
@settings(max_examples=300, deadline=None)
def test_norms_of_finite_rows_keep_the_reduce_bits_hypothesis(case):
    spec, X = case
    assert _bits(norms_of_rows(X, spec)) == _bits(_reduce_norms(X, spec))


@pytest.mark.parametrize("p", [1.5, 3.0, 1.0, 2.0, INF])
@pytest.mark.parametrize("weights", [None, (2.0, 0.5, 1.0)])
def test_a_nan_entry_gives_nan_else_an_infinite_one_inf(p, weights):
    spec = NormSpec(3, p, weights=weights)
    nan, inf = np.nan, np.inf
    rows = [[nan, 1.0, 0.0], [inf, 1.0, 0.0], [nan, inf, 0.0], [0.0, -inf, 2.0],
            [0.0, -0.0, 0.0]]
    got = norms_of_rows(rows, spec)
    assert np.isnan(got[[0, 2]]).all()
    assert got[1] == got[3] == inf
    assert _bits(got[4]) == _bits(0.0)
    for row, value in zip(rows, got):
        assert _bits(norm(row, spec)) == _bits(value)


def _qr_faces(cone: ConeIntersection):
    """The QR factors the projection kept before its table: unit normals U,
    offsets c, then per candidate face S, padded to k = min(n, m)
    constraints, its indices, R^-T and R^-1 for A_S^T = Q R, Q, and a mask
    of the constraints on it, in the table's face order."""
    n, m = cone.dimension, len(cone.constraints)
    k = min(n, m)
    scale = np.array([np.sqrt(hs._normal_sq) for hs in cone.constraints])
    U = np.array([hs.normal for hs in cone.constraints]) / scale[:, None]
    c = np.array([hs.offset for hs in cone.constraints]) / scale
    faces = [()] + [
        S
        for j in range(1, k + 1)
        for S in itertools.combinations(range(m), j)
        if np.linalg.matrix_rank(U[list(S)]) == j
    ]
    index = np.zeros((len(faces), k), dtype=int)
    r_inv = np.zeros((len(faces), k, k))
    q = np.zeros((len(faces), n, k))
    on_face = np.zeros((len(faces), m), dtype=bool)
    for f, S in enumerate(faces[1:], start=1):
        j = len(S)
        Q, R = np.linalg.qr(U[list(S)].T)
        index[f, :j] = S
        r_inv[f, :j, :j] = np.linalg.inv(R)
        q[f, :, :j] = Q
        on_face[f, list(S)] = True
    return U, c, index, r_inv.transpose(0, 2, 1), r_inv, q, on_face


def _face_steps_reference(cone: ConeIntersection, X: np.ndarray):
    """The projection before its table, from :func:`_qr_faces`: each row's
    step onto its face, every face's KKT defect, and the bound a face's
    defect must meet, max(tol, least defect)."""
    U, c, index, r_inv_t, r_inv, q, on_face = _qr_faces(cone)
    r = c - (X[:, None, :] * U).sum(axis=2)
    w = (r_inv_t * r[:, index][:, :, None, :]).sum(axis=3)
    multipliers = (r_inv * w[:, :, None, :]).sum(axis=3)
    step = (q * w[:, :, None, :]).sum(axis=3)
    after = r[:, None, :] - (step[:, :, None, :] * U).sum(axis=3)
    defect = np.maximum(
        np.where(on_face, -np.inf, after).max(axis=2), (-multipliers).max(axis=2)
    )
    tol = PROJECTION_TOL * (1.0 + np.abs(X).max(axis=1) + np.abs(c).max())
    bound = np.maximum(tol, defect.min(axis=1))
    pick = (defect <= bound[:, None]).argmax(axis=1)
    return step[np.arange(len(X)), pick], defect, bound


def _table_reference(cone: ConeIntersection, X: np.ndarray):
    """``ConeIntersection._nearest`` on the same table from each half-space's
    own residuals, written with the ndarray methods ``sum``/``max``/``min``
    and with max |c| taken on every call: the bits the kernel keeps.  The
    sum runs over the leading axis from -0.0, so that it adds the terms in
    the kernel's order, and a sum of -0.0 terms stays -0.0 as in the
    kernel's fold (numpy's own sum starts at +0.0).  Also returns each
    row's face."""
    table, faces, _, corners, vertices = cone._faces
    n = cone.dimension
    c = [hs.offset / np.sqrt(hs._normal_sq) for hs in cone.constraints]
    g = np.stack([hs.violations_of_rows(X) for hs in cone.constraints])
    V = (g[:, None, :] * table).sum(axis=0, initial=-0.0)
    V = V.reshape(len(table[0]) // faces, faces, len(X)).transpose(2, 0, 1)
    defect = V[:, :-n].max(axis=1)
    tol = PROJECTION_TOL * (1.0 + np.abs(X).max(axis=1) + np.abs(c).max())
    best = defect.min(axis=1)
    pick = (defect <= np.maximum(tol, best)[:, None]).argmax(axis=1)
    points = X[:, :, None] + V[:, -n:]
    points[:, :, corners] = vertices
    return points[np.arange(len(X)), :, pick], best - tol, pick


def _signed_zero_cone(rng, n: int) -> ConeIntersection:
    """A cone through the origin in R^n of 1-4 half-spaces whose normals
    hold +0.0 and -0.0 entries and whose offsets are often +0.0 or -0.0,
    so that residuals tie at the two zeros."""
    ray = rng.normal(size=n)
    constraints = []
    for _ in range(int(rng.integers(1, 5))):
        a = rng.normal(size=n)
        a[rng.uniform(size=n) < 0.3] = 0.0
        if not a.any():
            a[0] = 1.0
        if a @ ray < 0.0:
            a = -a  # its zero entries become -0.0
        offset = (0.0, -0.0, -float(rng.uniform(0.0, 2.0)))[int(rng.integers(3))]
        constraints.append(HalfSpace(n, normal=tuple(a), offset=offset))
    return ConeIntersection(n, constraints=tuple(constraints), ray=tuple(ray))


def _rows_with_special_entries(rng, k: int, n: int) -> np.ndarray:
    """Rows of small integers (zeros of both signs among them) and normal
    draws, with about one entry in four NaN, +inf or -inf."""
    X = np.where(rng.uniform(size=(k, n)) < 0.5, rng.integers(-2, 3, (k, n)) * 1.0,
                 rng.normal(scale=3.0, size=(k, n)))
    X[rng.uniform(size=(k, n)) < 0.15] = -0.0
    special = rng.uniform(size=(k, n)) < 0.25
    X[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    return X


def test_cone_kernels_keep_their_bits():
    # The residual is one broadcast over the stacked constraints, and the
    # projection folds the columns of its table; both keep the bits of the
    # per-constraint maximum and of the reference, on rows with NaN,
    # infinite and signed-zero entries.  A NaN row stays NaN and moves no
    # other row of its batch.
    rng = np.random.default_rng(24)
    for trial in range(300):
        n = int(rng.integers(1, 5))
        cone = _signed_zero_cone(rng, n)
        X = _rows_with_special_entries(rng, int(rng.integers(1, 13)), n)
        if trial % 3 == 0:
            X = np.vstack((X, np.zeros((1, n)), np.full((1, n), -0.0)))
        nan = np.isnan(X).any(axis=1)
        with np.errstate(all="ignore"):  # inf * 0.0 and inf - inf
            each = np.stack([hs.violations_of_rows(X) for hs in cone.constraints])
            assert _nan_bits(cone.violations_of_rows(X)) == _nan_bits(each.max(axis=0))
            points, excess, _ = _table_reference(cone, X)
            got_points, got_excess = cone._nearest(X)
            projected = cone.project_rows(X)
            without_nan = cone.project_rows(X[~nan])
        assert _nan_bits(got_points) == _nan_bits(points)
        assert _nan_bits(got_excess) == _nan_bits(excess)
        assert _nan_bits(projected) == _nan_bits(points)
        assert np.isnan(projected[nan]).all()
        assert _nan_bits(without_nan) == _nan_bits(projected[~nan])


def test_cone_table_keeps_the_qr_steps_within_8_ulps():
    # On finite rows the table picks the QR kernel's face, but where a
    # face's defect lies within a few ulps of the bound, and lands within
    # 8 ulps of 1 + max|x| + max|c| of the QR kernel's point.
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for trial in range(300):
        n = int(rng.integers(1, 5))
        cone = _signed_zero_cone(rng, n)
        X = _rows_with_special_entries(rng, int(rng.integers(1, 13)), n)
        X = X[np.isfinite(X).all(axis=1)]
        step, defect, bound = _face_steps_reference(cone, X)
        points, _, pick = _table_reference(cone, X)
        c = [hs.offset / np.sqrt(hs._normal_sq) for hs in cone.constraints]
        scale = 1.0 + np.abs(X).max(axis=1, initial=0.0) + np.abs(c).max()
        old = (defect <= bound[:, None]).argmax(axis=1)
        rows = np.arange(len(X))
        tie = np.abs(defect[rows, np.minimum(old, pick)] - bound) <= 8 * eps * scale
        assert np.all((pick == old) | tie)
        same = pick == old
        err = np.abs(points - (X + step)).max(axis=1, initial=0.0)
        assert np.all(err[same] <= 8 * eps * scale[same])


def test_cone_projection_keeps_each_row_across_block_edges():
    # Three full blocks and part of a fourth of the (quantities, faces,
    # rows) layout, on 4 half-spaces in R^3: every row equals its one-row
    # projection.
    n, m = 3, 4
    rng = np.random.default_rng(7)
    constraints = tuple(
        HalfSpace(n, normal=tuple(a), offset=float(o))
        for a, o in zip(np.abs(rng.normal(size=(m, n))) + 0.1, rng.uniform(-1.0, 0.0, m))
    )
    cone = ConeIntersection(n, constraints=constraints, ray=(1.0,) * n)
    block = _BROADCAST_CAP // len(cone._faces[0][0])
    Z = rng.uniform(-5.0, 5.0, (3 * block + 7, n))
    P = cone.project_rows(Z)
    assert len(P) == len(Z) and block < len(Z) // 3
    for z, p in zip(Z, P):
        assert _bits(cone.project(z)) == _bits(p)


def test_a_vertex_is_its_own_projection():
    # The half-space step on the raw normal (1, 1) takes (-2, -2) onto the
    # apex exactly, and a face of n constraints returns its vertex.
    cone = ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(1.0, 0.0), offset=0.0),
            HalfSpace(2, normal=(1.0, 1.0), offset=0.0),
        ),
        ray=(1.0, 0.0),
    )
    for z in ([-2.0, -2.0], [-0.5, -0.5], [-2.0, 0.0], [-3.0, -1.0]):
        assert cone.project(z).tolist() == [0.0, 0.0]
    corner = ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(3.0, 1.0), offset=2.0),
            HalfSpace(2, normal=(-1.0, 2.0), offset=0.5),
        ),
        ray=(1.0, 1.0),
    )
    vertex = np.linalg.solve([[3.0, 1.0], [-1.0, 2.0]], [2.0, 0.5])
    assert _bits(corner.project([-5.0, -5.0])) == _bits(vertex)
    assert _bits(corner.project(vertex)) == _bits(vertex)


_GATE_LOWER = st.sampled_from((0.0, -0.0, 0.25, -1.5, 1e-300))
_GATE_STEP = st.sampled_from(
    (0.0, -0.0, 1.0, -1.0, MEMBERSHIP_TOL, -MEMBERSHIP_TOL, np.nextafter(-MEMBERSHIP_TOL, -1.0),
     -2 * MEMBERSHIP_TOL, np.nan, np.inf, -np.inf)
) | st.floats(-1e3, 1e3)


@st.composite
def _orthant_blocks(draw):
    n = draw(st.integers(1, 4))
    lower = draw(st.lists(_GATE_LOWER, min_size=n, max_size=n))
    k = draw(st.integers(0, 6))
    steps = np.array(draw(st.lists(_GATE_STEP, min_size=k * n, max_size=k * n)))
    return Orthant(n, lower=tuple(lower)), (np.array(lower) + steps.reshape(k, n))


def _refusal(call):
    try:
        call()
    except MembershipViolation as error:
        return str(error)
    return None


@given(_orthant_blocks())
@settings(max_examples=200, deadline=None)
def test_the_column_minimum_gate_decides_as_the_rows_do_hypothesis(case):
    """On an orthant ``require_rows`` tests a block by its column minima,
    since fl(lower_j - x) falls as x grows.  Its outcome and message equal
    those of ``require`` on each row in turn, for bounds of -0.0 and rows
    with NaN, inf, and residuals at, just above and far above
    ``MEMBERSHIP_TOL``; the residual test alone equals the row-wise one."""
    O, X = case
    with np.errstate(invalid="ignore"):
        rows_pass = bool((O.violations_of_rows(X) <= MEMBERSHIP_TOL).all())
        assert O._residuals_pass(X) == rows_pass

    def row_by_row():
        for i, x in enumerate(X, start=3):
            O.require(x, f"grid row {i}")

    assert _refusal(lambda: O.require_rows(X, "grid", 3)) == _refusal(row_by_row)


def test_the_column_minimum_gate_names_the_first_failing_row():
    # Residuals -0.0 - x_0: exactly MEMBERSHIP_TOL passes, one ulp more fails.
    O = Orthant(2, lower=(-0.0, 0.5))
    just_out = np.nextafter(-MEMBERSHIP_TOL, -1.0)
    X = np.array([[0.0, 0.5], [-MEMBERSHIP_TOL, 0.5], [just_out, 1.0], [np.nan, 1.0]])
    O.require_rows(X[:2], "y_grid", 0)
    with pytest.raises(MembershipViolation, match=r"^y_grid row 7 is outside"):
        O.require_rows(X, "y_grid", 5)
    with pytest.raises(MembershipViolation, match=r"^x_grid row 0 has a NaN"):
        O.require_rows(X[3:], "x_grid", 0)
