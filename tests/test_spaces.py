import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import (
    INF,
    ConeIntersection,
    DimensionMismatch,
    FullSpace,
    HalfSpace,
    NormSpec,
    Orthant,
    SampleDomain,
    contains,
    norm,
    norms_of_rows,
    project,
)
from tiltlab.spaces import PROJECTION_CAP, PROJECTION_TOL

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


def test_cone_cyclic_projection_cap():
    from tiltlab import ProjectionDidNotConverge

    # nearly parallel half-spaces make the cyclic projection crawl; the
    # iteration cap must fire and hand back the last iterate
    thin = ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(0.0, 1.0), offset=0.0),
            HalfSpace(2, normal=(1e-8, -1.0), offset=0.0),
        ),
        ray=(1.0, 0.0),
        base=(0.0, 0.0),
    )
    with pytest.raises(ProjectionDidNotConverge) as err:
        thin.project(np.array([-1e8, 1e8]))
    assert err.value.last_iterate is not None
    assert err.value.last_iterate.shape == (2,)


def test_cone_requires_valid_ray():
    box = (
        HalfSpace(1, normal=(1.0,), offset=0.0),
        HalfSpace(1, normal=(-1.0,), offset=-1.0),
    )
    with pytest.raises(ValueError, match="unbounded"):
        ConeIntersection(1, constraints=box, ray=(1.0,))
    with pytest.raises(ValueError, match="unbounded"):
        ConeIntersection(1, constraints=box[:1], ray=(0.0,))


def test_project_rows_matches_scalar():
    rng = np.random.default_rng(21)
    Z = rng.uniform(-10, 10, (64, 2))
    for set_ in SETS:
        rows = set_.project_rows(Z)
        for i in range(len(Z)):
            assert np.allclose(rows[i], project(set_, Z[i]), atol=1e-12)


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
def _row_batches(draw, n):
    k = draw(st.integers(1, 12))
    flat = draw(st.lists(st.floats(-1e3, 1e3), min_size=n * k, max_size=n * k))
    return np.array(flat).reshape(k, n)


@st.composite
def _norms_and_rows(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from((1.0, 2.0, 3.0, INF)))
    weights = draw(
        st.none() | st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)
    )
    return NormSpec(n, p, weights=weights), draw(_row_batches(n))


@given(_norms_and_rows())
@settings(max_examples=300, deadline=None)
def test_norms_of_rows_batch_independent_hypothesis(case):
    spec, X = case
    _assert_batch_independent(lambda Y: norms_of_rows(Y, spec), X)


@st.composite
def _sets_and_rows(draw):
    n = draw(st.integers(1, 3))
    variant = draw(st.sampled_from(("full_space", "orthant", "half_space", "cone")))
    offsets = st.floats(-5.0, 5.0)
    if variant == "full_space":
        set_ = FullSpace(n)
    elif variant == "orthant":
        set_ = Orthant(n, lower=tuple(draw(st.lists(offsets, min_size=n, max_size=n))))
    elif variant == "half_space":
        normals = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
        normal = draw(normals.filter(lambda a: np.dot(a, a) > 1e-6))
        set_ = HalfSpace(n, normal=tuple(normal), offset=draw(offsets))
    else:
        # Scaled sign vectors as normals keep cyclic projection quick, since
        # distinct ones meet at angles bounded away from zero, and the scale
        # makes their products round; offsets <= 0 keep the origin inside.
        signs = st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=n, max_size=n)
        ray = np.array(draw(signs.filter(any)))
        constraints = []
        for _ in range(draw(st.integers(1, 3))):
            a = draw(st.floats(0.1, 3.0)) * np.array(draw(signs.filter(any)))
            if a @ ray < 0.0:
                a = -a
            offset = draw(st.floats(-5.0, 0.0))
            constraints.append(HalfSpace(n, normal=tuple(a), offset=offset))
        set_ = ConeIntersection(n, constraints=tuple(constraints), ray=tuple(ray))
    return set_, draw(_row_batches(n))


@given(_sets_and_rows())
@settings(max_examples=300, deadline=None)
def test_set_kernels_batch_independent_hypothesis(case):
    set_, X = case
    _assert_batch_independent(set_.violations_of_rows, X)
    _assert_batch_independent(set_.project_rows, X)


def _cyclic_reference(cone: ConeIntersection, z: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-row cyclic projection on one-row half-space kernels, with the
    number of cycles it took."""
    x = z.copy()
    for cycles in range(PROJECTION_CAP):
        worst = max(hs.violations_of_rows(x[None, :])[0] for hs in cone.constraints)
        if worst <= PROJECTION_TOL:
            return x, cycles
        for hs in cone.constraints:
            x = hs.project_rows(x[None, :])[0]
    raise AssertionError("reference projection hit the cap")


def test_cone_project_rows_matches_per_row_cyclic_loop_bitwise():
    rng = np.random.default_rng(41)
    cycle_counts = []
    for _ in range(60):
        n = int(rng.integers(2, 4))
        ray = rng.uniform(-1.0, 1.0, n)
        constraints = []
        for _ in range(int(rng.integers(2, 5))):
            a = rng.integers(-2, 3, n).astype(float)
            if not a.any():
                a[0] = 1.0
            if a @ ray < 0.0:
                a = -a
            constraints.append(HalfSpace(n, normal=tuple(a), offset=rng.uniform(-2.0, 2.0)))
        cone = ConeIntersection(n, constraints=tuple(constraints), ray=tuple(ray))
        Z = rng.uniform(-10.0, 10.0, (12, n))
        feasible = np.array([_cyclic_reference(cone, z)[0] for z in Z[:4]])
        for batch in (Z, feasible, np.vstack([Z[4:], feasible])):
            expect = [_cyclic_reference(cone, z) for z in batch]
            cycle_counts.extend(c for _, c in expect)
            got = cone.project_rows(batch)
            assert _bits(got) == _bits(np.array([x for x, _ in expect]))
    cycle_counts = np.array(cycle_counts)
    assert (cycle_counts == 0).sum() >= 100
    assert (cycle_counts == 1).sum() >= 100
    assert (cycle_counts >= 3).sum() >= 20
