import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import row_batches
from tiltlab import (
    INF,
    AffineMap,
    BoundedPerturbedMap,
    ConeIntersection,
    ConstantMap,
    FullSpace,
    GrowthMethod,
    HalfSpace,
    MembershipViolation,
    NormSpec,
    Orthant,
    ProjectedMap,
    RangeViolation,
    analytic_fixed_point,
    evaluate,
    growth_coefficient,
    induced_operator_norm,
    norm,
    norms_of_rows,
)
from tiltlab.maps import evaluate_rows


def test_evaluate_examples():
    quarter = AffineMap(1, matrix=((0.25,),), offset=(0.0,))
    assert np.allclose(evaluate(quarter, [8.0], FullSpace(1)), [2.0])
    const = ConstantMap(2, value=(1.0, 1.0))
    assert np.allclose(evaluate(const, [3.0, -5.0], FullSpace(2)), [1.0, 1.0])
    aff = AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(1.0, 1.0))
    assert np.allclose(evaluate(aff, [0.0, 0.0], FullSpace(2)), [1.0, 1.0])


def test_evaluate_membership_and_range_errors():
    aff = AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(-1.0, -1.0))
    orthant = Orthant(2)
    with pytest.raises(MembershipViolation):
        evaluate(aff, [-1.0, 0.0], orthant)
    # feasible input, image leaves the orthant
    with pytest.raises(RangeViolation):
        evaluate(aff, [0.0, 0.0], orthant)


def test_nan_row_does_not_hide_a_range_violation():
    # Row 1 alone leaves the orthant; a NaN image in row 0 used to compare
    # false against the tolerance and let the batch through.
    aff = AffineMap(2, matrix=((0.5, 0.0), (0.0, 0.5)), offset=(-1.0, -1.0))
    X = np.array([[np.nan, 4.0], [0.0, 0.0]])
    with pytest.raises(RangeViolation) as caught:
        evaluate_rows(aff, X, Orthant(2))
    assert np.isnan(caught.value.violation)
    assert caught.value.point[1] == 4.0
    with pytest.raises(RangeViolation):
        evaluate_rows(aff, X[::-1], Orthant(2))


def test_projected_map_stays_feasible():
    inner = AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(-1.0, -1.0))
    proj = ProjectedMap(2, inner=inner)
    orthant = Orthant(2)
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = np.abs(rng.uniform(0, 5, 2))
        out = evaluate(proj, x, orthant)
        assert orthant.violation(out) <= 1e-12


def test_bounded_fields_are_bounded():
    from tiltlab import FIELD_CATALOG

    rng = np.random.default_rng(6)
    X = rng.uniform(-100, 100, (500, 3))
    for name, g in FIELD_CATALOG.items():
        vals = g(X)
        assert vals.shape == X.shape
        assert float(np.abs(vals).max()) <= 1.0 + 1e-15, name


def test_growth_examples():
    quarter = AffineMap(2, matrix=((0.25, 0.0), (0.0, 0.25)), offset=(0.0, 0.0))
    est = growth_coefficient(quarter, NormSpec(2, 2.0))
    assert est.method is GrowthMethod.ANALYTIC
    assert est.kappa_hat == pytest.approx(0.25, abs=1e-9)
    assert est.satisfied

    const = ConstantMap(2, value=(3.0, 4.0))
    for p in (1.0, 2.0, INF):
        est = growth_coefficient(const, NormSpec(2, p))
        assert est.kappa_hat == 0.0 and est.satisfied


def test_induced_norm_closed_forms():
    A = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert induced_operator_norm(A, NormSpec(2, 1.0)) == 4.0  # max column sum
    assert induced_operator_norm(A, NormSpec(2, INF)) == 3.5  # max row sum


def test_power_iteration_matches_svd_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A = rng.uniform(-2, 2, (n, n))
        mine = induced_operator_norm(A, NormSpec(n, 2.0))
        oracle = float(np.linalg.svd(A, compute_uv=False)[0])
        assert mine == pytest.approx(oracle, rel=1e-8, abs=1e-12)


def test_analytic_l2_kappa_does_not_underestimate_near_tied_singular_values():
    # Power iteration converges slowly when the top two singular values
    # nearly tie and stopped near 1 - 2e-8 here; an analytic kappa must be
    # an upper bound.
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    A = R @ np.diag([1.0, 1.0 - 1e-7]) @ R.T
    growth = growth_coefficient(
        AffineMap(2, matrix=tuple(map(tuple, A)), offset=(0.0, 0.0)), NormSpec(2, 2.0)
    )
    assert growth.method is GrowthMethod.ANALYTIC
    assert growth.kappa_hat >= 1.0 - 1e-12


def test_induced_norms_dominate_sampled_ratios():
    rng = np.random.default_rng(23)
    for p in (1.0, 2.0, INF):
        spec = NormSpec(3, p)
        A = rng.uniform(-1, 1, (3, 3))
        bound = induced_operator_norm(A, spec)
        for _ in range(200):
            v = rng.uniform(-1, 1, 3)
            nv = norm(v, spec)
            if nv > 0:
                assert norm(A @ v, spec) <= bound * nv + 1e-9


def test_bounded_perturbation_growth_derived():
    # Oracle: direct shell sampling of ||f(x)||/||x|| at radius 1e4 computed
    # from the raw formula, independent of the estimator implementation.
    rho = 1.0
    A = 0.4 * np.eye(2)
    spec = NormSpec(2, 2.0)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(256):
        u = rng.standard_normal(2)
        x = 1e4 * u / np.sqrt(u @ u)
        fx = A @ x + rho * np.sin(np.roll(x, -1))
        worst = max(worst, np.sqrt(fx @ fx) / np.sqrt(x @ x))
    assert abs(worst - 0.4) <= 1e-2

    mapped = BoundedPerturbedMap(
        2, matrix=((0.4, 0.0), (0.0, 0.4)), offset=(0.0, 0.0), field="sine", amplitude=rho
    )
    est = growth_coefficient(mapped, spec, radii=(100.0, 1000.0, 10000.0), seed=9)
    assert est.method is GrowthMethod.SAMPLED
    assert abs(est.kappa_hat - 0.4) <= 1e-2
    assert est.satisfied


def test_sampled_ratio_never_exceeds_analytic_kappa_plus_offset():
    rng = np.random.default_rng(31)
    spec = NormSpec(2, 2.0)
    for _ in range(20):
        A = rng.uniform(-0.4, 0.4, (2, 2))
        b = rng.uniform(-1, 1, 2)
        mapping = AffineMap(2, matrix=tuple(map(tuple, A)), offset=tuple(b))
        kappa = induced_operator_norm(A, spec)
        for _ in range(50):
            u = rng.standard_normal(2)
            x = 1e4 * u / np.sqrt(u @ u)
            ratio = norm(A @ x + b, spec) / norm(x, spec)
            assert ratio <= kappa + 1e-6 + norm(b, spec) / 1e4


def test_growth_weighted_norm_falls_back_to_sampling():
    aff = AffineMap(2, matrix=((0.25, 0.0), (0.0, 0.3)), offset=(0.5, 0.25))
    spec = NormSpec(2, 2.0, weights=(1.0, 2.0))
    est = growth_coefficient(aff, spec, seed=3)
    assert est.method is GrowthMethod.SAMPLED
    # the diagonal map scales each axis by at most 0.3 in any weighted norm
    assert est.kappa_hat <= 0.3 + 1e-3
    assert est.satisfied


def _growth_per_shell(map_spec, norm_spec, radii, per_radius, seed, domain):
    """The sampled growth estimate drawn, projected, measured and mapped one
    shell at a time: (kappa_hat, offset_bound, shells skipped), the first
    two None when every shell's samples collapse."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6702]))
    shells, skipped = [], 0
    for radius in radii:
        dirs = rng.standard_normal((per_radius, map_spec.dimension))
        lengths = norms_of_rows(dirs, norm_spec)
        keep = lengths > 0.0
        pts = domain.project_rows(radius * dirs[keep] / lengths[keep][:, None])
        sizes = norms_of_rows(pts, norm_spec)
        live = sizes > 1e-9 * radius
        if not live.any():
            skipped += 1
            continue
        pts, sizes = pts[live], sizes[live]
        values = norms_of_rows(map_spec.raw_rows(pts, domain), norm_spec)
        shells.append((sizes, values))
    if not shells:
        return None, None, skipped
    sizes, values = shells[-1]
    kappa_hat = float((values / sizes).max())
    offset_bound = max(float((v - kappa_hat * s).max()) for s, v in shells)
    return kappa_hat, max(offset_bound, 0.0), skipped


def test_sampled_growth_matches_a_per_shell_reference_loop():
    # All shells in one pass give each estimate the bits of one shell at a
    # time, on full space, orthants, half-spaces and cones, with shells
    # whose samples all project onto the apex skipped as before.
    rng = np.random.default_rng(2718)
    events = collections.Counter()
    for case in range(160):
        n = int(rng.integers(1, 4))
        spec = NormSpec(n, float(rng.choice([1.25, 1.5, 2.5, 3.0, 5.0])))
        e0 = (1.0,) + (0.0,) * (n - 1)
        domain = (
            FullSpace(n),
            Orthant(n),
            HalfSpace(n, normal=tuple(rng.uniform(-1.0, 1.0, n)), offset=0.0),
            ConeIntersection(n, constraints=(
                HalfSpace(n, normal=e0, offset=0.0), HalfSpace(n, normal=(1.0,) * n, offset=0.0),
            ), ray=(1.0,) * n),
        )[case % 4]
        matrix = tuple(map(tuple, rng.uniform(-0.5, 0.5, (n, n))))
        offset = tuple(rng.uniform(-1.0, 1.0, n))
        mapping = (
            AffineMap(n, matrix=matrix, offset=offset),
            BoundedPerturbedMap(n, matrix=matrix, offset=offset, field="tanh", amplitude=2.0),
            ProjectedMap(n, inner=AffineMap(n, matrix=matrix, offset=offset)),
        )[int(rng.integers(3))]
        per_radius = int(rng.choice([1, 1, 2, 16]))
        radii = tuple(np.cumsum(rng.uniform(100.0, 3000.0, int(rng.integers(1, 4)))))
        seed = int(rng.integers(2**31))
        kappa, bound, skipped = _growth_per_shell(mapping, spec, radii, per_radius, seed, domain)
        if kappa is None:
            with pytest.raises(ValueError, match="no feasible shell samples"):
                growth_coefficient(mapping, spec, radii, per_radius, seed, domain)
            events["raised"] += 1
            continue
        est = growth_coefficient(mapping, spec, radii, per_radius, seed, domain)
        assert est.method is GrowthMethod.SAMPLED
        assert np.float64(est.kappa_hat).tobytes() == np.float64(kappa).tobytes(), case
        assert np.float64(est.offset_bound).tobytes() == np.float64(bound).tobytes(), case
        events["skipped"] += skipped > 0
        events["one_direction"] += per_radius == 1
    assert events["skipped"] >= 5 and events["raised"] >= 2, events
    assert events["one_direction"] >= 20, events


def test_growth_validation():
    quarter = AffineMap(1, matrix=((0.25,),), offset=(0.0,))
    with pytest.raises(ValueError):
        growth_coefficient(quarter, NormSpec(1, 2.0), radii=())
    with pytest.raises(ValueError):
        growth_coefficient(quarter, NormSpec(1, 2.0), radii=(10.0, 5.0))
    bounded = BoundedPerturbedMap(
        1, matrix=((0.4,),), offset=(0.0,), field="tanh", amplitude=1.0
    )
    with pytest.raises(ValueError, match=">= 100"):
        growth_coefficient(bounded, NormSpec(1, 2.0), radii=(1.0, 10.0))


@pytest.mark.parametrize("count", [2.5, 0, -4, True])
def test_growth_refuses_a_direction_count_that_is_not_an_integer(count):
    # 2.5 used to be truncated to 2, and 0 failed with "the window misses the set".
    bounded = BoundedPerturbedMap(
        1, matrix=((0.4,),), offset=(0.0,), field="tanh", amplitude=1.0
    )
    with pytest.raises(ValueError, match="directions_per_radius must be an integer >= 1"):
        growth_coefficient(bounded, NormSpec(1, 2.0), directions_per_radius=count)


def test_analytic_fixed_point_examples():
    quarter = AffineMap(1, matrix=((0.25,),), offset=(0.0,))
    assert np.allclose(analytic_fixed_point(quarter), [0.0])

    aff = AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(1.0, 1.0))
    got = analytic_fixed_point(aff)
    # independent 2x2 oracle: explicit inverse of I - A
    M = np.array([[0.7, 0.0], [0.0, 0.8]])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    oracle = inv @ np.array([1.0, 1.0])
    assert np.allclose(got, oracle, atol=1e-12)
    assert np.allclose(got, [1.4285714285714286, 1.25], atol=1e-12)

    const = ConstantMap(2, value=(1.0, 1.0))
    assert np.allclose(analytic_fixed_point(const), [1.0, 1.0])


def test_analytic_fixed_point_singular_and_absent():
    ident = AffineMap(1, matrix=((1.0,),), offset=(1.0,))
    assert analytic_fixed_point(ident) is None
    bounded = BoundedPerturbedMap(
        1, matrix=((0.4,),), offset=(0.0,), field="sine", amplitude=0.5
    )
    assert analytic_fixed_point(bounded) is None
    proj = ProjectedMap(1, inner=AffineMap(1, matrix=((0.25,),), offset=(0.0,)))
    assert analytic_fixed_point(proj) is None


def test_fixed_point_residual_invariant():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        A = rng.uniform(-0.45, 0.45, (n, n)) / max(n - 1, 1)
        b = rng.uniform(-2, 2, n)
        mapping = AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(b))
        x_hat = analytic_fixed_point(mapping)
        if x_hat is None:
            continue
        fx = evaluate(mapping, x_hat, FullSpace(n))
        assert norm(x_hat - fx, NormSpec(n, 2.0)) <= 1e-10


@st.composite
def _maps_and_rows(draw):
    n = draw(st.integers(1, 8))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)
    matrix = tuple(map(tuple, np.array(draw(entries)).reshape(n, n)))
    offset = tuple(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("affine", "projected", "sine", "tanh", "gauss")))
    domain = FullSpace(n)
    if kind == "affine":
        mapping = AffineMap(n, matrix=matrix, offset=offset)
    elif kind == "projected":
        domain = Orthant(n)
        mapping = ProjectedMap(n, inner=AffineMap(n, matrix=matrix, offset=offset))
    else:
        mapping = BoundedPerturbedMap(
            n, matrix=matrix, offset=offset, field=kind,
            amplitude=draw(st.floats(0.0, 3.0)),
        )
    return mapping, domain, draw(row_batches(n))


@given(_maps_and_rows())
@settings(max_examples=300, deadline=None)
def test_raw_rows_batch_independent_hypothesis(case):
    # Row i of a batch equals the one-row call bit for bit, so a point's f,
    # and so its J and Phi, does not depend on the other rows of its batch.
    mapping, domain, X = case
    batch = mapping.raw_rows(X, domain)
    for i in range(len(X)):
        one = mapping.raw_rows(X[i : i + 1], domain)[0]
        assert batch[i].tobytes() == one.tobytes()
