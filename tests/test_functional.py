import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import affine_instance, feasible_cloud, instance_growth, row_batches

from tiltlab import (
    INF,
    AffineMap,
    BoundedPerturbedMap,
    ConeIntersection,
    ConstantMap,
    FullSpace,
    GrowthConditionNotMet,
    HalfSpace,
    MembershipViolation,
    NormSpec,
    Orthant,
    ProjectedMap,
    RangeViolation,
    TiltedFunctional,
    coercivity_radius,
    displacement,
    evaluate,
    norm,
    norms_of_rows,
    tilted_value,
)
from tiltlab.experiments import effective_growth_bound
from tiltlab.functional import mesh_displacements, tilted_rows
from tiltlab.maps import affine_parts
from tiltlab.spaces import mesh_blocks


def quarter_map():
    return TiltedFunctional(
        norm=NormSpec(1, 2.0),
        domain=FullSpace(1),
        mapping=AffineMap(1, matrix=((0.25,),), offset=(0.0,)),
    )


def test_tilted_value_examples():
    F = quarter_map()
    assert tilted_value(F, [0.0], [4.0]) == -4.0
    assert tilted_value(F, [4.0], [0.0]) == 2.0
    assert tilted_value(F, [1.3], [1.3]) == 0.0


def test_displacement_examples():
    F = quarter_map()
    assert displacement(F, [4.0]) == 3.0
    c = ConstantMap(2, value=(1.0, 2.0))
    Fc = TiltedFunctional(NormSpec(2, 2.0), FullSpace(2), c)
    assert displacement(Fc, [1.0, 2.0]) == 0.0
    aff = AffineMap(2, matrix=((0.3, 0.0), (0.0, 0.2)), offset=(1.0, 1.0))
    F1 = TiltedFunctional(NormSpec(2, 1.0), FullSpace(2), aff)
    assert displacement(F1, [0.0, 0.0]) == 2.0


def test_membership_preconditions():
    F = TiltedFunctional(
        NormSpec(1, 2.0), Orthant(1), AffineMap(1, matrix=((0.25,),), offset=(1.0,))
    )
    with pytest.raises(MembershipViolation):
        tilted_value(F, [-1.0], [0.0])
    with pytest.raises(MembershipViolation):
        tilted_value(F, [0.0], [-1.0])
    with pytest.raises(MembershipViolation):
        displacement(F, [-1.0])


def test_coercivity_radius_examples():
    F = quarter_map()
    assert coercivity_radius(F, [4.0], 0.25, 0.0, -4.0, 1.0) == 2.0
    # derived check: J(x, 4) >= 0.5|x| - 4 > -4 for |x| >= 2
    for x in np.linspace(2.0, 50.0, 481):
        for s in (-1.0, 1.0):
            assert tilted_value(F, [s * x], [4.0]) > -4.0
    Fc = TiltedFunctional(
        NormSpec(1, 2.0), FullSpace(1), ConstantMap(1, value=(0.5,))
    )
    assert coercivity_radius(Fc, [1.0], 0.0, 0.0, 0.0, 1.0) == 2.0
    assert coercivity_radius(F, [1.0], 0.4, 0.0, 0.5, 0.1) == pytest.approx(8.0)


def test_coercivity_radius_validation():
    F = quarter_map()
    with pytest.raises(GrowthConditionNotMet):
        coercivity_radius(F, [1.0], 0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        coercivity_radius(F, [1.0], 0.25, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        coercivity_radius(F, [1.0], 0.25, -1.0, 0.0, 1.0)
    # A NaN incumbent or probe entry used to give radius 0.0, a NaN r0 a NaN
    # radius and an infinite margin an infinite one.
    nan, inf = float("nan"), float("inf")
    for args, what in (
        (([1.0], 0.25, 0.0, nan, 1.0), "best_known_value"),
        (([1.0], 0.25, 0.0, inf, 1.0), "best_known_value"),
        (([nan], 0.25, 0.0, 0.0, 1.0), "y"),
        (([-inf], 0.25, 0.0, 0.0, 1.0), "y"),
        (([1.0], 0.25, nan, 0.0, 1.0), "r0"),
        (([1.0], 0.25, inf, 0.0, 1.0), "r0"),
        (([1.0], 0.25, 0.0, 0.0, inf), "margin"),
        (([1.0], 0.25, 0.0, 0.0, nan), "margin"),
    ):
        with pytest.raises(ValueError, match=what):
            coercivity_radius(F, *args)


INSTANCES = [affine_instance(i) for i in range(8)]


@pytest.mark.parametrize("index", range(8))
def test_zero_diagonal_exact(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 125, seed=index)
    for x in pts:
        assert tilted_value(F, x, x) == 0.0


@pytest.mark.parametrize("index", range(8))
def test_two_sided_bound(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 250, seed=100 + index)
    half = len(pts) // 2
    for x, y in zip(pts[:half], pts[half : 2 * half]):
        assert abs(tilted_value(F, x, y)) <= norm(x - y, F.norm) + 1e-12


@pytest.mark.parametrize("index", range(8))
def test_midpoint_concavity_in_y(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 375, seed=200 + index)
    third = len(pts) // 3
    xs, y1s, y2s = pts[:third], pts[third : 2 * third], pts[2 * third : 3 * third]
    for x, y1, y2 in zip(xs, y1s, y2s):
        mid = 0.5 * (y1 + y2)
        assert F.domain.violation(mid) <= 1e-9
        left = tilted_value(F, x, mid)
        right = 0.5 * (tilted_value(F, x, y1) + tilted_value(F, x, y2))
        assert left >= right - 1e-12


@pytest.mark.parametrize("index", range(8))
def test_sup_identity(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 40, seed=300 + index)
    ys = feasible_cloud(F, 6.0, 400, seed=301 + index)
    for x in pts[:20]:
        phi = displacement(F, x)
        assert float(F.pairs(x[None, :], ys).max()) <= phi + 1e-12
        from tiltlab import evaluate

        fx = evaluate(F.mapping, x, F.domain)
        if F.domain.violation(fx) <= 1e-9:
            assert tilted_value(F, x, fx) == phi


@pytest.mark.parametrize("index", range(8))
def test_displacement_nonnegative_zero_iff_fixed(index):
    F = INSTANCES[index]
    pts = feasible_cloud(F, 6.0, 200, seed=400 + index)
    vals = F.displacements(pts)
    assert np.all(vals >= 0.0)
    from tiltlab import analytic_fixed_point

    x_hat = analytic_fixed_point(F.mapping)
    if x_hat is not None and F.domain.violation(x_hat) <= 1e-9:
        assert displacement(F, x_hat) <= 1e-12


@pytest.mark.parametrize("index", range(8))
def test_coercivity_certificate_on_sphere(index):
    F = INSTANCES[index]
    growth = instance_growth(F)
    kappa_eff, r0 = effective_growth_bound(growth)
    rng = np.random.default_rng(500 + index)
    y = feasible_cloud(F, 3.0, 1, seed=500 + index)[0]
    best_known = min(
        0.0, float(F.pairs(feasible_cloud(F, 4.0, 32, seed=501 + index), y[None, :]).min())
    )
    radius = max(coercivity_radius(F, y, kappa_eff, r0, best_known, 1.0), 1.0)
    checked = 0
    for _ in range(600):
        u = rng.standard_normal(F.dimension)
        size = norm(u, F.norm)
        if size == 0.0:
            continue
        x = radius * u / size
        if F.domain.violation(x) <= 1e-12:
            assert tilted_value(F, x, y) > best_known
            checked += 1
        if checked >= 100:
            break
    assert checked >= 30


def test_pairs_batches_match_one_point_values():
    F = INSTANCES[0]
    pts = feasible_cloud(F, 5.0, 50, seed=900)
    x = pts[0][None, :]
    rows = F.pairs(x, pts)
    cols = F.pairs(pts, x)
    for i in range(len(pts)):
        assert rows[i] == pytest.approx(tilted_value(F, x[0], pts[i]), abs=1e-12)
        assert cols[i] == pytest.approx(tilted_value(F, pts[i], x[0]), abs=1e-12)
        fast = F.pairs(pts[i][None, :], x)[0]
        assert fast == pytest.approx(cols[i], abs=1e-12)
    diag = [abs(F.pairs(p[None, :], p[None, :])[0]) for p in pts[:25]]
    assert max(diag) <= 1e-12


def test_effective_growth_bound_certifies_ratio():
    rng = np.random.default_rng(77)
    for index in range(6):
        F = INSTANCES[index]
        growth = instance_growth(F)
        kappa_eff, r0 = effective_growth_bound(growth)
        assert kappa_eff < 0.5
        for _ in range(100):
            u = rng.standard_normal(F.dimension)
            size = norm(u, F.norm)
            if size == 0.0:
                continue
            radius = float(rng.uniform(max(r0, 1e-6), 4 * max(r0, 1.0)))
            if radius < r0:
                continue
            x = radius * u / size
            if F.domain.violation(x) > 1e-12:
                continue
            fx = F.mapping.raw_rows(x[None, :], F.domain)[0]
            assert norm(fx, F.norm) <= kappa_eff * norm(x, F.norm) + 1e-9


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def _self_map_instances():
    """One functional per (set variant, map family, norm) whose map sends
    the set into itself: raw families on the full space, a nonnegative
    affine map on the orthant, constant and projected maps everywhere."""
    rng = np.random.default_rng(314)
    A = rng.uniform(-0.4, 0.4, (2, 2))
    b = rng.uniform(-1.0, 1.0, 2)
    affine = AffineMap(2, matrix=tuple(map(tuple, A)), offset=tuple(b))
    bounded = BoundedPerturbedMap(
        2, matrix=tuple(map(tuple, A)), offset=tuple(b), field="sine", amplitude=0.3
    )
    cone = ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(1.0, 0.0), offset=-0.5),
            HalfSpace(2, normal=(1.0, 1.0), offset=0.0),
        ),
        ray=(1.0, 0.0),
    )
    sets = (FullSpace(2), Orthant(2), HalfSpace(2, normal=(1.0, 2.0), offset=-1.0), cone)
    for domain in sets:
        maps = [
            ConstantMap(2, value=tuple(domain.project(b))),
            ProjectedMap(2, inner=affine),
            ProjectedMap(2, inner=bounded),
        ]
        if isinstance(domain, FullSpace):
            maps += [affine, bounded]
        if isinstance(domain, Orthant):
            maps.append(AffineMap(2, matrix=tuple(map(tuple, abs(A))), offset=tuple(abs(b))))
        for mapping in maps:
            for p in (1.0, 3.0, INF):
                yield TiltedFunctional(NormSpec(2, p), domain, mapping)


def test_scalar_evaluations_are_rows_of_the_kernels():
    # J and Phi at one point equal the rows of the batched kernels bit for
    # bit, so a value never depends on how it was asked for.
    checked = 0
    for seed, F in enumerate(_self_map_instances()):
        X = feasible_cloud(F, 4.0, 12, seed=1000 + seed)
        y = X[0]
        row = F.pairs(y[None, :], X)
        column = F.pairs(X, y[None, :])
        phi = F.displacements(X)
        disp = F.displacement_objective()
        for i, x in enumerate(X):
            assert _bits(tilted_value(F, y, x)) == _bits(row[i])
            assert _bits(tilted_value(F, x, y)) == _bits(column[i])
            assert _bits(displacement(F, x)) == _bits(phi[i])
            assert _bits(disp(x)) == _bits(phi[i])
            checked += 1
    assert checked >= 400


def test_kernels_raise_range_violation_with_the_worst_row():
    aff = AffineMap(2, matrix=((0.5, 0.0), (0.0, 0.5)), offset=(-1.0, -1.0))
    F = TiltedFunctional(NormSpec(2, 2.0), Orthant(2), aff)
    # images (1, 1), (-0.5, 0.5), (-1, -1), (0.5, -0.5): the third is worst
    X = np.array([[4.0, 4.0], [1.0, 3.0], [0.0, 0.0], [3.0, 1.0]])
    calls = (
        lambda: F.pairs(X, X[:1]),
        lambda: F.displacements(X),
        lambda: F.pairs(X[2:3], X),
        lambda: evaluate(aff, X[2], F.domain),
    )
    for call in calls:
        with pytest.raises(RangeViolation) as caught:
            call()
        assert list(caught.value.point) == [0.0, 0.0]
        assert list(caught.value.value) == [-1.0, -1.0]
        assert caught.value.violation == 1.0
    assert F.pairs(X[:1], X[:1]).tolist() == [0.0]


@st.composite
def _functionals_and_rows(draw):
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from((1.0, 2.0, 3.0, INF)))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)
    matrix = tuple(map(tuple, np.array(draw(entries)).reshape(n, n)))
    offset = tuple(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("affine", "projected", "sine")))
    if kind == "affine":
        domain, mapping = FullSpace(n), AffineMap(n, matrix=matrix, offset=offset)
    elif kind == "projected":
        inner = AffineMap(n, matrix=matrix, offset=offset)
        domain, mapping = Orthant(n), ProjectedMap(n, inner=inner)
    else:
        domain = FullSpace(n)
        mapping = BoundedPerturbedMap(
            n, matrix=matrix, offset=offset, field="sine", amplitude=draw(st.floats(0.0, 3.0))
        )
    return TiltedFunctional(NormSpec(n, p), domain, mapping), draw(row_batches(n))


@given(_functionals_and_rows())
@settings(max_examples=100, deadline=None)
def test_pairs_rows_have_the_same_bits_in_any_batch_hypothesis(case):
    # A pair's J, and a row's envelope and maximiser, are the same
    # full-batch and alone, and J also with either side
    # broadcast as one row.
    F, X = case
    Y = np.roll(X, 1, axis=0)
    full = F.pairs(X, Y)
    phi, FX = F.row_sup(X)
    for i in range(len(X)):
        x, y = X[i : i + 1], Y[i : i + 1]
        want = _bits(full[i])
        assert _bits(F.pairs(x, y)[0]) == want
        assert _bits(F.pairs(x, Y)[i]) == want
        assert _bits(F.pairs(X, y)[i]) == want
        one_phi, one_fx = F.row_sup(x)
        assert _bits(one_phi[0]) == _bits(phi[i])
        assert _bits(one_fx[0]) == _bits(FX[i])


@st.composite
def _tilted_rows_cases(draw):
    """(X, Y, FX, norm): X and FX of k rows, Y of k rows or one, or X and FX
    of one row against k rows of Y; entries with NaN, +-inf and +-0.0."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0, INF)))
    weights = draw(st.none() | st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    entry = st.floats(-1e3, 1e3) | st.sampled_from((np.nan, np.inf, -np.inf, 0.0, -0.0))

    def rows(m):
        return np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)

    k = draw(st.integers(1, 9))
    sides = draw(st.sampled_from(("full", "one_y", "one_x")))
    x_rows = 1 if sides == "one_x" else k
    X, FX = rows(x_rows), rows(x_rows)
    Y = rows(1 if sides == "one_y" else k)
    return X, Y, FX, NormSpec(n, p, None if weights is None else tuple(weights))


@given(_tilted_rows_cases())
@example((np.zeros((1, 4)), np.array([[-np.inf, 0.0, 0.0, np.nan]]),
          np.array([[-np.inf, 0.0, 0.0, 0.0]]), NormSpec(4, 2.0)))
@settings(max_examples=300, deadline=None)
def test_tilted_rows_one_norm_pass_keeps_the_two_call_bits_hypothesis(case):
    # The one-pass form norms X - FX and Y - FX in one batch; each value
    # keeps the bits of the two-call form, NaN payloads and zero signs too.
    X, Y, FX, spec = case
    with np.errstate(all="ignore"):
        want = norms_of_rows(X - FX, spec) - norms_of_rows(Y - FX, spec)
        got = tilted_rows(X, Y, FX, spec)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(_functionals_and_rows())
@settings(max_examples=150, deadline=None)
def test_pairs_vanish_on_the_diagonal_hypothesis(case):
    F, X = case
    assert np.all(F.pairs(X, X) == 0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_phi_where_an_affine_map_overflows_is_inf_under_every_p(p):
    # f(x) overflows to inf in its first coordinate; a general-p norm used to
    # read the row as inf / inf = NaN, where p in {1, 2, inf} read inf.
    F = TiltedFunctional(
        norm=NormSpec(2, p),
        domain=FullSpace(2),
        mapping=AffineMap(2, matrix=((1e300, 0.0), (0.0, 0.5)), offset=(0.0, 0.0)),
    )
    with np.errstate(over="ignore"):
        assert F.displacements(np.array([[1e10, 1.0]]))[0] == np.inf


@st.composite
def _mesh_phi_cases(draw):
    """An affine or constant J on full space or on an orthant with a nonzero
    lower bound, under p in {1, 2, inf}, weighted or not, and the axes of a
    small oracle grid: each keeps the values of the set, as the oracle's do."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from((1.0, 2.0, INF)))
    weights = draw(st.none() | st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    orthant = draw(st.booleans())
    lower = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    entries = st.floats(0.0, 0.5) if orthant else st.floats(-2.0, 2.0)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    lift = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    if draw(st.booleans()):  # A >= 0 sends x >= lower to A lower + b = lower + lift
        mapping = AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(lower + lift - A @ lower))
    else:
        mapping = ConstantMap(n, value=tuple(lower + lift))
    domain = Orthant(n, lower=tuple(lower)) if orthant else FullSpace(n)
    F = TiltedFunctional(NormSpec(n, p, weights=weights), domain, mapping)
    radius = draw(st.floats(0.5, 4.0))
    axis = np.linspace(-radius, radius, draw(st.integers(2, {1: 40, 2: 12, 3: 7, 4: 5}[n])))
    floor = lower if orthant else np.full(n, -np.inf)
    axes = [axis[axis >= lo - 1e-12] for lo in floor]
    return F, axes, radius, draw(st.sampled_from((1, 5, 64, 65536)))


@given(_mesh_phi_cases())
@settings(max_examples=200, deadline=None)
def test_mesh_phi_is_within_a_few_ulps_of_the_rows_hypothesis(case):
    """Phi in mesh form over each block of the walk, against
    ``F.displacements`` of the block's rows.  Both fold f's products in
    some order, then the norm; each step is within an ulp of its operands,
    so the two values differ by at most 4 (n + 1) ulps of the row's scale
    ``||x|| + || |A| |x| || + ||b||``.  A constant map needs no product:
    there the bits are equal.  A point's value does not depend on the walk:
    the blocks' values, joined, are the one-block walk's, bit for bit.
    Each block's phi is copied as it is drawn: the next block overwrites it."""
    F, axes, radius, cap = case
    n = F.dimension
    At, b = affine_parts(F.mapping)
    walked = [np.empty(0)]
    for block, phi in mesh_displacements(F, mesh_blocks(axes, radius, F.norm, cap)):
        X = block.rows().copy()
        mesh = phi.ravel().copy() if block.inside is None else phi[block.inside]
        rows = F.displacements(X)
        scale = (norms_of_rows(X, F.norm) + norms_of_rows(np.abs(X) @ np.abs(At), F.norm)
                 + norm(b, F.norm))
        assert np.all(np.abs(mesh - rows) <= 4 * (n + 1) * np.finfo(float).eps * scale)
        if isinstance(F.mapping, ConstantMap):
            assert _bits(mesh) == _bits(rows)
        walked.append(mesh)
    whole = [np.empty(0)]  # an empty mesh has no block
    for block, phi in mesh_displacements(F, mesh_blocks(axes, radius, F.norm)):
        whole.append(phi.ravel().copy() if block.inside is None else phi[block.inside])
    assert len(whole) <= 2
    assert _bits(np.concatenate(walked)) == _bits(np.concatenate(whole))


def test_interleaved_mesh_walks_keep_their_own_buffers():
    # Walks drawn in turn each borrow their own scratch buffers: every
    # block's phi is the one the walk gives alone.  Finished walks leave
    # their buffers as spares.
    import tiltlab.spaces as spaces

    axis = np.linspace(-2.0, 2.0, 9)
    walks = []
    for p, offset in ((2.0, 0.5), (1.0, -0.25)):
        F = TiltedFunctional(NormSpec(2, p), FullSpace(2), AffineMap(
            2, matrix=((0.25, 0.125), (0.0, 0.25)), offset=(offset, 1.0)))
        walks.append((F, list(mesh_blocks([axis, axis], 2.0, F.norm, 9))))
    alone = [[phi.copy() for _, phi in mesh_displacements(F, blocks)]
             for F, blocks in walks]
    assert spaces._SPARE
    turns = zip(*(mesh_displacements(F, blocks) for F, blocks in walks))
    drawn = [[phi.copy() for _, phi in turn] for turn in turns]
    for k in range(2):
        assert [_bits(d[k]) for d in drawn] == [_bits(a) for a in alone[k]]


def test_mesh_phi_keeps_the_range_check_on_orthants():
    # f(0, 0) = (-1, -1) leaves the orthant: the mesh form raises what the
    # rows raise, with the worst member of the first failing block.
    aff = AffineMap(2, matrix=((0.5, 0.0), (0.0, 0.5)), offset=(-1.0, -1.0))
    F = TiltedFunctional(NormSpec(2, 2.0), Orthant(2), aff)
    axis = np.array([0.0, 1.0, 3.0, 4.0])
    with pytest.raises(RangeViolation) as caught:
        list(mesh_displacements(F, mesh_blocks([axis, axis], 6.0, F.norm, 4)))
    assert list(caught.value.point) == [0.0, 0.0]
    assert list(caught.value.value) == [-1.0, -1.0]
    assert caught.value.violation == 1.0
