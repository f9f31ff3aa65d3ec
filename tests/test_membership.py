"""Every entry point gates its outside points through FeasibleSet.require,
which refuses a vector with a NaN or infinite entry on every set variant."""

import numpy as np
import pytest

from tiltlab import (
    AffineMap,
    ConeIntersection,
    DimensionMismatch,
    FullSpace,
    HalfSpace,
    MapFamily,
    MembershipViolation,
    NormSpec,
    OptimizeConfig,
    Orthant,
    TiltedFunctional,
    certify_uniqueness,
    displacement,
    evaluate,
    growth_coefficient,
    search_counterexample,
    tilted_value,
    verify_saddle,
)
from tiltlab.spaces import MESH_BLOCK_FLOATS

CFG = OptimizeConfig(coarse_grid=9, multistart=2, budget=20_000, seed=1)

# All four are cones with apex 0, so f(x) = x / 4 maps each into itself and
# the origin is a member of each.
SETS = {
    "full_space": FullSpace(2),
    "orthant": Orthant(2),
    "half_space": HalfSpace(2, normal=(1.0, 1.0), offset=0.0),
    "cone": ConeIntersection(
        2,
        constraints=(
            HalfSpace(2, normal=(1.0, 0.0)),
            HalfSpace(2, normal=(1.0, 1.0)),
        ),
        ray=(1.0, 0.0),
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("variant", sorted(SETS))
def test_every_entry_point_refuses_a_point_that_is_not_finite(variant, bad):
    domain = SETS[variant]
    point = np.array([bad, 0.0])
    zero = np.zeros(2)
    mapping = AffineMap(2, matrix=((0.25, 0.0), (0.0, 0.25)), offset=(0.0, 0.0))
    F = TiltedFunctional(NormSpec(2, 2.0), domain, mapping)
    family = MapFamily(kind="scaled_identity", dimension=2, parameters=(("theta", (0.25,)),))
    calls = {
        "tilted_value x": lambda: tilted_value(F, point, zero),
        "tilted_value y": lambda: tilted_value(F, zero, point),
        "displacement": lambda: displacement(F, point),
        "evaluate": lambda: evaluate(mapping, point, domain),
        "certify_uniqueness": lambda: certify_uniqueness(
            F, [point], growth_coefficient(mapping, F.norm), CFG
        ),
        "verify_saddle": lambda: verify_saddle(
            F, point, zero[None, :], zero[None, :], 1e-6
        ),
        "verify_saddle y_grid": lambda: verify_saddle(
            F, zero, np.vstack((zero, point)), zero[None, :], 1e-6
        ),
        "verify_saddle x_grid": lambda: verify_saddle(
            F, zero, zero[None, :], np.vstack((zero, point)), 1e-6
        ),
        "search_counterexample": lambda: search_counterexample(
            family, [2.0], domain, np.vstack((zero, point)), CFG
        ),
    }
    assert not domain.contains(point, 1.0)
    for name, call in calls.items():
        with pytest.raises(MembershipViolation, match="NaN or infinite"):
            call()
            pytest.fail(f"{name} accepted {point}")


def _quarter_map_on(domain) -> TiltedFunctional:
    mapping = AffineMap(2, matrix=((0.25, 0.0), (0.0, 0.25)), offset=(0.0, 0.0))
    return TiltedFunctional(NormSpec(2, 2.0), domain, mapping)


def test_verify_saddle_refuses_a_probe_grid_that_is_not_k_by_n():
    J = _quarter_map_on(FullSpace(2))
    zero, grid = np.zeros(2), np.zeros((3, 2))
    for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((2, 3, 2))):
        with pytest.raises(DimensionMismatch, match=r"^y_grid must be a \(k, 2\) array"):
            verify_saddle(J, zero, bad, grid, 1e-6)
        with pytest.raises(DimensionMismatch, match=r"^x_grid must be a \(k, 2\) array"):
            verify_saddle(J, zero, grid, bad, 1e-6)


def test_verify_saddle_names_the_first_probe_row_outside_the_set():
    # Rows past the first block are named by their index in the whole grid.
    J = _quarter_map_on(Orthant(2))
    zero = np.zeros(2)
    block = MESH_BLOCK_FLOATS // 2  # rows per block of a 2-D grid
    grid = np.ones((block + 8, 2))
    outside, not_finite = grid.copy(), grid.copy()
    outside[[block + 3, block + 5]] = -3.0
    not_finite[block + 1, 1] = np.nan
    not_finite[block + 2, 0] = -np.inf
    with pytest.raises(MembershipViolation,
                       match=rf"^y_grid row {block + 3} is outside the feasible set by 3\.000e\+00"):
        verify_saddle(J, zero, outside, grid, 1e-6)
    with pytest.raises(MembershipViolation,
                       match=rf"^x_grid row {block + 3} is outside the feasible set by 3\.000e\+00"):
        verify_saddle(J, zero, grid, outside, 1e-6)
    with pytest.raises(MembershipViolation,
                       match=rf"^x_grid row {block + 1} has a NaN or infinite entry"):
        verify_saddle(J, zero, grid, not_finite, 1e-6)
    assert verify_saddle(J, zero, grid, grid, 1e-6).row_ok


def test_require_returns_the_vector_and_states_the_violation():
    orthant = Orthant(2)
    x = orthant.require([1, 2])
    assert x.dtype == float and np.array_equal(x, [1.0, 2.0])
    assert np.array_equal(orthant.require([-1e-10, 0.0]), [-1e-10, 0.0])
    with pytest.raises(MembershipViolation, match=r"x_star is outside .* by 1\.000e-03"):
        orthant.require([-1e-3, 0.0], "x_star")
