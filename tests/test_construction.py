"""Every number a norm, set, map or sweep family is built from passes one
finite check, and every dimension is an integer >= 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import (
    AffineMap,
    BoundedPerturbedMap,
    ConeIntersection,
    ConstantMap,
    DimensionMismatch,
    FullSpace,
    HalfSpace,
    MapFamily,
    NormSpec,
    Orthant,
    SampleDomain,
    growth_coefficient,
)
from tiltlab.configfile import SamplingSpec

NAN, INFINITY = math.nan, math.inf


def _cone(v):
    return ConeIntersection(
        2, constraints=(HalfSpace(2, normal=(1.0, 0.0)),), ray=v[:2], base=v[2:]
    )


def _affine(v):
    return AffineMap(2, matrix=(v[0:2], v[2:4]), offset=v[4:6])


def _perturbed(v):
    return BoundedPerturbedMap(
        2, matrix=(v[0:2], v[2:4]), offset=v[4:6], field="tanh", amplitude=v[6]
    )


def _family(v):
    return MapFamily(
        "rotation_scale", 2, parameters=(("theta", v[0:2]), ("phi", v[2:3])), offset=v[3:5]
    )


# name: (clean parameter values, the parameter each one belongs to, builder)
CASES = {
    "NormSpec.p": ((2.0,), ["p"], lambda v: NormSpec(1, v[0])),
    "NormSpec.weights": ((1.0, 2.0), ["weights"] * 2, lambda v: NormSpec(2, 2.0, v)),
    "Orthant.lower": ((-1.0, 0.0), ["lower"] * 2, lambda v: Orthant(2, lower=v)),
    "HalfSpace": (
        (1.0, 1.0, -3.0),
        ["normal", "normal", "offset"],
        lambda v: HalfSpace(2, normal=v[:2], offset=v[2]),
    ),
    "ConeIntersection": ((1.0, 1.0, 1.0, 0.0), ["ray"] * 2 + ["base"] * 2, _cone),
    "AffineMap": ((0.25, 0.1, 0.0, 0.3, 0.5, 0.25), ["matrix"] * 4 + ["offset"] * 2, _affine),
    "ConstantMap": ((0.5, 0.25), ["value"] * 2, lambda v: ConstantMap(2, v)),
    "BoundedPerturbedMap": (
        (0.25, 0.0, 0.0, 0.3, 0.5, 0.25, 0.125),
        ["matrix"] * 4 + ["offset"] * 2 + ["amplitude"],
        _perturbed,
    ),
    "MapFamily": (
        (0.15, 0.3, 0.0, 1.0, 1.0),
        ["parameter theta"] * 2 + ["parameter phi"] + ["offset"] * 2,
        _family,
    ),
    "SampleDomain.radius": (
        (3.0,), ["radius"], lambda v: SampleDomain(FullSpace(2), NormSpec(2), v[0], 5)
    ),
    "growth_coefficient.radii": (
        (100.0, 1000.0, 10000.0),
        ["radii"] * 3,
        lambda v: growth_coefficient(ConstantMap(1, (0.5,)), NormSpec(1), radii=v),
    ),
    "SamplingSpec.growth_radii": (
        (100.0, 1000.0, 10000.0),
        ["growth_radii"] * 3,
        lambda v: SamplingSpec(growth_radii=v),
    ),
}


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    bad=st.sampled_from([NAN, INFINITY, -INFINITY]),
    data=st.data(),
)
def test_a_non_finite_parameter_is_refused_by_name_hypothesis(case, bad, data):
    clean, names, build = CASES[case]
    build(clean)  # the refusal below is the poisoned entry's, nothing else's
    slot = data.draw(st.integers(0, len(clean) - 1), label="slot")
    values = list(clean)
    values[slot] = bad
    with pytest.raises(ValueError, match=names[slot]):
        build(tuple(values))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: Orthant(1, lower=(-INFINITY,)), "lower"),
        (
            lambda: ConeIntersection(
                2, constraints=(HalfSpace(2, normal=(1, 0)),), ray=(NAN, 1)
            ),
            "ray",
        ),
        (lambda: AffineMap(1, matrix=((NAN,),), offset=(0.0,)), "matrix"),
        (lambda: AffineMap(1, matrix=((0.5,),), offset=(INFINITY,)), "offset"),
        (lambda: ConstantMap(1, (INFINITY,)), "value"),
        (
            lambda: BoundedPerturbedMap(1, matrix=((0.5,),), offset=(0.0,), amplitude=NAN),
            "amplitude",
        ),
        (lambda: MapFamily("scaled_identity", 1, (("theta", (0.1, NAN)),)), "theta"),
        (
            lambda: MapFamily("scaled_identity", 1, (("theta", (0.1,)),), offset=(NAN,)),
            "offset",
        ),
        (lambda: FullSpace(2.5), "dimension"),
        (lambda: SampleDomain(FullSpace(1), NormSpec(1), INFINITY, 3), "radius"),
        (
            lambda: growth_coefficient(ConstantMap(1, (0.5,)), NormSpec(1), radii=(100, INFINITY)),
            "radii",
        ),
    ],
    ids=[
        "orthant_lower",
        "cone_ray",
        "affine_matrix",
        "affine_offset",
        "constant_value",
        "perturbed_amplitude",
        "family_parameter",
        "family_offset",
        "full_space_dimension",
        "sample_domain_radius",
        "growth_radii",
    ],
)
def test_each_documented_bad_construction_is_refused(build, name):
    with pytest.raises(ValueError, match=name):
        build()


DIMENSIONED = {
    "FullSpace": lambda d: FullSpace(d),
    "Orthant": lambda d: Orthant(d),
    "NormSpec": lambda d: NormSpec(d),
    "AffineMap": lambda d: AffineMap(d, matrix=((0.5,),), offset=(0.0,)),
    "ConstantMap": lambda d: ConstantMap(d, (0.0,)),
    "MapFamily": lambda d: MapFamily("scaled_identity", d, (("theta", (0.1,)),)),
}


@pytest.mark.parametrize("kind", sorted(DIMENSIONED))
def test_dimension_must_be_an_integer(kind):
    build = DIMENSIONED[kind]
    for bad in (1.7, 1.0, True):  # a float used to be truncated, a bool read as 1
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            build(bad)
    built = build(np.int64(1))
    assert built == build(1)
    assert type(built.dimension) is int


def test_map_family_dimension_is_checked():
    # Nothing read it before: a zero-dimensional family built and failed later.
    with pytest.raises(ValueError, match="dimension"):
        MapFamily("scaled_identity", 0, (("theta", (0.1,)),))


def test_sample_domain_resolution_must_be_an_integer():
    with pytest.raises(ValueError, match="resolution must be an integer"):
        SampleDomain(FullSpace(1), NormSpec(1), 1.0, 2.5)


def test_finite_tuple_and_positive_int_contracts():
    from tiltlab.spaces import finite_tuple, positive_int

    assert finite_tuple(np.array([1, 2.5]), "v", 2) == (1.0, 2.5)
    with pytest.raises(DimensionMismatch, match="v has length 3, expected 2"):
        finite_tuple((1, 2, 3), "v", 2)
    with pytest.raises(ValueError, match=r"v must be finite, got \(1.0, nan\)"):
        finite_tuple((1, NAN), "v")
    assert positive_int(np.uint8(3), "n") == 3
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
        positive_int(0, "n")
