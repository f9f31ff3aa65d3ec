"""Catalog of self-maps f: X -> X.

Families: affine maps A x + b, constant maps, affine maps perturbed by a
bounded smooth coordinate field (amplitude-scaled), and maps composed with
the Euclidean projection onto X so the range constraint holds by
construction.  Alongside evaluation the module estimates the asymptotic
growth ratio ||f(x)|| / ||x|| (analytically where the family admits it,
otherwise from seeded shell samples) and solves for analytic fixed points
of affine and constant maps.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, RangeViolation
from .spaces import (
    INF,
    MEMBERSHIP_TOL,
    FeasibleSet,
    FullSpace,
    NormSpec,
    _frozen,
    finite_tuple,
    norm,
    norms_of_rows,
    positive_int,
)

logger = logging.getLogger(__name__)

_SINGULAR_RATIO = 1e-13

# Bounded smooth vector fields over row batches, each component in [-1, 1].
FIELD_CATALOG = {
    "sine": lambda x: np.sin(np.roll(x, -1, axis=-1)),
    "tanh": lambda x: np.tanh(x),
    "gauss": lambda x: np.exp(-(x * x)),
}


def _as_matrix(m, dimension) -> tuple[tuple[float, ...], ...]:
    rows = tuple(m)
    if len(rows) != dimension:
        raise DimensionMismatch(f"matrix must be {dimension}x{dimension}")
    return tuple(
        finite_tuple(row, f"matrix row {i}", dimension) for i, row in enumerate(rows)
    )


@dataclass(frozen=True)
class MapSpec:
    """Base class for the self-map catalog."""

    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "dimension", positive_int(self.dimension))

    @property
    def family(self) -> str:
        raise NotImplementedError

    def raw_rows(self, X: np.ndarray, domain: FeasibleSet) -> np.ndarray:
        """f at each row of X without membership or range checks."""
        raise NotImplementedError


@dataclass(frozen=True)
class _AffinePart(MapSpec):
    """A x + b over row batches, with its matrix and offset, shared by the
    affine and perturbed-affine families; not itself a family."""

    matrix: tuple[tuple[float, ...], ...] = ()
    offset: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, self.dimension))
        offset = finite_tuple(self.offset, "offset", self.dimension)
        object.__setattr__(self, "offset", offset)

    @cached_property
    def matrix_array(self) -> np.ndarray:
        return _frozen(np.array(self.matrix, dtype=float))

    @cached_property
    def offset_array(self) -> np.ndarray:
        return _frozen(np.array(self.offset, dtype=float))

    @cached_property
    def _matrix_t(self) -> np.ndarray:
        # A C-contiguous copy: the product with the transposed view rounds a
        # row differently depending on the batch it is in.
        return _frozen(np.ascontiguousarray(self.matrix_array.T))

    def raw_rows(self, X, domain):
        At = self._matrix_t
        if self.dimension <= 3:
            return X @ At + self.offset_array[None, :]
        # The BLAS product rounds a row independently of its batch up to
        # n = 3, where it is several times faster, but not from n = 4 on;
        # there a fold over the columns keeps each row's bits.
        out = X[:, :1] * At[0]
        for j in range(1, self.dimension):
            out += X[:, j : j + 1] * At[j]
        return out + self.offset_array[None, :]


@dataclass(frozen=True)
class AffineMap(_AffinePart):
    @property
    def family(self) -> str:
        return "affine"


@dataclass(frozen=True)
class ConstantMap(MapSpec):
    value: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        value = finite_tuple(self.value, "constant value", self.dimension)
        object.__setattr__(self, "value", value)

    @property
    def family(self) -> str:
        return "constant"

    @cached_property
    def value_array(self) -> np.ndarray:
        return _frozen(np.array(self.value, dtype=float))

    def raw_rows(self, X, domain):
        return np.tile(self.value_array, (len(X), 1))


@dataclass(frozen=True)
class BoundedPerturbedMap(_AffinePart):
    """Affine map plus an amplitude-scaled bounded smooth field."""

    field: str = "sine"
    amplitude: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.field not in FIELD_CATALOG:
            raise ValueError(
                f"unknown field '{self.field}'; catalog: {sorted(FIELD_CATALOG)}"
            )
        if not 0.0 <= float(self.amplitude) < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        object.__setattr__(self, "amplitude", float(self.amplitude))

    @property
    def family(self) -> str:
        return "affine_bounded"

    def raw_rows(self, X, domain):
        affine = super().raw_rows(X, domain)
        return affine + self.amplitude * FIELD_CATALOG[self.field](X)


@dataclass(frozen=True)
class ProjectedMap(MapSpec):
    """Inner map composed with the projection onto X, so the range
    constraint holds by construction."""

    inner: MapSpec | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.inner is None:
            raise ValueError("projected map needs an inner map")
        if self.inner.dimension != self.dimension:
            raise DimensionMismatch("inner map dimension mismatch")

    @property
    def family(self) -> str:
        return "projected"

    def raw_rows(self, X, domain):
        return domain.project_rows(self.inner.raw_rows(X, domain))


def evaluate(map_spec: MapSpec, x, domain: FeasibleSet) -> np.ndarray:
    """f(x) with the membership precondition enforced; one-row
    :func:`evaluate_rows`."""
    if domain.dimension != map_spec.dimension:
        raise DimensionMismatch("map and set dimensions disagree")
    return evaluate_rows(map_spec, domain.require(x)[None, :], domain)[0]


def evaluate_rows(map_spec: MapSpec, X: np.ndarray, domain: FeasibleSet) -> np.ndarray:
    """Row-wise f over feasible points; callers guarantee membership.

    The range check raises :class:`RangeViolation` carrying the worst row's
    point, value and violation; a NaN violation fails and counts as the
    worst.  It is skipped where it cannot fail: for a projected map, and on
    the full space.
    """
    X = np.asarray(X, dtype=float)
    values = map_spec.raw_rows(X, domain)
    if (
        len(values)
        and not isinstance(map_spec, ProjectedMap)
        and not isinstance(domain, FullSpace)
    ):
        violations = domain.violations_of_rows(values)
        # argmax takes the first NaN as the worst row, and a NaN fails.
        worst = int(np.argmax(violations))
        if not violations[worst] <= MEMBERSHIP_TOL:
            raise RangeViolation(
                f"map value leaves the feasible set by {violations[worst]:.3e}; "
                "the map is ill-posed for this set",
                point=X[worst],
                value=values[worst],
                violation=float(violations[worst]),
            )
    return values


def affine_parts(map_spec: MapSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """``(At, b)`` with f(x) = x @ At + b, for the affine and constant
    families: over a box mesh, f is the fold of the per-axis terms
    ``x_j * At[j]`` and b.  None for every other family."""
    if isinstance(map_spec, AffineMap):
        return map_spec._matrix_t, map_spec.offset_array
    if isinstance(map_spec, ConstantMap):
        n = map_spec.dimension
        return np.zeros((n, n)), map_spec.value_array
    return None


class GrowthMethod(enum.Enum):
    ANALYTIC = "analytic"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class GrowthEstimate:
    """Estimate of the asymptotic ratio limsup ||f(x)||/||x||.

    ``offset_bound`` is a constant B with ||f(x)|| <= kappa_hat * ||x|| + B
    on the evidence available (exact for affine/constant families, a sampled
    estimate otherwise); callers use it to turn the asymptotic ratio into a
    finite-radius bound.
    """

    kappa_hat: float
    method: GrowthMethod
    radii: tuple[float, ...]
    satisfied: bool
    offset_bound: float

    def __post_init__(self):
        if self.kappa_hat < 0.0:
            raise ValueError("kappa_hat must be >= 0")


def induced_operator_norm(matrix, spec: NormSpec) -> float:
    """Operator norm of a matrix for plain lp with p in {1, 2, inf}."""
    A = np.asarray(matrix, dtype=float)
    if spec.weights is not None:
        raise ValueError("closed forms cover plain lp norms only")
    if spec.p is INF:
        return float(np.abs(A).sum(axis=1).max())
    if spec.p == 1.0:
        return float(np.abs(A).sum(axis=0).max())
    if spec.p == 2.0:
        return float(np.linalg.norm(A, 2))
    raise ValueError("closed forms cover p in {1, 2, inf} only")


def _analytic_growth(map_spec: MapSpec, norm_spec: NormSpec) -> tuple[float, float] | None:
    """(kappa_hat, offset_bound) when the family and the norm admit them."""
    if isinstance(map_spec, ConstantMap):
        return 0.0, norm(map_spec.value_array, norm_spec)
    if isinstance(map_spec, AffineMap):
        if norm_spec.weights is None and (
            norm_spec.p is INF or norm_spec.p in (1.0, 2.0)
        ):
            kappa = induced_operator_norm(map_spec.matrix_array, norm_spec)
            return kappa, norm(map_spec.offset_array, norm_spec)
    return None


def shell_radii(radii, what: str = "radii") -> tuple[float, ...]:
    """Growth shell radii as floats, or ``ValueError`` naming ``what`` unless
    they are non-empty, finite, positive and strictly increasing."""
    r = finite_tuple(radii, what)
    if not r or r[0] <= 0.0 or any(b <= a for a, b in zip(r, r[1:])):
        raise ValueError(f"{what} must be positive and strictly increasing, got {r}")
    return r


def growth_coefficient(
    map_spec: MapSpec,
    norm_spec: NormSpec,
    radii=(100.0, 1_000.0, 10_000.0),
    directions_per_radius: int = 64,
    seed: int = 0,
    domain: FeasibleSet | None = None,
) -> GrowthEstimate:
    """Estimate limsup ||f(x)||/||x|| over growing shells.

    Affine and constant maps under plain lp norms (p in {1, 2, inf}) get the
    exact analytic value; every other combination is sampled on the largest
    shell with seeded directions, points projected into X.  A sampled
    estimate is evidence, not proof, and reports must carry the method tag.

    The sampled path draws every shell's directions in one call (the
    stream of one draw per shell), then normalises, projects, measures and
    maps the rows of all shells in one pass and reads each shell's maximum
    from its run of rows; a row's values do not depend on its batch.
    """
    if map_spec.dimension != norm_spec.dimension:
        raise DimensionMismatch("map and norm dimensions disagree")
    radii = shell_radii(radii)
    directions_per_radius = positive_int(directions_per_radius, "directions_per_radius")

    analytic = _analytic_growth(map_spec, norm_spec)
    if analytic is not None:
        kappa, bound = analytic
        return GrowthEstimate(
            kappa_hat=kappa,
            method=GrowthMethod.ANALYTIC,
            radii=radii,
            satisfied=kappa < 0.5,
            offset_bound=bound,
        )

    if radii[-1] < 100.0:
        raise ValueError("sampled estimation needs a largest radius >= 100")
    if domain is None:
        domain = FullSpace(map_spec.dimension)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6702]))
    dirs = rng.standard_normal((len(radii) * directions_per_radius, map_spec.dimension))
    radius = np.repeat(radii, directions_per_radius)
    lengths = norms_of_rows(dirs, norm_spec)
    keep = lengths > 0.0
    radius = radius[keep]
    pts = domain.project_rows(radius[:, None] * dirs[keep] / lengths[keep][:, None])
    sizes = norms_of_rows(pts, norm_spec)
    live = sizes > 1e-9 * radius
    if not live.any():
        raise ValueError("no feasible shell samples; the window misses the set")
    pts, sizes, radius = pts[live], sizes[live], radius[live]
    values = norms_of_rows(map_spec.raw_rows(pts, domain), norm_spec)
    # Each shell's run of rows; a shell with no live sample has none.
    edges = [0, *(np.flatnonzero(radius[1:] != radius[:-1]) + 1).tolist(), len(radius)]
    shells = [slice(a, b) for a, b in zip(edges, edges[1:])]
    kappa_hat = float((values[shells[-1]] / sizes[shells[-1]]).max())
    excess = values - kappa_hat * sizes
    offset_bound = max(float(excess[shell].max()) for shell in shells)
    return GrowthEstimate(
        kappa_hat=kappa_hat,
        method=GrowthMethod.SAMPLED,
        radii=radii,
        satisfied=kappa_hat < 0.5,
        offset_bound=max(offset_bound, 0.0),
    )


def analytic_fixed_point(map_spec: MapSpec) -> np.ndarray | None:
    """Exact fixed point for affine (via LU solve of (I - A) x = b, which is
    Gaussian elimination with partial pivoting) and constant maps; absent for
    the other families or when I - A is singular to machine tolerance."""
    if isinstance(map_spec, ConstantMap):
        return map_spec.value_array.copy()
    if isinstance(map_spec, AffineMap):
        M = np.eye(map_spec.dimension) - map_spec.matrix_array
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= sv[0] * _SINGULAR_RATIO:
            logger.info("I - A is singular to machine tolerance; no analytic fixed point")
            return None
        return np.linalg.solve(M, map_spec.offset_array)
    return None
