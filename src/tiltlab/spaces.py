"""Finite-dimensional normed spaces and closed convex unbounded feasible sets.

Vectors are 1-D float64 arrays.  Norms come from the lp family (p in [1, inf],
optionally with positive coordinate weights); the max norm is selected by the
distinguished value :data:`INF` rather than a float sentinel.  Feasible sets
are restricted to variants that are unbounded by construction: each one
stores a base point and a ray direction witnessing a feasible half-line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ProjectionDidNotConverge

PROJECTION_TOL = 1e-12
PROJECTION_CAP = 10_000

# Soft cap on materialized grids; protects against accidental huge meshes.
GRID_POINT_CAP = 20_000_000


class MaxNorm(enum.Enum):
    """Distinguished exponent value selecting the max (sup) norm."""

    INF = "inf"


INF = MaxNorm.INF


def as_vector(v, dimension, name="vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != dimension:
        raise DimensionMismatch(
            f"{name} must be a 1-D vector of length {dimension}, got shape {arr.shape}"
        )
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NormSpec:
    """An lp or weighted-lp norm on R^dimension.

    ``p`` is a real >= 1 or :data:`INF`.  ``weights``, when given, are strictly
    positive per-coordinate factors applied inside the sum (or inside the max
    for p = inf).
    """

    dimension: int
    p: float | MaxNorm = 2.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if int(self.dimension) < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "dimension", int(self.dimension))
        if self.p is not INF:
            p = float(self.p)
            if not np.isfinite(p) or p < 1.0:
                raise ValueError(f"p must be >= 1 or INF, got {self.p}")
            object.__setattr__(self, "p", p)
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != self.dimension:
                raise DimensionMismatch(
                    f"weights length {len(w)} != dimension {self.dimension}"
                )
            if any(not np.isfinite(x) or x <= 0.0 for x in w):
                raise ValueError("all weights must be positive and finite")
            object.__setattr__(self, "weights", w)

    @property
    def kind(self) -> str:
        return "lp" if self.weights is None else "weighted_lp"

    @cached_property
    def _weight_array(self) -> np.ndarray | None:
        if self.weights is None:
            return None
        return _frozen(np.array(self.weights, dtype=float))

    def __call__(self, v) -> float:
        return norm(v, self)


def norm(v, spec: NormSpec) -> float:
    """The lp (or weighted-lp) norm of ``v`` under ``spec``."""
    return float(norms_of_rows(as_vector(v, spec.dimension)[None, :], spec)[0])


def norms_of_rows(X, spec: NormSpec) -> np.ndarray:
    """Vectorized :func:`norm` over the rows of a (k, dimension) array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.dimension:
        raise DimensionMismatch(
            f"expected a (k, {spec.dimension}) array, got shape {X.shape}"
        )
    w = spec._weight_array
    if spec.p == 2.0:
        sq = X * X if w is None else X * X * w
        return np.sqrt(np.add.reduce(sq, axis=1))
    A = np.abs(X)
    if spec.p is INF:
        if w is not None:
            A = A * w
        return np.maximum.reduce(A, axis=1)
    p = spec.p
    if p == 1.0:
        return np.add.reduce(A if w is None else A * w, axis=1)
    m = A.max(axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    scaled = (A / safe[:, None]) ** p
    if w is not None:
        scaled = scaled * w
    return np.where(m > 0.0, m * scaled.sum(axis=1) ** (1.0 / p), 0.0)


@dataclass(frozen=True)
class FeasibleSet:
    """Base class for closed, convex, unbounded sets in R^dimension.

    Subclasses store an unboundedness witness: ``ray_base + t * ray_direction``
    stays in the set for every t >= 0.
    """

    dimension: int

    def __post_init__(self):
        if int(self.dimension) < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "dimension", int(self.dimension))

    @property
    def variant(self) -> str:
        raise NotImplementedError

    @property
    def ray_base(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def ray_direction(self) -> np.ndarray:
        raise NotImplementedError

    def violations_of_rows(self, X) -> np.ndarray:
        """Largest constraint residual of each row (<= 0 means all hold)."""
        raise NotImplementedError

    def project_rows(self, Z) -> np.ndarray:
        """Euclidean projection of each row onto the set (feasibility device
        only)."""
        raise NotImplementedError

    def violation(self, x) -> float:
        """One-row :meth:`violations_of_rows`."""
        return float(self.violations_of_rows(as_vector(x, self.dimension)[None, :])[0])

    def contains(self, x, tol: float = 0.0) -> bool:
        return bool(self.violation(x) <= tol)

    def project(self, z) -> np.ndarray:
        """One-row :meth:`project_rows`."""
        return self.project_rows(as_vector(z, self.dimension)[None, :])[0]


@dataclass(frozen=True)
class FullSpace(FeasibleSet):
    @property
    def variant(self) -> str:
        return "full_space"

    @cached_property
    def ray_base(self) -> np.ndarray:
        return _frozen(np.zeros(self.dimension))

    @cached_property
    def ray_direction(self) -> np.ndarray:
        e = np.zeros(self.dimension)
        e[0] = 1.0
        return _frozen(e)

    def violations_of_rows(self, X) -> np.ndarray:
        return np.zeros(len(X))

    def project_rows(self, Z) -> np.ndarray:
        return np.array(Z, dtype=float)


@dataclass(frozen=True)
class Orthant(FeasibleSet):
    """Coordinate-wise lower bounds, upper bounds all +infinity."""

    lower: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        lower = self.lower if self.lower else (0.0,) * self.dimension
        lo = tuple(float(x) for x in lower)
        if len(lo) != self.dimension:
            raise DimensionMismatch(
                f"lower bounds length {len(lo)} != dimension {self.dimension}"
            )
        object.__setattr__(self, "lower", lo)

    @property
    def variant(self) -> str:
        return "orthant"

    @cached_property
    def _lower_array(self) -> np.ndarray:
        return _frozen(np.array(self.lower, dtype=float))

    @cached_property
    def ray_base(self) -> np.ndarray:
        return self._lower_array

    @cached_property
    def ray_direction(self) -> np.ndarray:
        return _frozen(np.ones(self.dimension))

    def violations_of_rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return (self._lower_array[None, :] - X).max(axis=1)

    def project_rows(self, Z) -> np.ndarray:
        return np.maximum(np.asarray(Z, dtype=float), self._lower_array[None, :])


@dataclass(frozen=True)
class HalfSpace(FeasibleSet):
    """The set {x : normal . x >= offset}."""

    normal: tuple[float, ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        a = tuple(float(x) for x in self.normal)
        if len(a) != self.dimension:
            raise DimensionMismatch(
                f"normal length {len(a)} != dimension {self.dimension}"
            )
        if all(x == 0.0 for x in a):
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def variant(self) -> str:
        return "half_space"

    @cached_property
    def _normal_array(self) -> np.ndarray:
        return _frozen(np.array(self.normal, dtype=float))

    @cached_property
    def _normal_sq(self) -> float:
        a = self._normal_array
        return float(np.dot(a, a))

    @cached_property
    def ray_base(self) -> np.ndarray:
        return _frozen(self.project(np.zeros(self.dimension)))

    @cached_property
    def ray_direction(self) -> np.ndarray:
        return self._normal_array

    # Row-wise sums, unlike a matrix product, round each row the same way
    # whatever the batch size, so a row's residual and projection do not
    # depend on which other rows share its batch.
    def violations_of_rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.offset - (X * self._normal_array).sum(axis=1)

    def project(self, z) -> np.ndarray:
        # The closed form, not the one-row wrapper: the benchmark tracer's
        # self-test counts a call here as one half-space projection that
        # opens no project_rows span.
        arr = as_vector(z, self.dimension)
        gap = self.offset - float(np.dot(self._normal_array, arr))
        if gap <= 0.0:
            return arr.copy()
        return arr + (gap / self._normal_sq) * self._normal_array

    def project_rows(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        gap = self.offset - (Z * self._normal_array).sum(axis=1)
        gap = np.maximum(gap, 0.0)
        return Z + (gap / self._normal_sq)[:, None] * self._normal_array[None, :]


@dataclass(frozen=True)
class ConeIntersection(FeasibleSet):
    """Intersection of finitely many half-spaces, unbounded by witness.

    The caller must supply a ray direction that every half-space accepts
    (normal . ray >= 0); detecting unboundedness is out of scope, so a ray
    that escapes some constraint is rejected at construction time.
    """

    constraints: tuple[HalfSpace, ...] = ()
    ray: tuple[float, ...] = ()
    base: tuple[float, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        if not self.constraints:
            raise ValueError("cone intersection needs at least one half-space")
        for hs in self.constraints:
            if hs.dimension != self.dimension:
                raise DimensionMismatch("constraint dimension mismatch")
        r = tuple(float(x) for x in self.ray)
        if len(r) != self.dimension:
            raise DimensionMismatch(f"ray length {len(r)} != dimension {self.dimension}")
        r_arr = np.array(r, dtype=float)
        if float(np.abs(r_arr).max()) == 0.0:
            raise ValueError(
                "ray witness is zero; the set must be unbounded along a ray"
            )
        for hs in self.constraints:
            if float(np.dot(hs._normal_array, r_arr)) < -1e-12:
                raise ValueError(
                    "ray witness escapes a half-space; the intersection is not "
                    "certified unbounded along it (the set must be unbounded)"
                )
        object.__setattr__(self, "ray", r)
        if self.base is None:
            base_arr = self.project(np.zeros(self.dimension))
            object.__setattr__(self, "base", tuple(float(x) for x in base_arr))
        else:
            b = tuple(float(x) for x in self.base)
            if len(b) != self.dimension:
                raise DimensionMismatch("base length mismatch")
            object.__setattr__(self, "base", b)
            if self.violation(np.array(b)) > 1e-9:
                raise ValueError("base witness is not in the set")

    @property
    def variant(self) -> str:
        return "cone"

    @cached_property
    def ray_base(self) -> np.ndarray:
        return _frozen(np.array(self.base, dtype=float))

    @cached_property
    def ray_direction(self) -> np.ndarray:
        return _frozen(np.array(self.ray, dtype=float))

    def violations_of_rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        stacked = np.stack([hs.violations_of_rows(X) for hs in self.constraints])
        return stacked.max(axis=0)

    def project_rows(self, Z) -> np.ndarray:
        """Cyclic projection through the half-spaces, all rows in lockstep:
        each cycle moves only the rows not yet within PROJECTION_TOL of
        every half-space."""
        X = np.array(Z, dtype=float)
        active = np.arange(len(X))
        for _ in range(PROJECTION_CAP):
            active = active[~(self.violations_of_rows(X[active]) <= PROJECTION_TOL)]
            if len(active) == 0:
                return X
            Y = X[active]
            for hs in self.constraints:
                Y = hs.project_rows(Y)
            X[active] = Y
        active = active[~(self.violations_of_rows(X[active]) <= PROJECTION_TOL)]
        if len(active) == 0:
            return X
        raise ProjectionDidNotConverge(
            f"cyclic projection did not reach residual {PROJECTION_TOL} within "
            f"{PROJECTION_CAP} cycles",
            last_iterate=X[active[0]],
        )


def contains(set_: FeasibleSet, x, tol: float = 0.0) -> bool:
    """True iff x violates no defining constraint of the set by more than tol."""
    return set_.contains(x, tol)


def project(set_: FeasibleSet, z) -> np.ndarray:
    """Euclidean projection of z onto the set."""
    return set_.project(z)


def _grid_axes(radius: float, resolution: int, dimension: int) -> list[np.ndarray]:
    if resolution ** dimension > GRID_POINT_CAP:
        raise ValueError(
            f"grid of {resolution}^{dimension} points exceeds the cap "
            f"{GRID_POINT_CAP}; lower the per-axis resolution"
        )
    axis = np.linspace(-radius, radius, resolution)
    return [axis] * dimension


def _mesh(axes: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class SampleDomain:
    """Truncated sampling window X intersected with the active-norm ball
    of a given radius; every emitted point is feasible and inside the ball."""

    domain: FeasibleSet
    norm: NormSpec
    radius: float
    resolution: int

    def __post_init__(self):
        if self.domain.dimension != self.norm.dimension:
            raise DimensionMismatch("set and norm dimensions disagree")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if int(self.resolution) < 1:
            raise ValueError("resolution must be a positive integer")
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "resolution", int(self.resolution))

    def _ball_mask(self, X: np.ndarray) -> np.ndarray:
        tol = 1e-12 * max(1.0, self.radius)
        return norms_of_rows(X, self.norm) <= self.radius + tol

    def _keep_feasible(self, X: np.ndarray, project_first: bool) -> np.ndarray:
        if len(X) == 0:
            return X
        if project_first:
            X = self.domain.project_rows(X)
        else:
            X = X[self.domain.violations_of_rows(X) <= PROJECTION_TOL]
            if len(X) == 0:
                return X
        return X[self._ball_mask(X)]

    def grid_points(self, project: bool = True) -> np.ndarray:
        """Regular box grid snapped into the window.

        Points are projected into X (or membership-filtered when ``project``
        is false), restricted to the ball, and deduplicated keeping the first
        occurrence in lexicographic grid-index order.
        """
        pts = _mesh(_grid_axes(self.radius, self.resolution, self.domain.dimension))
        pts = self._keep_feasible(pts, project_first=project)
        if len(pts) == 0:
            return pts.reshape(0, self.domain.dimension)
        _, first = np.unique(pts, axis=0, return_index=True)
        return pts[np.sort(first)]

    def _collect(self, count: int, draw) -> np.ndarray:
        """Up to ``count`` window points from batches ``draw(k)`` of k box
        samples each, snapped into the window; at most 50 batches."""
        collected: list[np.ndarray] = []
        have = 0
        for _ in range(50):
            kept = self._keep_feasible(draw(max(count, 8)), project_first=True)
            if len(kept):
                collected.append(kept)
                have += len(kept)
            if have >= count:
                break
        if not collected:
            return np.empty((0, self.domain.dimension))
        return np.vstack(collected)[:count]

    def random_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Seeded uniform box samples snapped into the window (may return
        fewer than requested if the window is thin)."""
        n = self.domain.dimension
        return self._collect(
            count, lambda k: rng.uniform(-self.radius, self.radius, size=(k, n))
        )

    def low_discrepancy_points(self, count: int, seed: int) -> np.ndarray:
        """Seeded scrambled-Halton samples snapped into the window."""
        from scipy.stats import qmc

        n = self.domain.dimension
        sampler = qmc.Halton(d=n, scramble=True, seed=np.random.default_rng(seed))
        return self._collect(
            count, lambda k: (2.0 * sampler.random(k) - 1.0) * self.radius
        )
