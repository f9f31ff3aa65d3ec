"""Finite-dimensional normed spaces and closed convex unbounded feasible sets.

Vectors are 1-D float64 arrays.  Norms come from the lp family (p in [1, inf],
optionally with positive coordinate weights); the max norm is selected by the
distinguished value :data:`INF` rather than a float sentinel.  Feasible sets
are restricted to variants that are unbounded by construction: each one
stores a base point and a ray direction witnessing a feasible half-line.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, InfeasibleTruncation, MembershipViolation

# How far a point may violate a constraint and still count as a member.
MEMBERSHIP_TOL = 1e-9
# Tolerance of the cone projection's face test, relative to the row's scale.
PROJECTION_TOL = 1e-12
# Cap on the candidate faces a cone enumerates, and on the floats per row
# block of its projection broadcast.
FACE_CAP = 4096
_BROADCAST_CAP = 1 << 16

# Soft cap on materialized grids; protects against accidental huge meshes.
GRID_POINT_CAP = 20_000_000
# Floats per bounded block of a box-mesh walk (:func:`mesh_blocks`).
MESH_BLOCK_FLOATS = 1 << 16
# The flat buffers that finished walks gave back (:func:`scratch`), at most
# _SPARES of them, the largest kept.
_SPARE: list[np.ndarray] = []
_SPARES = 6


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


def as_rows(X, dimension, name="rows") -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise DimensionMismatch(
            f"{name} must be a (k, {dimension}) array, got shape {arr.shape}"
        )
    return arr


def _finite(values) -> bool:
    # Scalar math over a list: a one-row numpy reduction costs more here.
    return all(map(math.isfinite, values))


def finite_tuple(values, what: str, length: int | None = None) -> tuple[float, ...]:
    """``values`` as floats, the one gate for the parameter vectors of norms,
    sets, maps and sweep families: a wrong ``length`` is a
    :class:`DimensionMismatch`, a NaN or infinite entry a ``ValueError``."""
    t = tuple(float(v) for v in values)
    if length is not None and len(t) != length:
        raise DimensionMismatch(f"{what} has length {len(t)}, expected {length}")
    if not _finite(t):
        raise ValueError(f"{what} must be finite, got {t}")
    return t


def positive_int(value, what: str = "dimension") -> int:
    """``value`` as an int if it is an integer >= 1 (numpy integers included,
    a bool or float refused, never truncated), else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


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
        object.__setattr__(self, "dimension", positive_int(self.dimension))
        if self.p is not INF:
            p = float(self.p)
            if not np.isfinite(p) or p < 1.0:
                raise ValueError(f"p must be >= 1 or INF, got {self.p}")
            object.__setattr__(self, "p", p)
        if self.weights is not None:
            w = finite_tuple(self.weights, "weights", self.dimension)
            if any(x <= 0.0 for x in w):
                raise ValueError(f"all weights must be positive, got {w}")
            object.__setattr__(self, "weights", w)

    @property
    def kind(self) -> str:
        return "lp" if self.weights is None else "weighted_lp"

    @cached_property
    def _weight_array(self) -> np.ndarray | None:
        if self.weights is None:
            return None
        return _frozen(np.array(self.weights, dtype=float))

    @cached_property
    def fold(self) -> NormFold | None:
        """The norm as a fold of per-coordinate terms, under p in {1, 2, inf}."""
        w = self._weight_array
        if self.p == 2.0:
            return NormFold(np.square, np.add, np.sqrt, w)
        if self.p == 1.0:
            return NormFold(np.abs, np.add, None, w)
        if self.p is INF:
            return NormFold(np.abs, np.maximum, None, w)
        return None


class NormFold(NamedTuple):
    """A norm under p in {1, 2, inf} as ``finish(fold(ufunc, terms))``.

    Coordinate j's term is ``term(x_j) * w_j`` (no factor when unweighted):
    |x_j|, or x_j x_j under p = 2; the fold is a sum, or a maximum under
    p = inf; the finish is a square root under p = 2 and none otherwise.
    :func:`norms_of_rows` folds each row's terms; :meth:`mesh` folds the
    terms of each axis of a mesh by broadcasting, the same operations in
    the same order.
    """

    term: np.ufunc
    ufunc: np.ufunc
    finish: np.ufunc | None
    weights: np.ndarray | None

    def axis_terms(self, axes, first: int = 0) -> list[np.ndarray]:
        """Each axis's terms, axis j taken as column ``first + j``."""
        w = self.weights
        if w is None:
            return [self.term(a) for a in axes]
        return [self.term(a) * w[first + j] for j, a in enumerate(axes)]

    def mesh(self, axes, out=None) -> np.ndarray:
        """The folded terms of the rows of ``mesh_rows(axes)``, unfinished,
        in the mesh's shape.  Each axis's terms lie along its own
        dimension, and folding them in column order by broadcasting makes,
        per row, the ufunc calls of :func:`fold_rows` on its terms.  The
        last fold step writes into ``out`` when given (of the mesh's
        shape); a single axis's terms are returned as they are."""
        n = len(axes)
        acc = None
        for j, t in enumerate(self.axis_terms(axes)):
            t = t.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j))
            acc = t if acc is None else self.ufunc(acc, t, out=out if j == n - 1 else None)
        return acc

    def finished(self, folded, out=None) -> np.ndarray:
        return folded if self.finish is None else self.finish(folded, out=out)

    def mesh_norms(self, axes) -> np.ndarray:
        """:meth:`mesh`, finished: the norms of the mesh rows."""
        return self.finished(self.mesh(axes))


def norm(v, spec: NormSpec) -> float:
    """The lp (or weighted-lp) norm of ``v`` under ``spec``."""
    return float(norms_of_rows(as_vector(v, spec.dimension)[None, :], spec)[0])


def fold_rows(ufunc, X) -> np.ndarray:
    """``ufunc.reduce(X, axis=-1)`` as a left-to-right fold over the columns.

    numpy's reduce walks a short last axis row by row; the fold makes one
    ufunc call per column, each into a new array (an in-place call on one
    element takes numpy's reduction loop, whose sum of two NaNs is the
    second's, not the first's as in a longer batch).  numpy sums fewer than
    8 terms left to right too (its pairwise summation starts at 8), so the
    fold gives the same values: for ``maximum`` and
    ``minimum`` the same bytes up to width 8 (beyond it numpy's vectorised
    reduce may return the other zero of a +0.0/-0.0 tie), and for ``add``
    up to width 7 the same values under ``np.array_equal``, where a sum of
    only -0.0 folds to -0.0 but numpy's reduce returns +0.0.  A NaN may
    carry another payload.  A row's value never depends on the other rows
    of its batch.
    """
    X = np.asarray(X)
    if X.shape[-1] < 2:
        return ufunc.reduce(X, axis=-1)
    out = ufunc(X[..., 0], X[..., 1])
    for j in range(2, X.shape[-1]):
        out = ufunc(out, X[..., j])
    return out


def first_rows(X) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of a
    2-D array, under float equality (-0.0 equals 0.0, a NaN equals
    nothing): ``np.sort(np.unique(X, axis=0, return_index=True)[1])``.

    A stable lexsort over the columns puts equal rows next to each other in
    index order; a row that differs from its sorted predecessor starts a
    new one.
    """
    X = np.asarray(X)
    order = np.lexsort(X.T)
    S = X[order]
    new = np.ones(len(X), dtype=bool)
    new[1:] = fold_rows(np.logical_or, S[1:] != S[:-1])
    return np.sort(order[new])


def norms_of_rows(X, spec: NormSpec) -> np.ndarray:
    """Vectorized :func:`norm` over the rows of a (k, dimension) array.

    A row with a NaN entry has norm NaN, and otherwise one with an infinite
    entry has norm inf, under every p.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.dimension:
        raise DimensionMismatch(
            f"expected a (k, {spec.dimension}) array, got shape {X.shape}"
        )
    fold = spec.fold
    if fold is not None:
        T = fold.term(X) if fold.weights is None else fold.term(X) * fold.weights
        folded = fold_rows(fold.ufunc, T)
        return folded if fold.finish is None else fold.finish(folded)
    w = spec._weight_array
    A = np.abs(X)
    p = spec.p
    m = fold_rows(np.maximum, A)  # NaN if an entry is NaN, else inf if one is inf
    scalable = (m > 0.0) & (m < np.inf)
    # A row of norm 0, inf or NaN is its m; the masks run only when one exists.
    every = bool(np.logical_and.reduce(scalable))
    safe = m if every else np.where(scalable, m, 1.0)
    scaled = (A / safe[:, None]) ** p
    if w is not None:
        scaled = scaled * w
    norms = m * fold_rows(np.add, scaled) ** (1.0 / p)
    return norms if every else np.where(scalable, norms, m)


@dataclass(frozen=True)
class FeasibleSet:
    """Base class for closed, convex, unbounded sets in R^dimension.

    Subclasses store an unboundedness witness: ``ray_base + t * ray_direction``
    stays in the set for every t >= 0.

    ``coordinatewise`` marks a product of intervals (full space, orthants):
    its projection acts on each coordinate alone, and a row's residual is
    the largest of its coordinates' residuals.
    """

    coordinatewise: ClassVar[bool] = False

    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "dimension", positive_int(self.dimension))

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
        """True iff x is finite and violates no constraint by more than tol."""
        x = as_vector(x, self.dimension)
        return _finite(x.tolist()) and self.violation(x) <= tol

    def require(self, x, what: str = "point") -> np.ndarray:
        """``x`` as a vector of the set, or :class:`MembershipViolation` if a
        constraint fails by more than :data:`MEMBERSHIP_TOL` or an entry is
        NaN or infinite (such a vector belongs to no set)."""
        x = as_vector(x, self.dimension, what)
        if not _finite(x.tolist()):
            raise MembershipViolation(f"{what} has a NaN or infinite entry: {x}")
        v = float(self.violations_of_rows(x[None, :])[0])
        if not v <= MEMBERSHIP_TOL:
            raise MembershipViolation(
                f"{what} is outside the feasible set by {v:.3e} (> {MEMBERSHIP_TOL})"
            )
        return x

    def require_rows(self, X, what: str, first: int) -> None:
        """:meth:`require` for every row of a (k, dimension) array: the first
        row it refuses is named ``what row j``, j its index plus ``first``.
        Rows that all pass cost two array tests, their entries' finiteness
        and :meth:`_residuals_pass`; only a failing batch is gated row by
        row."""
        if not (np.isfinite(X).all() and self._residuals_pass(X)):
            for i, x in enumerate(X, start=first):
                self.require(x, f"{what} row {i}")

    def _residuals_pass(self, X) -> bool:
        """Whether no row of X violates a constraint by more than
        :data:`MEMBERSHIP_TOL`; a NaN residual fails."""
        return bool((self.violations_of_rows(X) <= MEMBERSHIP_TOL).all())

    def project(self, z) -> np.ndarray:
        """One-row :meth:`project_rows`."""
        return self.project_rows(as_vector(z, self.dimension)[None, :])[0]


@dataclass(frozen=True)
class FullSpace(FeasibleSet):
    coordinatewise: ClassVar[bool] = True

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

    coordinatewise: ClassVar[bool] = True

    lower: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        default = (0.0,) * self.dimension
        lower = finite_tuple(self.lower or default, "lower bounds", self.dimension)
        object.__setattr__(self, "lower", lower)

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
        return fold_rows(np.maximum, self._lower_array[None, :] - X)

    def _residuals_pass(self, X) -> bool:
        # fl(lower_j - x) falls as x grows, so the block's largest residual
        # is max_j fl(lower_j - min_i X[i, j]), from its column minima, each
        # reduced where it lies: a copy of a large block costs its memory.
        if len(X) == 0:
            return True
        return all(lo - X[:, j].min() <= MEMBERSHIP_TOL for j, lo in enumerate(self.lower))

    def project_rows(self, Z) -> np.ndarray:
        return np.maximum(np.asarray(Z, dtype=float), self._lower_array[None, :])


@dataclass(frozen=True)
class HalfSpace(FeasibleSet):
    """The set {x : normal . x >= offset}."""

    normal: tuple[float, ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        normal = finite_tuple(self.normal, "half-space normal", self.dimension)
        object.__setattr__(self, "normal", normal)
        if not math.isfinite(float(self.offset)):
            raise ValueError(f"half-space offset must be finite, got {self.offset}")
        object.__setattr__(self, "offset", float(self.offset))
        # Projection divides by normal . normal: it must not underflow to 0 or overflow.
        if not 0.0 < self._normal_sq < np.inf:
            raise ValueError("half-space normal . normal must be positive and finite")

    @property
    def variant(self) -> str:
        return "half_space"

    @cached_property
    def _normal_array(self) -> np.ndarray:
        return _frozen(np.array(self.normal, dtype=float))

    @cached_property
    def _normal_sq(self) -> float:
        a = self._normal_array
        with np.errstate(over="ignore"):  # an overflow is rejected at construction
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
        return self.offset - fold_rows(np.add, X * self._normal_array)

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
        gap = np.maximum(self.violations_of_rows(Z), 0.0)
        return Z + (gap / self._normal_sq)[:, None] * self._normal_array[None, :]


@dataclass(frozen=True)
class ConeIntersection(FeasibleSet):
    """Intersection of finitely many half-spaces, unbounded by witness.

    The caller must supply a ray direction that every half-space accepts
    (normal . ray >= 0); detecting unboundedness is out of scope, so a ray
    that escapes some constraint is rejected at construction time, and so
    is an intersection with no point at all.

    Projection is exact: z moves onto the first candidate face whose KKT
    conditions hold there.  The faces' KKT algebra is composed once, at
    construction, into one table over the constraints' residuals.
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
        r = finite_tuple(self.ray, "ray witness", self.dimension)
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
        nearest, excess = self._nearest(np.zeros((1, self.dimension)))
        if not excess[0] <= 0.0:
            raise ValueError("the half-spaces have no common point; the set is empty")
        given = self.base
        base = nearest[0] if given is None else given
        object.__setattr__(self, "base", finite_tuple(base, "base witness", self.dimension))
        if given is not None:
            self.require(self.base, "base witness")

    @property
    def variant(self) -> str:
        return "cone"

    @cached_property
    def ray_base(self) -> np.ndarray:
        return _frozen(np.array(self.base, dtype=float))

    @cached_property
    def ray_direction(self) -> np.ndarray:
        return _frozen(np.array(self.ray, dtype=float))

    @cached_property
    def _faces(self) -> tuple[np.ndarray, int, float, np.ndarray, np.ndarray]:
        """The table over the raw residuals g = offset - a . x, the count F
        of faces (the empty one, then those of at most min(n, m) independent
        normals by size), max |c| over the unit offsets, and the faces of n
        constraints with their vertices (n, count).  For r = g / |a| and
        U_S^T = Q R, face S has k = min(n, m) negated multipliers
        -R^-1 R^-T r_S (padded with its first, or the empty face's first
        residual), m residuals r - U step after it (one on S takes its first
        negated multiplier) and n step entries Q R^-T r_S, or (g / a.a) a on
        one raw normal a, as :meth:`HalfSpace.project_rows` steps.
        ``table[i, q * F + f, 0]`` weighs g_i in quantity q of face f."""
        n, m = self.dimension, len(self.constraints)
        k = min(n, m)
        count = sum(math.comb(m, j) for j in range(k + 1))
        if count > FACE_CAP:
            raise ValueError(
                f"{m} half-spaces in dimension {n} give {count} candidate faces "
                f"for projection, above the cap {FACE_CAP}"
            )
        offsets, A = (v[:, 0] for v in self._offsets_and_normals)
        square = np.array([hs._normal_sq for hs in self.constraints])
        scale = np.sqrt(square)
        U = A / scale[:, None]
        faces = [()] + [
            S
            for j in range(1, k + 1)
            for S in itertools.combinations(range(m), j)
            if np.linalg.matrix_rank(U[list(S)]) == j
        ]
        table = np.zeros((m, k + m + n, len(faces)))
        unit, corners, vertices = np.diag(1.0 / scale), [], []
        for f, S in enumerate(map(list, faces)):
            step, negated = np.zeros((n, m)), unit[:1]
            if S:
                Q, R = np.linalg.qr(U[S].T)
                r_inv = np.linalg.inv(R)
                negated = np.zeros((len(S), m))
                negated[:, S] = -(r_inv @ r_inv.T) / scale[S]
                step[:, S] = (Q @ r_inv.T) / scale[S] if S[1:] else A[S].T / square[S]
            after = unit - U @ step
            after[S] = negated[0]
            pad = np.repeat(negated[:1], k - len(negated), axis=0)
            table[:, :, f] = np.vstack((negated, pad, after, step)).T
            if len(S) == n:
                corners.append(f)
                vertices.append(np.linalg.solve(A[S], offsets[S]))
        c_max = float(np.abs(offsets / scale).max())
        vertices = np.array(vertices).reshape(-1, n).T
        return table.reshape(m, -1, 1), len(faces), c_max, np.array(corners, dtype=int), vertices

    def _nearest(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's projection and KKT excess (<= 0 when a face passes).
        V = table . g, m folds of (K, rows) blocks, holds each quantity of
        every face as a contiguous (F, rows) block; a face's defect is the
        largest of its negated multipliers and residuals after its step.  A
        row takes the first face of defect <= tol, its Euclidean projection,
        else the first of least defect, and moves by its step, or onto its
        vertex.  Every operation is elementwise or a fold along the blocks,
        so a row's result does not depend on the rest of its batch."""
        table, faces, c_max, corners, vertices = self._faces
        g = self._gaps(X)
        V = table[0] * g[0]
        for g_i, table_i in zip(g[1:], table[1:]):
            V += table_i * g_i
        V = V.reshape(len(table[0]) // faces, faces, len(X))
        defect = np.maximum.reduce(V[: -self.dimension], axis=0)
        tol = PROJECTION_TOL * (1.0 + fold_rows(np.maximum, np.abs(X)) + c_max)
        best = np.minimum.reduce(defect, axis=0)
        pick = (defect <= np.maximum(tol, best)).argmax(axis=0)
        moves = V[-self.dimension :]
        moves += X.T[:, None, :]
        moves[:, corners] = vertices[:, :, None]
        return moves[:, pick, np.arange(len(X))].T, best - tol

    @cached_property
    def _offsets_and_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """The constraints' offsets as an (m, 1) column and their raw
        normals as an (m, 1, n) stack, shaped to broadcast over rows."""
        offsets = np.array([[hs.offset] for hs in self.constraints])
        normals = np.array([hs._normal_array for hs in self.constraints])[:, None, :]
        return _frozen(offsets), _frozen(normals)

    def _gaps(self, X: np.ndarray) -> np.ndarray:
        """Each constraint's :meth:`HalfSpace.violations_of_rows`, (m, rows),
        in one broadcast with the same column fold."""
        offsets, normals = self._offsets_and_normals
        return offsets - fold_rows(np.add, X * normals)

    def violations_of_rows(self, X) -> np.ndarray:
        return np.maximum.reduce(self._gaps(np.asarray(X, dtype=float)), axis=0)

    def project_rows(self, Z) -> np.ndarray:
        """Exact Euclidean projection of each row, in blocks that bound the
        (quantities, faces, rows) array of the table's values."""
        X = np.array(Z, dtype=float)
        block = max(1, _BROADCAST_CAP // len(self._faces[0][0]))
        for s in range(0, len(X), block):
            X[s : s + block] = self._nearest(X[s : s + block])[0]
        return X


def contains(set_: FeasibleSet, x, tol: float = 0.0) -> bool:
    """True iff x is finite and violates no defining constraint of the set by
    more than tol."""
    return set_.contains(x, tol)


def project(set_: FeasibleSet, z) -> np.ndarray:
    """Euclidean projection of z onto the set."""
    return set_.project(z)


def ball_bound(radius):
    """The largest norm :func:`in_ball` admits for ``radius`` (a float or
    an array): a relative tolerance of 1e-12 for rows snapped onto the
    shell."""
    scale = np.maximum(1.0, radius) if isinstance(radius, np.ndarray) else max(1.0, radius)
    return radius + 1e-12 * scale


def in_ball(X: np.ndarray, radius, norm_spec: NormSpec) -> np.ndarray:
    """Mask of the rows of X inside the closed ball of ``radius``, one
    radius for every row or a (k,) array of them, up to :func:`ball_bound`."""
    return norms_of_rows(X, norm_spec) <= ball_bound(radius)


def _grid_axes(radius: float, resolution: int, dimension: int) -> list[np.ndarray]:
    if resolution ** dimension > GRID_POINT_CAP:
        raise ValueError(
            f"grid of {resolution}^{dimension} points exceeds the cap "
            f"{GRID_POINT_CAP}; lower the per-axis resolution"
        )
    axis = np.linspace(-radius, radius, resolution)
    return [axis] * dimension


@contextmanager
def scratch():
    """Lend a mesh walk flat float buffers: yields ``room(slot, shape)``, a
    C-contiguous array of ``shape`` at the start of the walk's buffer
    ``slot``, which the slot's next call overwrites.  A buffer too small is
    swapped for the least spare that fits, or a new one, and the walk's
    buffers become spares when it ends: a new large array pays a page
    fault per page on its first write, a fifth of a small audit scan."""
    held: dict[int, np.ndarray] = {}

    def room(slot: int, shape) -> np.ndarray:
        size = math.prod(shape)
        buffer = held.get(slot)
        if buffer is None or len(buffer) < size:
            if buffer is not None:
                _SPARE.append(buffer)
            fits = [i for i, b in enumerate(_SPARE) if len(b) >= size]
            i = min(fits, key=lambda i: len(_SPARE[i]), default=None)
            buffer = held[slot] = np.empty(size) if i is None else _SPARE.pop(i)
        return buffer[:size].reshape(shape)

    try:
        yield room
    finally:
        _SPARE.extend(held.values())
        _SPARE.sort(key=len)
        del _SPARE[:-_SPARES]


def mesh_rows(axes, width: int | None = None) -> np.ndarray:
    """The mesh of ``axes`` as rows in lexicographic index order (the last
    axis fastest), written into the last columns of one preallocated
    (N, width) array; ``width`` defaults to ``len(axes)``."""
    n = len(axes)
    width = width or n
    out = np.empty([len(a) for a in axes] + [width])
    for j, a in enumerate(axes):
        out[..., width - n + j] = np.reshape(a, (-1,) + (1,) * (n - 1 - j))
    return out.reshape(-1, width)


class MeshBlock(NamedTuple):
    """One block of :func:`mesh_blocks`: the rows ``(*lead, *t)``, t over
    the mesh of ``tail``, that the mask ``inside`` keeps (all when None).
    ``tail`` is the walk's trailing ``axes`` with the first cut to
    ``first``, so the block is one run, ``span``, of their mesh's rows;
    ``buffer``, when given, returns those rows, built once per walk."""

    lead: tuple
    axes: list
    first: slice
    inside: np.ndarray | None
    buffer: Callable[[], np.ndarray] | None

    @property
    def tail(self) -> list[np.ndarray]:
        return [self.axes[0][self.first], *self.axes[1:]]

    @property
    def span(self) -> slice:
        stride = math.prod(len(a) for a in self.axes[1:])
        return slice(self.first.start * stride, self.first.stop * stride)

    def gather(self, at) -> np.ndarray:
        """The rows at tail-mesh indices ``at``, one index array per
        trailing axis (as ``np.nonzero`` gives them), taken from the axes."""
        lead = len(self.lead)
        out = np.empty((len(at[0]), lead + len(at)))
        if lead:
            out[:, :lead] = self.lead
        for j, (a, i) in enumerate(zip(self.tail, at), start=lead):
            out[:, j] = a[i]
        return out

    def rows(self) -> np.ndarray:
        """The members as rows: with a buffer, compressed from its span
        (maybe a view, which the next block overwrites)."""
        if self.buffer is None:
            if self.inside is not None:
                return self.gather(np.nonzero(self.inside))
            lead = len(self.lead)
            rows = mesh_rows(self.tail, lead + len(self.axes))
            rows[:, :lead] = self.lead
            return rows
        buffer = self.buffer()
        buffer[:, :len(self.lead)] = self.lead
        rows = buffer[self.span]
        return rows if self.inside is None else np.compress(self.inside.ravel(), rows, axis=0)


def spread_axes(axes) -> list[np.ndarray]:
    """Each axis's values at the rows of ``mesh_rows(axes)``, in order: the
    columns of the mesh, each a contiguous array."""
    shape = [len(a) for a in axes]
    return [np.broadcast_to(np.reshape(a, (-1,) + (1,) * (len(axes) - 1 - j)), shape).ravel()
            for j, a in enumerate(axes)]


def mesh_blocks(axes, radius, spec: NormSpec, cap: int | None = None, hull: bool = False):
    """The rows of ``mesh_rows(axes)`` that :func:`in_ball` keeps, in order
    and bit for bit, as :class:`MeshBlock` s: blocks of at most ``cap``
    rows, or without a cap one block under p in {1, 2, inf} and blocks of
    at most ``MESH_BLOCK_FLOATS // n`` rows under other p; none for an
    empty mesh.

    Under the max norm the ball is a box: each axis keeps its values whose
    term is within :func:`ball_bound`, and nothing is masked.  Under p in
    {1, 2} the mask is :meth:`NormFold.mesh_norms` of the axes, and under
    other p :func:`in_ball` of the rows.  Bounded blocks walk the mesh of
    the k trailing axes, k the most whose mesh has at most ``cap`` rows (at
    least one; a longer single axis is cut into slices), once per tuple of
    leading values.  Under l1 and l2 a block first cuts its first trailing
    axis to the values some member takes: those whose row with every later
    term at its axis's least is inside, as each fold step and the finish
    are monotone.  Its mask continues the leading values' fold over the
    run left, each term spread over the mesh; a block without members is
    skipped.

    With ``hull`` (p in {1, 2, inf} and a cap) a block may take several
    values of one axis: the first axis whose later axes' mesh has at most
    ``cap`` rows is cut into runs of as many values as fit the cap, each
    run with one tuple of the earlier axes' values.  Each block is then
    cut to its hull, on every axis the range of values some member takes
    (the same exact fold test, each other term at its least over the
    block), so its ``axes`` are its own and ``first`` spans all of the
    first; its mask folds its own terms.
    """
    n, fold, bound = len(axes), spec.fold, ball_bound(radius)
    boxed = spec.p is INF
    if boxed:
        axes = [a[t <= bound] for a, t in zip(axes, fold.axis_terms(axes))]
    folded = fold is not None and not boxed
    sizes = [len(a) for a in axes]
    if not all(sizes):
        return
    if hull:
        if fold is None or cap is None:
            raise ValueError("hull blocks need p in {1, 2, inf} and a cap")
        yield from _hull_blocks(axes, fold if folded else None, bound, cap)
        return
    if cap is None and fold is None:
        cap = MESH_BLOCK_FLOATS // n
    if cap is None:
        inside = fold.mesh_norms(axes) <= bound if folded else None
        yield MeshBlock((), axes, slice(0, sizes[0]), inside, None)
        return
    k = 1  # the tail's axes
    while k < n and math.prod(sizes[n - k - 1:]) <= cap:
        k += 1
    lead_axes, tail_axes = axes[:n - k], axes[n - k:]
    buffer = cache(lambda: mesh_rows(tail_axes, n))
    length, stride = sizes[n - k], math.prod(sizes[n - k + 1:])
    # A single tail axis is cut into slices of cap rows; a longer tail fits.
    cuts = range(0, length, cap) if k == 1 else [0]
    if folded:
        terms = fold.axis_terms(tail_axes, n - k)
        least = [t.min() for t in terms[1:]]
        spread = spread_axes(terms)
    lead_folds = (fold.mesh(lead_axes).ravel() if folded and lead_axes
                  else itertools.repeat(None))
    for lead, lead_fold in zip(itertools.product(*lead_axes), lead_folds):
        lo, hi = 0, length
        if folded:
            acc = terms[0] if lead_fold is None else fold.ufunc(lead_fold, terms[0])
            for low in least:
                acc = fold.ufunc(acc, low)
            taken = np.nonzero(fold.finished(acc) <= bound)[0]
            if not len(taken):
                continue
            lo, hi = int(taken[0]), int(taken[-1]) + 1
        for start in cuts:
            first = slice(max(lo, start), min(hi, start + cap) if k == 1 else hi)
            if first.start >= first.stop:
                continue
            shape = [first.stop - first.start] + sizes[n - k + 1:]
            run = slice(first.start * stride, first.stop * stride)
            if folded:
                acc = lead_fold
                for t in spread:
                    acc = t[run] if acc is None else fold.ufunc(acc, t[run])
                inside = (fold.finished(acc) <= bound).reshape(shape)
            elif boxed:
                inside = None
            else:
                rows = buffer()
                rows[:, :n - k] = lead
                inside = in_ball(rows[run], radius, spec).reshape(shape)
            yield MeshBlock(lead, tail_axes, first, inside, buffer)


def _hull_blocks(axes, fold, bound, cap):
    """:func:`mesh_blocks` with ``hull``, on axes clipped to the box under
    the max norm, where ``fold`` is None and nothing is masked.  The tests
    that find each run's hull are shared by the runs of a tuple of leading
    values: the cut axis's over the whole axis, and each later axis's
    against every run's least cut-axis term at once."""
    n, sizes = len(axes), [len(a) for a in axes]
    j = n - 1  # the cut axis
    while j and math.prod(sizes[j:]) <= cap:
        j -= 1
    step, m = max(cap // math.prod(sizes[j + 1:]), 1), n - j
    starts = range(0, sizes[j], step)
    if fold is not None:
        terms = fold.axis_terms(axes)[j:]
        least = [t.min() for t in terms]
        along = [(1,) * q + (-1,) + (1,) * (m - 1 - q) for q in range(m)]
    heads = ([[v] for v in fold.mesh(axes[:j]).ravel()] if fold is not None and j
             else itertools.repeat([]))
    for lead, head in zip(itertools.product(*axes[:j]), heads):
        if fold is not None:  # taken[i][r]: axis i's values some member of run r takes
            lows = np.minimum.reduceat(terms[0], starts)[:, None]
            taken = []
            for i, t in enumerate(terms):
                column = [t if q == i else lows if q == 0 else low for q, low in enumerate(least)]
                taken.append(fold.finished(reduce(fold.ufunc, head + column)) <= bound)
        for r, start in enumerate(starts):
            cut = [slice(start, start + step)] + [slice(None)] * (m - 1)
            inside = None
            if fold is not None:
                for i, ok in enumerate(taken):
                    at = np.flatnonzero(ok[cut[0]] if i == 0 else ok[r])
                    if not len(at):
                        break  # no member: only the cut axis's test can fail
                    base = start if i == 0 else 0
                    cut[i] = slice(base + at[0], base + at[-1] + 1)
                else:
                    ts = [t[c].reshape(s) for t, c, s in zip(terms, cut, along)]
                    inside = fold.finished(reduce(fold.ufunc, head + ts)) <= bound
                if inside is None:
                    continue
            block = [a[c] for a, c in zip(axes[j:], cut)]
            yield MeshBlock(lead, block, slice(0, len(block[0])), inside, None)


@dataclass(frozen=True)
class SampleDomain:
    """Truncated sampling window X intersected with the active-norm ball
    of a given radius; every emitted point is feasible and inside the ball.
    Its grid and samples are one-window calls of :func:`sample_windows`,
    which snaps the points of many windows in one pass."""

    domain: FeasibleSet
    norm: NormSpec
    radius: float
    resolution: int

    def __post_init__(self):
        if self.domain.dimension != self.norm.dimension:
            raise DimensionMismatch("set and norm dimensions disagree")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "resolution", positive_int(self.resolution, "resolution"))

    def grid_points(self) -> np.ndarray:
        """Regular box grid snapped into the window: the one-window call of
        :func:`sample_windows`.

        Points are projected into X, restricted to the ball, and deduplicated
        keeping the first occurrence in lexicographic grid-index order
        (:func:`first_rows`, the rows ``np.unique(axis=0)`` would keep).
        On a coordinatewise set (full space, orthants) the projected mesh is
        the mesh of the projected axes, and a row's first occurrence is the
        tuple of its coordinates' first occurrences on their axes.  So the
        axes are projected as the columns of one array; a projected axis
        never decreases, so it keeps the values that differ from their
        predecessor; and the grid is :func:`mesh_blocks` of the kept axes, with
        no projection or dedup of the whole mesh: one block under p in
        {1, 2, inf}, with no norm pass, and bounded blocks joined under
        other p, so that no norm pass spans the whole mesh.  Other sets
        project and dedup the whole mesh.
        """
        return sample_windows([self], grids=True)[0][0]

    @cached_property
    def _axes(self) -> list[np.ndarray]:
        """On full space and orthants, the projected axes, each keeping its
        values that differ from their predecessor."""
        axes = _grid_axes(self.radius, self.resolution, self.domain.dimension)
        columns = self.domain.project_rows(np.stack(axes, axis=1)).T
        first = np.ones(columns.shape, dtype=bool)
        first[:, 1:] = columns[:, 1:] != columns[:, :-1]
        return [c[m] for c, m in zip(columns, first)]

    def blocks(self, cap: int | None = None, hull: bool = False):
        """On full space and orthants, the grid as :func:`mesh_blocks` of
        the projected axes."""
        return mesh_blocks(self._axes, self.radius, self.norm, cap, hull)

    def require_grid(self) -> np.ndarray:
        """:meth:`grid_points`, refusing an empty grid."""
        pts = self.grid_points()
        if len(pts) == 0:
            self._refuse()
        return pts

    def require_points(self) -> "SampleDomain":
        """The window, refused as :meth:`require_grid` refuses an empty
        grid.  On full space and orthants no row is built: under p in
        {1, 2, inf} the mesh has a member when the row of each axis's least
        term has (each fold step and the finish are monotone), and under
        other p the bounded blocks are walked up to the first member."""
        fold = self.norm.fold
        if not self.domain.coordinatewise:
            self.require_grid()
        elif fold is not None:
            least = reduce(fold.ufunc, [t.min() for t in fold.axis_terms(self._axes)])
            if not fold.finished(least) <= ball_bound(self.radius):
                self._refuse()
        elif not any(b.inside.any()
                     for b in self.blocks(MESH_BLOCK_FLOATS // self.domain.dimension)):
            self._refuse()
        return self

    def _refuse(self):
        raise InfeasibleTruncation(
            f"no feasible grid point inside the ball of radius {self.radius}"
        )

    def uniform(self, rng: np.random.Generator) -> Callable[[int], np.ndarray]:
        """``draw(k)``: k seeded uniform samples of the window's box, a
        :func:`sample_windows` draw."""
        n = self.domain.dimension
        return lambda k: rng.uniform(-self.radius, self.radius, size=(k, n))

    def random_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Seeded uniform box samples snapped into the window (may return
        fewer than requested if the window is thin): the one-window call of
        :func:`sample_windows`."""
        return sample_windows([self], [(count, self.uniform(rng))])[1][0]

    def low_discrepancy_points(self, count: int, seed: int) -> np.ndarray:
        """Seeded scrambled-Halton samples snapped into the window."""
        from scipy.stats import qmc

        sampler = qmc.Halton(d=self.domain.dimension, scramble=True,
                             seed=np.random.default_rng(seed))
        draw = lambda k: (2.0 * sampler.random(k) - 1.0) * self.radius
        return sample_windows([self], [(count, draw)])[1][0]


def sample_windows(windows: Sequence[SampleDomain], draws=(), grids: bool = False):
    """The grids (with ``grids``) and samples of windows on one set and one
    norm, in one pass: ``(grids, samples)``, each a list of one array per
    window (no grids without ``grids``; one sample array per draw).

    ``draws[i] = (count, draw)`` asks window i for up to ``count`` points,
    from rounds of ``draw(max(count, 8))`` box samples snapped into the
    window, at most 50 rounds (fewer points if the window is thin); a
    window stops drawing once it has ``count``.  Each round stacks the
    batches of every window still drawing, the first round also the meshes
    of the grids on a set that is not coordinatewise, and snaps them by one
    ``project_rows`` and one :func:`in_ball` pass, each row against its own
    window's radius.  A row's projection and ball test do not depend on its
    batch, so each window gets bit for bit the rows of its own call.  A
    grid is then deduplicated as :meth:`SampleDomain.grid_points` says; on
    full space and orthants it is its window's :func:`mesh_blocks`, joined.
    """
    if not windows:
        return [], []
    domain, spec, n = windows[0].domain, windows[0].norm, windows[0].domain.dimension
    meshed = grids and not domain.coordinatewise
    meshes = [mesh_rows(_grid_axes(w.radius, w.resolution, n)) for w in windows] if meshed else []
    made, found, live = [], [[] for _ in draws], list(range(len(draws)))
    for _ in range(50):
        blocks = meshes + [draws[i][1](max(draws[i][0], 8)) for i in live]
        if not blocks:
            break
        radii = [w.radius for w in windows[:len(meshes)]] + [windows[i].radius for i in live]
        sizes = [len(X) for X in blocks]
        X = domain.project_rows(blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
        radius = radii[0] if len(set(radii)) == 1 else np.repeat(radii, sizes)
        inside = in_ball(X, radius, spec)
        if len(blocks) == 1:
            kept = [X[inside]]
        else:
            edges = np.cumsum(sizes[:-1])
            kept = [x[m] for x, m in zip(np.split(X, edges), np.split(inside, edges))]
        if meshes:
            made = [g[first_rows(g)] if len(g) else g for g in kept[:len(meshes)]]
            kept, meshes = kept[len(meshes):], []
        for i, rows in zip(live, kept):
            found[i].append(rows)
        live = [i for i in live if sum(map(len, found[i])) < draws[i][0]]
    if grids and not meshed:
        for w in windows:
            parts = [b.rows() for b in w.blocks()]
            made.append(parts[0] if len(parts) == 1 else np.concatenate([np.empty((0, n)), *parts]))
    samples = [np.vstack(rows)[:count] for rows, (count, _) in zip(found, draws)]
    return made, samples
