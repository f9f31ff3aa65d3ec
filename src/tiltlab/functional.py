"""The tilted displacement objective and its companions.

For a norm, a feasible set X and a self-map f the objective is

    J(x, y) = ||x - f(x)|| - ||y - f(x)||,

zero on the diagonal by construction and concave in y.  The displacement
Phi(x) = ||x - f(x)|| equals sup over y in X of J(x, y) because the tilt
term attains 0 at y = f(x), which lies in X.  When the growth ratio of f
is bounded below 1/2 beyond some radius, J(., y) exceeds any incumbent
value outside a computable ball, which licenses truncated global search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GrowthConditionNotMet
from .maps import MapSpec, affine_parts, evaluate_rows
from .spaces import (
    MEMBERSHIP_TOL, FeasibleSet, FullSpace, NormSpec, as_vector, norm, norms_of_rows, scratch,
)


@dataclass(frozen=True)
class TiltedFunctional:
    """Bundle (norm, feasible set, self-map) defining J and Phi.

    J has one kernel, ``pairs(X, Y)[i] = J(X[i], Y[i])`` for (k, n) arrays,
    either side possibly one row broadcast against the other, and its exact
    row envelope ``row_sup(X) = (Phi(X), f(X))``: no entry of
    ``pairs(X[i:i+1], Y)`` lies above ``Phi(X[i])`` in floating point.
    Every per-point value is one row of them, and a row's value does not
    depend on the rest of its batch."""

    norm: NormSpec
    domain: FeasibleSet
    mapping: MapSpec

    def __post_init__(self):
        dims = {self.norm.dimension, self.domain.dimension, self.mapping.dimension}
        if len(dims) != 1:
            raise DimensionMismatch(f"norm/set/map dimensions disagree: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.norm.dimension

    def displacement(self, x) -> float:
        return displacement(self, x)

    # J(X[i], Y[i]), with a one-row side broadcast; f goes through the
    # range-checked evaluate_rows, and callers guarantee membership.
    def pairs(self, X, Y) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return tilted_rows(X, Y, evaluate_rows(self.mapping, X, self.domain), self.norm)

    def displacements(self, X) -> np.ndarray:
        return self.row_sup(X)[0]

    # sup_y J(X[i], y) = Phi(X[i]), attained at y = f(X[i]): the exact row
    # envelope, with the same row bits as the first term of pairs.
    def row_sup(self, X) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        FX = evaluate_rows(self.mapping, X, self.domain)
        return norms_of_rows(X - FX, self.norm), FX

    # A one-point closure of Phi, row 0 of the kernel: the benchmark's audit
    # workload hands it to brute_force_minima.
    def displacement_objective(self):
        return lambda x: float(self.displacements(x[None, :])[0])

    # The benchmark's minimax workload passes F.as_bifunctional() to minimax_gap.
    def as_bifunctional(self) -> "TiltedFunctional":
        return self

    @property
    def mesh_form(self) -> bool:
        """Whether J and Phi have mesh forms (:func:`mesh_images`): an affine
        or constant map under p in {1, 2, inf}, weighted or not, on full
        space or an orthant, valued by this class's own kernels (a subclass
        that overrides ``pairs`` or ``row_sup`` is valued by its rows)."""
        cls = type(self)
        return (cls.pairs is TiltedFunctional.pairs and cls.row_sup is TiltedFunctional.row_sup
                and self.domain.coordinatewise and self.norm.fold is not None
                and affine_parts(self.mapping) is not None)


# Only the benchmark's tracer (perfbench/layers.py) reads this name.
Bifunctional = TiltedFunctional


def tilted_rows(X, Y, FX, norm_spec: NormSpec) -> np.ndarray:
    """J's formula ||X[i] - FX[i]|| - ||Y[i] - FX[i]|| over rows, given
    ``FX = f(X)``; each side may be one row broadcast against the others.
    Every J value, batched or not, is computed here.  When both
    differences have the k rows of FX, they are written into one (2k, n)
    array and normed in one :func:`norms_of_rows` call: a row's norm does
    not depend on its batch, so the values are those of two calls."""
    k = len(FX)
    if len(Y) > k:  # one row of X against the rows of Y
        return norms_of_rows(X - FX, norm_spec) - norms_of_rows(Y - FX, norm_spec)
    D = np.empty((2 * k,) + FX.shape[1:])
    np.subtract(X, FX, D[:k])
    np.subtract(Y, FX, D[k:])
    norms = norms_of_rows(D, norm_spec)
    return norms[:k] - norms[k:]


def mesh_images(F: TiltedFunctional, blocks, rows=None):
    """f over each block of a :func:`spaces.mesh_blocks` walk, for an
    affine or constant map (:func:`maps.affine_parts`): yields ``(block,
    f)``, f an (n, rows) array over the block's tail mesh that the caller
    may overwrite, and that the next block overwrites; f is None for a
    block that ``rows(block)`` leaves to the caller to value as rows.

    f folds the offset b and then the terms ``x_j * At[j]`` from the last
    column to the first: b and the trailing axes' terms, broadcast over the
    tail mesh, into T once for each new ``block.axes`` (once per walk, or
    once per block of a ``hull`` walk), then each leading value's term once
    per block.  So a point's value depends on neither the block edges nor
    where the leading columns end; the rows fold f in another order (with
    BLAS up to n = 3), and the last bits may differ.  f's range check
    reads a lower bound on each coordinate's f over the block's box, the
    fold of b and each axis's least product (each step of the fold is
    monotone), lowered by a bound on that difference, as ``fl(lower - v)``
    falls as v grows; a block that fails it has its member rows checked by
    :func:`evaluate_rows`, which raises where and as the row path does.  T
    and f live in :func:`spaces.scratch` buffers.
    """
    At, b = affine_parts(F.mapping)
    n = F.dimension
    checked = not isinstance(F.domain, FullSpace)
    # Any order of f's products and sums is within (n + 1) eps of the sum of
    # their magnitudes, |x| . |At[:, k]| + |b_k|; twice that bounds two
    # orders' difference and the rounding of the lowered minimum.
    grow = 2 * (n + 1) * np.finfo(float).eps
    slope, floor = float(np.abs(At).max()), float(np.abs(b).max())
    axes = None
    with scratch() as room:
        for block in blocks:
            if rows is not None and rows(block):
                yield block, None
                continue
            lead, first = block.lead, block.first
            d = n - len(block.axes)  # the leading columns
            # A block with no leading value that spans its axes takes T as f.
            whole = not lead and first == slice(0, len(block.axes[0]))
            if block.axes is not axes:  # T[k] folds b_k and the tail's terms
                axes, m = block.axes, n - d
                T = b.reshape((n,) + (1,) * m)
                for j in range(m - 1, 0, -1):
                    T = T + At[d + j].reshape((n,) + (1,) * m) * axes[j].reshape(_along(j, m))
                # The first axis's terms last, over the rest of the tail as
                # one dimension, so that numpy's inner loop runs along it.
                stride = T[0].size
                T = np.add(T.reshape(n, 1, -1), (At[d][:, None] * axes[0])[:, :, None],
                           out=room(0, (n, len(axes[0]), stride))).reshape(n, -1)
                if not whole:
                    flat = room(1, (T.size,))  # f's room: a run of T's columns
                if checked:  # T's least: b and each axis's least product, folded as T
                    low = b
                    for j in range(m - 1, -1, -1):
                        low = low + (At[d + j][:, None] * axes[j]).min(axis=1)
                    reach = sum(float(np.abs(a).max()) for a in axes)
            terms = [v * At[j] for j, v in enumerate(lead)]  # f folds them last to first
            if whole:
                f, axes = T, None  # the caller overwrites T: the next block rebuilds it
            else:
                run = slice(first.start * stride, first.stop * stride)
                f = flat[:n * (run.stop - run.start)].reshape(n, -1)
                if lead:
                    np.add(T[:, run], terms[-1][:, None], out=f)
                else:
                    np.copyto(f, T[:, run])
            for t in terms[-2::-1]:
                f += t[:, None]  # f[k] is f_k over the run
            if checked:
                # Each step of f's fold is monotone, so its least over the
                # block is at least T's least folded with the leading terms.
                least = low
                for t in terms[::-1]:
                    least = least + t
                margin = grow * ((reach + sum(abs(v) for v in lead)) * slope + floor)
                if not F.domain.violations_of_rows((least - margin)[None, :])[0] <= MEMBERSHIP_TOL:
                    evaluate_rows(F.mapping, block.rows(), F.domain)  # raises if a member's f left
            yield block, f


def _along(j: int, m: int) -> tuple:
    """The shape that lays an axis along dimension j of an m-axis mesh."""
    return (1,) * j + (-1,) + (1,) * (m - 1 - j)


def mesh_displace(lead, tail, f) -> np.ndarray:
    """``x - f`` over a block of :func:`mesh_images` (its leading values and
    tail axes), in place in f: each axis broadcast along its own dimension
    of the tail's mesh, so that no flat copy of the tail's coordinates is
    made (one raised an audit's peak memory by 0.3 MB)."""
    d, m = len(lead), len(tail)
    for j, v in enumerate(lead):
        np.subtract(v, f[j], out=f[j])
    x_f = f[d:].reshape([m] + [len(a) for a in tail])
    first = x_f[0].reshape(len(tail[0]), -1)  # the rest of the tail as one dimension
    np.subtract(tail[0][:, None], first, out=first)
    for j, a in enumerate(tail[1:], start=1):
        np.subtract(a.reshape((-1,) + (1,) * (m - 1 - j)), x_f[j], out=x_f[j])
    return f


def mesh_norms(fold, D) -> np.ndarray:
    """The norms of the columns of an (n, rows) array D, formed in D: the
    terms in place, folded into ``D[0]`` and finished there, the calls
    :func:`fold_rows` and :func:`norms_of_rows` make on ``D.T``."""
    fold.term(D, out=D)
    if fold.weights is not None:
        D *= fold.weights[:, None]
    if len(D) < 2:
        folded = fold.ufunc.reduce(D, axis=0)
    else:
        folded = fold.ufunc(D[0], D[1], out=D[0])
        for j in range(2, len(D)):
            fold.ufunc(folded, D[j], out=folded)
    return fold.finished(folded, out=folded)


def mesh_displacements(F: TiltedFunctional, blocks):
    """Phi in mesh form over each block of a :func:`spaces.mesh_blocks`
    walk, for an affine or constant map under p in {1, 2, inf}: yields
    ``(block, phi)``, phi over the block's tail mesh, which the next block
    overwrites.  f comes from :func:`mesh_images`; Phi is the norm of
    ``x - f``, formed in f's array (:func:`mesh_displace`,
    :func:`mesh_norms`)."""
    fold = F.norm.fold
    for block, f in mesh_images(F, blocks):
        tail = block.tail
        phi = mesh_norms(fold, mesh_displace(block.lead, tail, f))
        yield block, phi.reshape([len(a) for a in tail])


def tilted_value(F: TiltedFunctional, x, y) -> float:
    """J(x, y) = ||x - f(x)|| - ||y - f(x)||; exactly zero when x == y."""
    x = F.domain.require(x, "x")
    y = F.domain.require(y, "y")
    return float(F.pairs(x[None, :], y[None, :])[0])


def displacement(F: TiltedFunctional, x) -> float:
    """Phi(x) = ||x - f(x)||, the sup over y in X of J(x, y)."""
    x = F.domain.require(x, "x")
    return float(F.displacements(x[None, :])[0])


def coercivity_radius(
    F: TiltedFunctional,
    y,
    kappa: float,
    r0: float,
    best_known_value: float,
    margin: float = 1.0,
) -> float:
    """Radius R beyond which J(., y) provably exceeds the incumbent value.

    The caller certifies ||f(x)|| <= kappa * ||x|| for all ||x|| >= r0 with
    kappa < 1/2 (typically derived from a growth estimate); then
    J(x, y) >= ||x||(1 - 2 kappa) - ||y|| > best_known_value for all feasible
    x with ||x|| >= R, so global minimization may be truncated to the ball.
    """
    kappa = float(kappa)
    if not 0.0 <= kappa < 0.5:
        raise GrowthConditionNotMet(
            f"kappa must lie in [0, 1/2) for the coercive bound, got {kappa}"
        )
    if not 0.0 < margin < math.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    if not 0.0 <= r0 < math.inf:
        raise ValueError(f"r0 must be finite and >= 0, got {r0}")
    if not math.isfinite(best_known_value):
        raise ValueError(f"best_known_value must be finite, got {best_known_value}")
    y = as_vector(y, F.dimension, "y")
    if not all(map(math.isfinite, y.tolist())):
        raise ValueError(f"y must be finite, got {y}")
    need = (norm(y, F.norm) + float(best_known_value) + float(margin)) / (
        1.0 - 2.0 * kappa
    )
    return float(max(float(r0), need, 0.0))
