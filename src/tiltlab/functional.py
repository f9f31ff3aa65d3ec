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
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, GrowthConditionNotMet
from .maps import MapSpec, affine_parts, evaluate_rows
from .spaces import (
    MEMBERSHIP_TOL, FeasibleSet, FullSpace, NormSpec, as_vector, fold_rows, norm,
    norms_of_rows,
)


@dataclass(frozen=True)
class TiltedFunctional:
    """Bundle (norm, feasible set, self-map) defining J and Phi.

    J and Phi each have one kernel, :meth:`pairs` and :meth:`displacements`,
    and every per-point value is one row of them."""

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

    def as_bifunctional(self) -> "Bifunctional":
        return Bifunctional(self.pairs, self.domain, zero_diagonal=True, row_sup=self.row_sup)


def tilted_rows(X, Y, FX, norm_spec: NormSpec) -> np.ndarray:
    """J's formula ||X[i] - FX[i]|| - ||Y[i] - FX[i]|| over rows, given
    ``FX = f(X)``; each side may be one row broadcast against the others.
    Every J value, batched or not, is computed here."""
    return norms_of_rows(X - FX, norm_spec) - norms_of_rows(Y - FX, norm_spec)


def mesh_displacements(F: TiltedFunctional, blocks):
    """Phi in mesh form over each block of a :func:`spaces.mesh_blocks`
    walk, for an affine or constant map (:func:`maps.affine_parts`) under p
    in {1, 2, inf}: yields ``(block, phi)``, phi over the block's tail mesh.

    f folds the offset b and then the terms ``x_j * At[j]`` from the last
    column to the first: b and the trailing axes' terms, broadcast over the
    tail mesh, into T once per walk, then each leading value's term once
    per block.  So a point's value depends on neither the block edges nor
    where the leading columns end; the rows fold f in another order (with
    BLAS up to n = 3), and the last bits may differ.  f's range check
    reads each coordinate's least f over the run, lowered by a bound on
    that difference, as ``fl(lower - v)`` falls as v grows; a block that
    fails it has its member rows checked by :func:`evaluate_rows`, which
    raises where and as the row path does.  Phi is the norm of ``x - f``,
    every coordinate in one (n, rows) array: its terms in place, then
    :func:`fold_rows` and the finish, the calls :func:`norms_of_rows`
    makes.
    """
    At, b = affine_parts(F.mapping)
    fold, n = F.norm.fold, F.dimension
    checked = not isinstance(F.domain, FullSpace)
    # Any order of f's products and sums is within (n + 1) eps of the sum of
    # their magnitudes, |x| . |At[:, k]| + |b_k|; twice that bounds two
    # orders' difference and the rounding of the lowered minimum.
    grow = 2 * (n + 1) * np.finfo(float).eps
    slope, floor = float(np.abs(At).max()), float(np.abs(b).max())
    T = None
    for block in blocks:
        lead = block.lead
        d = n - len(block.axes)  # the leading columns
        if T is None:  # once per walk: T[k] folds b_k and the tail's terms
            m = n - d
            along = [(1,) * j + (-1,) + (1,) * (m - 1 - j) for j in range(m)]
            T = b.reshape((n,) + (1,) * m)
            for j in range(m - 1, -1, -1):
                T = T + At[d + j].reshape((n,) + (1,) * m) * block.axes[j].reshape(along[j])
            T = T.reshape(n, -1)
            reach = sum(float(np.abs(a).max()) for a in block.axes)
        run = block.span
        f = T[:, run] + (lead[-1] * At[d - 1])[:, None] if lead else T[:, run].copy()
        for j in range(d - 2, -1, -1):
            f += (lead[j] * At[j])[:, None]  # f[k] is f_k over the run
        if checked:
            margin = grow * ((reach + sum(abs(v) for v in lead)) * slope + floor)
            least = f.min(axis=1) - margin
            if not F.domain.violations_of_rows(least[None, :])[0] <= MEMBERSHIP_TOL:
                evaluate_rows(F.mapping, block.rows(), F.domain)  # raises if a member's f left
        for j, v in enumerate(lead):
            np.subtract(v, f[j], out=f[j])
        # x - f in the tail's mesh shape, each axis broadcast along its own
        # dimension, so that no flat copy of the tail's coordinates lives
        # through the walk: one raised audit's peak memory by 0.3 MB.
        tail = block.tail
        shape = [len(a) for a in tail]
        x_f = f[d:].reshape([m] + shape)
        for j, a in enumerate(tail):
            np.subtract(a.reshape(along[j]), x_f[j], out=x_f[j])
        fold.term(f, out=f)
        if fold.weights is not None:
            f *= fold.weights[:, None]
        yield block, fold.finished(fold_rows(fold.ufunc, f.T)).reshape(shape)


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


@dataclass(frozen=True, eq=False)
class Bifunctional:
    """A real-valued function of (x, y) on X x X, evaluated over pairs.

    ``pairs(X, Y)[i] = J(X[i], Y[i])`` for (k, n) arrays, where either side
    may be one (1, n) row broadcast against the other; a row's value must
    not depend on the rest of its batch.  ``zero_diagonal`` declares
    J(x, x) = 0, which :func:`verify_saddle` requires.

    ``row_sup``, when given, is J's exact upper envelope over rows:
    ``row_sup(X) = (values, maximisers)`` with ``values[i]`` the sup of
    J(X[i], y) over the domain, attained at ``maximisers[i]``, and no
    entry of ``pairs(X[i:i+1], Y)`` above ``values[i]`` in floating point.
    :func:`minimax_gap` requires it; :func:`verify_saddle` does not.
    """

    pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: FeasibleSet
    zero_diagonal: bool = False
    row_sup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
