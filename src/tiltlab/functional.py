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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, GrowthConditionNotMet, MembershipViolation
from .maps import MEMBERSHIP_TOL, MapSpec, evaluate, evaluate_rows
from .spaces import FeasibleSet, NormSpec, as_vector, norm, norms_of_rows


def _require_member(domain: FeasibleSet, x: np.ndarray, name: str) -> None:
    v = domain.violation(x)
    if v > MEMBERSHIP_TOL:
        raise MembershipViolation(
            f"{name} is outside the feasible set by {v:.3e} (> {MEMBERSHIP_TOL})"
        )


@dataclass(frozen=True)
class TiltedFunctional:
    """Bundle (norm, feasible set, self-map) defining J and Phi."""

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

    def value(self, x, y) -> float:
        return tilted_value(self, x, y)

    def displacement(self, x) -> float:
        return displacement(self, x)

    # Batched variants; callers guarantee membership of every row.
    def values_for_ys(self, x, Y) -> np.ndarray:
        x = as_vector(x, self.dimension)
        fx = evaluate(self.mapping, x, self.domain)
        head = norm(x - fx, self.norm)
        return head - norms_of_rows(np.asarray(Y, dtype=float) - fx[None, :], self.norm)

    def values_for_xs(self, X, y) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        y = as_vector(y, self.dimension)
        FX = evaluate_rows(self.mapping, X, self.domain)
        return norms_of_rows(X - FX, self.norm) - norms_of_rows(
            y[None, :] - FX, self.norm
        )

    def displacements(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        FX = evaluate_rows(self.mapping, X, self.domain)
        return norms_of_rows(X - FX, self.norm)

    # Lean closures of J(., y) and Phi at one point, and batched kernels of J
    # with one argument fixed (f(x) once per call), for optimizer loops: no
    # membership or range checks, so callers must feed feasible points.
    def tilt_objective(self, y):
        y = as_vector(y, self.dimension)
        mapping, domain = self.mapping, self.domain
        size = self.norm.scalar_norm

        def objective(x: np.ndarray) -> float:
            fx = mapping.raw_value(x, domain)
            return size(x - fx) - size(y - fx)

        return objective

    def displacement_objective(self):
        mapping, domain = self.mapping, self.domain
        size = self.norm.scalar_norm

        def objective(x: np.ndarray) -> float:
            fx = mapping.raw_value(x, domain)
            return size(x - fx)

        return objective

    def _fast_values_for_ys(self, x, Y) -> np.ndarray:
        fx = self.mapping.raw_value(x, self.domain)
        return self.norm.scalar_norm(x - fx) - norms_of_rows(Y - fx, self.norm)

    def _fast_values_for_xs(self, X, y) -> np.ndarray:
        FX = self.mapping.raw_rows(X, self.domain)
        return norms_of_rows(X - FX, self.norm) - norms_of_rows(y - FX, self.norm)

    def as_bifunctional(self) -> "Bifunctional":
        return Bifunctional(
            value=self.value,
            domain=self.domain,
            zero_diagonal=True,
            concave_in_y=True,
            row_eval=self.values_for_ys,
            column_eval=self.values_for_xs,
            fast_row_eval=self._fast_values_for_ys,
            fast_column_eval=self._fast_values_for_xs,
        )


def tilted_value(F: TiltedFunctional, x, y) -> float:
    """J(x, y) = ||x - f(x)|| - ||y - f(x)||; exactly zero when x == y."""
    x = as_vector(x, F.dimension, "x")
    y = as_vector(y, F.dimension, "y")
    _require_member(F.domain, x, "x")
    _require_member(F.domain, y, "y")
    fx = evaluate(F.mapping, x, F.domain)
    return norm(x - fx, F.norm) - norm(y - fx, F.norm)


def displacement(F: TiltedFunctional, x) -> float:
    """Phi(x) = ||x - f(x)||, the sup over y in X of J(x, y)."""
    x = as_vector(x, F.dimension, "x")
    _require_member(F.domain, x, "x")
    fx = evaluate(F.mapping, x, F.domain)
    return norm(x - fx, F.norm)


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
    if not margin > 0.0:
        raise ValueError("margin must be positive")
    if r0 < 0.0:
        raise ValueError("r0 must be >= 0")
    y = as_vector(y, F.dimension, "y")
    need = (norm(y, F.norm) + float(best_known_value) + float(margin)) / (
        1.0 - 2.0 * kappa
    )
    return float(max(float(r0), need, 0.0))


@dataclass(frozen=True, eq=False)
class Bifunctional:
    """A real-valued function of (x, y) on X x X with metadata flags.

    ``row_eval`` / ``column_eval`` are optional batched evaluators (over many
    y for fixed x, and over many x for fixed y); loops fill in when absent.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    domain: FeasibleSet
    zero_diagonal: bool = False
    concave_in_y: bool = False
    row_eval: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    column_eval: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    # Optional unchecked batched evaluators for inner optimization loops;
    # callers must feed feasible points.  The checked ones fill in when absent.
    fast_row_eval: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    fast_column_eval: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def fast_value(self, x, y) -> float:
        X = np.asarray(x, dtype=float)[None, :]
        return float((self.fast_column_eval or self.column_values)(X, y)[0])

    def row_values(self, x, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        if self.row_eval is not None:
            return np.asarray(self.row_eval(x, Y), dtype=float)
        return np.array([self.value(x, y) for y in Y], dtype=float)

    def column_values(self, X, y) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.column_eval is not None:
            return np.asarray(self.column_eval(X, y), dtype=float)
        return np.array([self.value(x, y) for x in X], dtype=float)
