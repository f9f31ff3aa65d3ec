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

    # One checked kernel per quantity: f goes through the range-checked
    # evaluate_rows, and values_for_ys also checks that x is in the set.
    # Callers guarantee membership of the batch rows.  With x fixed, f(x) is
    # computed once per call.
    def values_for_ys(self, x, Y) -> np.ndarray:
        fx = evaluate(self.mapping, x, self.domain)
        x = np.asarray(x, dtype=float)
        sizes = norms_of_rows(np.concatenate((x[None, :], Y)) - fx, self.norm)
        return sizes[0] - sizes[1:]

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

    # One-point closures of J(., y) and Phi over the kernels.
    def tilt_objective(self, y):
        y = as_vector(y, self.dimension)
        return lambda x: float(self.values_for_xs(x[None, :], y)[0])

    def displacement_objective(self):
        return lambda x: float(self.displacements(x[None, :])[0])

    def as_bifunctional(self) -> "Bifunctional":
        return Bifunctional(
            value=self.value,
            domain=self.domain,
            zero_diagonal=True,
            concave_in_y=True,
            row_eval=self.values_for_ys,
            column_eval=self.values_for_xs,
        )


def tilted_value(F: TiltedFunctional, x, y) -> float:
    """J(x, y) = ||x - f(x)|| - ||y - f(x)||; exactly zero when x == y."""
    x = as_vector(x, F.dimension, "x")
    y = as_vector(y, F.dimension, "y")
    _require_member(F.domain, x, "x")
    _require_member(F.domain, y, "y")
    return float(F.values_for_ys(x, y[None, :])[0])


def displacement(F: TiltedFunctional, x) -> float:
    """Phi(x) = ||x - f(x)||, the sup over y in X of J(x, y)."""
    x = as_vector(x, F.dimension, "x")
    _require_member(F.domain, x, "x")
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
