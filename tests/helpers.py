"""Shared seeded instance factories for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from tiltlab import (
    INF,
    AffineMap,
    ConstantMap,
    FullSpace,
    NormSpec,
    OptimizeConfig,
    Orthant,
    TiltedFunctional,
    growth_coefficient,
    induced_operator_norm,
)

SUITE_SEED = 20250809


def affine_instance(index: int) -> TiltedFunctional:
    """Seeded affine instance: dimension cycles 1/2/3, norm cycles 1/2/inf,
    set alternates full space / nonnegative orthant (maps ranged into it)."""
    rng = np.random.default_rng(np.random.SeedSequence([SUITE_SEED, index]))
    n = (1, 2, 3)[index % 3]
    p = (1.0, 2.0, INF)[(index // 3) % 3]
    orthant = index % 2 == 1
    spec = NormSpec(n, p)
    target = 0.2 + 0.2 * float(rng.uniform())
    M = rng.uniform(-1.0, 1.0, (n, n))
    if orthant:
        M = np.abs(M)
    k = induced_operator_norm(M, spec)
    A = M * (target / k)
    if orthant:
        b = rng.uniform(0.2, 1.0, n)
        domain = Orthant(n)
    else:
        b = rng.uniform(-1.0, 1.0, n)
        domain = FullSpace(n)
    mapping = AffineMap(n, matrix=tuple(map(tuple, A)), offset=tuple(b))
    return TiltedFunctional(norm=spec, domain=domain, mapping=mapping)


def suite_config(dimension: int, seed: int = 0) -> OptimizeConfig:
    grid = {1: 65, 2: 21, 3: 9}[dimension]
    return OptimizeConfig(
        coarse_grid=grid,
        multistart=8,
        budget=400_000,
        seed=seed,
    )


def instance_growth(F: TiltedFunctional):
    return growth_coefficient(F.mapping, F.norm, domain=F.domain)


@dataclass(frozen=True)
class KernelFunctional(TiltedFunctional):
    """A J given by its kernels, for tests of the drivers on a J that is not
    the tilted formula: ``kernel(X, Y)`` stands in for
    :meth:`TiltedFunctional.pairs` (its rows J(X[i], Y[i]), one side
    possibly a broadcast row) and ``envelope(X)`` for the exact row envelope
    :meth:`TiltedFunctional.row_sup`.  Overriding them leaves it no mesh
    form, so the drivers value it by rows."""

    kernel: Callable = None
    envelope: Callable = None

    def pairs(self, X, Y):
        return self.kernel(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))

    def row_sup(self, X):
        return self.envelope(np.asarray(X, dtype=float))


def kernel_functional(pairs, row_sup=None, like: TiltedFunctional | None = None):
    """A :class:`KernelFunctional` on the norm, set and map of ``like``, by
    default the 1-D l2 norm on the line with f = 0."""
    if like is None:
        like = TiltedFunctional(NormSpec(1), FullSpace(1), ConstantMap(1, value=(0.0,)))
    return KernelFunctional(like.norm, like.domain, like.mapping, pairs, row_sup)


def rows_of(scalar):
    """A rows objective ``(k, n) -> (k,)`` from a scalar ``scalar(x)``: one
    call per row."""
    return lambda X: np.array([float(scalar(x)) for x in X])


def feasible_cloud(F: TiltedFunctional, radius: float, count: int, seed: int):
    """Seeded feasible points inside the ambient ball, for invariant suites."""
    from tiltlab import SampleDomain

    window = SampleDomain(F.domain, F.norm, radius, 3)
    rng = np.random.default_rng(np.random.SeedSequence([SUITE_SEED, 0xC1, seed]))
    pts = window.random_points(count, rng)
    assert len(pts) > 0
    return pts


@st.composite
def row_batches(draw, n: int) -> np.ndarray:
    """1-12 drawn rows of width ``n``; on some draws they sit at drawn
    places in a batch as large as a lockstep refinement's (16 starts x 26
    directions = 416 rows in 3-D), padded with seeded random rows."""
    k = draw(st.integers(1, 12))
    flat = draw(st.lists(st.floats(-1e3, 1e3), min_size=n * k, max_size=n * k))
    X = np.array(flat).reshape(k, n)
    size = draw(st.sampled_from((None, None, 64, 416, 1024)))
    if size is None:
        return X
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = rng.uniform(-1e3, 1e3, (size, n))
    batch[rng.choice(size, k, replace=False)] = X
    return batch


def window_grid_reference(window) -> np.ndarray:
    """A window's grid, built for that window alone: on full space and
    orthants its mesh blocks joined, else its projected mesh cut to the
    ball and deduplicated."""
    from tiltlab.spaces import _grid_axes, first_rows, in_ball, mesh_blocks, mesh_rows

    n = window.domain.dimension
    if window.domain.coordinatewise:
        parts = [b.rows() for b in mesh_blocks(window._axes, window.radius, window.norm)]
        return parts[0] if len(parts) == 1 else np.concatenate([np.empty((0, n)), *parts])
    pts = window.domain.project_rows(mesh_rows(_grid_axes(window.radius, window.resolution, n)))
    pts = pts[in_ball(pts, window.radius, window.norm)]
    return pts[first_rows(pts)] if len(pts) else pts


def window_samples_reference(window, count: int, rng) -> tuple[np.ndarray, int]:
    """Up to ``count`` seeded uniform samples of a window, drawn for that
    window alone: rounds of max(count, 8) box samples, each round projected
    and cut to the ball, at most 50.  Returns the points and the rounds."""
    from tiltlab.spaces import in_ball

    n, r = window.domain.dimension, window.radius
    collected, have = [], 0
    for rounds in range(1, 51):
        X = window.domain.project_rows(rng.uniform(-r, r, size=(max(count, 8), n)))
        kept = X[in_ball(X, r, window.norm)]
        if len(kept):
            collected.append(kept)
            have += len(kept)
        if have >= count:
            break
    return (np.vstack(collected)[:count] if collected else np.empty((0, n))), rounds
