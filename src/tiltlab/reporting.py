"""Experiment dispatch and machine-readable report documents.

Reports use the same line-oriented ``key = value`` format as configs, carry
every input, tolerance, verdict and witness, and embed the fully resolved
config under the ``config.`` prefix so each result is self-describing.  All
floating-point output is printed with 17 significant digits.  Reports never
contain wall-clock data, so identical (config, seed) runs produce identical
bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .configfile import ExperimentConfig, _put, _text, config_to_document, parse_document
from .experiments import (
    Verdict,
    certify_uniqueness,
    find_fixed_point,
    minimax_gap,
    verify_saddle,
)
from .functional import TiltedFunctional
from .maps import growth_coefficient
from .optimize import Cluster, MinimizationResult
from .spaces import SampleDomain
from .sweep import SweepResult, search_counterexample

_STREAM_Y_SET = 0xB21


@dataclass(frozen=True)
class Table:
    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def render(self) -> str:
        lines = ["\t".join(self.header)]
        lines.extend("\t".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunOutcome:
    report: dict[str, str]
    tables: tuple[Table, ...]
    exit_code: int


def _finish(doc: dict[str, str], cfg: ExperimentConfig) -> dict[str, str]:
    for key, value in config_to_document(cfg).items():
        doc[f"config.{key}"] = value
    return doc


def embedded_config_document(report_text: str) -> dict[str, str]:
    """The resolved config embedded in a report, as a parseable document."""
    doc = parse_document(report_text)
    return {
        key[len("config.") :]: value
        for key, value in doc.items()
        if key.startswith("config.")
    }


def _row(*values) -> tuple[str, ...]:
    return tuple(_text(v) for v in values)


def _clusters_to_doc(doc: dict[str, str], prefix: str, clusters: tuple[Cluster, ...]) -> None:
    doc[f"{prefix}.clusters"] = _text(len(clusters))
    for i, cluster in enumerate(clusters):
        _put(doc, f"{prefix}.cluster.{i}", cluster, "point", "value")


def _result_to_doc(doc: dict[str, str], prefix: str, result: MinimizationResult) -> None:
    _put(doc, prefix, result, "status", "global_value", "evaluations", "radius")
    _clusters_to_doc(doc, prefix, result.clusters)


def _build_functional(cfg: ExperimentConfig) -> TiltedFunctional:
    return TiltedFunctional(norm=cfg.norm, domain=cfg.domain, mapping=cfg.map_spec)


def _growth(cfg: ExperimentConfig):
    return growth_coefficient(
        cfg.map_spec,
        cfg.norm,
        cfg.sampling.growth_radii,
        cfg.sampling.growth_directions,
        seed=cfg.seed,
        domain=cfg.domain,
    )


def _y_set(cfg: ExperimentConfig) -> np.ndarray:
    s = cfg.sampling
    if s.y_mode == "grid":
        per_axis = max(2, math.ceil(s.y_count ** (1.0 / cfg.norm.dimension)))
        window = SampleDomain(cfg.domain, cfg.norm, s.y_radius, per_axis)
        pts = window.grid_points()
    else:
        window = SampleDomain(cfg.domain, cfg.norm, s.y_radius, 3)
        pts = window.low_discrepancy_points(
            s.y_count, seed=cfg.seed * 1_000_003 + _STREAM_Y_SET
        )
    if len(pts) == 0:
        raise ValueError("no feasible probe points inside the y window")
    return pts[: s.y_count]


def _run_find_fixed_point(cfg: ExperimentConfig) -> RunOutcome:
    F = _build_functional(cfg)
    growth = _growth(cfg)
    report = find_fixed_point(
        F,
        growth,
        cfg.optimizer,
        check_samples=cfg.sampling.check_samples,
        seed=cfg.seed,
        margin=cfg.sampling.margin,
    )
    doc = {"report.kind": cfg.kind}
    _put(
        doc, "report", report, "x_star", "residual", "radius", "row_max",
        "row_witness", "strict_min", "strict_witness", "proximity_min",
        "criterion_gap_max", "samples_used", "residual_ok", "row_ok",
        "strict_ok", "proximity_ok", "criterion_ok", "kappa_method",
    )
    _result_to_doc(doc, "report.minimization", report.result)
    table = Table(
        name="clusters",
        header=("cluster", "value") + _coord_header(cfg.norm.dimension),
        rows=tuple(
            _row(i, c.value, *c.point) for i, c in enumerate(report.result.clusters)
        ),
    )
    return RunOutcome(_finish(doc, cfg), (table,), 0)


def _coord_header(dimension: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(dimension))


def _run_certify(cfg: ExperimentConfig) -> RunOutcome:
    F = _build_functional(cfg)
    growth = _growth(cfg)
    ys = _y_set(cfg)
    report = certify_uniqueness(
        F,
        ys,
        growth,
        cfg.optimizer,
        margin=cfg.sampling.margin,
        radius_override=cfg.sampling.radius_override,
        fallback_radius=cfg.sampling.fallback_radius,
    )
    doc = {"report.kind": cfg.kind}
    _put(
        doc, "report", report, "verdict", "value_tolerance", "separation",
        "kappa_method", "kappa_hat", "margin",
    )
    doc["report.entries"] = _text(len(report.entries))
    rows = []
    for i, entry in enumerate(report.entries):
        prefix = f"report.entry.{i}"
        _put(doc, prefix, entry, "y", "radius", "incumbent", "verdict")
        _result_to_doc(doc, f"{prefix}.minimization", entry.result)
        best = entry.result.clusters[0]
        rows.append(
            _row(*entry.y, *best.point, best.value, entry.result.cluster_count, entry.verdict)
        )
    table = Table(
        name="per_y",
        header=tuple(f"y{i}" for i in range(cfg.norm.dimension))
        + _coord_header(cfg.norm.dimension)
        + ("value", "clusters", "verdict"),
        rows=tuple(rows),
    )
    code = 2 if report.verdict is Verdict.MULTIPLE_FOUND else 0
    return RunOutcome(_finish(doc, cfg), (table,), code)


def _run_minimax(cfg: ExperimentConfig) -> RunOutcome:
    F = _build_functional(cfg)
    report = minimax_gap(
        F,
        cfg.sampling.radius,
        cfg.sampling.resolution,
        config=cfg.optimizer,
    )
    doc = {"report.kind": cfg.kind}
    _put(doc, "report", report, *(f.name for f in fields(report)))
    table = Table(
        name="envelopes",
        header=("side", "value") + _coord_header(cfg.norm.dimension),
        rows=(
            _row("upper", report.upper, *report.x_witness),
            _row("lower", report.lower, *report.y_witness),
        ),
    )
    return RunOutcome(_finish(doc, cfg), (table,), 0)


def _run_verify_saddle(cfg: ExperimentConfig) -> RunOutcome:
    F = _build_functional(cfg)
    check = verify_saddle(
        F,
        np.array(cfg.saddle_point, dtype=float),
        cfg.probe_grid,
        cfg.probe_grid,
        cfg.saddle_tolerance,
        separation=cfg.optimizer.separation,
    )
    doc = {"report.kind": cfg.kind}
    # The strict keys are left out when no probe lies beyond the separation.
    _put(doc, "report", check, *(
        f.name for f in fields(check) if getattr(check, f.name) is not None
    ))
    table = Table(
        name="extremes",
        header=("check", "value") + _coord_header(cfg.norm.dimension),
        rows=(
            _row("row_max", check.row_max, *check.row_witness),
            _row("column_min", check.column_min, *check.column_witness),
        ),
    )
    return RunOutcome(_finish(doc, cfg), (table,), 0)


def _run_sweep(cfg: ExperimentConfig, jobs: int) -> RunOutcome:
    result: SweepResult = search_counterexample(
        cfg.family,
        list(cfg.sweep_norms),
        cfg.domain,
        cfg.probe_grid,
        cfg.optimizer,
        margin=cfg.sampling.margin,
        fallback_radius=cfg.sampling.fallback_radius,
        growth_radii=cfg.sampling.growth_radii,
        growth_directions=cfg.sampling.growth_directions,
        jobs=jobs,
        planted_cell=cfg.planted_cell,
    )
    doc = {"report.kind": cfg.kind}
    _put(doc, "report", result, "cells_total", "cells_screened_out", "findings_raw")
    doc["report.candidates"] = _text(len(result.candidates))
    _put(doc, "report", result, "value_tolerance", "separation")
    for i, cand in enumerate(result.candidates):
        prefix = f"report.candidate.{i}"
        doc[f"{prefix}.cell"] = _text(cand.cell_index)
        for name, value in cand.params:
            doc[f"{prefix}.param.{name}"] = _text(value)
        doc[f"{prefix}.p"] = _text(cand.norm_p)
        _put(doc, prefix, cand, "y", "value_gap", "separation", "score", "status", "kappa_method")
        _clusters_to_doc(doc, prefix, cand.clusters)

    param_names = [name for name, _ in cfg.family.parameters]
    cells = Table(
        name="cells",
        header=("cell",)
        + tuple(param_names)
        + ("p", "y", "screened_out", "kappa_hat", "clusters", "best_value"),
        rows=tuple(
            _row(
                s.index, *(value for _, value in s.params), s.norm_p, s.y,
                int(s.screened_out), s.kappa_hat, s.cluster_count, s.best_value,
            )
            for s in result.summaries
        ),
    )
    candidates = Table(
        name="candidates",
        header=("cell", "score", "value_gap", "separation", "status"),
        rows=tuple(
            _row(c.cell_index, c.score, c.value_gap, c.separation, c.status)
            for c in result.candidates
        ),
    )
    code = 2 if result.candidates else 0
    return RunOutcome(_finish(doc, cfg), (cells, candidates), code)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> RunOutcome:
    """Execute the configured experiment and build its report and tables."""
    if cfg.kind == "find_fixed_point":
        return _run_find_fixed_point(cfg)
    if cfg.kind == "certify_uniqueness":
        return _run_certify(cfg)
    if cfg.kind == "minimax_gap":
        return _run_minimax(cfg)
    if cfg.kind == "verify_saddle":
        return _run_verify_saddle(cfg)
    if cfg.kind == "search_counterexample":
        return _run_sweep(cfg, jobs)
    raise ValueError(f"unknown experiment kind '{cfg.kind}'")  # pragma: no cover


def error_outcome(cfg: ExperimentConfig | None, exc: Exception) -> RunOutcome:
    """Partial report carrying the error payload; exit code 1."""
    doc: dict[str, str] = {"report.kind": cfg.kind if cfg else "unknown"}
    doc["report.status"] = "error"
    doc["error.type"] = type(exc).__name__
    doc["error.message"] = str(exc)
    if cfg is not None:
        _finish(doc, cfg)
    return RunOutcome(doc, (), 1)
