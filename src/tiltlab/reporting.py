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
from dataclasses import dataclass, replace

import numpy as np

from .configfile import (
    ExperimentConfig,
    _fmt_p,
    config_to_document,
    fmt_float,
    fmt_vector,
    parse_document,
)
from .experiments import (
    Verdict,
    certify_uniqueness,
    find_fixed_point,
    minimax_gap,
    verify_saddle,
)
from .functional import TiltedFunctional
from .maps import growth_coefficient
from .optimize import MinimizationResult
from .spaces import SampleDomain
from .sweep import SweepResult, search_counterexample

_STREAM_Y_SET = 0xB21


def _fmt_opt(x) -> str:
    return "none" if x is None else fmt_float(x)


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


def _result_to_doc(doc: dict[str, str], prefix: str, result: MinimizationResult) -> None:
    doc[f"{prefix}.status"] = result.status.value
    doc[f"{prefix}.global_value"] = fmt_float(result.global_value)
    doc[f"{prefix}.evaluations"] = str(result.evaluations)
    doc[f"{prefix}.radius"] = fmt_float(result.radius)
    doc[f"{prefix}.clusters"] = str(result.cluster_count)
    for i, cluster in enumerate(result.clusters):
        doc[f"{prefix}.cluster.{i}.point"] = fmt_vector(cluster.point)
        doc[f"{prefix}.cluster.{i}.value"] = fmt_float(cluster.value)


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
    doc["report.x_star"] = fmt_vector(report.x_star)
    doc["report.residual"] = fmt_float(report.residual)
    doc["report.radius"] = fmt_float(report.radius)
    doc["report.row_max"] = fmt_float(report.row_max)
    doc["report.row_witness"] = fmt_vector(report.row_witness)
    doc["report.strict_min"] = fmt_float(report.strict_min)
    doc["report.strict_witness"] = fmt_vector(report.strict_witness)
    doc["report.proximity_min"] = fmt_float(report.proximity_min)
    doc["report.criterion_gap_max"] = fmt_float(report.criterion_gap_max)
    doc["report.samples_used"] = str(report.samples_used)
    doc["report.residual_ok"] = str(report.residual_ok).lower()
    doc["report.row_ok"] = str(report.row_ok).lower()
    doc["report.strict_ok"] = str(report.strict_ok).lower()
    doc["report.proximity_ok"] = str(report.proximity_ok).lower()
    doc["report.criterion_ok"] = str(report.criterion_ok).lower()
    doc["report.kappa_method"] = report.kappa_method
    _result_to_doc(doc, "report.minimization", report.result)
    table = Table(
        name="clusters",
        header=("cluster", "value") + _coord_header(cfg.norm.dimension),
        rows=tuple(
            (str(i), fmt_float(c.value)) + tuple(fmt_float(v) for v in c.point)
            for i, c in enumerate(report.result.clusters)
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
    doc["report.verdict"] = report.verdict.value
    doc["report.value_tolerance"] = fmt_float(report.value_tolerance)
    doc["report.separation"] = fmt_float(report.separation)
    doc["report.kappa_method"] = report.kappa_method
    doc["report.kappa_hat"] = _fmt_opt(report.kappa_hat)
    doc["report.margin"] = fmt_float(report.margin)
    doc["report.entries"] = str(len(report.entries))
    rows = []
    for i, entry in enumerate(report.entries):
        prefix = f"report.entry.{i}"
        doc[f"{prefix}.y"] = fmt_vector(entry.y)
        doc[f"{prefix}.radius"] = fmt_float(entry.radius)
        doc[f"{prefix}.incumbent"] = fmt_float(entry.incumbent)
        doc[f"{prefix}.verdict"] = entry.verdict.value
        _result_to_doc(doc, f"{prefix}.minimization", entry.result)
        best = entry.result.clusters[0]
        rows.append(
            tuple(fmt_float(v) for v in entry.y)
            + tuple(fmt_float(v) for v in best.point)
            + (
                fmt_float(best.value),
                str(entry.result.cluster_count),
                entry.verdict.value,
            )
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
    J = F.as_bifunctional()
    mm_config = replace(cfg.optimizer, coarse_grid=cfg.sampling.resolution)
    report = minimax_gap(
        J,
        cfg.sampling.radius,
        cfg.sampling.resolution,
        norm_spec=cfg.norm,
        config=mm_config,
    )
    doc = {"report.kind": cfg.kind}
    doc["report.lower"] = fmt_float(report.lower)
    doc["report.upper"] = fmt_float(report.upper)
    doc["report.gap"] = fmt_float(report.gap)
    doc["report.x_witness"] = fmt_vector(report.x_witness)
    doc["report.y_witness"] = fmt_vector(report.y_witness)
    doc["report.boundary_max_flag"] = str(report.boundary_max_flag).lower()
    doc["report.witness_distance"] = fmt_float(report.witness_distance)
    doc["report.evaluations"] = str(report.evaluations)
    doc["report.radius"] = fmt_float(report.radius)
    doc["report.resolution"] = str(report.resolution)
    table = Table(
        name="envelopes",
        header=("side", "value") + _coord_header(cfg.norm.dimension),
        rows=(
            ("upper", fmt_float(report.upper))
            + tuple(fmt_float(v) for v in report.x_witness),
            ("lower", fmt_float(report.lower))
            + tuple(fmt_float(v) for v in report.y_witness),
        ),
    )
    return RunOutcome(_finish(doc, cfg), (table,), 0)


def _run_verify_saddle(cfg: ExperimentConfig) -> RunOutcome:
    F = _build_functional(cfg)
    J = F.as_bifunctional()
    window = SampleDomain(cfg.domain, cfg.norm, cfg.sampling.radius, cfg.sampling.resolution)
    grid = window.require_grid()
    check = verify_saddle(
        J,
        np.array(cfg.saddle_point, dtype=float),
        grid,
        grid,
        cfg.saddle_tolerance,
        separation=cfg.optimizer.separation,
        norm_spec=cfg.norm,
    )
    doc = {"report.kind": cfg.kind}
    doc["report.row_max"] = fmt_float(check.row_max)
    doc["report.row_witness"] = fmt_vector(check.row_witness)
    doc["report.column_min"] = fmt_float(check.column_min)
    doc["report.column_witness"] = fmt_vector(check.column_witness)
    if check.strict_min is not None:
        doc["report.strict_min"] = fmt_float(check.strict_min)
        doc["report.strict_witness"] = fmt_vector(check.strict_witness)
    doc["report.row_ok"] = str(check.row_ok).lower()
    doc["report.column_nonneg_ok"] = str(check.column_nonneg_ok).lower()
    doc["report.column_strict_ok"] = str(check.column_strict_ok).lower()
    doc["report.tolerance"] = fmt_float(check.tolerance)
    doc["report.separation"] = fmt_float(check.separation)
    table = Table(
        name="extremes",
        header=("check", "value") + _coord_header(cfg.norm.dimension),
        rows=(
            ("row_max", fmt_float(check.row_max))
            + tuple(fmt_float(v) for v in check.row_witness),
            ("column_min", fmt_float(check.column_min))
            + tuple(fmt_float(v) for v in check.column_witness),
        ),
    )
    return RunOutcome(_finish(doc, cfg), (table,), 0)


def _run_sweep(cfg: ExperimentConfig, jobs: int) -> RunOutcome:
    window = SampleDomain(cfg.domain, cfg.norm, cfg.sampling.y_radius, cfg.sweep_y_grid)
    y_points = window.grid_points()
    result: SweepResult = search_counterexample(
        cfg.family,
        list(cfg.sweep_norms),
        cfg.domain,
        y_points,
        cfg.optimizer,
        margin=cfg.sampling.margin,
        fallback_radius=cfg.sampling.fallback_radius,
        growth_radii=cfg.sampling.growth_radii,
        growth_directions=cfg.sampling.growth_directions,
        jobs=jobs,
        planted_cell=cfg.planted_cell,
    )
    doc = {"report.kind": cfg.kind}
    doc["report.cells_total"] = str(result.cells_total)
    doc["report.cells_screened_out"] = str(result.cells_screened_out)
    doc["report.findings_raw"] = str(result.findings_raw)
    doc["report.candidates"] = str(len(result.candidates))
    doc["report.value_tolerance"] = fmt_float(result.value_tolerance)
    doc["report.separation"] = fmt_float(result.separation)
    for i, cand in enumerate(result.candidates):
        prefix = f"report.candidate.{i}"
        doc[f"{prefix}.cell"] = str(cand.cell_index)
        for name, value in cand.params:
            doc[f"{prefix}.param.{name}"] = fmt_float(value)
        doc[f"{prefix}.p"] = _fmt_p(cand.norm_p)
        doc[f"{prefix}.y"] = fmt_vector(cand.y)
        doc[f"{prefix}.value_gap"] = fmt_float(cand.value_gap)
        doc[f"{prefix}.separation"] = fmt_float(cand.separation)
        doc[f"{prefix}.score"] = fmt_float(cand.score)
        doc[f"{prefix}.status"] = cand.status
        doc[f"{prefix}.kappa_method"] = cand.kappa_method
        doc[f"{prefix}.clusters"] = str(len(cand.clusters))
        for k, cluster in enumerate(cand.clusters):
            doc[f"{prefix}.cluster.{k}.point"] = fmt_vector(cluster.point)
            doc[f"{prefix}.cluster.{k}.value"] = fmt_float(cluster.value)

    param_names = [name for name, _ in cfg.family.parameters]
    cells_rows = []
    for s in result.summaries:
        values = dict(s.params)
        cells_rows.append(
            (str(s.index),)
            + tuple(fmt_float(values[name]) for name in param_names)
            + (
                _fmt_p(s.norm_p),
                fmt_vector(s.y),
                "1" if s.screened_out else "0",
                _fmt_opt(s.kappa_hat),
                str(s.cluster_count),
                _fmt_opt(s.best_value),
            )
        )
    cells = Table(
        name="cells",
        header=("cell",)
        + tuple(param_names)
        + ("p", "y", "screened_out", "kappa_hat", "clusters", "best_value"),
        rows=tuple(cells_rows),
    )
    cand_rows = tuple(
        (
            str(c.cell_index),
            fmt_float(c.score),
            fmt_float(c.value_gap),
            fmt_float(c.separation),
            c.status,
        )
        for c in result.candidates
    )
    candidates = Table(
        name="candidates",
        header=("cell", "score", "value_gap", "separation", "status"),
        rows=cand_rows,
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
