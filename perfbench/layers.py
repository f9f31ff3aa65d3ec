"""Which tiltlab functions the traced pass wraps, and the per-layer metrics
computed from what it records.

The layers are the package modules.  Every metric's name starts with its
layer; README.md lists the end-to-end metric and workload each should move.
"""

from __future__ import annotations

from tracing import Tracer

COUNT, SECONDS, RATIO = "count", "s", "ratio"

# (name, unit, better) for every per-layer metric; the traced run reports
# all of them on every workload, 0 where a layer does not run.
PER_LAYER = (
    ("spaces.norms_of_rows.rows", COUNT, "lower"),
    ("spaces.norms_of_rows.self_s", SECONDS, "lower"),
    ("spaces.project.calls", COUNT, "lower"),
    ("spaces.project.self_s", SECONDS, "lower"),
    ("spaces.halfspace_project.calls", COUNT, "lower"),
    ("spaces.project_rows.rows", COUNT, "lower"),
    ("spaces.project_rows.self_s", SECONDS, "lower"),
    ("spaces.grid_points.self_s", SECONDS, "lower"),
    ("maps.raw_value.calls", COUNT, "lower"),
    ("maps.evaluate_rows.rows", COUNT, "lower"),
    ("maps.evaluate_rows.self_s", SECONDS, "lower"),
    ("maps.growth_coefficient.calls", COUNT, "lower"),
    ("maps.growth_coefficient.self_s", SECONDS, "lower"),
    ("maps.growth.sampled_frac", RATIO, "lower"),
    ("functional.scalar_evals", COUNT, "lower"),
    ("functional.row_evals", COUNT, "lower"),
    ("functional.rows_per_call", "rows/call", "higher"),
    ("functional.batched_frac", RATIO, "higher"),
    ("functional.rows.self_s", SECONDS, "lower"),
    ("optimize.evaluations", COUNT, "lower"),
    ("optimize.evals_per_s", "1/s", "higher"),
    ("optimize.pattern_search.calls", COUNT, "lower"),
    ("optimize.pattern_search.self_s", SECONDS, "lower"),
    ("optimize.pattern_search.evals_per_call", "evals/call", "lower"),
    ("optimize.global_minimize.self_s", SECONDS, "lower"),
    ("optimize.budget_exhausted", COUNT, "lower"),
    ("optimize.brute_force_minima.self_s", SECONDS, "lower"),
    ("optimize.brute_force_minima.evaluations", COUNT, "lower"),
    ("experiments.find_fixed_point.self_s", SECONDS, "lower"),
    ("experiments.minimax_gap.self_s", SECONDS, "lower"),
    ("experiments.minimax_gap.pattern_search_calls", COUNT, "lower"),
    ("experiments.verify_saddle.self_s", SECONDS, "lower"),
    ("sweep.search_counterexample.self_s", SECONDS, "lower"),
    ("sweep.cells", COUNT, "higher"),
    ("sweep.screened_frac", RATIO, "lower"),
    ("sweep.growth_calls_per_cell", "calls/cell", "lower"),
    ("sweep.reverify_frac", RATIO, "lower"),
    ("sweep.confirm_frac", RATIO, "higher"),
    ("configfile.build_s", SECONDS, "lower"),
    ("reporting.run_experiment.self_s", SECONDS, "lower"),
    ("trace.overhead_frac", RATIO, "lower"),
)

# Counters that must repeat exactly between two passes over the same inputs.
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == COUNT)

# Batched evaluators of J and Phi, with where their batch argument sits.
_FUNCTIONAL_ROWS = (
    ("values_for_ys", 2, "Y"),
    ("values_for_xs", 1, "X"),
    ("displacements", 1, "X"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every traced tiltlab function and method."""
    from tiltlab import (
        configfile,
        experiments,
        functional,
        maps,
        optimize,
        reporting,
        spaces,
        sweep,
    )

    t = tracer
    add = t.counts

    def rows(counter, position, keyword):
        def after(args, kwargs, result, token):
            batch = args[position] if len(args) > position else kwargs.get(keyword, ())
            add[counter] += len(batch)

        return after

    # spaces: the L0 kernel, projections and grids
    t.rebind(spaces, "norms_of_rows", lambda f: t.span(
        "spaces.norms_of_rows", f, after=rows("spaces.norms_of_rows.rows", 0, "X")))
    t.patch(spaces.FeasibleSet, "project", lambda f, owner: t.point(
        "spaces.project.calls", f, timed=True,
        also="spaces.halfspace_project.calls" if owner is spaces.HalfSpace else None))
    t.patch(spaces.FeasibleSet, "project_rows", lambda f, owner: t.span(
        "spaces.project_rows", f, after=rows("spaces.project_rows.rows", 1, "Z")))
    t.patch(spaces.SampleDomain, "grid_points", lambda f, owner: t.span(
        "spaces.grid_points", f))

    # maps: scalar f, batched f, growth estimation
    t.patch(maps.MapSpec, "raw_value", lambda f, owner: t.point("maps.raw_value.calls", f))
    t.rebind(maps, "evaluate_rows", lambda f: t.span(
        "maps.evaluate_rows", f, after=rows("maps.evaluate_rows.rows", 1, "X")))

    def growth_after(args, kwargs, result, token):
        add["maps.growth_coefficient.calls"] += 1
        add["maps.growth.sampled"] += result.method is maps.GrowthMethod.SAMPLED

    t.rebind(maps, "growth_coefficient", lambda f: t.span(
        "maps.growth_coefficient", f, after=growth_after))

    # functional: scalar J/Phi evaluations and the row-batched evaluators
    for name, position, keyword in _FUNCTIONAL_ROWS:
        t.patch(functional.TiltedFunctional, name, lambda f, owner, at=(position, keyword): t.span(
            "functional.rows", f, after=rows("functional.row_evals", *at)))

    def counted_objective(f, owner):
        return lambda *args: t.point("functional.scalar_evals", f(*args))

    t.patch(functional.TiltedFunctional, "tilt_objective", counted_objective)
    t.patch(functional.TiltedFunctional, "displacement_objective", counted_objective)
    t.patch(functional.Bifunctional, "fast_value", lambda f, owner: t.point(
        "functional.scalar_evals", f))
    for name in ("tilted_value", "displacement"):
        t.rebind(functional, name, lambda f: t.point("functional.scalar_evals", f))

    # optimize: refinement, global search, the oracle
    def budget_used(args, kwargs):
        return getattr(kwargs.get("budget", args[-1] if args else None), "used", 0)

    def search_after(args, kwargs, result, token):
        add["optimize.pattern_search.calls"] += 1
        add["optimize.pattern_search.evals"] += budget_used(args, kwargs) - token

    t.rebind(optimize, "pattern_search", lambda f: t.span(
        "optimize.pattern_search", f, before=budget_used, after=search_after))

    def minimize_after(args, kwargs, result, token):
        add["optimize.evaluations"] += result.evaluations
        add["optimize.budget_exhausted"] += (
            result.status is optimize.SearchStatus.BUDGET_EXHAUSTED)

    t.rebind(optimize, "global_minimize", lambda f: t.span(
        "optimize.global_minimize", f, after=minimize_after))

    def oracle_after(args, kwargs, result, token):
        add["optimize.brute_force_minima.evaluations"] += result.evaluations

    t.rebind(optimize, "brute_force_minima", lambda f: t.span(
        "optimize.brute_force_minima", f, after=oracle_after))

    # experiments: the experiment entry points
    def minimax_after(args, kwargs, result, token):
        add["optimize.evaluations"] += result.evaluations

    t.rebind(experiments, "find_fixed_point", lambda f: t.span(
        "experiments.find_fixed_point", f))
    t.rebind(experiments, "minimax_gap", lambda f: t.span(
        "experiments.minimax_gap", f, after=minimax_after))
    t.rebind(experiments, "verify_saddle", lambda f: t.span(
        "experiments.verify_saddle", f))

    # sweep, configfile, reporting
    def sweep_after(args, kwargs, result, token):
        add["sweep.cells"] += result.cells_total
        add["sweep.screened"] += result.cells_screened_out
        add["sweep.findings"] += result.findings_raw
        add["sweep.candidates"] += len(result.candidates)

    t.rebind(sweep, "search_counterexample", lambda f: t.span(
        "sweep.search_counterexample", f, after=sweep_after))
    t.rebind(configfile, "parse_document", lambda f: t.span("configfile.parse_document", f))
    t.rebind(configfile, "build_experiment", lambda f: t.span(
        "configfile.build_experiment", f))
    t.rebind(reporting, "run_experiment", lambda f: t.span("reporting.run_experiment", f))


def metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced pass over inputs that the
    untraced pass ran in ``untraced_s`` seconds and the traced one in
    ``traced_s``."""
    c = tracer.counts
    own = tracer.self_seconds()
    durations: dict[str, float] = {}
    for s in tracer.spans:
        durations[s.name] = durations.get(s.name, 0.0) + s.end - s.start
    row_calls = sum(1 for s in tracer.spans if s.name == "functional.rows")
    all_evals = c["functional.row_evals"] + c["functional.scalar_evals"]
    unscreened = c["sweep.cells"] - c["sweep.screened"]
    out = {name: float(c[name]) for name in EXACT_COUNTS}
    out.update({
        "spaces.norms_of_rows.self_s": own["spaces.norms_of_rows"],
        "spaces.project.self_s": tracer.point_seconds["spaces.project.calls"],
        "spaces.project_rows.self_s": own["spaces.project_rows"],
        "spaces.grid_points.self_s": own["spaces.grid_points"],
        "maps.evaluate_rows.self_s": own["maps.evaluate_rows"],
        "maps.growth_coefficient.self_s": own["maps.growth_coefficient"],
        "maps.growth.sampled_frac": _ratio(
            c["maps.growth.sampled"], c["maps.growth_coefficient.calls"]),
        "functional.rows_per_call": _ratio(c["functional.row_evals"], row_calls),
        "functional.batched_frac": _ratio(c["functional.row_evals"], all_evals),
        "functional.rows.self_s": own["functional.rows"],
        "optimize.evals_per_s": _ratio(c["optimize.evaluations"], untraced_s),
        "optimize.pattern_search.self_s": own["optimize.pattern_search"],
        "optimize.pattern_search.evals_per_call": _ratio(
            c["optimize.pattern_search.evals"], c["optimize.pattern_search.calls"]),
        "optimize.global_minimize.self_s": own["optimize.global_minimize"],
        "optimize.brute_force_minima.self_s": own["optimize.brute_force_minima"],
        "experiments.find_fixed_point.self_s": own["experiments.find_fixed_point"],
        "experiments.minimax_gap.self_s": own["experiments.minimax_gap"],
        "experiments.minimax_gap.pattern_search_calls": float(tracer.calls_under(
            "optimize.pattern_search", "experiments.minimax_gap")),
        "experiments.verify_saddle.self_s": own["experiments.verify_saddle"],
        "sweep.search_counterexample.self_s": own["sweep.search_counterexample"],
        "sweep.screened_frac": _ratio(c["sweep.screened"], c["sweep.cells"]),
        "sweep.growth_calls_per_cell": _ratio(tracer.calls_under(
            "maps.growth_coefficient", "sweep.search_counterexample"), c["sweep.cells"]),
        "sweep.reverify_frac": _ratio(c["sweep.findings"], unscreened),
        "sweep.confirm_frac": _ratio(c["sweep.candidates"], c["sweep.findings"]),
        "configfile.build_s": durations.get("configfile.parse_document", 0.0)
        + durations.get("configfile.build_experiment", 0.0),
        "reporting.run_experiment.self_s": own["reporting.run_experiment"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return out
