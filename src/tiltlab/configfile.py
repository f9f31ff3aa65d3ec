"""Line-oriented experiment configs.

One ``key = value`` assignment per line; ``#`` starts a comment; keys are
dot-separated identifiers with no positional fields.  Values are scalars,
the word ``inf``, or space-separated number lists; matrices are row-major
through a ``<name>.shape`` / ``<name>.data`` key pair.  Every floating-point
number is rendered with 17 significant digits so documents round-trip
losslessly.

The builders are the only code that names a key: each typed read records the
text of the value it returns, given or defaulted, and that record, in reading
order, is the resolved config a report embeds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, FieldError
from .maps import (
    AffineMap,
    BoundedPerturbedMap,
    ConstantMap,
    MapSpec,
    ProjectedMap,
    shell_radii,
)
from .optimize import OptimizeConfig
from .spaces import (
    INF,
    ConeIntersection,
    FeasibleSet,
    FullSpace,
    HalfSpace,
    MaxNorm,
    NormSpec,
    Orthant,
    SampleDomain,
    positive_int,
)
from .sweep import MapFamily, require_planted_cell, sweep_norm_specs

EXPERIMENT_KINDS = (
    "certify_uniqueness",
    "find_fixed_point",
    "minimax_gap",
    "verify_saddle",
    "search_counterexample",
)


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_vector(v) -> str:
    return " ".join(fmt_float(x) for x in v)


def _text(value) -> str:
    """The one rendering rule for every config, report and table value."""
    if value is None:
        return "none"
    if isinstance(value, bool):  # before int: a bool is an int
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, tuple):
        return " ".join(_text(v) for v in value)
    return fmt_float(value)


def _put(doc: dict[str, str], prefix: str, obj, *names: str) -> None:
    """Write each named field of ``obj`` under ``prefix.name``."""
    for name in names:
        doc[f"{prefix}.{name}"] = _text(getattr(obj, name))


def parse_document(text: str) -> dict[str, str]:
    """Raw key -> value strings; duplicate keys and malformed lines are
    reported with their line number."""
    doc: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or any(
            not part.replace("_", "").isalnum() for part in key.split(".")
        ):
            raise ConfigError(f"malformed key '{key}'", line=lineno)
        if key in doc:
            raise ConfigError(f"duplicate key '{key}'", line=lineno)
        doc[key] = value
    return doc


def render_document(doc: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in doc.items())


class _Document(dict):
    """A parsed config and ``canonical``, the text of every value the
    builders have returned for a key, given or defaulted, in reading order.
    ``canonical`` is the resolved config, and a key it lacks (a typo, or one
    of another kind or variant) is rejected instead of silently ignored.
    A typed getter's value replaces the raw text ``_get`` records first; a
    key keeps the place of its first record."""

    def __init__(self, doc: dict[str, str]):
        super().__init__(doc)
        self.canonical: dict[str, str] = {}

    def note(self, key: str, value):
        """``value``, its text recorded under ``key`` unless it is None."""
        if value is not None:
            self.canonical[key] = _text(value)
        return value


def _get(doc: _Document, key, default=None, required=False) -> str | None:
    if key in doc:
        return doc.note(key, doc[key])
    if required:
        raise ConfigError("missing required key", field=key)
    return doc.note(key, default)


def _get_float(doc, key, default=None, required=False) -> float | None:
    raw = _get(doc, key, required=required)
    if raw is None:
        return doc.note(key, default)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"not a number: '{raw}'", field=key) from None
    if not math.isfinite(value):
        raise ConfigError(f"must be a finite number, got '{raw}'", field=key)
    return doc.note(key, value)


def _get_int(doc, key, default=None, required=False) -> int | None:
    raw = _get(doc, key, required=required)
    if raw is None:
        return doc.note(key, default)
    try:
        return doc.note(key, int(raw))
    except ValueError:
        raise ConfigError(f"not an integer: '{raw}'", field=key) from None


def _get_vector(doc, key, length=None, default=None, required=False):
    raw = _get(doc, key, required=required)
    if raw is None:
        return doc.note(key, default)
    try:
        values = tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(f"not a number list: '{raw}'", field=key) from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"every number must be finite, got '{raw}'", field=key)
    if length is not None and len(values) != length:
        raise ConfigError(
            f"expected {length} numbers, got {len(values)}", field=key
        )
    return doc.note(key, values)


def _parse_p(raw: str, key: str) -> float | MaxNorm:
    if raw.strip().lower() == "inf":
        return INF
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"p must be a number or 'inf', got '{raw}'", field=key) from None


@dataclass(frozen=True)
class SamplingSpec:
    """Sampling and experiment-shape knobs shared by the drivers."""

    y_count: int = 25
    y_radius: float = 10.0
    y_mode: str = "halton"  # halton | grid
    check_samples: int = 200
    margin: float = 1.0
    radius_override: float | None = None
    fallback_radius: float = 10.0
    resolution: int = 17
    radius: float = 8.0
    growth_radii: tuple[float, ...] = (100.0, 1000.0, 10000.0)
    growth_directions: int = 64

    def __post_init__(self):
        if self.y_mode not in ("halton", "grid"):
            raise FieldError("y_mode", "y_mode must be halton or grid")
        # Reject at validation what the drivers would reject only at run time.
        for name in ("y_count", "y_radius", "check_samples", "margin", "radius_override",
                     "fallback_radius", "resolution", "radius", "growth_directions"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise FieldError(name, f"{name} must be positive and finite, got {value}")
        try:
            shell_radii(self.growth_radii, "growth_radii")
        except ValueError as exc:
            raise FieldError("growth_radii", str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    norm: NormSpec
    domain: FeasibleSet
    map_spec: MapSpec | None
    family: MapFamily | None
    sweep_norms: tuple[float | MaxNorm, ...]
    planted_cell: int | None
    optimizer: OptimizeConfig
    sampling: SamplingSpec
    saddle_point: tuple[float, ...] | None
    saddle_tolerance: float
    out: str
    # The resolved config: each key read or defaulted, as text, in reading order.
    document: tuple[tuple[str, str], ...]
    # The probes a sweep reads, built once while validating; a saddle check
    # reads its window (its grid rows on a set other than full space and
    # orthants), whose blocks it walks.
    probe_grid: np.ndarray | SampleDomain | None = field(compare=False, repr=False)


def _checked(field: str, build, *args):
    """``build(*args)``, its ``ValueError`` a ``ConfigError`` naming ``field``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field) from None


def _probe_grid(field: str, *window) -> np.ndarray:
    """The read-only grid of ``SampleDomain(*window)``, refused on ``field``
    when it has no point."""
    grid = _checked(field, lambda: SampleDomain(*window).require_grid())
    grid.setflags(write=False)
    return grid


def _saddle_probes(field: str, *window) -> np.ndarray | SampleDomain:
    """A saddle check's probes, refused on ``field`` when there is none: on
    full space and orthants the window itself, whose blocks the run walks,
    with no row built here; on other sets its read-only grid."""
    if not window[0].coordinatewise:
        return _probe_grid(field, *window)
    return _checked(field, lambda: SampleDomain(*window).require_points())


def _build_norm(doc) -> NormSpec:
    dim = _checked(
        "space.dimension", positive_int, _get_int(doc, "space.dimension", required=True)
    )
    kind = _get(doc, "space.norm", default="lp")
    if kind not in ("lp", "weighted_lp"):
        raise ConfigError(f"unknown norm kind '{kind}'", field="space.norm")
    p = doc.note("space.p", _parse_p(_get(doc, "space.p", default="2"), "space.p"))
    spec = _checked("space.p", NormSpec, dim, p)
    if kind == "lp":
        return spec
    weights = _get_vector(doc, "space.weights", length=dim, required=True)
    return _checked("space.weights", NormSpec, dim, p, weights)


def _build_domain(doc, dim: int) -> FeasibleSet:
    variant = _get(doc, "set.variant", default="full_space")
    try:
        if variant == "full_space":
            return FullSpace(dim)
        if variant == "orthant":
            lower = _get_vector(doc, "set.lower", length=dim, default=(0.0,) * dim)
            return Orthant(dim, lower=lower)
        if variant == "half_space":
            normal = _get_vector(doc, "set.normal", length=dim, required=True)
            offset = _get_float(doc, "set.offset", required=True)
            return HalfSpace(dim, normal=normal, offset=offset)
        if variant == "cone":
            count = _get_int(doc, "set.halfspaces", required=True)
            constraints = []
            for i in range(count):
                normal = _get_vector(doc, f"set.halfspace.{i}.normal", length=dim, required=True)
                offset = _get_float(doc, f"set.halfspace.{i}.offset", required=True)
                constraints.append(HalfSpace(dim, normal=normal, offset=offset))
            ray = _get_vector(doc, "set.ray", length=dim, required=True)
            base = _get_vector(doc, "set.base", length=dim)
            cone = ConeIntersection(dim, constraints=tuple(constraints), ray=ray, base=base)
            # A base the config leaves out is computed at construction.
            doc.note("set.base", cone.base)
            return cone
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), field="set.variant") from None
    raise ConfigError(f"unknown set variant '{variant}'", field="set.variant")


def _build_map(doc, dim: int, prefix: str = "map") -> MapSpec:
    family = _get(doc, f"{prefix}.family", required=True)
    try:
        if family == "affine" or family == "affine_bounded":
            key = f"{prefix}.matrix.shape"
            if _get_vector(doc, key, length=2, required=True) != (dim, dim):
                raise ConfigError(
                    f"matrix shape must be the integers {dim} {dim}, got '{doc[key]}'",
                    field=key,
                )
            data = _get_vector(doc, f"{prefix}.matrix.data", length=dim * dim, required=True)
            matrix = tuple(tuple(data[i * dim : (i + 1) * dim]) for i in range(dim))
            offset = _get_vector(doc, f"{prefix}.offset", length=dim, default=(0.0,) * dim)
            if family == "affine":
                return AffineMap(dimension=dim, matrix=matrix, offset=offset)
            field_name = _get(doc, f"{prefix}.field", required=True)
            amplitude = _get_float(doc, f"{prefix}.amplitude", default=0.0)
            return BoundedPerturbedMap(
                dimension=dim,
                matrix=matrix,
                offset=offset,
                field=field_name,
                amplitude=amplitude,
            )
        if family == "constant":
            value = _get_vector(doc, f"{prefix}.value", length=dim, required=True)
            return ConstantMap(dimension=dim, value=value)
        if family == "projected":
            inner = _build_map(doc, dim, prefix=f"{prefix}.inner")
            return ProjectedMap(dimension=dim, inner=inner)
    except ConfigError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(str(exc), field=f"{prefix}.family") from None
    raise ConfigError(f"unknown map family '{family}'", field=f"{prefix}.family")


def _build_family(doc, dim: int) -> tuple[MapFamily, tuple, int, int | None]:
    kind = _get(doc, "sweep.family", required=True)
    params = tuple(
        (key[len("sweep.param.") :], _get_vector(doc, key, required=True))
        for key in sorted(doc)
        if key.startswith("sweep.param.")
    )
    offset = _get_vector(doc, "sweep.offset", length=dim)
    family = _checked("sweep.family", MapFamily, kind, dim, params, offset)
    raw_ps = _get(doc, "sweep.p_values", default="2")
    sweep_norms = doc.note(
        "sweep.p_values", tuple(_parse_p(tok, "sweep.p_values") for tok in raw_ps.split())
    )
    _checked("sweep.p_values", sweep_norm_specs, dim, sweep_norms)
    # build_experiment checks both against the probe grid.
    y_grid = _get_int(doc, "sweep.y_grid", default=5)
    planted = _get_int(doc, "sweep.planted_cell", default=None)
    return family, sweep_norms, y_grid, planted


# A section knob's parser follows the type of its default; a None default
# stands for a number.
_FIELD_KINDS = {int: _get_int, float: _get_float, str: _get, tuple: _get_vector}


def _build_section(doc, section: str, cls, **given):
    """A config dataclass from its ``section.<field>`` keys, but for the
    fields ``given`` as read elsewhere; a refused value is blamed on its
    key."""
    values = dict(given)
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if f.name in given:
            continue
        if f.name == "initial_step" and _get(doc, key, default="auto") == "auto":
            values[f.name] = None
        else:
            parse = _FIELD_KINDS[float if f.default is None else type(f.default)]
            values[f.name] = parse(doc, key, default=f.default)
    try:
        return cls(**values)
    except FieldError as exc:
        raise ConfigError(str(exc), field=f"{section}.{exc.field}") from None


def build_experiment(doc: dict[str, str]) -> ExperimentConfig:
    """Typed experiment description; validates dimensions, ranges and
    set unboundedness; every key must be one the kind and variant read."""
    doc = _Document(doc)
    kind = _get(doc, "kind", required=True)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind '{kind}'; known: {EXPERIMENT_KINDS}",
            field="kind",
        )
    # The seed is the top-level key every kind shares.
    seed = _get_int(doc, "seed", default=OptimizeConfig.seed)
    if seed < 0:
        raise ConfigError("must be a non-negative integer", field="seed")
    out = _get(doc, "out", default="out")
    norm_spec = _build_norm(doc)
    domain = _build_domain(doc, norm_spec.dimension)

    map_spec = None
    family = None
    sweep_norms: tuple = ()
    planted_cell = None
    if kind == "search_counterexample":
        family, sweep_norms, sweep_y_grid, planted_cell = _build_family(
            doc, norm_spec.dimension
        )
    else:
        map_spec = _build_map(doc, norm_spec.dimension)
    optimizer = _build_section(doc, "optimizer", OptimizeConfig, seed=seed)
    sampling = _build_section(doc, "sampling", SamplingSpec)
    probe_grid = None  # refused here when the run would find it empty
    if family is not None:
        window = (domain, norm_spec, sampling.y_radius, sweep_y_grid)
        probe_grid = _probe_grid("sweep.y_grid", *window)
        cell = (planted_cell, family, sweep_norms, len(probe_grid))
        _checked("sweep.planted_cell", require_planted_cell, *cell)

    saddle_point = None
    if kind == "verify_saddle":
        saddle_point = _get_vector(
            doc, "saddle.x_star", length=norm_spec.dimension, required=True
        )
        window = (domain, norm_spec, sampling.radius, sampling.resolution)
        probe_grid = _saddle_probes("sampling.resolution", *window)
    saddle_tolerance = _get_float(doc, "saddle.tolerance", default=1e-6)
    if not 0.0 <= saddle_tolerance < math.inf:
        raise ConfigError("must be a finite number >= 0", field="saddle.tolerance")
    for key in doc:
        if key not in doc.canonical:
            raise ConfigError("unknown key: nothing reads it here", field=key)

    return ExperimentConfig(
        kind=kind,
        seed=optimizer.seed,
        norm=norm_spec,
        domain=domain,
        map_spec=map_spec,
        family=family,
        sweep_norms=sweep_norms,
        planted_cell=planted_cell,
        optimizer=optimizer,
        sampling=sampling,
        saddle_point=saddle_point,
        saddle_tolerance=saddle_tolerance,
        out=out,
        document=tuple(doc.canonical.items()),
        probe_grid=probe_grid,
    )


def config_to_document(cfg: ExperimentConfig) -> dict[str, str]:
    """Canonical document for a typed config; parsing it back yields an
    equal config."""
    return dict(cfg.document)


def apply_overrides(doc: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply repeatable ``key=value`` strings on top of a parsed document."""
    out = dict(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got '{item}'")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out
