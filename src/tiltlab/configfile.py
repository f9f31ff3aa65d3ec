"""Line-oriented experiment configs.

One ``key = value`` assignment per line; ``#`` starts a comment; keys are
dot-separated identifiers with no positional fields.  Values are scalars,
the word ``inf``, or space-separated number lists; matrices are row-major
through a ``<name>.shape`` / ``<name>.data`` key pair.  Every floating-point
number is rendered with 17 significant digits so documents round-trip
losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .maps import (
    AffineMap,
    BoundedPerturbedMap,
    ConstantMap,
    MapSpec,
    ProjectedMap,
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
)
from .sweep import FAMILY_BUILDERS, MapFamily

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
    """A parsed config that records every key the builders look up, so that
    a key nothing reads (a typo, or one of another kind or variant) can be
    rejected instead of silently ignored."""

    def __init__(self, doc: dict[str, str]):
        super().__init__(doc)
        self.read: set[str] = set()


def _get(doc: _Document, key, default=None, required=False) -> str | None:
    doc.read.add(key)
    if key in doc:
        return doc[key]
    if required:
        raise ConfigError("missing required key", field=key)
    return default


def _get_float(doc, key, default=None, required=False) -> float | None:
    raw = _get(doc, key, required=required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"not a number: '{raw}'", field=key) from None


def _get_int(doc, key, default=None, required=False) -> int | None:
    raw = _get(doc, key, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"not an integer: '{raw}'", field=key) from None


def _get_vector(doc, key, length=None, default=None, required=False):
    raw = _get(doc, key, required=required)
    if raw is None:
        return default
    try:
        values = tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(f"not a number list: '{raw}'", field=key) from None
    if length is not None and len(values) != length:
        raise ConfigError(
            f"expected {length} numbers, got {len(values)}", field=key
        )
    return values


def _parse_p(raw: str, key: str) -> float | MaxNorm:
    if raw.strip().lower() == "inf":
        return INF
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"p must be a number or 'inf', got '{raw}'", field=key) from None


def _fmt_p(p: float | MaxNorm) -> str:
    return "inf" if p is INF else fmt_float(p)


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
            raise ValueError("y_mode must be halton or grid")
        # Reject at validation what the drivers would reject only at run time.
        for name in ("y_count", "y_radius", "check_samples", "margin", "radius_override",
                     "fallback_radius", "resolution", "radius", "growth_directions"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        r = self.growth_radii
        if not r or not r[0] > 0 or not all(b > a for a, b in zip(r, r[1:])):
            raise ValueError(
                f"growth_radii must be positive and strictly increasing, got {r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    norm: NormSpec
    domain: FeasibleSet
    map_spec: MapSpec | None
    family: MapFamily | None
    sweep_norms: tuple[float | MaxNorm, ...]
    sweep_y_grid: int
    planted_cell: int | None
    optimizer: OptimizeConfig
    sampling: SamplingSpec
    saddle_point: tuple[float, ...] | None
    saddle_tolerance: float
    out: str


def _build_norm(doc) -> NormSpec:
    dim = _get_int(doc, "space.dimension", required=True)
    kind = _get(doc, "space.norm", default="lp")
    p = _parse_p(_get(doc, "space.p", default="2"), "space.p")
    weights = None
    if kind == "weighted_lp":
        weights = _get_vector(doc, "space.weights", length=dim, required=True)
    elif kind != "lp":
        raise ConfigError(f"unknown norm kind '{kind}'", field="space.norm")
    try:
        return NormSpec(dimension=dim, p=p, weights=weights)
    except ValueError as exc:
        raise ConfigError(str(exc), field="space.p") from None


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
            return ConeIntersection(
                dim, constraints=tuple(constraints), ray=ray, base=base
            )
    except (ValueError, RuntimeError) as exc:
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
    if kind not in FAMILY_BUILDERS:
        raise ConfigError(
            f"unknown family '{kind}'; known: {sorted(FAMILY_BUILDERS)}",
            field="sweep.family",
        )
    params = []
    for key in doc:
        if key.startswith("sweep.param."):
            name = key[len("sweep.param.") :]
            params.append((name, _get_vector(doc, key, required=True)))
    if not params:
        raise ConfigError("no sweep.param.<name> grids given", field="sweep.family")
    params.sort(key=lambda kv: kv[0])
    offset = _get_vector(doc, "sweep.offset", length=dim)
    try:
        family = MapFamily(
            kind=kind, dimension=dim, parameters=tuple(params), offset=offset
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field="sweep.family") from None
    raw_ps = _get(doc, "sweep.p_values", default="2")
    sweep_norms = tuple(_parse_p(tok, "sweep.p_values") for tok in raw_ps.split())
    y_grid = _get_int(doc, "sweep.y_grid", default=5)
    if y_grid < 1:
        raise ConfigError("must be a positive integer", field="sweep.y_grid")
    planted = _get_int(doc, "sweep.planted_cell", default=None)
    if planted is not None and planted < 0:
        raise ConfigError("must be a cell index >= 0", field="sweep.planted_cell")
    return family, sweep_norms, y_grid, planted


def _build_optimizer(doc) -> OptimizeConfig:
    d = OptimizeConfig()

    def get(getter, name):
        return getter(doc, f"optimizer.{name}", default=getattr(d, name))

    raw_step = _get(doc, "optimizer.initial_step", default="auto")
    initial_step = (
        None if raw_step == "auto" else _get_float(doc, "optimizer.initial_step")
    )
    try:
        return OptimizeConfig(
            coarse_grid=get(_get_int, "coarse_grid"),
            multistart=get(_get_int, "multistart"),
            initial_step=initial_step,
            shrink=get(_get_float, "shrink"),
            termination_step=get(_get_float, "termination_step"),
            value_tolerance=get(_get_float, "value_tolerance"),
            separation=get(_get_float, "separation"),
            budget=get(_get_int, "budget"),
            seed=_get_int(doc, "seed", default=d.seed),
            directions=get(_get, "directions"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field="optimizer") from None


def _build_sampling(doc) -> SamplingSpec:
    d = SamplingSpec()

    def get(getter, name):
        return getter(doc, f"sampling.{name}", default=getattr(d, name))

    try:
        return SamplingSpec(
            y_count=get(_get_int, "y_count"),
            y_radius=get(_get_float, "y_radius"),
            y_mode=get(_get, "y_mode"),
            check_samples=get(_get_int, "check_samples"),
            margin=get(_get_float, "margin"),
            radius_override=get(_get_float, "radius_override"),
            fallback_radius=get(_get_float, "fallback_radius"),
            resolution=get(_get_int, "resolution"),
            radius=get(_get_float, "radius"),
            growth_radii=get(_get_vector, "growth_radii"),
            growth_directions=get(_get_int, "growth_directions"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field="sampling") from None


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
    norm_spec = _build_norm(doc)
    domain = _build_domain(doc, norm_spec.dimension)
    optimizer = _build_optimizer(doc)
    sampling = _build_sampling(doc)
    seed = _get_int(doc, "seed", default=0)
    out = _get(doc, "out", default="out")

    map_spec = None
    family = None
    sweep_norms: tuple = ()
    sweep_y_grid = 5
    planted_cell = None
    if kind == "search_counterexample":
        family, sweep_norms, sweep_y_grid, planted_cell = _build_family(
            doc, norm_spec.dimension
        )
    else:
        map_spec = _build_map(doc, norm_spec.dimension)

    saddle_point = None
    saddle_tolerance = _get_float(doc, "saddle.tolerance", default=1e-6)
    if kind == "verify_saddle":
        saddle_point = _get_vector(
            doc, "saddle.x_star", length=norm_spec.dimension, required=True
        )
    for key in doc:
        if key not in doc.read:
            raise ConfigError("unknown key: nothing reads it here", field=key)

    return ExperimentConfig(
        kind=kind,
        seed=seed,
        norm=norm_spec,
        domain=domain,
        map_spec=map_spec,
        family=family,
        sweep_norms=sweep_norms,
        sweep_y_grid=sweep_y_grid,
        planted_cell=planted_cell,
        optimizer=optimizer,
        sampling=sampling,
        saddle_point=saddle_point,
        saddle_tolerance=saddle_tolerance,
        out=out,
    )


def _map_to_doc(m: MapSpec, doc: dict[str, str], prefix: str = "map") -> None:
    if isinstance(m, AffineMap):
        doc[f"{prefix}.family"] = "affine"
        doc[f"{prefix}.matrix.shape"] = f"{m.dimension} {m.dimension}"
        doc[f"{prefix}.matrix.data"] = fmt_vector(
            [v for row in m.matrix for v in row]
        )
        doc[f"{prefix}.offset"] = fmt_vector(m.offset)
    elif isinstance(m, BoundedPerturbedMap):
        doc[f"{prefix}.family"] = "affine_bounded"
        doc[f"{prefix}.matrix.shape"] = f"{m.dimension} {m.dimension}"
        doc[f"{prefix}.matrix.data"] = fmt_vector(
            [v for row in m.matrix for v in row]
        )
        doc[f"{prefix}.offset"] = fmt_vector(m.offset)
        doc[f"{prefix}.field"] = m.field
        doc[f"{prefix}.amplitude"] = fmt_float(m.amplitude)
    elif isinstance(m, ConstantMap):
        doc[f"{prefix}.family"] = "constant"
        doc[f"{prefix}.value"] = fmt_vector(m.value)
    elif isinstance(m, ProjectedMap):
        doc[f"{prefix}.family"] = "projected"
        _map_to_doc(m.inner, doc, prefix=f"{prefix}.inner")
    else:  # pragma: no cover
        raise TypeError(f"unserializable map {type(m)}")


def config_to_document(cfg: ExperimentConfig) -> dict[str, str]:
    """Canonical document for a typed config; parsing it back yields an
    equal config."""
    doc: dict[str, str] = {}
    doc["kind"] = cfg.kind
    doc["seed"] = str(cfg.seed)
    doc["out"] = cfg.out
    doc["space.dimension"] = str(cfg.norm.dimension)
    doc["space.norm"] = cfg.norm.kind
    doc["space.p"] = _fmt_p(cfg.norm.p)
    if cfg.norm.weights is not None:
        doc["space.weights"] = fmt_vector(cfg.norm.weights)
    doc["set.variant"] = cfg.domain.variant
    if isinstance(cfg.domain, Orthant):
        doc["set.lower"] = fmt_vector(cfg.domain.lower)
    elif isinstance(cfg.domain, HalfSpace):
        doc["set.normal"] = fmt_vector(cfg.domain.normal)
        doc["set.offset"] = fmt_float(cfg.domain.offset)
    elif isinstance(cfg.domain, ConeIntersection):
        doc["set.halfspaces"] = str(len(cfg.domain.constraints))
        for i, hs in enumerate(cfg.domain.constraints):
            doc[f"set.halfspace.{i}.normal"] = fmt_vector(hs.normal)
            doc[f"set.halfspace.{i}.offset"] = fmt_float(hs.offset)
        doc["set.ray"] = fmt_vector(cfg.domain.ray)
        doc["set.base"] = fmt_vector(cfg.domain.base)
    if cfg.map_spec is not None:
        _map_to_doc(cfg.map_spec, doc)
    if cfg.family is not None:
        doc["sweep.family"] = cfg.family.kind
        for name, values in cfg.family.parameters:
            doc[f"sweep.param.{name}"] = fmt_vector(values)
        if cfg.family.offset is not None:
            doc["sweep.offset"] = fmt_vector(cfg.family.offset)
        doc["sweep.p_values"] = " ".join(_fmt_p(p) for p in cfg.sweep_norms)
        doc["sweep.y_grid"] = str(cfg.sweep_y_grid)
        if cfg.planted_cell is not None:
            doc["sweep.planted_cell"] = str(cfg.planted_cell)
    opt = cfg.optimizer
    doc["optimizer.coarse_grid"] = str(opt.coarse_grid)
    doc["optimizer.multistart"] = str(opt.multistart)
    doc["optimizer.initial_step"] = (
        "auto" if opt.initial_step is None else fmt_float(opt.initial_step)
    )
    doc["optimizer.shrink"] = fmt_float(opt.shrink)
    doc["optimizer.termination_step"] = fmt_float(opt.termination_step)
    doc["optimizer.value_tolerance"] = fmt_float(opt.value_tolerance)
    doc["optimizer.separation"] = fmt_float(opt.separation)
    doc["optimizer.budget"] = str(opt.budget)
    doc["optimizer.directions"] = opt.directions
    s = cfg.sampling
    doc["sampling.y_count"] = str(s.y_count)
    doc["sampling.y_radius"] = fmt_float(s.y_radius)
    doc["sampling.y_mode"] = s.y_mode
    doc["sampling.check_samples"] = str(s.check_samples)
    doc["sampling.margin"] = fmt_float(s.margin)
    if s.radius_override is not None:
        doc["sampling.radius_override"] = fmt_float(s.radius_override)
    doc["sampling.fallback_radius"] = fmt_float(s.fallback_radius)
    doc["sampling.resolution"] = str(s.resolution)
    doc["sampling.radius"] = fmt_float(s.radius)
    doc["sampling.growth_radii"] = fmt_vector(s.growth_radii)
    doc["sampling.growth_directions"] = str(s.growth_directions)
    if cfg.saddle_point is not None:
        doc["saddle.x_star"] = fmt_vector(cfg.saddle_point)
    doc["saddle.tolerance"] = fmt_float(cfg.saddle_tolerance)
    return doc


def apply_overrides(doc: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply repeatable ``key=value`` strings on top of a parsed document."""
    out = dict(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got '{item}'")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out
