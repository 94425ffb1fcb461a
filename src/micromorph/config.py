"""Run configuration: strict INI-like parsing, defaults, canonical
serialization, and builders for the objects a run needs.

Format: ``[section]`` headers and flat ``key = value`` pairs, ``#`` or ``;``
comments.  Unknown sections or keys are rejected with their line numbers.
Tensor values are either ``isotropic <moduli...>`` or ``components <upper
triangle of the canonical matrix representation, row-major>``.  Field values
are a kind followed by numbers, or by ``|``-separated groups of numbers for
``poly`` and ``table``.  Loads take ``zero``, ``constant <numbers>``,
``poly <numbers> | <numbers> | ...`` (coefficients of powers of t) or
``table t <numbers> | t <numbers> | ...``; initial data take ``zero``,
``constant <numbers>`` or ``sine <amplitude>``, a product-of-sines bump that
vanishes on the boundary.  Each field key fixes the shape of its value
(``_FIELD_SHAPES``: 3 numbers or 9).

The parser reads only this syntax.  Whether a value can be built (a tensor's
arity, a field's kind and arity) is decided by the constructor the run uses
later, called once at parse time; its ``ValueError`` becomes a
:class:`ConfigError` entry carrying the value's line and key.  Each built
load is also evaluated at 0 and at ``SimulationConfig.load_end``, the last
time the integrator evaluates it, so a ``table`` that does not cover the run
is rejected there too.  Likewise every value in ``_VALUE_CHECKS`` is
checked whichever command the run executes: mesh dims and resolution, Picard
nodes and tolerance, and the dispersion direction and wavenumbers by the
function the library applies where it uses them, and the output precision,
which only the CLI reads, here.  The material scalars ``rho``, ``j``, ``mu``
and ``lc`` are checked for the configured variant by the rule that
:class:`MaterialParams` applies on construction.

Every run embeds its fully resolved configuration in the output header, so
outputs are reproducible from the artifact alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import _unit_direction, _wavenumbers
from .assembly import LoadFunctional, TimeField
from .dynamics import _check_fixed_tol, _check_time_nodes
from .errors import ConfigError
from .mesh import BoxMesh, _box_dims, _box_resolution, build_box_mesh
from .tensors import (
    _TENSOR_CLASSES,
    ConstitutiveTensor4,
    MaterialParams,
    ModelVariant,
    SymmetryClass,
    _scalar_problems,
    make_isotropic,
)

__all__ = [
    "TensorSpec",
    "FieldSpec",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "config_digest",
    "material_from_config",
    "mesh_from_config",
    "load_from_config",
]

_VARIANTS = {v.value: v for v in ModelVariant}

_SCALAR_KEYS = {  # ini key -> MaterialParams attribute
    "rho": "rho",
    "j": "micro_inertia",
    "mu": "mu",
    "lc": "length_scale",
}

_TENSOR_KEYS = {  # ini key -> MaterialParams attribute, which fixes the class
    "c_e": "elastic",
    "c_c": "coupling",
    "c_micro": "micro",
    "l_aniso": "curvature",
    "ct_e": "inertia_elastic",
    "ct_c": "inertia_coupling",
    "ct_micro": "inertia_micro",
    "lt_aniso": "inertia_curvature",
}

_FIELD_SHAPES = {  # field key -> shape of its value
    "load_f": (3,),
    "load_m": (3, 3),
    "initial_u": (3,),
    "initial_ut": (3,),
    "initial_p": (3, 3),
    "initial_pt": (3, 3),
}


@dataclass(frozen=True)
class TensorSpec:
    kind: str                 # 'isotropic' | 'components'
    values: tuple[float, ...]

    def build(self, symmetry_class: SymmetryClass) -> ConstitutiveTensor4:
        if self.kind == "isotropic":
            return make_isotropic(symmetry_class, *self.values)
        return ConstitutiveTensor4.from_components(symmetry_class, self.values)

    def serialize(self) -> str:
        return f"{self.kind} " + " ".join(f"{v!r}" for v in self.values)


@dataclass(frozen=True)
class FieldSpec:
    kind: str                              # zero|constant|poly|table|sine
    values: tuple = ()

    def serialize(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind in ("constant", "sine"):
            return f"{self.kind} " + " ".join(f"{v!r}" for v in self.values)
        parts = [" ".join(f"{v!r}" for v in group) for group in self.values]
        return f"{self.kind} " + " | ".join(parts)


def _check_precision(precision: int) -> None:
    if precision < 1:
        raise ValueError("needs at least one significant digit")


# (section, key) -> the one check of that value, shared with the library
_VALUE_CHECKS = {
    ("mesh", "dims"): _box_dims,
    ("mesh", "resolution"): _box_resolution,
    ("simulation", "nodes_per_interval"): _check_time_nodes,
    ("simulation", "fixed_tol"): _check_fixed_tol,
    ("analysis", "direction"): _unit_direction,
    ("analysis", "k_samples"): _wavenumbers,
    ("output", "precision"): _check_precision,
}


@dataclass(frozen=True)
class MaterialConfig:
    variant: str = "full"
    rho: float = 1.0
    j: float = 1.0
    mu: float = 1.0
    lc: float = 1.0
    c_e: TensorSpec = TensorSpec("isotropic", (1.0, 0.5))
    c_c: TensorSpec = TensorSpec("isotropic", (0.5,))
    c_micro: TensorSpec = TensorSpec("isotropic", (1.0, 0.5))
    l_aniso: TensorSpec = TensorSpec("isotropic", (1.0,))
    ct_e: TensorSpec = TensorSpec("isotropic", (1.0, 0.0))
    ct_c: TensorSpec = TensorSpec("isotropic", (0.0,))
    ct_micro: TensorSpec = TensorSpec("isotropic", (1.0, 0.0))
    lt_aniso: TensorSpec = TensorSpec("isotropic", (1.0,))


@dataclass(frozen=True)
class MeshConfig:
    dims: tuple[float, float, float] = (1.0, 1.0, 1.0)
    resolution: tuple[int, int, int] = (2, 2, 2)


@dataclass(frozen=True)
class SimulationConfig:
    t_final: float = 1.0
    integrator: str = "picard"             # picard | newmark
    dt: float = 0.05                       # newmark step
    nodes_per_interval: int = 17           # picard nodes per subinterval
    fixed_tol: float = 1e-10
    load_f: FieldSpec = FieldSpec("zero")
    load_m: FieldSpec = FieldSpec("zero")
    initial_u: FieldSpec = FieldSpec("zero")
    initial_ut: FieldSpec = FieldSpec("zero")
    initial_p: FieldSpec = FieldSpec("zero")
    initial_pt: FieldSpec = FieldSpec("zero")
    sample_dofs: tuple[int, ...] = (0, 1, 2, 3)

    @property
    def n_steps(self) -> int:
        """Newmark steps: t_final / dt rounded, at least one."""
        return max(1, round(self.t_final / self.dt))

    @property
    def load_end(self) -> float:
        """Last time the integrator evaluates the loads at (the first is 0)."""
        return self.t_final if self.integrator == "picard" else self.dt * self.n_steps


@dataclass(frozen=True)
class AnalysisConfig:
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)
    k_samples: tuple[float, ...] = tuple(float(x) for x in np.linspace(0.0, 3.0, 13))
    korn_levels: int = 2


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    precision: int = 17


@dataclass(frozen=True)
class RunConfig:
    material: MaterialConfig = MaterialConfig()
    mesh: MeshConfig = MeshConfig()
    simulation: SimulationConfig = SimulationConfig()
    analysis: AnalysisConfig = AnalysisConfig()
    output: OutputConfig = OutputConfig()


_SECTIONS = {
    "material": MaterialConfig,
    "mesh": MeshConfig,
    "simulation": SimulationConfig,
    "analysis": AnalysisConfig,
    "output": OutputConfig,
}


def _split_kind(value: str, what: str) -> tuple[str, str]:
    toks = value.split(None, 1)
    if not toks:
        raise ValueError(f"empty {what} specification")
    return toks[0], toks[1] if len(toks) > 1 else ""


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _parse_tensor(value: str, symmetry_class: SymmetryClass) -> TensorSpec:
    kind, rest = _split_kind(value, "tensor")
    if kind not in ("isotropic", "components"):
        raise ValueError(f"unknown tensor kind {kind!r}")
    spec = TensorSpec(kind, _parse_floats(rest))
    spec.build(symmetry_class)  # the constructor owns the arity
    return spec


def _parse_field(value: str) -> FieldSpec:
    kind, rest = _split_kind(value, "field")
    if kind in ("poly", "table"):
        return FieldSpec(kind, tuple(_parse_floats(g) for g in rest.split("|")))
    return FieldSpec(kind, _parse_floats(rest))


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises :class:`ConfigError` listing every issue."""
    issues: list[tuple[int, str, str]] = []
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                issues.append((lineno, name, "unknown section"))
                current = None
            else:
                current = name
                sections.setdefault(name, {})
            continue
        if "=" not in line:
            issues.append((lineno, line, "expected 'key = value'"))
            continue
        if current is None:
            issues.append((lineno, line.split("=")[0].strip(),
                           "key outside any known section"))
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        known = {f.name for f in fields(_SECTIONS[current])}
        if key not in known:
            issues.append((lineno, key, f"unknown key in [{current}]"))
            continue
        if key in sections[current]:
            issues.append((lineno, key, f"duplicate key in [{current}]"))
            continue
        sections[current][key] = (lineno, value)

    def build(section: str, cls):
        out = cls()
        for key, (lineno, value) in sections.get(section, {}).items():
            default = getattr(out, key)
            try:
                if key in _TENSOR_KEYS:
                    parsed = _parse_tensor(value, _TENSOR_CLASSES[_TENSOR_KEYS[key]])
                elif isinstance(default, FieldSpec):
                    parsed = _parse_field(value)
                elif isinstance(default, int):
                    parsed = int(value)
                elif isinstance(default, float):
                    parsed = float(value)
                elif isinstance(default, str):
                    parsed = value
                else:  # tuple
                    elem = type(default[0]) if default else float
                    parsed = tuple(elem(tok) for tok in value.split())
            except (ValueError, TypeError) as exc:
                issues.append((lineno, key, str(exc)))
                continue
            out = replace(out, **{key: parsed})
        return out

    cfg = RunConfig(**{name: build(name, cls) for name, cls in _SECTIONS.items()})

    def line_of(section: str, key: str) -> int:
        return sections.get(section, {}).get(key, (0, ""))[0]

    sim = cfg.simulation
    times_ok = sim.integrator in ("picard", "newmark")
    if not 0 < sim.t_final < math.inf:
        issues.append((line_of("simulation", "t_final"), "t_final",
                       "must be positive and finite"))
        times_ok = False
    if sim.integrator == "newmark" and not (
        0 < sim.dt < math.inf and sim.t_final / sim.dt < math.inf
    ):
        issues.append((line_of("simulation", "dt"), "dt",
                       "the newmark step must be positive, finite and give "
                       "a finite step count"))
        times_ok = False

    for key, shape in _FIELD_SHAPES.items():  # built once, as the run builds it
        spec = getattr(sim, key)
        try:
            if key.startswith("load"):
                load = _time_field(spec, shape)
                if times_ok:  # a table must cover the integrator's load times
                    load(0.0)
                    load(sim.load_end)
            else:
                initial_field_callable(spec, cfg.mesh.dims, shape)
        except ValueError as exc:
            issues.append((line_of("simulation", key), key, str(exc)))

    for (section, key), check in _VALUE_CHECKS.items():
        try:
            check(getattr(getattr(cfg, section), key))
        except ValueError as exc:
            issues.append((line_of(section, key), key, str(exc)))

    mat = cfg.material
    if mat.variant not in _VARIANTS:
        issues.append(
            (line_of("material", "variant"), "variant",
             f"unknown variant {mat.variant!r}; expected one of "
             + ", ".join(sorted(_VARIANTS)))
        )
    else:  # the scalar rules depend on the variant
        key_of = {attr: key for key, attr in _SCALAR_KEYS.items()}
        scalars = {attr: getattr(mat, key) for key, attr in _SCALAR_KEYS.items()}
        for attr, reason in _scalar_problems(_VARIANTS[mat.variant], **scalars):
            issues.append((line_of("material", key_of[attr]), key_of[attr], reason))
    if sim.integrator not in ("picard", "newmark"):
        issues.append((line_of("simulation", "integrator"), "integrator",
                       "expected 'picard' or 'newmark'"))
    if any(d < 0 for d in sim.sample_dofs):
        issues.append((line_of("simulation", "sample_dofs"), "sample_dofs",
                       "dof indices must be non-negative"))
    if cfg.analysis.korn_levels < 1:
        issues.append((line_of("analysis", "korn_levels"), "korn_levels",
                       "needs at least one level"))

    if issues:
        raise ConfigError(issues)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg."""
    out = []
    for name, cls in _SECTIONS.items():
        out.append(f"[{name}]")
        section = getattr(cfg, name)
        for f in fields(cls):
            v = getattr(section, f.name)
            if isinstance(v, (TensorSpec, FieldSpec)):
                text = v.serialize()
            elif isinstance(v, tuple):
                text = " ".join(
                    repr(float(x)) if isinstance(x, float) else str(x) for x in v
                )
            elif isinstance(v, float):
                text = repr(float(v))
            else:
                text = str(v)
            out.append(f"{f.name} = {text}")
        out.append("")
    return "\n".join(out)


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def material_from_config(cfg: RunConfig) -> MaterialParams:
    mat = cfg.material
    kwargs = {attr: getattr(mat, key) for key, attr in _SCALAR_KEYS.items()}
    kwargs["variant"] = _VARIANTS[mat.variant]
    for key, attr in _TENSOR_KEYS.items():
        kwargs[attr] = getattr(mat, key).build(_TENSOR_CLASSES[attr])
    return MaterialParams(**kwargs)


def mesh_from_config(cfg: RunConfig) -> BoxMesh:
    return build_box_mesh(cfg.mesh.dims, cfg.mesh.resolution)


def _shaped(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    size = int(np.prod(shape))
    if len(values) != size:
        raise ValueError(f"{what} needs {size} numbers, got {len(values)}")
    return np.reshape(values, shape)


def _time_field(spec: FieldSpec, shape: tuple[int, ...]) -> TimeField:
    if spec.kind == "zero":
        _shaped(spec.values, (0,), "zero")
        return TimeField.zero(shape)
    if spec.kind == "constant":
        return TimeField.constant(_shaped(spec.values, shape, "constant"))
    if spec.kind == "poly":
        return TimeField.polynomial(
            [_shaped(g, shape, "each poly coefficient") for g in spec.values]
        )
    if spec.kind == "table":
        values = [_shaped(g[1:], shape, "each table row after its time")
                  for g in spec.values]
        return TimeField.table([g[0] for g in spec.values], values)
    raise ValueError(f"unsupported load kind {spec.kind!r}")


def load_from_config(cfg: RunConfig) -> LoadFunctional:
    sim = cfg.simulation
    return LoadFunctional(
        body_force=_time_field(sim.load_f, _FIELD_SHAPES["load_f"]),
        double_force=_time_field(sim.load_m, _FIELD_SHAPES["load_m"]),
    )


def initial_field_callable(spec: FieldSpec, dims, shape: tuple[int, ...]):
    """Closed-form initial field: None for zero, else x -> array of ``shape``.

    ``sine A`` is A * prod_i sin(pi x_i / L_i) in every component, which
    vanishes on the whole box boundary.
    """
    if spec.kind == "zero":
        _shaped(spec.values, (0,), "zero")
        return None
    if spec.kind == "constant":
        value = _shaped(spec.values, shape, "constant")
        return lambda x: value
    if spec.kind == "sine":
        if len(spec.values) != 1:
            raise ValueError("sine takes one amplitude")
        amp = spec.values[0]
        dims = np.asarray(dims, dtype=float)

        def bump(x):
            s = amp * float(np.prod(np.sin(np.pi * np.asarray(x) / dims)))
            return np.full(shape, s)

        return bump
    raise ValueError(f"unsupported initial kind {spec.kind!r}")
