"""Run configuration: strict INI-like parsing, defaults, canonical
serialization, and builders for the objects a run needs.

Format: ``[section]`` headers and flat ``key = value`` pairs, ``#`` or ``;``
comments.  Unknown sections or keys are rejected with their line numbers.
Tensor values are either ``isotropic <moduli...>`` or ``components <upper
triangle of the canonical matrix representation, row-major>`` (21 / 6 / 45
numbers for the elastic / coupling / curvature classes).  Field values for
loads and initial data are ``zero``, ``constant <numbers>``,
``poly <numbers> | <numbers> | ...`` (coefficients of powers of t) or, for
loads, ``table t <numbers> | t <numbers> | ...``; ``sine <amplitude>`` is a
product-of-sines bump for initial data (vanishes on the boundary).

Every run embeds its fully resolved configuration in the output header, so
outputs are reproducible from the artifact alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .assembly import LoadFunctional, TimeField
from .errors import ConfigError
from .mesh import BoxMesh, build_box_mesh
from .tensors import (
    _TENSOR_CLASSES,
    ConstitutiveTensor4,
    MaterialParams,
    ModelVariant,
    SymmetryClass,
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

_ISO_ARITY = {
    SymmetryClass.ELASTIC: 2,
    SymmetryClass.COUPLING: 1,
    SymmetryClass.CURVATURE: 1,
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


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _parse_tensor(value: str, key: str, line: int, issues) -> TensorSpec | None:
    toks = value.split()
    if not toks:
        issues.append((line, key, "empty tensor specification"))
        return None
    kind, rest = toks[0], toks[1:]
    cls = _TENSOR_CLASSES[_TENSOR_KEYS[key]]
    try:
        nums = tuple(float(t) for t in rest)
    except ValueError:
        issues.append((line, key, f"non-numeric tensor component in {value!r}"))
        return None
    if kind == "isotropic":
        if len(nums) != _ISO_ARITY[cls]:
            issues.append(
                (line, key,
                 f"{cls.value} class takes {_ISO_ARITY[cls]} isotropic "
                 f"moduli, got {len(nums)}")
            )
            return None
        return TensorSpec("isotropic", nums)
    if kind == "components":
        need = cls.n_components
        if len(nums) != need:
            issues.append(
                (line, key,
                 f"{cls.value} class needs {need} components, got {len(nums)}")
            )
            return None
        return TensorSpec("components", nums)
    issues.append((line, key, f"unknown tensor kind {kind!r}"))
    return None


def _parse_field(value: str, key: str, line: int, issues,
                 allow_sine: bool, allow_table: bool) -> FieldSpec | None:
    toks = value.split(None, 1)
    if not toks:
        issues.append((line, key, "empty field specification"))
        return None
    kind = toks[0]
    rest = toks[1] if len(toks) > 1 else ""
    try:
        if kind == "zero":
            return FieldSpec("zero")
        if kind == "constant":
            return FieldSpec("constant", _parse_floats(rest))
        if kind == "sine" and allow_sine:
            vals = _parse_floats(rest)
            if len(vals) != 1:
                issues.append((line, key, "sine takes one amplitude"))
                return None
            return FieldSpec("sine", vals)
        if kind == "poly":
            groups = tuple(_parse_floats(g) for g in rest.split("|"))
            return FieldSpec("poly", groups)
        if kind == "table" and allow_table:
            groups = tuple(_parse_floats(g) for g in rest.split("|"))
            return FieldSpec("table", groups)
    except ValueError:
        issues.append((line, key, f"non-numeric entry in {value!r}"))
        return None
    issues.append((line, key, f"unknown field kind {kind!r}"))
    return None


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
                    parsed = _parse_tensor(value, key, lineno, issues)
                elif isinstance(default, FieldSpec):
                    allow_sine = key.startswith("initial")
                    allow_table = key.startswith("load")
                    parsed = _parse_field(value, key, lineno, issues,
                                          allow_sine, allow_table)
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
            if parsed is not None:
                out = replace(out, **{key: parsed})
        return out

    cfg = RunConfig(**{name: build(name, cls) for name, cls in _SECTIONS.items()})

    def line_of(section: str, key: str) -> int:
        return sections.get(section, {}).get(key, (0, ""))[0]

    if cfg.material.variant not in _VARIANTS:
        issues.append(
            (line_of("material", "variant"), "variant",
             f"unknown variant {cfg.material.variant!r}; expected one of "
             + ", ".join(sorted(_VARIANTS)))
        )
    if cfg.simulation.integrator not in ("picard", "newmark"):
        issues.append((line_of("simulation", "integrator"), "integrator",
                       "expected 'picard' or 'newmark'"))
    if any(d < 0 for d in cfg.simulation.sample_dofs):
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
    kwargs = {
        "rho": mat.rho,
        "micro_inertia": mat.j,
        "mu": mat.mu,
        "length_scale": mat.lc,
        "variant": _VARIANTS[mat.variant],
    }
    for key, attr in _TENSOR_KEYS.items():
        kwargs[attr] = getattr(mat, key).build(_TENSOR_CLASSES[attr])
    return MaterialParams(**kwargs)


def mesh_from_config(cfg: RunConfig) -> BoxMesh:
    return build_box_mesh(cfg.mesh.dims, cfg.mesh.resolution)


def _time_field(spec: FieldSpec, shape: tuple[int, ...]) -> TimeField:
    size = int(np.prod(shape))
    if spec.kind == "zero":
        return TimeField.zero(shape)
    if spec.kind == "constant":
        if len(spec.values) != size:
            raise ConfigError(
                [(0, "load", f"constant needs {size} numbers, got {len(spec.values)}")]
            )
        return TimeField.constant(np.reshape(spec.values, shape))
    if spec.kind == "poly":
        coeffs = []
        for group in spec.values:
            if len(group) != size:
                raise ConfigError(
                    [(0, "load", f"each poly coefficient needs {size} numbers")]
                )
            coeffs.append(np.reshape(group, shape))
        return TimeField.polynomial(coeffs)
    if spec.kind == "table":
        times, values = [], []
        for group in spec.values:
            if len(group) != size + 1:
                raise ConfigError(
                    [(0, "load", f"each table row needs a time plus {size} numbers")]
                )
            times.append(group[0])
            values.append(np.reshape(group[1:], shape))
        return TimeField.table(times, values)
    raise ConfigError([(0, "load", f"unsupported load kind {spec.kind!r}")])


def load_from_config(cfg: RunConfig) -> LoadFunctional:
    sim = cfg.simulation
    return LoadFunctional(
        body_force=_time_field(sim.load_f, (3,)),
        double_force=_time_field(sim.load_m, (3, 3)),
    )


def initial_field_callable(spec: FieldSpec, dims, shape: tuple[int, ...]):
    """Closed-form initial field: None for zero, else x -> array of ``shape``.

    ``sine A`` is A * prod_i sin(pi x_i / L_i) in every component, which
    vanishes on the whole box boundary.
    """
    if spec.kind == "zero":
        return None
    if spec.kind == "constant":
        value = np.reshape(spec.values, shape)
        return lambda x: value
    if spec.kind == "sine":
        amp = spec.values[0]
        dims = np.asarray(dims, dtype=float)

        def bump(x):
            s = amp * float(np.prod(np.sin(np.pi * np.asarray(x) / dims)))
            return np.full(shape, s)

        return bump
    raise ConfigError([(0, "initial", f"unsupported initial kind {spec.kind!r}")])
