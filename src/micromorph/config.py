"""Run configuration: strict INI-like parsing, defaults, canonical
serialization, and builders for the objects a run needs.

Format: ``[section]`` headers and flat ``key = value`` pairs, ``#`` or ``;``
comments.  Unknown sections or keys are rejected with their line numbers;
every key is unique across sections.  Tensor and field values share one spec
type, :class:`ValueSpec`: a kind followed by numbers, or by ``|``-separated
groups of numbers for ``poly`` and ``table``.  Tensors take ``isotropic
<moduli...>`` or ``components <upper triangle of the canonical matrix
representation, row-major>``.  Loads take ``zero``, ``constant <numbers>``,
``poly <numbers> | <numbers> | ...`` (coefficients of powers of t) or
``table t <numbers> | t <numbers> | ...``; initial data take ``zero``,
``constant <numbers>`` or ``sine <amplitude>``, a product-of-sines bump that
vanishes on the boundary.  Each field key fixes the shape of its value
(``_FIELD_SHAPES``: 3 numbers or 9).  Every number must be finite.

The parser reads only this syntax.  Every rule on a single value is one
entry of the rule table ``_VALUE_CHECKS``, applied right after the value is
read: mesh dims and resolution, Picard nodes, and the dispersion direction
and wavenumbers by the function the library applies where it uses them; each
tensor by the constructor the run builds it with; the variant, ``t_final``,
the integrator, ``sample_dofs`` and ``korn_levels`` by rules kept here.
Rules across values run once every value is read: the Newmark step with its
step count; each field, built as the run builds it, a load also evaluated at
0 and at ``SimulationConfig.load_end`` (so a ``table`` that does not cover
the run, or a value that overflows there, is rejected); the cell volume of
valid dims and resolution (on ``dims``); and the material scalars ``rho``,
``j``, ``mu`` and ``lc`` by the rule :class:`MaterialParams` applies for the
variant (under an unknown variant only the parts of that rule that hold in
every variant).  Each broken rule is a :class:`ConfigError` entry carrying
the value's line and key, and the entries are listed in line order.

Every run embeds its fully resolved configuration in the output header, so
outputs are reproducible from the artifact alone.  The configuration holds
only what a run computes from: where the artifacts go is the caller's choice
(``--out``), and CSV floats and the Picard sweep tolerance are constants of
the program.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .analysis import _unit_direction, _wavenumbers
from .assembly import LoadFunctional, TimeField
from .dynamics import (
    DynamicState,
    _check_positive_finite,
    _check_time_nodes,
    _newmark_shift,
)
from .errors import ConfigError
from .fespace import FESystem, interpolate_p, interpolate_u
from .mesh import BoxMesh, _box_dims, _box_resolution, _cell_volume, build_box_mesh
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
    "ValueSpec",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "config_digest",
    "material_from_config",
    "mesh_from_config",
    "load_from_config",
    "initial_state_from_config",
]

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
class ValueSpec:
    """A tensor or field value as written: its kind and its numbers, one
    tuple per ``|``-separated group for ``poly`` and ``table``."""

    kind: str
    values: tuple = ()

    def serialize(self) -> str:
        if self.kind in ("poly", "table"):
            parts = [" ".join(f"{v!r}" for v in group) for group in self.values]
            return f"{self.kind} " + " | ".join(parts)
        return " ".join([self.kind] + [f"{v!r}" for v in self.values])


def _shaped(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    size = int(np.prod(shape))
    if len(values) != size:
        raise ValueError(f"{what} needs {size} numbers, got {len(values)}")
    return np.reshape(values, shape)


def _tensor(spec: ValueSpec, symmetry_class: SymmetryClass) -> ConstitutiveTensor4:
    if spec.kind == "isotropic":
        return make_isotropic(symmetry_class, *spec.values)
    if spec.kind == "components":
        return ConstitutiveTensor4.from_components(symmetry_class, spec.values)
    raise ValueError(f"unknown tensor kind {spec.kind!r}")


def _time_field(spec: ValueSpec, shape: tuple[int, ...]) -> TimeField:
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


def initial_field_callable(spec: ValueSpec, dims, shape: tuple[int, ...]):
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


def _variant(name: str) -> ModelVariant:
    try:
        return ModelVariant(name)
    except ValueError:
        raise ValueError(
            f"unknown variant {name!r}; expected one of "
            + ", ".join(sorted(v.value for v in ModelVariant))
        ) from None


def _rule(*tests):
    """A check raising the reason of the first (test, reason) pair whose
    test its value fails."""

    def check(value) -> None:
        for test, reason in tests:
            if not test(value):
                raise ValueError(reason)

    return check


# config key -> the one rule on that value alone, shared with the library
# where the library has one (keys are unique across sections)
_VALUE_CHECKS = {
    "variant": _variant,
    **{key: partial(_tensor, symmetry_class=_TENSOR_CLASSES[attr])
       for key, attr in _TENSOR_KEYS.items()},
    "dims": _box_dims,
    "resolution": _box_resolution,
    "t_final": partial(_check_positive_finite, "t_final"),
    "integrator": _rule((lambda name: name in ("picard", "newmark"),
                         "expected 'picard' or 'newmark'")),
    "nodes_per_interval": _check_time_nodes,
    "sample_dofs": _rule(
        (lambda dofs: all(d >= 0 for d in dofs), "dof indices must be non-negative"),
        (lambda dofs: len(set(dofs)) == len(dofs), "dof indices must not repeat"),
    ),
    "direction": _unit_direction,
    "k_samples": _wavenumbers,
    "korn_levels": _rule((lambda n: n >= 1, "needs at least one level")),
}


def _newmark_step(t_final: float, dt: float) -> None:
    """The Newmark rule on ``dt``: beta dt^2 and t_final / dt finite."""
    _newmark_shift(dt)
    if not t_final / dt < math.inf:
        raise ValueError("t_final / dt must give a finite step count")


def _load_over(spec: ValueSpec, shape: tuple[int, ...], times) -> None:
    """Build a load as the run builds it and evaluate it at ``times``."""
    load = _time_field(spec, shape)
    for t in times:
        load(t)


def _scalar_rule(variant: ModelVariant | None, scalars: dict, attr: str) -> None:
    """The reason :class:`MaterialParams` under ``variant`` rejects the
    scalar ``attr`` for (see :func:`tensors._scalar_problems`), raised."""
    for name, reason in _scalar_problems(variant, **scalars):
        if name == attr:
            raise ValueError(reason)


@dataclass(frozen=True)
class MaterialConfig:
    variant: str = "full"
    rho: float = 1.0
    j: float = 1.0
    mu: float = 1.0
    lc: float = 1.0
    c_e: ValueSpec = ValueSpec("isotropic", (1.0, 0.5))
    c_c: ValueSpec = ValueSpec("isotropic", (0.5,))
    c_micro: ValueSpec = ValueSpec("isotropic", (1.0, 0.5))
    l_aniso: ValueSpec = ValueSpec("isotropic", (1.0,))
    ct_e: ValueSpec = ValueSpec("isotropic", (1.0, 0.0))
    ct_c: ValueSpec = ValueSpec("isotropic", (0.0,))
    ct_micro: ValueSpec = ValueSpec("isotropic", (1.0, 0.0))
    lt_aniso: ValueSpec = ValueSpec("isotropic", (1.0,))


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
    load_f: ValueSpec = ValueSpec("zero")
    load_m: ValueSpec = ValueSpec("zero")
    initial_u: ValueSpec = ValueSpec("zero")
    initial_ut: ValueSpec = ValueSpec("zero")
    initial_p: ValueSpec = ValueSpec("zero")
    initial_pt: ValueSpec = ValueSpec("zero")
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
class RunConfig:
    material: MaterialConfig = MaterialConfig()
    mesh: MeshConfig = MeshConfig()
    simulation: SimulationConfig = SimulationConfig()
    analysis: AnalysisConfig = AnalysisConfig()


_SECTIONS = {
    "material": MaterialConfig,
    "mesh": MeshConfig,
    "simulation": SimulationConfig,
    "analysis": AnalysisConfig,
}

_KEYS = {  # config key -> (its section, its default)
    f.name: (name, f.default) for name, cls in _SECTIONS.items() for f in fields(cls)
}


def _split_kind(value: str, what: str) -> tuple[str, str]:
    toks = value.split(None, 1)
    if not toks:
        raise ValueError(f"empty {what} specification")
    return toks[0], toks[1] if len(toks) > 1 else ""


def _parse_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text!r} is not finite")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_number(tok) for tok in text.split())


def _parse_value(key: str, text: str):
    """``text`` read as the type of ``key``'s default; syntax only."""
    default = _KEYS[key][1]
    if isinstance(default, ValueSpec):
        kind, rest = _split_kind(text, "tensor" if key in _TENSOR_KEYS else "field")
        if kind in ("poly", "table"):
            return ValueSpec(kind, tuple(_parse_floats(g) for g in rest.split("|")))
        return ValueSpec(kind, _parse_floats(rest))
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return _parse_number(text)
    if isinstance(default, str):
        return text
    elem = int if isinstance(default[0], int) else _parse_number  # a tuple
    return tuple(elem(tok) for tok in text.split())


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises :class:`ConfigError` listing every issue."""
    issues: list[tuple[int, str, str]] = []
    lines: dict[str, int] = {}                     # key -> line of its value
    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            current = name if name in _SECTIONS else None
            if current is None:
                issues.append((lineno, name, "unknown section"))
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
        if key not in _KEYS or _KEYS[key][0] != current:
            issues.append((lineno, key, f"unknown key in [{current}]"))
            continue
        if key in lines:
            issues.append((lineno, key, f"duplicate key in [{current}]"))
            continue
        lines[key] = lineno
        try:
            parsed = _parse_value(key, value.strip())
            if key in _VALUE_CHECKS:
                _VALUE_CHECKS[key](parsed)
        except (ValueError, TypeError) as exc:
            issues.append((lineno, key, str(exc)))
            continue
        values[current][key] = parsed

    # a value that broke its rule is not set, so the rules across values
    # below skip it or see the default in its place
    cfg = RunConfig(**{name: cls(**values[name]) for name, cls in _SECTIONS.items()})
    broken = set(lines).difference(*values.values())

    def report(key: str, check, *args) -> bool:
        """Apply one rule across values; its ValueError is an issue on key."""
        try:
            check(*args)
        except ValueError as exc:
            issues.append((lines.get(key, 0), key, str(exc)))
            return False
        return True

    sim, mat = cfg.simulation, cfg.material
    times_ok = not {"t_final", "integrator", "dt"} & broken
    if sim.integrator == "newmark":  # picard ignores dt
        times_ok = report("dt", _newmark_step, sim.t_final, sim.dt) and times_ok
    window = (0.0, sim.load_end) if times_ok else ()  # the loads must cover it
    for key, shape in _FIELD_SHAPES.items():  # built once, as the run builds it
        spec = getattr(sim, key)
        if key.startswith("load"):
            report(key, _load_over, spec, shape, window)
        else:
            report(key, initial_field_callable, spec, cfg.mesh.dims, shape)
    if not {"dims", "resolution"} & broken:
        report("dims", _cell_volume, cfg.mesh.dims, cfg.mesh.resolution)
    variant = None if "variant" in broken else ModelVariant(mat.variant)
    scalars = {attr: getattr(mat, key) for key, attr in _SCALAR_KEYS.items()}
    for key, attr in _SCALAR_KEYS.items():
        report(key, _scalar_rule, variant, scalars, attr)

    if issues:
        raise ConfigError(sorted(issues, key=lambda issue: issue[0]))
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg."""
    out = []
    for name, cls in _SECTIONS.items():
        out.append(f"[{name}]")
        section = getattr(cfg, name)
        for f in fields(cls):
            v = getattr(section, f.name)
            if isinstance(v, ValueSpec):
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
    kwargs["variant"] = ModelVariant(mat.variant)
    for key, attr in _TENSOR_KEYS.items():
        kwargs[attr] = _tensor(getattr(mat, key), _TENSOR_CLASSES[attr])
    return MaterialParams(**kwargs)


def mesh_from_config(cfg: RunConfig) -> BoxMesh:
    return build_box_mesh(cfg.mesh.dims, cfg.mesh.resolution)


def load_from_config(cfg: RunConfig) -> LoadFunctional:
    sim = cfg.simulation
    return LoadFunctional(
        body_force=_time_field(sim.load_f, _FIELD_SHAPES["load_f"]),
        double_force=_time_field(sim.load_m, _FIELD_SHAPES["load_m"]),
    )


def initial_state_from_config(cfg: RunConfig, sys: FESystem) -> DynamicState:
    """The state at t = 0: each initial field interpolated into its space,
    a ``zero`` field as zeros without interpolation."""
    sim = cfg.simulation

    def part(key, interpolate, size):
        f = initial_field_callable(getattr(sim, key), cfg.mesh.dims, _FIELD_SHAPES[key])
        return np.zeros(size) if f is None else interpolate(sys, f)

    def vector(u_key, p_key):
        return np.concatenate([
            part(u_key, interpolate_u, sys.n_u_dofs),
            part(p_key, interpolate_p, sys.n_p_dofs),
        ])

    return DynamicState(
        0.0, vector("initial_u", "initial_p"), vector("initial_ut", "initial_pt")
    )
