"""The config module owns reading, checking and building run inputs: one
spec type for tensor and field values, one table of single-value rules keyed
by config key, and the initial state built beside the load."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from micromorph.config import (
    _VALUE_CHECKS,
    RunConfig,
    ValueSpec,
    initial_state_from_config,
    material_from_config,
    mesh_from_config,
    parse_config,
    serialize_config,
)
from micromorph.dynamics import picard_integrate
from micromorph.fespace import build_fe_system, interpolate_p, interpolate_u
from micromorph.tensors import ConstitutiveTensor4, isotropic_material


def test_every_config_key_is_unique_across_sections():
    cfg = RunConfig()
    keys = [f.name for section in fields(cfg) for f in fields(getattr(cfg, section.name))]
    assert len(keys) == len(set(keys))
    assert set(_VALUE_CHECKS) <= set(keys)


NINE = "0.1 -2.5e+17 3.0 1e-300 5.0 6.0 7.0 8.0 9.0"


@pytest.mark.parametrize(
    "section, key, value, spec",
    [("material", "c_e", "isotropic 1.5 -0.25", ValueSpec("isotropic", (1.5, -0.25))),
     ("material", "c_e", "components " + " ".join(str(float(i)) for i in range(1, 22)),
      ValueSpec("components", tuple(float(i) for i in range(1, 22)))),
     ("simulation", "load_f", "zero", ValueSpec("zero")),
     ("simulation", "load_f", "constant 0.1 2.0 -3.0",
      ValueSpec("constant", (0.1, 2.0, -3.0))),
     ("simulation", "load_f", "poly 0.0 0.0 1.0 | 0.5 0.0 0.0",
      ValueSpec("poly", ((0.0, 0.0, 1.0), (0.5, 0.0, 0.0)))),
     ("simulation", "load_m", f"table 0.0 {NINE} | 1.0 {NINE}",
      ValueSpec("table", tuple((t,) + tuple(float(x) for x in NINE.split())
                               for t in (0.0, 1.0)))),
     ("simulation", "initial_u", "sine 0.25", ValueSpec("sine", (0.25,))),
     ("simulation", "initial_pt", f"constant {NINE}",
      ValueSpec("constant", tuple(float(x) for x in NINE.split())))],
)
def test_value_spec_round_trips(section, key, value, spec):
    cfg = parse_config(f"[{section}]\n{key} = {value}\n")
    assert getattr(getattr(cfg, section), key) == spec
    text = serialize_config(cfg)
    assert f"{key} = {value}\n" in text
    assert parse_config(text) == cfg


def _field(kind: str, dims, shape):
    """The closed form of each initial kind, written out independently."""
    if kind == "constant":
        value = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        return lambda x: value
    return lambda x: np.full(
        shape, 0.75 * float(np.prod(np.sin(np.pi * np.asarray(x) / dims)))
    )


@pytest.mark.parametrize("key", ["initial_u", "initial_ut", "initial_p", "initial_pt"])
@pytest.mark.parametrize("kind", ["zero", "constant", "sine"])
def test_initial_state_interpolates_each_field(key, kind):
    dims = np.array([1.0, 2.0, 0.5])
    shape = (3,) if key.endswith(("_u", "_ut")) else (3, 3)
    value = {"zero": "zero",
             "constant": "constant " + " ".join(str(float(i + 1))
                                                for i in range(int(np.prod(shape)))),
             "sine": "sine 0.75"}[kind]
    cfg = parse_config(f"[mesh]\ndims = 1 2 0.5\nresolution = 2 2 2\n"
                       f"[simulation]\n{key} = {value}\n")
    sys_ = build_fe_system(mesh_from_config(cfg))
    state = initial_state_from_config(cfg, sys_)

    expected = {"position": np.zeros(sys_.n_dofs), "velocity": np.zeros(sys_.n_dofs)}
    if kind != "zero":
        f = _field(kind, dims, shape)
        vector = expected["velocity" if key.endswith("t") else "position"]
        if shape == (3,):
            vector[:sys_.n_u_dofs] = interpolate_u(sys_, f)
        else:
            vector[sys_.n_u_dofs:] = interpolate_p(sys_, f)
    assert state.t == 0.0
    np.testing.assert_array_equal(state.position, expected["position"])
    np.testing.assert_array_equal(state.velocity, expected["velocity"])


def test_config_defaults_are_the_library_defaults():
    # the default material and the Picard node count are written both as
    # config defaults and as library keyword defaults
    built, library = material_from_config(RunConfig()), isotropic_material()
    for f in fields(library):
        a, b = getattr(built, f.name), getattr(library, f.name)
        if isinstance(b, ConstitutiveTensor4):
            assert a.symmetry_class is b.symmetry_class, f.name
            assert a.matrix.tobytes() == b.matrix.tobytes(), f.name
        else:
            assert a == b, f.name
    picard = inspect.signature(picard_integrate).parameters
    sim = RunConfig().simulation
    assert sim.nodes_per_interval == picard["n_t"].default
