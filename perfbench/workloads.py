"""Seeded workload definitions: the INI configs the ``micromorph`` CLI sees.

A workload is a list of CLI invocations ``(command, config text)`` that one
pass runs in order.  Everything the program receives is generated here from
the seed; the program never sees the seed itself.

The material is the documented demo material (``c_e = isotropic 1.0 -1.0``,
all other tensors at their defaults) with every nonzero modulus scaled by an
independent factor in [1 - MODULUS_JITTER, 1 + MODULUS_JITTER].  Zero moduli
stay zero, so the rate tensors keep their definiteness class; that is checked
explicitly below.  The load coefficients, the sine amplitude and the
dispersion direction are seeded as well.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20180913

MODULUS_JITTER = 0.10

# isotropic moduli of the demo material, in config key order
DEMO_MODULI = {
    "c_e": (1.0, -1.0),
    "c_c": (0.5,),
    "c_micro": (1.0, 0.5),
    "l_aniso": (1.0,),
    "ct_e": (1.0, 0.0),
    "ct_c": (0.0,),
    "ct_micro": (1.0, 0.0),
    "lt_aniso": (1.0,),
}

# With the seeded moduli c = sqrt(2) M2 / m1 ranges over about 7.6..10.4 at
# res 4, so t_final = 0.92 keeps ceil(2 t_final sqrt(c)) = 6 subintervals for
# every seed (t_final = 1.0 would give 6 or 7 depending on the seed, a 17%
# jump in work between seeds).
PICARD_T_FINAL = 0.92

# full-size and smoke-size parameters of each workload
SIZES = {
    "full": {
        "check_res": 5, "korn_res": 2, "korn_levels": 2, "k_count": 401,
        "k_max": 6.0, "picard_res": 4, "picard_t": PICARD_T_FINAL, "newmark_res": 5,
        "newmark_dt": 0.02, "newmark_t": 4.0,
    },
    "smoke": {
        "check_res": 2, "korn_res": 2, "korn_levels": 1, "k_count": 21,
        "k_max": 6.0, "picard_res": 2, "picard_t": 0.25, "newmark_res": 2,
        "newmark_dt": 0.02, "newmark_t": 0.2,
    },
}

WORKLOADS = ("certify", "simulate-picard", "simulate-newmark")


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _rate_tensors_definite(moduli: dict) -> bool:
    """Hypotheses (iii) and (iv): ct_e and lt_aniso positive definite, ct_micro
    and ct_c positive semi-definite.  An isotropic elastic-class tensor
    (mu, lam) has eigenvalues 2 mu and 2 mu + 3 lam."""
    mu, lam = moduli["ct_e"]
    mu_m, lam_m = moduli["ct_micro"]
    return (
        mu > 0 and 2 * mu + 3 * lam > 0
        and mu_m >= 0 and 2 * mu_m + 3 * lam_m >= 0
        and moduli["lt_aniso"][0] > 0
        and moduli["ct_c"][0] >= 0
    )


def seeded_inputs(seed: int) -> dict:
    """The seed-dependent inputs shared by all workloads."""
    rng = np.random.default_rng(seed)
    moduli = {
        key: tuple(v * (1.0 + rng.uniform(-MODULUS_JITTER, MODULUS_JITTER))
                   for v in values)
        for key, values in DEMO_MODULI.items()
    }
    if not _rate_tensors_definite(moduli):
        raise ValueError(f"seed {seed} produced an indefinite rate tensor")
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return {
        "moduli": moduli,
        "load_f": rng.uniform(-1.0, 1.0, size=(2, 3)),
        "amplitude": float(rng.uniform(0.5, 1.5)),
        "direction": direction,
    }


def _material_section(moduli: dict) -> str:
    lines = ["[material]", "variant = full"]
    lines += [f"{key} = isotropic {_fmt(v)}" for key, v in moduli.items()]
    return "\n".join(lines) + "\n"


def _config(inputs: dict, mesh_res: int, **sections) -> str:
    text = _material_section(inputs["moduli"])
    text += f"\n[mesh]\ndims = 1.0 1.0 1.0\nresolution = {mesh_res} {mesh_res} {mesh_res}\n"
    for name, entries in sections.items():
        text += f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
    return text


def _simulation(inputs: dict, **entries) -> dict:
    f0, f1 = inputs["load_f"]
    return {
        **entries,
        "load_f": f"poly {_fmt(f0)} | {_fmt(f1)}",
        "initial_u": f"sine {inputs['amplitude']!r}",
    }


def workload_invocations(name: str, seed: int, size: str = "full") -> list:
    """``[(command, config_text), ...]`` run in this order by one pass."""
    z = SIZES[size]
    inputs = seeded_inputs(seed)
    if name == "certify":
        ks = np.linspace(0.0, z["k_max"], z["k_count"])
        return [
            ("check", _config(inputs, z["check_res"])),
            ("korn", _config(inputs, z["korn_res"],
                             analysis={"korn_levels": z["korn_levels"]})),
            ("dispersion", _config(inputs, z["check_res"], analysis={
                "direction": _fmt(inputs["direction"]),
                "k_samples": _fmt(ks),
            })),
        ]
    if name == "simulate-picard":
        return [("simulate", _config(inputs, z["picard_res"], simulation=_simulation(
            inputs, integrator="picard", t_final=repr(z["picard_t"]),
        )))]
    if name == "simulate-newmark":
        return [("simulate", _config(inputs, z["newmark_res"], simulation=_simulation(
            inputs, integrator="newmark", dt=repr(z["newmark_dt"]),
            t_final=repr(z["newmark_t"]),
        )))]
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
