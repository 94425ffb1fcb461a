"""The constructive fixed-point integrator, cross-checked against Newmark.

One sweep of the fixed-point map solves a stationary problem at each time
node (rate-energy operator on the left, previous iterate under the
potential operator on the right) and then integrates twice in time from the
initial data.  On subintervals of length delta = 1/(2 sqrt(c)) the sweep is
a contraction with factor at most delta^2 c = 1/4; measured ratios sit far
below that bound.  Gluing subintervals extends the trajectory to any final
time.
"""

import numpy as np

from micromorph import (
    DynamicState,
    assemble_gram,
    assemble_w1,
    assemble_w2,
    build_box_mesh,
    build_fe_system,
    isotropic_material,
    newmark_integrate,
    picard_integrate,
    well_posedness_report,
)

params = isotropic_material(elastic=(1.0, -1.0))
sys = build_fe_system(build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)))
w1 = assemble_w1(params, sys)
w2 = assemble_w2(params, sys)
gram = assemble_gram(sys)
report = well_posedness_report(params, w1, w2, gram)
print(f"contraction constant c = {report.contraction:.4g}")
print(f"subinterval delta      = {report.interval:.4g}")
print(f"theoretical sweep bound delta^2 c = {report.interval**2 * report.contraction:.3f}")

rng = np.random.default_rng(3)
state0 = DynamicState.from_vectors(
    w1.layout, 0.0,
    0.4 * rng.standard_normal(sys.n_dofs), 0.4 * rng.standard_normal(sys.n_dofs),
)

print("\n=== measured contraction ratios on one subinterval ===")
one = picard_integrate(
    state0, w1, w2, None, report.interval, report.contraction, n_t=9, gram=gram
)
ratios = one.diagnostics["contraction_ratios"][0]
for i, r in enumerate(ratios, start=1):
    print(f"  sweep {i}: successive-difference ratio {r:.3e}")

print("\n=== glued trajectory vs Newmark reference ===")
T = 0.5
traj = picard_integrate(
    state0, w1, w2, None, T, report.contraction, n_t=17, gram=gram
)
h = traj.times[1] - traj.times[0]
ref = newmark_integrate(state0, w1, w2, None, h / 2, 2 * (traj.n_nodes - 1))


def gram_norm(v):
    return float(np.sqrt(gram.quadratic(v)))


err = max(
    gram_norm(traj.positions[j] - ref.positions[2 * j]) for j in range(traj.n_nodes)
)
print(f"fixed-point intervals: {traj.diagnostics['intervals']}")
print(f"sweeps per interval  : {traj.diagnostics['picard_iterations']}")
print(f"max Gram-norm difference vs half-step Newmark: {err:.3e}")

print("\n=== energy balance (zero load: conserved) ===")
total = traj.total_energy
print(f"relative drift over the run: {np.abs(total - total[0]).max() / abs(total[0]):.2e}")
nm = newmark_integrate(state0, w1, w2, None, 0.02, 1000)
tot = nm.total_energy
print(f"Newmark drift over 1000 steps: {np.abs(tot - tot[0]).max() / abs(tot[0]):.2e}")
