"""Numerical certification of the existence hypotheses.

The dynamic problem is well-posed when the rate-energy (inertia) tensors
satisfy definiteness hypotheses; the potential tensors only need to be
bounded and may be indefinite.  On a mesh, the certificate is quantitative:

* m1  - coercivity of the rate-energy form in the product norm
        (smallest generalized eigenvalue against the Gram matrix),
* M2  - boundedness of the potential form (largest magnitude eigenvalue),
* c   - the contraction constant sqrt(2) M2 / m1 of the fixed-point map,
* delta = 1/(2 sqrt(c)) - the subinterval length on which one fixed-point
        sweep is guaranteed to contract by a factor 1/4.
"""

from micromorph import (
    assemble_gram,
    assemble_w1,
    assemble_w2,
    build_box_mesh,
    build_fe_system,
    check_hypotheses,
    discrete_coercivity,
    isotropic_material,
    well_posedness_report,
)

sys = build_fe_system(build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)))
gram = assemble_gram(sys)

print("=== a healthy material: indefinite potential tensor is fine ===")
good = isotropic_material(elastic=(1.0, -1.0))   # indefinite potential energy
report = well_posedness_report(
    good, assemble_w1(good, sys), assemble_w2(good, sys), gram
)
for c in report.checks:
    print(f"  ({c.item}) {'pass' if c.passed else 'FAIL'}  {c.description}")
print(f"m1    = {report.coercivity:.6g}")
print(f"M2    = {report.boundedness:.6g}")
print(f"c     = {report.contraction:.6g}")
print(f"delta = {report.interval:.6g}")
print("verdict:", "well-posed" if report.well_posed else "NOT well-posed")

print("\n=== breaking hypothesis (iii): negative rate-elastic tensor ===")
bad = isotropic_material(inertia_elastic=(-1.0, 0.0))
rep2 = check_hypotheses(bad)
print("failed items:", rep2.failed_items())

print("\n=== simplified kinetic energy needs a definite micro-rate tensor ===")
from micromorph.tensors import ModelVariant

simplified_bad = isotropic_material(
    variant=ModelVariant.SIMPLIFIED_INERTIA,
    micro_inertia=0.0,
    inertia_micro=(0.0, 0.0),
)
rep3 = check_hypotheses(simplified_bad)
print("failed items:", rep3.failed_items())
print("(the base checklist passes; only the variant's extra condition fails)")

print("\n=== and the coercivity constant shows it quantitatively ===")
ok = isotropic_material(variant=ModelVariant.SIMPLIFIED_INERTIA)
m_ok = discrete_coercivity(assemble_w1(ok, sys), gram)
m_bad = discrete_coercivity(assemble_w1(simplified_bad, sys), gram)
print(f"m1 with identity micro-rate tensor: {m_ok:.6g}")
print(f"m1 with zero micro-rate tensor    : {m_bad:.6g}  ({m_bad / m_ok:.1%})")
print("discrete fields of the form P = grad(u) carry almost no rate energy")
