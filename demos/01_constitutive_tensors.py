"""Constitutive tensor algebra: symmetry classes, definiteness, moduli.

Every constitutive tensor acts on one of three subspaces of 3x3 matrices:
symmetric (21 independent components), antisymmetric (6), or the full space
with major symmetry (45).  Internally each tensor is its dense symmetric
matrix representation in an orthonormal basis of its class, so the extreme
moduli of the energy inequality are literally the eigenvalues of that
matrix.
"""

import numpy as np

from micromorph import (
    SymmetryClass,
    classify_definiteness,
    isotropic_coupling,
    isotropic_elastic,
    make_isotropic,
    skew,
)
from micromorph.tensors import ConstitutiveTensor4

rng = np.random.default_rng(0)

print("=== isotropic elastic tensor: X -> 2 mu sym X + lam tr(X) I ===")
t = isotropic_elastic(2.0, 1.0)
x = rng.standard_normal((3, 3))
print("T.X symmetric:", np.allclose(t.apply(x), t.apply(x).T))
print("skew input annihilated:", np.abs(t.apply(skew(x))).max())

print("\n6x6 representation eigenvalues (2 mu five times, 2 mu + 3 lam once):")
print(np.round(np.linalg.eigvalsh(t.matrix), 12))

print("\n=== definiteness classification ===")
for mu, lam in [(1.0, 0.0), (1.0, -1.0), (0.0, 0.0)]:
    r = classify_definiteness(isotropic_elastic(mu, lam))
    print(
        f"mu={mu:+.1f} lam={lam:+.1f}: {r.classification.value:25s} "
        f"moduli [{r.min_modulus:+.3f}, {r.max_modulus:+.3f}]"
    )

print("\n=== a fully anisotropic tensor from its 21 components ===")
components = rng.standard_normal(SymmetryClass.ELASTIC.n_components)
aniso = ConstitutiveTensor4.from_components(SymmetryClass.ELASTIC, components)
r = classify_definiteness(aniso)
print("classification:", r.classification.value)
y = rng.standard_normal((3, 3))
print(
    "major symmetry <T.X, Y> == <X, T.Y>:",
    np.isclose(np.sum(aniso.apply(x) * y), np.sum(x * aniso.apply(y))),
)

print("\n=== coupling tensor doubles the rotation part ===")
c = isotropic_coupling(3.0)
a = skew(rng.standard_normal((3, 3)))
print("C.A == 6 A for antisymmetric A:", np.allclose(c.apply(a), 6 * a))

print("\n=== curvature class acts on the full 3x3 space ===")
l = make_isotropic(SymmetryClass.CURVATURE, 0.5)
print("L.X == 0.5 X:", np.allclose(l.apply(x), 0.5 * x))
