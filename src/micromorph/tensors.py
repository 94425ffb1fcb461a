"""Fourth-order constitutive tensors, 3x3 matrix algebra, and definiteness checks.

Each constitutive tensor acts on a fixed subspace of 3x3 matrices (its
symmetry class) and carries major symmetry.  Internally a tensor is stored
as the dense symmetric matrix of its quadratic form in an orthonormal basis
of the class domain, so eigenvalues of that matrix are exactly the extreme
moduli of the tensor.

Canonical orthonormal bases (the interchange format for component lists):

* symmetric class (dim 6):   E11, E22, E33, (E23+E32)/sqrt2,
  (E13+E31)/sqrt2, (E12+E21)/sqrt2
* antisymmetric class (dim 3): (E23-E32)/sqrt2, (E31-E13)/sqrt2,
  (E12-E21)/sqrt2
* full class (dim 9): the nine unit matrices Eij in row-major order
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "sym",
    "skew",
    "SymmetryClass",
    "ConstitutiveTensor4",
    "make_isotropic",
    "isotropic_elastic",
    "isotropic_coupling",
    "isotropic_curvature",
    "Definiteness",
    "DefinitenessReport",
    "classify_definiteness",
    "ModelVariant",
    "MaterialParams",
    "isotropic_material",
]


def sym(x: np.ndarray) -> np.ndarray:
    """Symmetric part (x + x^T)/2."""
    return 0.5 * (x + x.swapaxes(-1, -2))


def skew(x: np.ndarray) -> np.ndarray:
    """Antisymmetric part (x - x^T)/2."""
    return 0.5 * (x - x.swapaxes(-1, -2))


def _build_bases() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = np.zeros((6, 3, 3))
    for m, (i, j) in enumerate([(0, 0), (1, 1), (2, 2)]):
        s[m, i, j] = 1.0
    r = 1.0 / np.sqrt(2.0)
    for m, (i, j) in enumerate([(1, 2), (0, 2), (0, 1)], start=3):
        s[m, i, j] = r
        s[m, j, i] = r
    a = np.zeros((3, 3, 3))
    for m, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        a[m, i, j] = r
        a[m, j, i] = -r
    f = np.eye(9).reshape(9, 3, 3)
    return s, a, f


SYM_BASIS, SKEW_BASIS, FULL_BASIS = _build_bases()


class SymmetryClass(enum.Enum):
    """Domain of a constitutive tensor: which 3x3 subspace it acts on."""

    ELASTIC = "elastic"        # Sym(3) -> Sym(3), 21 independent components
    COUPLING = "coupling"      # so(3) -> so(3), 6 independent components
    CURVATURE = "curvature"    # full 3x3 -> 3x3, 45 independent components

    @property
    def dim(self) -> int:
        return {"elastic": 6, "coupling": 3, "curvature": 9}[self.value]

    @property
    def basis(self) -> np.ndarray:
        return {
            "elastic": SYM_BASIS,
            "coupling": SKEW_BASIS,
            "curvature": FULL_BASIS,
        }[self.value]

    @property
    def n_components(self) -> int:
        d = self.dim
        return d * (d + 1) // 2

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal-basis coordinates of the class projection of x.

        Projection is implicit: components of x orthogonal to the class
        domain simply do not contribute.
        """
        return np.einsum("mij,...ij->...m", self.basis, x)

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        return np.einsum("...m,mij->...ij", c, self.basis)


@dataclass(frozen=True)
class ConstitutiveTensor4:
    """A fourth-order tensor with major symmetry on a declared class domain.

    ``matrix`` is the dense symmetric representation of the quadratic form
    X -> <T.X, X> in the canonical orthonormal basis; its eigenvalues are
    the extreme moduli of the tensor.
    """

    symmetry_class: SymmetryClass
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.symmetry_class.dim
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (d, d):
            raise ValueError(
                f"{self.symmetry_class.value} tensor needs a {d}x{d} matrix, "
                f"got {m.shape}"
            )
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_components(
        cls, symmetry_class: SymmetryClass, components
    ) -> "ConstitutiveTensor4":
        """Build from the upper triangle of the representation, row-major."""
        comp = np.asarray(components, dtype=float).ravel()
        d = symmetry_class.dim
        need = symmetry_class.n_components
        if comp.size != need:
            raise ValueError(
                f"{symmetry_class.value} tensor needs {need} components, "
                f"got {comp.size}"
            )
        m = np.zeros((d, d))
        iu = np.triu_indices(d)
        m[iu] = comp
        m = m + np.triu(m, 1).T
        return cls(symmetry_class, m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T.X; annihilates the part of X outside the class domain."""
        c = self.symmetry_class.coords(np.asarray(x, dtype=float))
        return self.symmetry_class.from_coords(c @ self.matrix)


def matrix_representation(t: ConstitutiveTensor4) -> np.ndarray:
    """Dense symmetric matrix of the quadratic form (a copy)."""
    return np.array(t.matrix)


def make_isotropic(symmetry_class: SymmetryClass, *moduli: float) -> ConstitutiveTensor4:
    """Isotropic tensor of the given class.

    elastic:   (mu, lam)  X -> 2 mu sym X + lam tr(X) I
    coupling:  (mu_c,)    X -> 2 mu_c skew X
    curvature: (alpha,)   X -> alpha X
    """
    if symmetry_class is SymmetryClass.ELASTIC:
        if len(moduli) != 2:
            raise ValueError("elastic class takes two moduli (mu, lambda)")
        mu, lam = moduli
        m = 2.0 * mu * np.eye(6)
        m[:3, :3] += lam
        return ConstitutiveTensor4(symmetry_class, m)
    if symmetry_class is SymmetryClass.COUPLING:
        if len(moduli) != 1:
            raise ValueError("coupling class takes one modulus (mu_c)")
        return ConstitutiveTensor4(symmetry_class, 2.0 * moduli[0] * np.eye(3))
    if symmetry_class is SymmetryClass.CURVATURE:
        if len(moduli) != 1:
            raise ValueError("curvature class takes one modulus (alpha)")
        return ConstitutiveTensor4(symmetry_class, moduli[0] * np.eye(9))
    raise ValueError(f"unknown symmetry class {symmetry_class!r}")


def isotropic_elastic(mu: float, lam: float) -> ConstitutiveTensor4:
    return make_isotropic(SymmetryClass.ELASTIC, mu, lam)


def isotropic_coupling(mu_c: float) -> ConstitutiveTensor4:
    return make_isotropic(SymmetryClass.COUPLING, mu_c)


def isotropic_curvature(alpha: float) -> ConstitutiveTensor4:
    return make_isotropic(SymmetryClass.CURVATURE, alpha)


_DEFINITENESS_TOL = 1e-10  # modulus read as zero, relative to the largest


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    POSITIVE_SEMI_DEFINITE = "positive-semi-definite"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class DefinitenessReport:
    classification: Definiteness
    min_modulus: float
    max_modulus: float


def classify_definiteness(t: ConstitutiveTensor4) -> DefinitenessReport:
    """Classify via the extreme eigenvalues of the matrix representation.

    Moduli within ``_DEFINITENESS_TOL`` of zero, relative to the largest
    modulus magnitude, count as zero, so scaling the tensor by a positive
    factor never changes the classification.
    """
    w = np.linalg.eigvalsh(t.matrix)
    lo, hi = float(w[0]), float(w[-1])
    thr = _DEFINITENESS_TOL * max(abs(lo), abs(hi))
    if lo > thr:
        cls = Definiteness.POSITIVE_DEFINITE
    elif lo >= -thr:
        cls = Definiteness.POSITIVE_SEMI_DEFINITE
    else:
        cls = Definiteness.INDEFINITE
    return DefinitenessReport(cls, lo, hi)


class ModelVariant(enum.Enum):
    """Which kinetic-energy terms are active.

    FULL_INERTIA      all terms, positive length scale
    SIMPLIFIED_INERTIA micro mass density dropped from the rate energy
    QUASISTATIC       both plain mass densities dropped
    ZERO_LENGTH_SCALE full inertia with vanishing characteristic length
    """

    FULL_INERTIA = "full"
    SIMPLIFIED_INERTIA = "simplified"
    QUASISTATIC = "quasistatic"
    ZERO_LENGTH_SCALE = "zero-length-scale"


_TENSOR_CLASSES = {
    "elastic": SymmetryClass.ELASTIC,
    "coupling": SymmetryClass.COUPLING,
    "micro": SymmetryClass.ELASTIC,
    "curvature": SymmetryClass.CURVATURE,
    "inertia_elastic": SymmetryClass.ELASTIC,
    "inertia_coupling": SymmetryClass.COUPLING,
    "inertia_micro": SymmetryClass.ELASTIC,
    "inertia_curvature": SymmetryClass.CURVATURE,
}


def _scalar_problems(
    variant: ModelVariant,
    rho: float,
    micro_inertia: float,
    mu: float,
    length_scale: float,
) -> list[tuple[str, str]]:
    """(name, reason) for each scalar of :class:`MaterialParams` that
    ``variant`` does not admit, in the order the constructor reports them."""
    # written as "not x > 0" so that NaN is rejected too
    problems = []
    if not rho > 0:
        problems.append(("rho", "must be positive"))
    if not mu > 0:
        problems.append(("mu", "must be positive"))
    needs_j = variant in (ModelVariant.FULL_INERTIA, ModelVariant.ZERO_LENGTH_SCALE)
    if not micro_inertia >= 0:
        problems.append(("micro_inertia", "must be nonnegative"))
    elif needs_j and not micro_inertia > 0:
        problems.append(
            ("micro_inertia", f"must be positive in the {variant.value} variant")
        )
    if variant is ModelVariant.ZERO_LENGTH_SCALE:
        if length_scale != 0.0:
            problems.append(("length_scale", "must be exactly zero in this variant"))
    elif not length_scale > 0:
        problems.append(("length_scale", "must be positive in this variant"))
    return problems


@dataclass(frozen=True)
class MaterialParams:
    """All scalars and tensors entering the rate and potential energies.

    The ``inertia_*`` tensors multiply rate fields (time derivatives); the
    plain tensors define the potential energy.  ``micro_inertia`` is the
    scalar micro mass density, ``mu`` the dimensional-compatibility modulus,
    ``length_scale`` the characteristic length.
    """

    rho: float
    micro_inertia: float
    mu: float
    length_scale: float
    elastic: ConstitutiveTensor4
    coupling: ConstitutiveTensor4
    micro: ConstitutiveTensor4
    curvature: ConstitutiveTensor4
    inertia_elastic: ConstitutiveTensor4
    inertia_coupling: ConstitutiveTensor4
    inertia_micro: ConstitutiveTensor4
    inertia_curvature: ConstitutiveTensor4
    variant: ModelVariant = ModelVariant.FULL_INERTIA

    def __post_init__(self):
        problems = _scalar_problems(
            self.variant, self.rho, self.micro_inertia, self.mu, self.length_scale
        )
        if problems:
            raise ValueError(" ".join(problems[0]))
        for name, cls in _TENSOR_CLASSES.items():
            t = getattr(self, name)
            if t.symmetry_class is not cls:
                raise ValueError(
                    f"{name} must have symmetry class {cls.value}, "
                    f"got {t.symmetry_class.value}"
                )

    def tensors(self) -> dict[str, ConstitutiveTensor4]:
        return {name: getattr(self, name) for name in _TENSOR_CLASSES}


def isotropic_material(
    variant: ModelVariant = ModelVariant.FULL_INERTIA,
    rho: float = 1.0,
    micro_inertia: float = 1.0,
    mu: float = 1.0,
    length_scale: float = 1.0,
    elastic: tuple[float, float] = (1.0, 0.5),
    coupling: float = 0.5,
    micro: tuple[float, float] = (1.0, 0.5),
    curvature: float = 1.0,
    inertia_elastic: tuple[float, float] = (1.0, 0.0),
    inertia_coupling: float = 0.0,
    inertia_micro: tuple[float, float] = (1.0, 0.0),
    inertia_curvature: float = 1.0,
) -> MaterialParams:
    """Convenience factory: every tensor isotropic, everything overridable."""
    return MaterialParams(
        rho=rho,
        micro_inertia=micro_inertia,
        mu=mu,
        length_scale=length_scale,
        elastic=isotropic_elastic(*elastic),
        coupling=isotropic_coupling(coupling),
        micro=isotropic_elastic(*micro),
        curvature=isotropic_curvature(curvature),
        inertia_elastic=isotropic_elastic(*inertia_elastic),
        inertia_coupling=isotropic_coupling(inertia_coupling),
        inertia_micro=isotropic_elastic(*inertia_micro),
        inertia_curvature=isotropic_curvature(inertia_curvature),
        variant=variant,
    )
