"""Finite-element engine for relaxed micromorphic elastodynamics with
nonstandard micro-inertia terms.

The package covers the full pipeline: constitutive tensor algebra and
definiteness classification, structured tetrahedral meshing, conforming
discrete spaces (vector P1 and three rows of lowest-order edge elements),
assembly of the rate-energy and potential-energy bilinear forms, the
constructive fixed-point time integrator with contraction monitoring, a
Newmark reference integrator, numerical well-posedness certification, and
a plane-wave dispersion / band-gap calculator.
"""

from .tensors import (
    ConstitutiveTensor4,
    Definiteness,
    DefinitenessReport,
    MaterialParams,
    ModelVariant,
    SymmetryClass,
    classify_definiteness,
    isotropic_coupling,
    isotropic_curvature,
    isotropic_elastic,
    isotropic_material,
    make_isotropic,
    skew,
    sym,
)
from .mesh import BoxMesh, build_box_mesh, validate_mesh
from .fespace import (
    DofMap,
    FESystem,
    build_fe_system,
    build_p_space,
    build_u_space,
    interpolate_p,
    interpolate_u,
)
from .assembly import (
    BlockLayout,
    LoadFunctional,
    SparseSymOperator,
    TimeField,
    assemble_gram,
    assemble_load,
    assemble_w1,
    assemble_w2,
    combine_operators,
    load_assembler,
)
from .linalg import (
    definite_solver,
    extreme_generalized_eigenvalues,
    hermitian_dense_eig,
)
from .dynamics import (
    DynamicState,
    Trajectory,
    newmark_integrate,
    picard_integrate,
    stationary_solve,
)
from .analysis import (
    BandGap,
    DispersionResult,
    WellPosednessReport,
    check_hypotheses,
    contraction_constant,
    detect_band_gaps,
    discrete_boundedness,
    discrete_coercivity,
    dispersion_curves,
    korn_curl_constant,
    well_posedness_report,
)
from .errors import (
    ConfigError,
    DefinitenessError,
    HypothesisError,
    MicromorphError,
    NonConvergenceError,
    SolverError,
)

__version__ = "0.1.0"
