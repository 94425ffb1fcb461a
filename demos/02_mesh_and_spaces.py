"""Structured tetrahedral meshes and the two conforming discrete spaces.

Each grid cube is split into six tetrahedra around its main diagonal; the
split is face-conforming and orients every edge from its lower to its
higher vertex index.  The displacement lives in vector P1 with zero trace
on the boundary; the micro-distortion carries three copies of the
lowest-order edge space with zero *tangential* trace, realized by dropping
boundary-edge circulations.
"""

import io

from micromorph import build_box_mesh, build_fe_system, validate_mesh
from micromorph.fespace import QUADRATURE_POINTS, QUADRATURE_WEIGHTS

print("=== entity counts across refinement ===")
print(f"{'res':>5} {'verts':>6} {'edges':>6} {'cells':>6} {'u dofs':>7} {'P dofs':>7}")
for n in (1, 2, 3, 4):
    mesh = build_box_mesh((1.0, 1.0, 1.0), (n, n, n))
    sys = build_fe_system(mesh)
    print(
        f"{n:>5} {mesh.n_vertices:>6} {mesh.n_edges:>6} {mesh.n_cells:>6} "
        f"{sys.n_u_dofs:>7} {sys.n_p_dofs:>7}"
    )

print("\nthe single cube keeps only its body diagonal as an interior edge,")
print("so the smallest micro-distortion space has exactly 3 dofs.")

print("\n=== validation diagnostics ===")
mesh = build_box_mesh((2.0, 1.0, 1.5), (3, 2, 2))
diag = validate_mesh(mesh)
print("volume sum      :", diag.volume_sum, "(box:", 2.0 * 1.0 * 1.5, ")")
print("min cell volume :", diag.min_cell_volume)
print("Euler char      :", diag.euler_characteristic, "(1 for a ball)")
print("violations      :", diag.violations or "none")

print("\n=== plain-text dump (first lines) ===")
buf = io.StringIO()
build_box_mesh((1.0, 1.0, 1.0), (1, 1, 1)).dump_text(buf)
print("\n".join(buf.getvalue().splitlines()[:6]))
print("...")

print("\n=== quadrature is exact for the assembled integrands ===")
print("barycentric points:\n", QUADRATURE_POINTS)
print("weights:", QUADRATURE_WEIGHTS, " sum:", QUADRATURE_WEIGHTS.sum(), "(1/6)")
print("exact for degree 2; all bilinear-form integrands are at most quadratic per cell")
