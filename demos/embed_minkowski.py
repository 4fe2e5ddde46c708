"""From a Codazzi field to a convex spacelike surface in Minkowski 3-space.

A Codazzi field A on a hyperboloid patch integrates (path-independently)
to an immersion whose differential is dX = (dI) o A, with I the inclusion
of the hyperboloid.  A = Id reproduces the hyperboloid itself; a
Hessian-type field f Id + Hess f gives a genuinely curved convex surface.
We integrate both, check plaquette closure and the induced metric, split
f into the support-function pair phi_+ + phi_- = f, and write the mesh.
"""

import numpy as np

from codazzi import embedding
from codazzi.fileio import write_mesh_csv
from codazzi.grid import Grid
from codazzi.jcalc import ID2

grid = Grid(65, 65, 0.8, 0.8, "dirichlet")
patch = embedding.HyperboloidPatch(grid)
iota = patch.nodes

# sanity: the identity field gives back the hyperboloid, support -1
idf = np.broadcast_to(ID2, (65, 65, 2, 2)).copy()
x_id = embedding.integrate_immersion(
    embedding.edge_segments(idf, patch), patch, iota[patch.base_index], sign=1
)
print(f"A = Id: max deviation from the hyperboloid {np.max(np.abs(x_id - iota)):.2e}")
phi = embedding.support_function(x_id, patch, sign=1)
print(f"        support function range [{phi.min():.6f}, {phi.max():.6f}]")

# a curved example from a generating function f
xx, yy = grid.meshgrid
f = 2.0 + 0.3 * np.cos(3.0 * xx) * np.sin(2.0 * yy) + 0.2 * xx * yy
a = embedding.codazzi_generator(f, patch)
segments = embedding.edge_segments(a, patch)
x = embedding.integrate_immersion(segments, patch, iota[patch.base_index])

print(f"\nHessian-type field: plaquette defect {embedding.plaquette_defect(segments):.3e}")
print(f"                    induced-metric error {embedding.induced_metric_error(x, a, patch):.3e}")
spacelike, definite, side = embedding.convexity_check(x, patch)
print(f"                    spacelike={spacelike}, definite={definite}, side={side}")

_, _, phi_p, phi_m = embedding.support_pair(f, patch)
print(f"support pair: max |phi_+ + phi_- - f| = {np.max(np.abs(phi_p + phi_m - f)):.3e}")

write_mesh_csv("embed_demo_mesh.csv", grid, x, phi_p)
print("\nmesh written to embed_demo_mesh.csv")
