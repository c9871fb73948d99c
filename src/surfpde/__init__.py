"""Finite difference PDE solvers on closed level-set surfaces.

The surface is discretized by its cut points with coordinate grid lines;
each primary point carries a graph chart over a coordinate plane, secondary
points are slaved to primaries by quadratic interpolation (equilibration),
and standard planar stencils apply on the chart.
"""

from .advection import exact_integral as advection_exact_integral
from .advection import exact_solution as advection_exact_solution
from .advection import rotation_velocity, solve_advection
from .curve1d import (circle, discretize_curve, ellipse, m_matrix_report,
                      make_curve, perturbed_circle)
from .diffusion import bdf2_solve, forward_euler_solve
from .discretization import (Grid, Grid3, QualityReport,
                             SurfaceDiscretization, discretize,
                             interpolation_coefficients, quality_report)
from .errors import (BracketingError, DegenerateGradientError,
                     EmptySurfaceError, FormatError, GridError,
                     SingularMatrixError, SolverAbortError, StencilError,
                     SurfPDEError, VersionError)
from .fields import error_norms
from .geometry import (SURFACE_CATALOG, LevelSetSurface, cassini_oval,
                       ellipsoid, find_cut, from_callables, make_surface,
                       sphere)
from .linalg import (Factorization, bordered_solve, resolvent_entry_report,
                     smallest_eigenvalues)
from .operators import (ChartMetric, advection_coefficients,
                        artificial_viscosity, chart_metric, laplace_beltrami,
                        reduced_operator, tangential_projection)
from .poisson import poisson_solve
from .quadrature import (QuadratureWeights, direction_weights,
                         quadrature_weights)
from .serialization import dump_discretization, load_discretization
from .spectrum import cluster_errors, laplacian_eigenvalues, resolvent_report
from .swe import (SWEParams, exact_energy_integral, exact_height,
                  exact_height_integral, exact_velocity, initial_state,
                  solve_swe, williamson_params)

__version__ = "0.1.0"
