"""curvlab: scalar curvature of invariant metrics at desk scale.

Subpackages by capability:

* ``mesh``      weighted 1-D calculus on orbit spaces
* ``models``    warped products and left-invariant metrics with closed-form
                curvature, plus the preset catalogue
* ``cheeger``   orbit-shrinking deformations: exact pointwise curvature,
                twist-term maxima, large-time pinching limits
* ``yamabe``    conformal constant-curvature solvers and the P/Z/N classifier
* ``prescribe`` curvature linearization, its exact adjoint, Newton
                prescription, monotone reparametrizations, the full pipeline
* ``canonical`` fiber-scaled submersion curvature and positivity thresholds
* ``runner``    configuration-driven scenario runner and CSV emission
"""

from .mesh import CIRCLE, INTERVAL, QuotientMesh, build_mesh, circle_mesh
from .models import (DiagonalInvariantMetric, LeftInvariantMetric,
                     WarpedProductMetric, YamabeConstants, abelian_metric,
                     as_diagonal, get_preset, ricci_warped, scal_diagonal,
                     scal_left_invariant, scal_warped, sectional_left_invariant,
                     su2_metric, su2_plus_line_structure, su2_structure)
from .cheeger import (IsotropyData, OrbitData, TangentSplit,
                      deformed_group_metric, homogeneous_scal, isotropy_term,
                      orbit_tensor_eig, pinching_limit, scal_cheeger,
                      twist_term)
from .yamabe import (ConformalClass, ConformalProblem, ConformalSolution,
                     SolverConfig, classify_conformal_class, conformal_energy,
                     conformal_scal, el_residual,
                     energy_gradient, minimize_on_constraint,
                     negative_constant_bound, project_to_constraint,
                     solve_negative_constant)
from .prescribe import (ApproximationResult, Diffeo1D, MetricPerturbation,
                        NewtonResult, PrescribeConfig, PrescriptionResult,
                        approximate_by_diffeo, full_prescribe,
                        kernel_min_singular, linearize_scal_adjoint,
                        linearize_scal_matrix, newton_prescribe, tensor_inner)
from .canonical import SubmersionPointData, cv_scal, cv_sectional, positivity_threshold
from .errors import (ConfigError, CurvLabError, ObstructionError,
                     PreconditionError, SolverError)

__version__ = "0.1.0"
