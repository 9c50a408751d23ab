"""Convex planar four-body central configurations in squared-distance
coordinates: solvers, a global census and numerical verification suites."""

__version__ = "0.1.0"

from .census import CensusClass, CensusReport, census, seed_grid
from .dziobek import (DziobekState, MassVector, OrientedAreas,
                      SquaredDistances, SymmetryLabel, balanced_residuals,
                      cayley, cayley_gradient, cc_residuals,
                      classify_symmetry, dilate_state, psi, psi_prime,
                      q_residuals, scaling_transform, sign_det, t_values)
from .errors import (CCFourError, CollisionError, Degenerate, DomainError,
                     LeftConvexRegion, NoConvergence, NotConvex, NotPlanar,
                     NotRealizable, SingularJacobian)
from .geometry import (CanonicalFrame, PlanarConfig, canonicalize, congruent,
                       newtonian_oracle, oriented_areas, realize,
                       squared_distances)
from .solver import (SolveOptions, SolveReport, newton_solve, rhombus_ratio,
                     seed_state, solve_kite, solve_rhombus, sweep)
from .verifier import (CheckResult, check_lemma1_nu_positive,
                       check_lemma2_albouy, check_lemma3_sign,
                       check_lemma4_orderings, check_theorem_identities,
                       run_theorem1_suite, run_theorem2_suite)
