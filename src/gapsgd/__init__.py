"""Sparsity-regularized risk minimization with dynamic gap-safe screening.

Doubly stochastic variance-reduced solvers that shrink the working problem by
certifying blocks of coefficients as zero at the optimum while they run, plus
unscreened baselines and a deterministic reference solver for validation.
"""

from .duality import (ActiveSet, DualPoint, column_bounds, dual_point, duality_gap,
                      equicorrelation_set, safe_radius, screen)
from .harness import (ExperimentPlan, LibsvmParseError, SyntheticParams,
                      build_spec, generate_synthetic, load_libsvm,
                      parse_plan_file, run_experiment)
from .problem import (LOSSES, REGULARIZERS, BlockPartition, Dataset,
                      DegenerateProblemError, GroupL2Penalty, L1Penalty,
                      LipschitzConstants, LogisticLoss, ProblemSpec,
                      SquaredLoss, full_gradient, lambda_max,
                      lipschitz_constants, primal_objective, soft_threshold)
from .solvers import (ConvergenceError, DivergenceError, SolveReport,
                      SolverConfig, TraceRecord, adsgd_solve, inner_budget,
                      mrbcd_solve, partial_gradient, proxsvrg_solve,
                      reference_solve, solve, vr_gradient)

__version__ = "0.1.0"
