"""Mirror-descent solvers for non-smooth convex problems, with
m-parameterized weighted averaging, nine step-size rules, constrained
variants with productive-step switching, and a deterministic benchmark
harness."""

import os

# one BLAS thread unless the caller chose: at large n, numpy's reductions
# round differently with more threads. This acts only before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .space import NormKind, as_point, dual_norm_kind, norm
from .geometry import (
    Ball,
    L1,
    ProxSetup,
    Simplex,
    Zero,
    bregman,
    composite_mirror_step,
    entropy_setup,
    euclidean_setup,
    grad_psi,
    mirror_step,
    unit_ball,
)
from .problems import (
    AffineConstraints,
    DistanceToPoint,
    InstanceSpec,
    MaxAffine,
    MaxDistance,
    MeanDistance,
    build_constraints,
    build_objective,
    deserialize_instance,
    serialize_instance,
)
from .schedules import (
    TABLE_TAGS,
    ScheduleKind,
    ScheduleState,
    StationarySignal,
    is_nonincreasing_guaranteed,
    schedule,
)
from .solvers import (
    NoProductiveSteps,
    RunConfig,
    SolveResult,
    StopReason,
    Trace,
    constrained_md,
    constrained_md_multi,
    mirror_c_descent,
    mirror_descent,
)
from .bounds import (
    bound_composite,
    bound_corollaries,
    bound_main,
    iteration_estimate,
)
from .bench import (
    ExperimentPlan,
    ReferenceSolution,
    constrained_reference,
    grid_refine_minimize,
    reference_solution,
    run_constrained_comparison,
    run_experiment,
    run_single_cell,
    sweep_m,
)

__version__ = "0.1.0"

__all__ = [
    "NormKind", "as_point", "dual_norm_kind", "norm",
    "Ball", "Simplex", "unit_ball", "ProxSetup", "euclidean_setup",
    "entropy_setup", "bregman", "grad_psi", "mirror_step", "Zero", "L1",
    "composite_mirror_step",
    "InstanceSpec", "DistanceToPoint", "MeanDistance", "MaxDistance",
    "MaxAffine", "AffineConstraints", "build_objective", "build_constraints",
    "serialize_instance", "deserialize_instance",
    "TABLE_TAGS", "ScheduleKind", "ScheduleState", "StationarySignal",
    "schedule", "is_nonincreasing_guaranteed",
    "RunConfig", "Trace", "SolveResult", "StopReason",
    "NoProductiveSteps", "mirror_descent", "mirror_c_descent",
    "constrained_md", "constrained_md_multi", "bound_main",
    "bound_corollaries", "bound_composite", "iteration_estimate",
    "ExperimentPlan", "ReferenceSolution", "reference_solution",
    "constrained_reference", "grid_refine_minimize", "run_single_cell",
    "run_experiment", "sweep_m", "run_constrained_comparison",
]
