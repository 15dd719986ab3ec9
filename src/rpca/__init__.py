"""Dense robust PCA: split D into a low-rank part L and a sparse part S.

The main entry points are :func:`accaltproj_solve` (alternating projections
accelerated by a tangent-space projection of the residual before each
truncation) and :func:`altproj_solve` (the plain baseline with a full
truncated SVD per iteration).  :mod:`rpca.synthetic` draws seeded random test
problems, :mod:`rpca.experiments` reproduces the success-rate and runtime
protocols at desk scale, and :mod:`rpca.cli` exposes everything as the
``rpca`` command.

The package namespace holds the entry points only; building blocks (kernels,
projections, thresholds, the iteration state) are imported from their
submodules, e.g. ``from rpca.solver import structured_truncate``.
"""

from .experiments import (
    SOLVER_IDS,
    PhaseConfig,
    paper_phase_config,
    run_phase_experiment,
    run_runtime_experiment,
)
from .metrics import recovery_success
from .solver import RpcaParams, RpcaSolution, accaltproj_solve, altproj_solve
from .synthetic import SyntheticSpec, generate

__version__ = "0.1.0"

__all__ = [
    "SOLVER_IDS",
    "PhaseConfig",
    "RpcaParams",
    "RpcaSolution",
    "SyntheticSpec",
    "accaltproj_solve",
    "altproj_solve",
    "generate",
    "paper_phase_config",
    "recovery_success",
    "run_phase_experiment",
    "run_runtime_experiment",
]
