"""Adaptive operator-splitting time integrators on the torus.

Layers, bottom up: ``spectral`` (grids, fields, transforms, norms),
``problems`` (split systems with closed-form or cheap flows),
``schemes`` (coefficient words, adjoints, registry, scheme files),
``estimators`` (embedded and Milne local error estimates, the adjoint
average a Milne one), ``control`` (step-size controller and integration
drivers), ``diagnostics`` (convergence, efficiency and commutator
studies), and ``cli`` (the command-line front end).
"""

from .exceptions import (
    BlowUpError,
    ConfigError,
    DegeneratePairWarning,
    NumericalError,
    ReferenceAccuracyError,
    RepresentationError,
    SchemeFileError,
    SplitstepError,
    ToleranceAbortError,
    UnderResolvedWarning,
    UnstableStepError,
)
from .spectral import (
    Field,
    TorusGrid,
    apply_symbol,
    dealias_23,
    derivative_symbol,
    laplacian_symbol,
    modal_tail_fraction,
    quadrature_l2,
    read_field,
    sobolev_norm,
    to_modal,
    to_nodal,
    write_field,
)
from .problems import (
    GrayScottParams,
    SplitProblem,
    VdpParams,
    gray_scott_abc_problem,
    gray_scott_problem,
    gs_commutator,
    gs_reaction_jacobian,
    initial_condition,
    linear_problem,
    van_der_pol_problem,
)
from .schemes import (
    GAMMA3,
    SchemePair,
    SchemeRegistry,
    SplittingScheme,
    adjoint,
    apply_word,
    builtin_registry,
    compose_step,
    is_self_adjoint,
    load_scheme_file,
    save_scheme_file,
)
from .estimators import EstimateResult, controller_norm, estimate_step
from .control import (
    StepControlConfig,
    StepRecord,
    Trajectory,
    calibrate_initial_step,
    integrate_adaptive,
    integrate_fixed,
    next_step_size,
    step_adaptive,
    write_trajectory_csv,
)
from .diagnostics import (
    CommutatorReport,
    ConvergenceReport,
    EfficiencyRow,
    commutator_check,
    convergence_study,
    efficiency_compare,
    fit_loglog,
    reference_solution,
    write_convergence_csv,
    write_efficiency_csv,
)

__version__ = "0.1.0"
