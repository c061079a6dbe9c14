"""Szasz-Mirakjan-Durrmeyer operators with a general increasing parameter
sequence: numerically stable evaluation, exact moment theory, error-bound
calculators, and reproduction of the reference convergence tables."""

from .bounds import (
    BoundCheck,
    DbvBound,
    DbvCheck,
    DbvSpec,
    KFunctionalBound,
    ModulusEstimate,
    TotalVariationEstimate,
    dbv_bound,
    dbv_empirical_check,
    kfunctional_bound,
    korovkin_sup_error,
    lip_space_bound,
    lipschitz_bound_check,
    lipschitz_maximal,
    modulus,
    second_modulus,
    total_variation,
)
from .moments import (
    DecayReport,
    MomentPoly,
    central_moment,
    central_moment_bruteforce,
    central_moment_poly,
    central_moments_by_recurrence,
    decay_order_check,
    raw_moment,
    recurrence_step,
    zeta,
    zeta_sq,
)
from .operator import (
    OperatorOverflow,
    OperatorValue,
    SequenceRule,
    apply,
    apply_truncated,
    kernel_cdf,
    kernel_value,
    parse_rule,
)
from .quadrature import ConvergenceFailure, DivergentIntegral
from .report import (
    CheckResult,
    CurveSeries,
    ErrorTable,
    ReferenceMismatch,
    TableCell,
    compare_with_reference,
    make_curves,
    make_error_table,
    run_verification_suite,
    write_curves_csv,
    write_table_csv,
)
from .targets import (
    BUILTIN_TARGETS,
    BlackBox,
    ExpPolySum,
    MonomialSum,
    TargetFunction,
    parse_target,
)

__version__ = "0.1.0"
