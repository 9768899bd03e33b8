"""Bicomplex generalized hypergeometric functions.

Arithmetic over the bicomplex ring, the generalized hypergeometric
series with bicomplex parameters and argument, its convergence
classification, integral representations, the algebraic identity
suites, and coherent states built on top of it.
"""

from .errors import (
    BCHyperError,
    BranchCutError,
    DomainError,
    InvalidParamsError,
    NoConvergenceError,
    NullConeError,
    ParamMismatchError,
    PoleError,
    PositivityError,
    PreconditionError,
    TruncationError,
    UsageError,
)
from .numbers import (
    E1,
    E2,
    I1,
    I2,
    K,
    ONE,
    UNIT_BALL,
    ZERO,
    BiComplex,
    HBall,
    HOrder,
    Hyperbolic,
    bc_exp,
    bc_pow,
    format_bicomplex,
    from_idempotent,
    from_json_dict,
    h_less,
    in_null_cone,
    inverse,
    is_zero_divisor,
    parse_bicomplex,
    to_json_dict,
)
from .gamma import (
    bc_gamma,
    bc_pochhammer,
    complex_gamma,
    complex_pochhammer,
)
from .hyper import (
    ConvergenceClass,
    ConvergenceKind,
    PfqParams,
    SeriesEval,
    classify,
    hyp1f0,
    hyp1f1,
    hyp2f1,
    oracle_pfq_complex,
    pfq,
    pfq_value,
)
from .identities import (
    IdentityReport,
    ShiftM,
    cauchy_riemann_check,
    coefficient_recurrence_ulps,
    contiguous_alpha_minus,
    contiguous_alpha_plus,
    contiguous_beta_minus,
    contiguous_beta_plus,
    derivative_relation,
    ode_residual_with_bound,
    quad_even,
    quad_odd,
    saalschutz,
)
from .quad import (
    CurveKind,
    ProductCurve,
    double_integral,
    euler_integral,
    laplace_integral,
)
from .coherent import (
    CoherentSpec,
    LadderTables,
    annihilate,
    build_tables,
    commutator_diagonal,
    inner_product,
    ladder_matrices,
    normalization,
    state_coefficients,
)

__version__ = "0.1.0"
