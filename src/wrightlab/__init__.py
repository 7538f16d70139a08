"""wrightlab: Wright/Mittag-Leffler series, Euler-type integral identities,
and a quadrature-backed verification harness."""

__version__ = "0.1.0"

from .errors import (
    CancellationError,
    DivergenceError,
    DomainError,
    EvaluationError,
    MaxTermsError,
    NonConvergenceError,
    PoleError,
    WrightLabError,
)
from .scalars import (
    beta_fn,
    gamma_fn,
    log_gamma,
    log_gamma_signed,
    log_pochhammer_signed,
    pochhammer,
)
from .series import (
    SeriesPolicy,
    SeriesResult,
    WrightSpec,
    hyper_pfq,
    mittag_leffler,
    wright_psi,
    wright_psi_normalized,
)
from .multivar import appell_f1, appell_f3, gegenbauer, humbert_phi2, lauricella_fd
from .quadrature import (
    QuadraturePolicy,
    QuadratureResult,
    evaluate_integral_direct,
    tanh_sinh_integrate,
)
from .identities import (
    BinomialGen,
    CustomGen,
    EulerIntegralSpec,
    GegenbauerGen,
    GeneratingFamily,
    HumbertGen,
    IdentityCase,
    T1Family,
    T2Family,
    T3Family,
    T4Family,
    TNFamily,
    application_case,
    closed_form_lauricella,
    closed_form_theorem1,
    closed_form_theorem2,
    closed_form_theorem3,
    closed_form_theorem4,
    euler_case,
    evaluate_generating_integral_direct,
    generating_integral_closed_form,
    reduce_lambda1,
    t1_spec,
    t2_spec,
    t3_spec,
    t4_spec,
    tn_spec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
