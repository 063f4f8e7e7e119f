"""Bernoulli-convolution Fourier coefficients at Pisot scaling ratios.

The package certifies Pisot numbers from their defining integer polynomial,
does exact arithmetic in Z[theta] and Q(theta), evaluates the transform
mu_hat(t) = prod_{k>=0} cos(2 pi theta^-k t) with certified truncation error,
predicts the countable set of limit points of {|mu_hat(r n)|} through
bi-infinite cosine products, and runs the empirical experiments (clustering,
interval filling, equidistribution, translated coefficients, non-Pisot decay)
that contrast the countable and interval regimes.
"""

from .errors import (
    AmbiguousRoundingError,
    BudgetExceededError,
    InvalidDeltaError,
    InvalidToleranceError,
    NoDominantRealRootError,
    NotPisotError,
    NotSquarefreeError,
    PisotSpectraError,
    PrecisionExhaustedError,
)
from .pisot import (
    FieldElement,
    MinimalPolynomial,
    PisotNumber,
    RingElement,
    build_pisot,
    dist_decay,
    embed,
    field_invert,
    nearest_int_data,
    ring_theta_pow,
)
from .transform import (
    DigitTrace,
    MuHatResult,
    SeriesItem,
    check_recurrence,
    coefficient_series,
    digit_trace,
    mu_hat,
    mu_hat_fast,
)
from .spectrum import (
    SpectrumCandidate,
    enumerate_spectrum,
    limit_value,
    phi_biinfinite,
    phi_lambda,
    product_law_residual,
    synthesize_sequence,
    tail_product,
)
from .empirical import (
    BlockMaximum,
    Cluster,
    ClusterReport,
    IntervalEstimate,
    TranslatedReport,
    decay_check,
    discrepancy,
    estimate_J,
    interval_fill_test,
    sample_and_cluster,
    translated_sample,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousRoundingError",
    "BlockMaximum",
    "BudgetExceededError",
    "Cluster",
    "ClusterReport",
    "DigitTrace",
    "FieldElement",
    "IntervalEstimate",
    "InvalidDeltaError",
    "InvalidToleranceError",
    "MinimalPolynomial",
    "MuHatResult",
    "NoDominantRealRootError",
    "NotPisotError",
    "NotSquarefreeError",
    "PisotNumber",
    "PisotSpectraError",
    "PrecisionExhaustedError",
    "RingElement",
    "SeriesItem",
    "SpectrumCandidate",
    "TranslatedReport",
    "build_pisot",
    "check_recurrence",
    "coefficient_series",
    "decay_check",
    "digit_trace",
    "discrepancy",
    "dist_decay",
    "embed",
    "enumerate_spectrum",
    "estimate_J",
    "field_invert",
    "interval_fill_test",
    "limit_value",
    "mu_hat",
    "mu_hat_fast",
    "nearest_int_data",
    "phi_biinfinite",
    "phi_lambda",
    "product_law_residual",
    "ring_theta_pow",
    "sample_and_cluster",
    "synthesize_sequence",
    "tail_product",
    "translated_sample",
]
