"""Exact counting for binary quadratic congruences, with error envelopes,
quadratic Gauss sums, sawtooth approximations, averaged coefficient
families, and almost-prime point searches on a sextic del Pezzo surface."""

from .arith import (
    jacobi,
    log1n,
    mod_inv,
    unit_symbols,
)
from .averaged import (
    AveragedFamily,
    AveragedReport,
    avg_report,
    delta_H,
    error_budget,
    suggest_H,
    unit_disc_point,
)
from .congruence import (
    BoundarySpec,
    CountReport,
    Interval,
    bilinear_jacobi,
    box_bounds,
    scan_boxes,
)
from .dp6 import (
    BETA_3,
    GrowthRow,
    icbrt,
    m_t_growth,
    point_blocks,
    prime_window,
    sieve_condition_report,
    sieve_threshold,
)
from .gausssum import (
    GaussSumValue,
    gauss_brute,
    gauss_closed,
)
from .sawtooth import (
    VaalerPolynomial,
    psi,
    vaaler_polynomial,
)

__version__ = "0.1.0"
