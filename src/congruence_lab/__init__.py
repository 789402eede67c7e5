"""Exact counting for binary quadratic congruences, with error envelopes,
quadratic Gauss sums, sawtooth approximations, averaged coefficient
families, and almost-prime point searches on a sextic del Pezzo surface."""

from .arith import (
    Factorization,
    divisors,
    factorize,
    is_prime,
    jacobi,
    log1n,
    mobius,
    mod_inv,
    phi,
    sigma_half_inv,
    tau,
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
    CongruenceInstance,
    CountReport,
    Interval,
    bilinear_jacobi,
    boundary_sums,
    box_bounds,
    box_report,
    count_exact,
    error_envelope,
    main_term,
    scan_boxes,
)
from .dp6 import (
    BETA_3,
    GrowthRow,
    SieveSequence,
    build_sieve_sequence,
    icbrt,
    l_t_count,
    m_t_growth,
    point_blocks,
    prime_window,
    rho,
    sieve_condition_report,
    sieve_threshold,
    sum_over_d,
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
