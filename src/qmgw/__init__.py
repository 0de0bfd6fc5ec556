"""Exact-rational computation of quasi-modular Gromov-Witten generating
functions for the elliptic curve and their FJRW counterparts for the
Fermat cubic pair, with verification suites for the differential-ring,
anomaly-equation and operator-algebra structure tying the two together.
"""

__version__ = "0.1.0"

from .series import PowerSeries
from .modular import (
    QMPolynomial,
    eisenstein,
    euler_function,
    qm_eval,
    quasimodularize,
    ramanujan_derive,
    reduce_e2k,
)
from .chazy import (
    bp_residual,
    chazy_residual,
    chazy_solve_s,
    fjrw_genus1_series,
)
from .theta import (
    b_table,
    log_theta_deriv,
    one_over_theta,
    prime_form,
    sigma_tilde,
    weierstrass_a,
)
from .npoint import (
    connected_from_disconnected,
    connected_stationary,
    npoint,
    stationary_invariant,
)
from .cayley import (
    cayley_frame,
    cayley_transform,
    extract_fjrw_invariants,
    fjrw_correlation,
    fjrw_onepoint_all_genus,
    genus_zero_data,
)
from .anomaly import d_dC2, hae_onepoint_check, prime_form_anomaly_check
from .virasoro import quantization_S, virasoro_commutator_check, virasoro_op
from .mirror import (
    alpha,
    appendix_identity_checks,
    borwein_a,
    borwein_c_cubed,
    hyp2f1,
    i_function_fjrw,
    i_function_gw,
    mirror_map_check,
)

__all__ = [
    "__version__",
    "PowerSeries",
    "QMPolynomial",
    "eisenstein",
    "euler_function",
    "qm_eval",
    "quasimodularize",
    "ramanujan_derive",
    "reduce_e2k",
    "chazy_residual",
    "bp_residual",
    "chazy_solve_s",
    "fjrw_genus1_series",
    "sigma_tilde",
    "weierstrass_a",
    "b_table",
    "prime_form",
    "one_over_theta",
    "log_theta_deriv",
    "npoint",
    "stationary_invariant",
    "connected_stationary",
    "connected_from_disconnected",
    "cayley_frame",
    "cayley_transform",
    "fjrw_correlation",
    "fjrw_onepoint_all_genus",
    "extract_fjrw_invariants",
    "genus_zero_data",
    "d_dC2",
    "prime_form_anomaly_check",
    "hae_onepoint_check",
    "virasoro_op",
    "virasoro_commutator_check",
    "quantization_S",
    "hyp2f1",
    "borwein_a",
    "borwein_c_cubed",
    "alpha",
    "appendix_identity_checks",
    "i_function_gw",
    "i_function_fjrw",
    "mirror_map_check",
]
