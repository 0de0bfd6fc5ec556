"""Exact-rational computation of quasi-modular Gromov-Witten generating
functions for the elliptic curve and their FJRW counterparts for the
Fermat cubic pair, with verification suites for the differential-ring,
anomaly-equation and operator-algebra structure tying the two together.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it defines; each submodule is imported
#: on first access to one of its names (PEP 562), so `import qmgw` runs
#: no mathematics
_EXPORTS = {
    "series": ("PowerSeries",),
    "modular": (
        "QMPolynomial",
        "eisenstein",
        "euler_function",
        "qm_eval",
        "quasimodularize",
        "ramanujan_derive",
        "reduce_e2k",
    ),
    "chazy": (
        "bp_residual",
        "chazy_residual",
        "chazy_solve_s",
        "fjrw_genus1_series",
    ),
    "theta": (
        "b_table",
        "log_theta_deriv",
        "one_over_theta",
        "prime_form",
        "sigma_tilde",
        "weierstrass_a",
    ),
    "hurwitz": ("connected_stationary", "stationary_invariant"),
    "determinant": ("npoint",),
    "cayley": (
        "cayley_frame",
        "cayley_transform",
        "extract_fjrw_invariants",
        "fjrw_correlation",
        "fjrw_onepoint_all_genus",
    ),
    "anomaly": ("d_dC2", "hae_onepoint_check", "prime_form_anomaly_check"),
    "virasoro": ("quantization_S", "virasoro_commutator_check", "virasoro_op"),
    "mirror": (
        "alpha",
        "appendix_identity_checks",
        "borwein_a",
        "borwein_c_cubed",
        "hyp2f1",
        "i_function_fjrw",
        "i_function_gw",
        "mirror_map_check",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    # An unknown name raises, so `from qmgw import cache` falls back to
    # importing the submodule.
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))


__all__ = ["__version__", *_SOURCE]
