"""Exact-rational computation of quasi-modular Gromov-Witten generating
functions for the elliptic curve and their FJRW counterparts for the
Fermat cubic pair, with verification suites for the differential-ring,
anomaly-equation and operator-algebra structure tying the two together.
"""

import sys
from importlib import import_module
from types import ModuleType

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
    "npoint": (
        "connected_from_disconnected",
        "connected_stationary",
        "npoint",
        "stationary_invariant",
    ),
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


class _Package(ModuleType):
    """Keeps `qmgw.npoint` the function: importing the submodule of that
    name binds the module onto the package, in whatever order it happens."""

    def __setattr__(self, name, value):
        if name == "npoint" and isinstance(value, ModuleType):
            value = value.npoint
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = ["__version__", *_SOURCE]
