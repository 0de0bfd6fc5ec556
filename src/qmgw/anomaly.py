"""Anomaly derivative on the generator ring and the one-point checks.

The anomaly operator is -24 times the formal partial derivative with
respect to the weight-2 generator (i.e. d/dC2 where C2 = -E2/24).  On the
prime form it acts as multiplication by -z^2, which closes the one-point
tower: the genus-g one-point function differentiates to the genus-(g-1)
one.  The same statement transports through the generator substitution to
the s-frame, and both directions are checked coefficientwise.

The full n-point anomaly equation involves non-stationary insertions and
is not implemented; only the one-point specialization is checked.
"""

from functools import lru_cache

from .cayley import cayley_frame, cayley_transform, fjrw_onepoint_all_genus
from .modular import QMPolynomial
from .records import CheckReport
from .theta import one_over_theta, prime_form


def d_dC2(p):
    """-24 * d/dE2 on a generator polynomial; a derivation, weight -2."""
    return QMPolynomial._from_ints(
        {(a - 1, b, c): -24 * a * v for (a, b, c), v in p.nums.items() if a},
        p.den,
    )


def prime_form_anomaly_check(z_order=9):
    """d/dC2 Theta(z) = -z^2 Theta(z), and the reciprocal counterpart."""
    report = CheckReport(f"prime-form anomaly, z-order {z_order}")
    theta = prime_form(z_order)
    oot = one_over_theta(z_order)
    for n in range(theta.start, theta.order + 1):
        lhs = d_dC2(theta.coefficient(n))
        rhs = -theta.coefficient(n - 2)
        report.add(
            f"d/dC2 Theta at z^{n}",
            lhs == rhs,
            "" if lhs == rhs else f"{lhs!r} != {rhs!r}",
        )
    for n in range(oot.start, oot.order + 1):
        lhs = d_dC2(oot.coefficient(n))
        rhs = oot.coefficient(n - 2)
        report.add(
            f"d/dC2 (1/Theta) at z^{n}",
            lhs == rhs,
            "" if lhs == rhs else f"{lhs!r} != {rhs!r}",
        )
    return report


@lru_cache(maxsize=None)
def _onepoint_transport(g, s_order):
    """fjrw_onepoint_all_genus(g, cayley_frame(s_order)), built once per
    run: the ladder's s-frame side and `verify fjrw` read the same one."""
    return fjrw_onepoint_all_genus(g, cayley_frame(s_order))


def hae_onepoint_check(g_max=7, s_order=None):
    """One-point anomaly ladder, curve side and transported s-frame side.

    Curve side: d/dC2 c_g = c_{g-1} for c_g the genus-g one-point
    function, every c_g read from one 1/Theta.  Transported side, on the
    Cayley frame of order `s_order` (default max(12, 2 g_max)): the Cayley
    image of the derivative equals the formal C2-derivative taken before
    transforming, evaluated via the frame (the transform respects the
    differential ring structure, so both orders must produce the same
    s-series).
    """
    if g_max < 2:
        raise ValueError("hae_onepoint_check needs g_max >= 2")
    report = CheckReport(f"one-point anomaly ladder, g <= {g_max}")
    if s_order is None:
        s_order = max(12, 2 * g_max)
    frame = cayley_frame(s_order)
    oot = one_over_theta(2 * g_max + 1)
    cs = [QMPolynomial.constant(1)] + [
        oot.coefficient(2 * g - 1) for g in range(1, g_max + 1)
    ]
    for g in range(1, g_max + 1):
        lhs = d_dC2(cs[g])
        ok = lhs == cs[g - 1]
        report.add(f"curve side: d/dC2 c_{g} = c_{g - 1}", ok)
    for g in range(2, g_max + 1):
        transported = cayley_transform(d_dC2(cs[g]), frame)
        direct = _onepoint_transport(g - 1, s_order)
        ok = transported == direct
        report.add(
            f"s-frame side: transport of d/dC2 c_{g} = genus-{g - 1} series",
            ok,
        )
    return report
