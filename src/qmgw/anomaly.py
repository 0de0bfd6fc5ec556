"""Anomaly derivative on the generator ring and the one-point checks.

The anomaly operator is -24 times the formal partial derivative with
respect to the weight-2 generator (i.e. d/dC2 where C2 = -E2/24).  On the
prime form it acts as multiplication by -z^2, which closes the one-point
tower: the genus-g one-point function differentiates to the genus-(g-1)
one.  The same statement transports through the generator substitution to
the s-frame, and both directions are checked coefficientwise, the
s-frame side by two routes that share no code (`hae_onepoint_check`).

The full n-point anomaly equation involves non-stationary insertions and
is not implemented; only the one-point specialization is checked.
"""

from functools import lru_cache
from math import prod

from ._backend import conv_trunc
from .cayley import cayley_frame, fjrw_onepoint_all_genus
from .modular import QMPolynomial
from .rational import from_ints, scaled_ints
from .records import CheckReport
from .series import PowerSeries
from .theta import one_over_theta, prime_form


def d_dC2(p):
    """-24 * d/dE2 on a generator polynomial; a derivation, weight -2."""
    return QMPolynomial._from_ints(
        {(a - 1, b, c): -24 * a * v for (a, b, c), v in p.nums.items() if a},
        p.den,
    )


def _frame_substitution(polys, frame):
    """Each QMPolynomial of `polys` with the frame substituted for E2, E4
    and E6 monomial by monomial, as an s-series of the frame's order.

    The frame's series are scaled once to ints over their denominators,
    x_i = X_i / D_i; the powers X_i^e and the columns X4^b X6^c are
    `conv_trunc` products on ints.  A polynomial N/den with largest
    exponents A, B, C is summed over den D2^A D4^B D6^C and wrapped once.
    """
    n = frame.order
    scaled = [scaled_ints(x.coeffs) for x in frame]
    powers = [[[1] + [0] * n] for _ in scaled]

    def power(slot, e):
        row = powers[slot]
        while len(row) <= e:
            row.append(conv_trunc(row[-1], scaled[slot][0], n, 0))
        return row[e]

    columns, out = {}, []
    for p in polys:
        tops = [max((key[i] for key in p.nums), default=0) for i in range(3)]
        acc = [0] * (n + 1)
        for key, u in p.nums.items():
            if key[1:] not in columns:
                columns[key[1:]] = conv_trunc(power(1, key[1]), power(2, key[2]), n, 0)
            for (_, d), top, e in zip(scaled, tops, key):
                u *= d ** (top - e)
            term = conv_trunc(power(0, key[0]), columns[key[1:]], n, 0)
            acc = [x + u * y for x, y in zip(acc, term)]
        den = p.den * prod(d**top for (_, d), top in zip(scaled, tops))
        out.append(PowerSeries(frame.e2.var, from_ints(acc, den)))
    return out


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
    Cayley frame of order `s_order` (default max(12, 2 g_max)): the frame
    substituted into d/dC2 c_g by `_frame_substitution` equals the
    production transport of c_{g-1} (`_onepoint_transport`, the Horner of
    `qm_eval`).  The two routes share no code, so the rows see a fault in
    either; on equal polynomials one route twice would not.
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
    images = _frame_substitution(
        [d_dC2(cs[g]) for g in range(2, g_max + 1)], frame
    )
    for g, transported in enumerate(images, 2):
        ok = transported == _onepoint_transport(g - 1, s_order)
        report.add(
            f"s-frame side: transport of d/dC2 c_{g} = genus-{g - 1} series",
            ok,
        )
    return report
