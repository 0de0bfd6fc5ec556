"""Chazy-equation machinery in both frames.

The same third-order ODE  2f''' - 2 f f'' + 3 (f')^2 = 0  governs the
genus-one building block of both theories: in the q-frame the primed
derivative is q d/dq and E2 solves it; in the s-frame the derivative is
plain d/ds and the formal solution is pinned by three initial terms.  The
genus-one FJRW series is -1/24 times the s-frame solution whose second
derivative is fixed by the initial three-insertion invariant.
"""

from dataclasses import dataclass

from .errors import InvalidSeries
from .rational import ZERO, rat
from .series import D_DS, DERIVE_MODES, THETA_Q, PowerSeries

#: the one nonzero primary genus-one invariant with three insertions,
#: consumed as an input constant.
THETA_1_3 = rat(1, 108)


@dataclass(frozen=True)
class ChazyInitialData:
    """f(0), f'(0), f''(0) of a formal s-frame solution."""

    f0: object
    f1: object
    f2: object


def chazy_residual(f, mode):
    """2f''' - 2 f f'' + 3 (f')^2 with the primed derivative of `mode`."""
    if mode not in DERIVE_MODES:
        raise InvalidSeries(f"unknown derivative mode {mode!r}")
    d1 = f.derive(mode)
    d2 = d1.derive(mode)
    d3 = d2.derive(mode)
    return 2 * d3 - 2 * (f * d2) + 3 * (d1 * d1)


def bp_residual(g, mode):
    """(12/5) g g'' - (18/5) (g')^2 + (1/5) g'''/2.

    The boundary-relation combination; proportional to the Chazy residual
    of -24g:  chazy_residual(-24 g) = -480 * bp_residual(g).
    """
    if mode not in DERIVE_MODES:
        raise InvalidSeries(f"unknown derivative mode {mode!r}")
    d1 = g.derive(mode)
    d2 = d1.derive(mode)
    d3 = d2.derive(mode)
    return (
        rat(12, 5) * (g * d2)
        - rat(18, 5) * (d1 * d1)
        + rat(1, 10) * d3
    )


def chazy_solve_s(init, order):
    """The unique formal solution in s with the given initial data.

    a0 = f(0), a1 = f'(0), a2 = f''(0)/2, and for k >= 0
        2 (k+1)(k+2)(k+3) a_{k+3} = [s^k] (2 f f'' - 3 (f')^2),
    which only involves a_0..a_{k+2}.
    """
    if order < 2:
        raise InvalidSeries("chazy_solve_s needs order >= 2")
    if not isinstance(init, ChazyInitialData):
        init = ChazyInitialData(*init)
    a = [rat(init.f0), rat(init.f1), rat(init.f2) / 2]
    for k in range(order - 2):
        # [s^k] of 2 f f'':  f_i * (j+2)(j+1) f_{j+2} over i + j = k
        acc = ZERO
        for i in range(k + 1):
            j = k - i
            if a[i] and a[j + 2]:
                acc += 2 * a[i] * ((j + 1) * (j + 2) * a[j + 2])
        # [s^k] of -3 (f')^2: (i+1) f_{i+1} * (j+1) f_{j+1} over i + j = k
        for i in range(k + 1):
            j = k - i
            if a[i + 1] and a[j + 1]:
                acc -= 3 * ((i + 1) * a[i + 1]) * ((j + 1) * a[j + 1])
        a.append(acc / (2 * (k + 1) * (k + 2) * (k + 3)))
    return PowerSeries("s", a[: order + 1])


def genus_one_initial_data(theta_1_3=THETA_1_3):
    """Initial triple for f = -24 <<phi>> built from the input invariant.

    <<phi>>(s) = sum_m s^m/m! * Theta_{1,m+1} with Theta_{1,1} and
    Theta_{1,2} zero, so f(0) = f'(0) = 0 and f''(0) = -24 * Theta_{1,3}.
    """
    return ChazyInitialData(ZERO, ZERO, -24 * rat(theta_1_3))


def fjrw_genus1_series(order, theta_1_3=THETA_1_3):
    """<<phi>>_{1,1}(s) = -1/24 of the s-frame Chazy solution."""
    if order < 2:
        raise InvalidSeries("fjrw_genus1_series needs order >= 2")
    f = chazy_solve_s(genus_one_initial_data(theta_1_3), order)
    return f * rat(-1, 24)


__all__ = [
    "ChazyInitialData",
    "THETA_1_3",
    "chazy_residual",
    "bp_residual",
    "chazy_solve_s",
    "genus_one_initial_data",
    "fjrw_genus1_series",
    "THETA_Q",
    "D_DS",
]
