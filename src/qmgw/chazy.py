"""Chazy-equation machinery in both frames.

The same third-order ODE  2f''' - 2 f f'' + 3 (f')^2 = 0  governs the
genus-one building block of both theories: in the q-frame the primed
derivative is q d/dq and E2 solves it; in the s-frame the derivative is
plain d/ds and the formal solution is pinned by three initial terms.  The
genus-one FJRW series is -1/24 times the s-frame solution whose second
derivative is fixed by the initial three-insertion invariant.

The s-frame solution runs on ints.  The equation is invariant under the
scaling f -> lam f(lam s) (Clarkson and Olver, J. Differential Equations
124 (1996) 225-246), so with lam = 2 lcm(denominators of the initial
data) the Taylor coefficients B_k = lam^(k+1) f^(k)(0) of the scaled
solution are ints, and the equation becomes a recurrence on them with
binomial weights; each series coefficient is wrapped once as
B_k / (k! lam^(k+1)), and the genus-one invariants are read off the same
ints.

The residuals of this equation, of the boundary relation and of the
Ramanujan identities each run in one pass over ZZ, in the layout of
FLINT's fmpq_poly that `series` uses for products: the operands are
scaled once to integers over their least common denominator, f = F/D,
the primed derivatives are taken on the int lists (n F_n, the constant
dropped under d/ds), the products are convolved on ints and each
coefficient of the combination is wrapped once as a Fraction.  They take
power series over Q starting at exponent 0, and each residual keeps the
variable, start and order that the same formula in series operations
gives.
"""

from math import factorial, lcm
from operator import add, mul

from ._backend import conv_trunc
from .errors import InsufficientOrder, InvalidSeries
from .rational import ZERO, from_ints, rat, scaled_ints
# D_DS and THETA_Q are read from here too, as the two frames' derivatives
from .series import D_DS, THETA_Q, PowerSeries

#: the one nonzero primary genus-one invariant with three insertions,
#: consumed as an input constant.
THETA_1_3 = rat(1, 108)


def _numerators(name, mode, depth, *series):
    """([F, ...], D): the int numerators of `series` over their least
    common denominator D, each f = F/D.

    An unknown mode, a d/ds series too short for `depth` derivatives and
    series in different variables raise the errors of the series
    operations; anything but power series over Q starting at exponent 0
    raises InvalidSeries.
    """
    if mode not in (THETA_Q, D_DS):
        raise InvalidSeries(f"unknown derivative mode {mode!r}")
    for f in series:
        series[0]._check_var(f)
        if mode == D_DS and not f.start and f.order < depth:
            raise InsufficientOrder(
                f"d/d{f.var} of an order-0 series leaves nothing known",
                required=1,
            )
    scaled = scaled_ints([c for f in series for c in f.coeffs])
    if scaled is None or any(f.start for f in series):
        raise InvalidSeries(
            f"{name} needs power series over Q starting at exponent 0"
        )
    nums, den = scaled
    out, at = [], 0
    for f in series:
        out.append(nums[at : at + len(f.coeffs)])
        at += len(f.coeffs)
    return out, den


def _primed(nums, mode):
    """The primed derivative of an int list: n F_n, less the constant term
    under d/ds, as `PowerSeries.derive` takes it."""
    out = [n * c for n, c in enumerate(nums)]
    return out if mode == THETA_Q else out[1:]


def _chazy_terms(f, mode, name):
    """(F F'', F'^2, F''', D) on ints for f = F/D, each to the order the
    residuals are known to: f's order, less three under d/ds."""
    (nums,), den = _numerators(name, mode, 3, f)
    d1 = _primed(nums, mode)
    d2 = _primed(d1, mode)
    d3 = _primed(d2, mode)
    n = len(d3) - 1
    return conv_trunc(nums, d2, n, 0), conv_trunc(d1, d1, n, 0), d3, den


def chazy_residual(f, mode):
    """2f''' - 2 f f'' + 3 (f')^2 with the primed derivative of `mode`.

    With f = F/D, each coefficient of (2D F''' - 2 F F'' + 3 F'^2) / D^2
    is wrapped once.
    """
    ff2, f1f1, d3, den = _chazy_terms(f, mode, "chazy_residual")
    out = [2 * den * a - 2 * b + 3 * c for a, b, c in zip(d3, ff2, f1f1)]
    return PowerSeries(f.var, from_ints(out, den * den))


def bp_residual(g, mode):
    """(12/5) g g'' - (18/5) (g')^2 + (1/5) g'''/2.

    The boundary-relation combination; proportional to the Chazy residual
    of -24g:  chazy_residual(-24 g) = -480 * bp_residual(g).  With
    g = G/D, each coefficient of (24 G G'' - 36 G'^2 + D G''') / (10 D^2)
    is wrapped once.
    """
    gg2, g1g1, d3, den = _chazy_terms(g, mode, "bp_residual")
    out = [24 * b - 36 * c + den * a for a, b, c in zip(d3, gg2, g1g1)]
    return PowerSeries(g.var, from_ints(out, 10 * den * den))


def _ramanujan_residuals(e2, e4, e6, mode):
    """The Ramanujan residuals of (e2, e4, e6) under `mode`:

        e2' - (e2^2 - e4)/12,  e4' - (e2 e4 - e6)/3,  e6' - (e2 e6 - e4^2)/2,

    each known to the smallest order among its terms.  Over the common
    denominator D of the three, e_k = X_k/D, the rows are
    (12 D X2' - X2^2 + D X4) / (12 D^2), (3 D X4' - X2 X4 + D X6) / (3 D^2)
    and (2 D X6' - X2 X6 + X4^2) / (2 D^2), each coefficient wrapped once.
    """
    (x2, x4, x6), den = _numerators(
        "the Ramanujan residuals", mode, 1, e2, e4, e6
    )
    p2, p4, p6 = (_primed(x, mode) for x in (x2, x4, x6))
    n2 = min(len(p2), len(x4)) - 1
    n4 = min(len(p4), len(x2), len(x6)) - 1
    n6 = min(len(p6), len(x2), len(x4)) - 1
    rows = (
        (12, p2, conv_trunc(x2, x2, n2, 0), den, x4),
        (3, p4, conv_trunc(x2, x4, n4, 0), den, x6),
        (2, p6, conv_trunc(x2, x6, n6, 0), 1, conv_trunc(x4, x4, n6, 0)),
    )
    out = []
    for scale, prime, prod, m, tail in rows:
        sd = scale * den
        nums = [sd * p - q + m * t for p, q, t in zip(prime, prod, tail)]
        out.append(PowerSeries(e2.var, from_ints(nums, sd * den)))
    return tuple(out)


def _chazy_taylor(init, order):
    """(B, lam): the Taylor coefficients b_k = f^(k)(0), k <= order, of
    the s-frame solution with initial data `init`, as the ints
    B_k = lam^(k+1) b_k with lam = 2 lcm(denominators of `init`).

    B is the Taylor sequence of lam f(lam s), which solves the equation
    too and starts from ints, so that
        2 B_{k+3} = sum_i C(k, i) (2 B_i B_{k+2-i} - 3 B_{i+1} B_{k+1-i});
    the sum is even, since the -3 terms pair up under i <-> k - i,
    C(k, k/2) is even for k >= 2 and B_1 is even.
    """
    f0, f1, f2 = (rat(x) for x in init)
    lam = 2 * lcm(f0.denominator, f1.denominator, f2.denominator)
    B = [int(x * lam ** (i + 1)) for i, x in enumerate((f0, f1, f2))]
    row = [1]  # C(k, 0..k)
    for k in range(order - 2):
        p = sum(map(mul, map(mul, row, B), B[k + 2 : 1 : -1]))
        q = sum(map(mul, map(mul, row, B[1:]), B[k + 1 : 0 : -1]))
        B.append((2 * p - 3 * q) >> 1)
        row = [1, *map(add, row, row[1:]), 1]
    return B, lam


def chazy_solve_s(init, order):
    """The unique formal solution in s with initial data
    `init` = (f(0), f'(0), f''(0)), to s^order.

    The recurrence runs on the ints B_k = lam^(k+1) f^(k)(0) of
    `_chazy_taylor`, and each coefficient is wrapped once as
    a_k = B_k / (k! lam^(k+1)).
    """
    if order < 2:
        raise InvalidSeries("chazy_solve_s needs order >= 2")
    B, lam = _chazy_taylor(init, order)
    return PowerSeries(
        "s", [rat(b, factorial(k) * lam ** (k + 1)) for k, b in enumerate(B)]
    )


def genus_one_initial_data():
    """Initial triple for f = -24 <<phi>> built from the input invariant.

    <<phi>>(s) = sum_m s^m/m! * Theta_{1,m+1} with Theta_{1,1} and
    Theta_{1,2} zero, so f(0) = f'(0) = 0 and f''(0) = -24 * Theta_{1,3}.
    """
    return ZERO, ZERO, -24 * THETA_1_3


def fjrw_genus1_series(order):
    """<<phi>>_{1,1}(s) = -1/24 of the s-frame Chazy solution."""
    if order < 2:
        raise InvalidSeries("fjrw_genus1_series needs order >= 2")
    f = chazy_solve_s(genus_one_initial_data(), order)
    return f * rat(-1, 24)


def fjrw_primary_genus1_invariants(max_n):
    """(n, Theta_{1,n}) for n = 1..max_n, read off the ints of the
    genus-one solution: Theta_{1,m+1} = m! [s^m] (-f/24) =
    -B_m / (24 lam^(m+1)) with B_m = lam^(m+1) f^(m)(0)."""
    B, lam = _chazy_taylor(genus_one_initial_data(), max_n - 1)
    return [(m + 1, rat(-B[m], 24 * lam ** (m + 1))) for m in range(max_n)]
