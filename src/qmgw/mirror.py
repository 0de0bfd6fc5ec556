"""Level-3 theta quotients, hypergeometric series and the mirror map.

The lattice sum A, the eta-quotient cube C^3 and the hauptmodul
alpha = C^3/A^3 tie the generator ring to the Gauss hypergeometric frame:
A = 2F1(1/3, 2/3; 1; alpha).  The identity battery checks the classical
relations between A, alpha, E2(q) and E2(q^3) as exact q-series; the
I-function block builds the geometric and cubic-pair hypergeometric
solutions and inverts the flat coordinate to locate alpha among the
series reversion of the mirror map.
"""

from math import isqrt

from .errors import InsufficientOrder, InvalidSeries
from .modular import eisenstein, euler_function
from .rational import ONE, ZERO, rat, scaled_ints
from .records import CheckReport
from .series import THETA_Q, PowerSeries


def hyp2f1(params, order):
    """2F1(a, b; c; x) = sum (a)_l (b)_l / ((c)_l l!) x^l, truncated;
    `params` = (a, b, c)."""
    a, b, c = map(rat, params)
    coeffs = [ONE]
    term = ONE
    for l in range(order):
        den = (c + l) * (l + 1)
        if not den:
            raise InvalidSeries(
                f"lower parameter pole at l = {l} (c = {c})"
            )
        term = term * (a + l) * (b + l) / den
        coeffs.append(term)
    return PowerSeries("x", coeffs)


def borwein_a(order):
    """A(q) = sum over the integer lattice of q^(m^2 + m n + n^2)."""
    if order < 1:
        raise InvalidSeries("borwein_a needs order >= 1")
    counts = [0] * (order + 1)
    # 4(m^2+mn+n^2) = (2m+n)^2 + 3n^2 bounds both indices
    bound = isqrt(4 * order // 3) + 1
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            val = m * m + m * n + n * n
            if val <= order:
                counts[val] += 1
    return PowerSeries("q", [rat(c) for c in counts])


def borwein_c_cubed(order):
    """C^3(q) = 27 q (q^3; q^3)_inf^9 / (q; q)_inf^3 (integral q-powers)."""
    if order < 1:
        raise InvalidSeries("borwein_c_cubed needs order >= 1")
    ef = euler_function(order)
    cubed_frame = ef.subst_power(3)
    numerator = cubed_frame ** 9
    return 27 * (numerator * ef.reciprocal() ** 3).shift(1)


def alpha(order):
    """alpha = C^3 / A^3; valuation 1, leading coefficient 27."""
    a3 = borwein_a(order) ** 3
    return borwein_c_cubed(order) * a3.reciprocal()


def _theta_log(f):
    """q dlog of a series with unit constant term."""
    return f.derive(THETA_Q) * f.reciprocal()


def appendix_identity_checks(order=12):
    """The five exact q-series identities tying A, alpha and E2 together.

    (i)   A^2 = (3 E2(q^3) - E2(q)) / 2
    (ii)  theta_q alpha = alpha (1 - alpha) A^2
    (iii) E2 = 12 theta_q log A - (4 alpha - 1) A^2
    (iv)  E = 6 theta_q log A - (2C^3 - A^3)/A,  E = (3 E2(q^3) + E2(q))/4
    (v)   -E2(q^3)/8 = theta_q( -log(A)/2 ) - (3 theta_q alpha / alpha
                        + theta_q(1-alpha)/(1-alpha)) / 24
    """
    return _appendix_checks(order)[0]


def _appendix_checks(order):
    """(appendix_identity_checks(order), the alpha it built): A, C^3 and
    A^3 are built once, and alpha from them."""
    if order < 12:
        raise InsufficientOrder(
            "identity battery needs order >= 12", required=12
        )
    report = CheckReport(f"theta-quotient identities, q-order {order}")
    a = borwein_a(order)
    c3 = borwein_c_cubed(order)
    a3 = a ** 3
    al = c3 * a3.reciprocal()
    e2 = eisenstein(2, order)
    e2_q3 = e2.subst_power(3)
    a2 = a * a
    inv_a = a.reciprocal()
    theta_log_a = a.derive(THETA_Q) * inv_a

    def record(name, lhs, rhs):
        diff = lhs - rhs
        if diff.is_zero():
            report.add(name, True)
        else:
            bad = diff.valuation()
            report.add(
                name,
                False,
                f"first failing coefficient at q^{bad}: "
                f"{lhs.coefficient(bad)} != {rhs.coefficient(bad)}",
            )

    record("(i) A^2 = (3 E2(q^3) - E2(q))/2", a2, (3 * e2_q3 - e2) * rat(1, 2))
    record(
        "(ii) theta_q alpha = alpha (1 - alpha) A^2",
        al.derive(THETA_Q),
        al * (1 - al) * a2,
    )
    record(
        "(iii) E2 = 12 theta_q log A - (4 alpha - 1) A^2",
        e2,
        12 * theta_log_a - (4 * al - 1) * a2,
    )
    e_series = (3 * e2_q3 + e2) * rat(1, 4)
    record(
        "(iv) E = 6 theta_q log A - (2C^3 - A^3)/A",
        e_series,
        6 * theta_log_a - (2 * c3 - a3) * inv_a,
    )
    # theta_q log alpha = theta_q alpha / alpha handles the q-valuation
    dlog_alpha = al.derive(THETA_Q).divide(al)
    record(
        "(v) -E2(q^3)/8 = theta_q(-log A/2 - log(alpha^3 (1-alpha))/24)",
        e2_q3 * rat(-1, 8),
        theta_log_a * rat(-1, 2)
        - (3 * dlog_alpha + _theta_log(1 - al)) * rat(1, 24),
    )
    record(
        "A = 2F1(1/3, 2/3; 1; alpha)",
        a,
        hyp2f1((rat(1, 3), rat(2, 3), ONE), order).compose(al),
    )
    return report, al


def i_function_gw(order):
    """Geometric-side hypergeometric block.

    Returns (I0, I1_nonlog): I0 = sum (3d)!/(d!)^3 x^d and the non-log part
    of I1 = I0 log x + I1_nonlog, with
    I1_nonlog = sum (3d)!/(d!)^3 * 3 * sum_{k=d+1}^{3d} 1/k * x^d.
    The formal log x is kept separate by the caller.
    """
    if order < 1:
        raise InvalidSeries("i_function_gw needs order >= 1")
    i0 = [ONE]
    i1 = [ZERO]
    fac = ONE
    harm = ZERO  # sum_{k=d+1}^{3d} 1/k, updated from d - 1 to d
    for d in range(1, order + 1):
        fac = fac * (3 * d) * (3 * d - 1) * (3 * d - 2) / (d ** 3)
        i0.append(fac)
        harm += rat(1, 3 * d - 2) + rat(1, 3 * d - 1) + rat(1, 3 * d)
        harm -= rat(1, d)
        i1.append(fac * 3 * harm)
    return PowerSeries("x", i0), PowerSeries("x", i1)


def i_function_fjrw(order):
    """Cubic-pair hypergeometric block in the flat variable t.

    I0 = sum_l ((1/3)_l)^3 t^(1+3l) / (1)_{3l},
    I1 = sum_l ((2/3)_l)^3 t^(2+3l) / (2)_{3l}.
    """
    if order < 2:
        raise InvalidSeries("i_function_fjrw needs order >= 2")
    c0 = [ZERO] * (order + 1)
    c1 = [ZERO] * (order + 1)
    poch13 = poch23 = ONE
    poch_1 = poch_2 = 1  # (1)_{3l} = (3l)! and (2)_{3l}
    # every l with 1 + 3l <= order; 2 + 3l may pass order at the last one
    for l in range((order - 1) // 3 + 1):
        c0[1 + 3 * l] = poch13**3 / poch_1
        if 2 + 3 * l <= order:
            c1[2 + 3 * l] = poch23**3 / poch_2
        poch13 *= rat(1, 3) + l
        poch23 *= rat(2, 3) + l
        for j in range(3 * l, 3 * l + 3):
            poch_1 *= 1 + j
            poch_2 *= 2 + j
    return PowerSeries("t", c0), PowerSeries("t", c1)


def mirror_map_series(order):
    """q(x) = x exp(I1_nonlog / I0), the exponentiated flat coordinate."""
    i0, i1 = i_function_gw(order)
    return (i1.divide(i0)).exp().shift(1)


def revert_series(f):
    """Compositional inverse g of f = x + O(x^2) over Q, by Lagrange
    inversion:

        [q^k] g = (1/k) [x^(k-1)] (x/f)^k.

    With h = x/f (h_0 = 1), each power p = h^k is read only up to x^(k-1),
    from Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):

        p_0 = 1,  p_m = (1/m) sum_{i=1}^{m} ((k+1) i - m) h_i p_{m-i},

    so power k costs about k^2/2 coefficient products, n^3/6 in all.  They
    run on ints: with h = H/E over the common denominator E,
    P_m = m! E^m p_m satisfies

        P_0 = 1,  P_m = sum_{i=1}^{m} ((k+1) i - m) H_i E^(i-1)
                        (m-1)!/(m-i)! P_{m-i},

    and [q^k] g = P_{k-1} / (k! E^(k-1)) is wrapped once.
    """
    if f.start or f.coefficient(0) or f.coefficient(1) != ONE:
        raise InvalidSeries("reversion needs f = x + O(x^2)")
    scaled = scaled_ints(PowerSeries(f.var, f.coeffs[1:]).reciprocal().coeffs)
    if scaled is None:
        raise InvalidSeries("reversion needs a series over Q")
    nums, e = scaled
    weights = [0]  # H_i E^(i-1)
    power = 1
    for hi in nums[1:]:
        weights.append(hi * power)
        power *= e
    g = [ZERO]
    scale = 1  # k! E^(k-1)
    for k in range(1, f.order + 1):
        p = [1]
        for m in range(1, k):
            acc = 0
            falling = 1  # (m-1)!/(m-i)!
            for i in range(1, m + 1):
                w = weights[i]
                if w:
                    acc += ((k + 1) * i - m) * falling * w * p[m - i]
                falling *= m - i
            p.append(acc)
        g.append(rat(p[k - 1], scale))
        scale *= (k + 1) * e
    return PowerSeries(f.var, g)


def mirror_map_check(order=10):
    """Invert the mirror map and locate alpha: expect 27 x(q) = alpha(q).

    On failure the report tries to identify a uniform rescaling q -> λ q
    relating the two series and states the detected λ instead of failing
    silently.
    """
    if order < 10:
        raise InsufficientOrder("mirror_map_check needs order >= 10", required=10)
    return _mirror_map_report(order, alpha(order))


def _mirror_map_report(order, al):
    """mirror_map_check(order) against `al`, alpha to order >= `order`."""
    report = CheckReport(f"mirror map vs hauptmodul, order {order}")
    qx = mirror_map_series(order)
    xq = revert_series(qx.retag("q"))
    candidate = 27 * xq
    if candidate == al.truncate(candidate.order):
        report.add(
            "27 x(q) = alpha(q)", True, "relation holds on the nose"
        )
        return report
    # look for alpha(q) = 27 x(lambda q)
    lam = None
    if candidate.coefficient(1) and al.coefficient(1):
        lam = al.coefficient(1) / candidate.coefficient(1)
    if lam:
        rescaled = PowerSeries(
            "q",
            [c * lam ** n for n, c in enumerate(candidate.coeffs)],
        )
        if rescaled == al.truncate(rescaled.order):
            report.add(
                "27 x(q) = alpha(q)",
                False,
                f"holds only after rescaling q -> ({lam}) q",
            )
            return report
    diff = candidate - al.truncate(candidate.order)
    report.add(
        "27 x(q) = alpha(q)",
        False,
        f"first mismatch at q^{diff.valuation()}",
    )
    return report


def i_function_identity_checks(order=12):
    """Pochhammer-route identities for both hypergeometric blocks."""
    report = CheckReport(f"I-function hypergeometric identities, order {order}")
    i0_gw, i1_gw = i_function_gw(order)
    f = hyp2f1((rat(1, 3), rat(2, 3), ONE), order)
    scaled = PowerSeries(
        "x", [c * rat(27) ** n for n, c in enumerate(f.coeffs)]
    )
    report.add("I0_gw(x) = 2F1(1/3,2/3;1;27x)", i0_gw == scaled)
    i0_f, i1_f = i_function_fjrw(order)
    g = hyp2f1((rat(1, 3), rat(1, 3), rat(2, 3)), order // 3)
    expanded = [ZERO] * (order + 1)
    for n in range(g.order + 1):
        e = 1 + 3 * n
        if e <= order:
            expanded[e] = g.coefficient(n) / rat(27) ** n
    report.add(
        "I0_fjrw(t) = t 2F1(1/3,1/3;2/3;t^3/27)",
        i0_f == PowerSeries("t", expanded),
    )
    report.add(
        "I1_fjrw leading term t^2", i1_f.coefficient(2) == ONE
    )
    return report
