"""Prime form, Weierstrass sigma machinery and the one-point tower.

Everything lives in a rescaled odd variable z in which all coefficients are
rational polynomials in the generators.  The production route is the
classical a_{m,n} recursion: it gives the rescaled Weierstrass sigma

    sigma~(z) = sum a_{m,n}/(4m+6n+1)! (E4/24)^m (-E6/108)^n z^{4m+6n+1},

and the prime form is Theta(z) = exp(E2 z^2 / 24) * sigma~(z).  The same
object is also

    Theta(z) = z * exp( sum_{k>=1} B_{2k}/(2k (2k)!) * E_{2k} * z^{2k} ),

with E_{2k} for k >= 4 fitted into Q[E4, E6] from q-expansions; that
exponential is the second route `verify prime-form` checks the recursion
against, and log_theta_deriv reads its exponent.  The Laurent reciprocal
1/Theta is the one-point generating function, and its z^{2g-1}
coefficients are the genus-g one-point invariants; the b_{m,n} table
packages the reciprocal-sigma coefficients the same way.
"""

from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .errors import InconsistentTables, InvalidSeries
from .modular import E2, E4, E6, QMPolynomial, bernoulli, reduce_e2k
from .rational import ONE, ZERO, rat
from .series import D_DS, PowerSeries

QM_ZERO = QMPolynomial.zero()
QM_ONE = QMPolynomial.constant(ONE)


@lru_cache(maxsize=None)
def weierstrass_a(bound):
    """a_{m,n} for 4m + 6n <= bound, from the classical recursion

        a_{m,n} = 3(m+1) a_{m+1,n-1} + (16/3)(n+1) a_{m-2,n+1}
                  - (1/6)(4m+6n-1)(4m+6n-2) a_{m-1,n},
    a_{0,0} = 1, entries with a negative index vanishing.

    Filled in increasing total z-degree 4m + 6n, within which the first
    term refers to the same degree: the recursion is run in decreasing n
    so a_{m+1,n-1} is already known.  The cached table is returned
    read-only.
    """
    table = {(0, 0): ONE}

    def get(m, n):
        if m < 0 or n < 0:
            return ZERO
        return table.get((m, n), ZERO)

    for degree in range(2, bound + 1, 2):
        pairs = [
            (m, n)
            for n in range(degree // 6 + 1)
            for m in range(degree // 4 + 1)
            if 4 * m + 6 * n == degree
        ]
        for m, n in sorted(pairs, key=lambda p: -p[1]):
            w = 4 * m + 6 * n
            table[(m, n)] = (
                3 * (m + 1) * get(m + 1, n - 1)
                + rat(16, 3) * (n + 1) * get(m - 2, n + 1)
                - rat(1, 6) * (w - 1) * (w - 2) * get(m - 1, n)
            )
    return MappingProxyType(table)


def _qm_e4_e6_block(m, n):
    """(E4/24)^m * (-E6/108)^n as a QMPolynomial monomial."""
    c = rat(1, 24) ** m * rat(-1, 108) ** n
    return QMPolynomial({(0, m, n): c})


@lru_cache(maxsize=None)
def sigma_tilde(z_order):
    """Rescaled Weierstrass sigma from the a_{m,n} recursion:

        sigma~(z) = sum a_{m,n}/(4m+6n+1)! (E4/24)^m (-E6/108)^n z^{4m+6n+1}.

    Equals 2*pi*i times the classical sigma in the rescaled variable, so
    every coefficient is a rational polynomial in E4, E6 alone.
    """
    if z_order < 1:
        raise InvalidSeries("sigma_tilde needs z-order >= 1")
    table = weierstrass_a(z_order - 1)
    coeffs = [QM_ZERO] * z_order
    for (m, n), a in table.items():
        e = 4 * m + 6 * n
        if a:
            coeffs[e] = coeffs[e] + _qm_e4_e6_block(m, n) * (
                a / factorial(e + 1)
            )
    return PowerSeries("z", coeffs, 1)


@lru_cache(maxsize=None)
def b_table(bound):
    """b_{m,n} defined by 1/sigma~ = (1/z) sum b_{m,n} (E4/24)^m (-E6/108)^n z^{4m+6n}.

    Computed by Laurent reciprocal and coefficient matching; the matching
    must consume every monomial (anything left over signals a rescaling
    bug and raises).  The cached table is returned read-only.
    """
    recip = sigma_tilde(bound + 1).reciprocal()
    table = {}
    for degree in range(0, bound + 1, 2):
        coeff = recip.coefficient(degree - 1)
        remaining = dict(coeff.terms)
        for n in range(degree // 6 + 1):
            for m in range(degree // 4 + 1):
                if 4 * m + 6 * n != degree:
                    continue
                key = (0, m, n)
                c = remaining.pop(key, ZERO)
                table[(m, n)] = c * rat(24) ** m * rat(-108) ** n
        if remaining:
            raise InconsistentTables(
                f"1/sigma~ coefficient at z^{degree - 1} has monomials "
                f"outside the (E4/24, -E6/108) lattice: {sorted(remaining)}"
            )
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def prime_form(z_order):
    """Theta(z) = exp(E2 z^2/24) * sigma~(z)."""
    if z_order < 1:
        raise InvalidSeries("prime_form needs z-order >= 1")
    e2_exponent = [QM_ZERO] * z_order
    if z_order > 2:
        e2_exponent[2] = E2 * rat(1, 24)
    return PowerSeries("z", e2_exponent).exp() * sigma_tilde(z_order)


def prime_form_exponential(z_order):
    """Theta(z) = z exp(sum_{k>=1} B_{2k}/(2k(2k)!) E_{2k} z^{2k}).

    The second route to the prime form, through the fitted E_{2k}; verify
    and the tests compare it with prime_form.
    """
    body = log_theta_minus_log_z(z_order - 1).exp()
    return PowerSeries("z", body.coeffs, 1)


@lru_cache(maxsize=None)
def one_over_theta(z_order):
    """Laurent reciprocal of the prime form: the one-point tower |z^{2g-1}|."""
    return prime_form(z_order).reciprocal()


@lru_cache(maxsize=None)
def log_theta_minus_log_z(z_order):
    """ln Theta - ln z = sum_{k>=1} B_{2k}/(2k(2k)!) E_{2k} z^{2k}, dense."""
    coeffs = [QM_ZERO] * (z_order + 1)
    for k in range(1, z_order // 2 + 1):
        e2k = (E2, E4, E6)[k - 1] if k <= 3 else reduce_e2k(2 * k)
        coeffs[2 * k] = e2k * (bernoulli(2 * k) / (2 * k * factorial(2 * k)))
    return PowerSeries("z", coeffs)


def log_theta_deriv(m, z_order):
    """The m-th z-derivative of ln Theta (m >= 1); valuation -m.

    ln Theta = ln z + (even power series), so the derivative splits into
    (-1)^{m-1} (m-1)! z^{-m} plus the termwise derivative of the series.
    """
    if m < 1:
        raise InvalidSeries("log_theta_deriv needs m >= 1")
    body = log_theta_minus_log_z(z_order + m)
    for _ in range(m):
        body = body.derive(D_DS)
    coeffs = [QM_ZERO] * (z_order + m + 1)
    coeffs[0] = QMPolynomial.constant(rat((-1) ** (m - 1) * factorial(m - 1)))
    for n in range(-m + 1, z_order + 1):
        coeffs[n + m] = body.coefficient(n)
    return PowerSeries("z", coeffs, -m)


def onepoint_qm(g, z_order=None):
    """[z^{2g-1}] of 1/Theta: the genus-g one-point function, weight 2g."""
    if z_order is None:
        z_order = 2 * g + 1
    return one_over_theta(max(z_order, 2 * g + 1)).coefficient(2 * g - 1)


def onepoint_from_b(g):
    """The genus-g one-point function from the b-table, in Q[E2, E4, E6]:

        sum_{l+2m+3n=g} (b_{m,n}/l!) (-E2/24)^l (E4/24)^m (-E6/108)^n,

    one monomial E2^l E4^m E6^n per nonzero b_{m,n} with 4m + 6n <= 2g.
    """
    terms = {}
    for (m, n), b in b_table(2 * g).items():
        if b:
            l = g - 2 * m - 3 * n
            terms[(l, m, n)] = (
                b / factorial(l)
                * rat(-1, 24) ** l * rat(1, 24) ** m * rat(-1, 108) ** n
            )
    return QMPolynomial(terms)
