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
coefficients are the genus-g one-point invariants.  Every one-point
value is served from the b_{m,n} table of reciprocal-sigma coefficients,
the a-table's inverse on the (m, n) lattice, by `onepoint_from_b`; the
reciprocal of Theta (`onepoint_qm`) is the check route.  Entry (m, n) of
either table reads only entries of lower or equal degree, so each table
is grown degree by degree from where it stopped, and a bound is served
as a read-only copy of the entries up to it.  The same holds for the
z-coefficients: sigma~/z, Theta/z = sum_j (E2/24)^j / j! z^{2j} sigma~/z
and z/Theta = 1/(Theta/z) each read only coefficients of lower or equal
index, so the three grow together, coefficient by coefficient from where
they stopped, and each z-order of `sigma_tilde`, `prime_form` and
`one_over_theta` is a tuple prefix of them.
"""

from functools import lru_cache
from math import factorial
from threading import Lock
from types import MappingProxyType, SimpleNamespace

from .errors import InvalidSeries
from .modular import E2, E4, E6, QMPolynomial, bernoulli, reduce_e2k
from .rational import ONE, ZERO, rat
from .series import D_DS, PowerSeries, _reciprocal_loop

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
    so a_{m+1,n-1} is already known.  Served read-only from the grown
    table (`_grown`).
    """
    if bound < 0:
        raise InvalidSeries("table bound must be >= 0")

    def fill(state, degree):
        table = state.table
        for m, n in _lattice(degree):
            table[(m, n)] = (
                3 * (m + 1) * table.get((m + 1, n - 1), ZERO)
                + rat(16, 3) * (n + 1) * table.get((m - 2, n + 1), ZERO)
                - rat(1, 6) * (degree - 1) * (degree - 2)
                * table.get((m - 1, n), ZERO)
            )

    return _grown_view("a", bound, fill)


def _lattice(degree):
    """The (m, n) with 4m + 6n = degree, in decreasing n."""
    return [
        ((degree - 6 * n) // 4, n)
        for n in range(degree // 6, -1, -1)
        if (degree - 6 * n) % 4 == 0
    ]


@lru_cache(maxsize=None)
def _grown(name):
    """The grown table `name` ("a" or "b"): its entries through degree
    `top` in increasing 4m + 6n and decreasing n within a degree, the
    b-recursion's `weighted` a-entries, and the lock it grows under.
    Reached through an lru_cache, so clearing every lru_cache of the
    package empties it."""
    return SimpleNamespace(
        top=0, table={(0, 0): ONE}, weighted=[], lock=Lock()
    )


def _grown_view(name, bound, fill):
    """A read-only copy of the entries 4m + 6n <= bound of the grown table
    `name`, after fill(state, degree) has added those of each degree
    above the filled one; entries once filled never change."""
    state = _grown(name)
    with state.lock:
        for degree in range(state.top + 1, bound + 1):
            fill(state, degree)
        state.top = max(state.top, bound)
        return MappingProxyType(
            {
                (m, n): v
                for (m, n), v in state.table.items()
                if 4 * m + 6 * n <= bound
            }
        )


def _qm_e4_e6_block(m, n):
    """(E4/24)^m * (-E6/108)^n as a QMPolynomial monomial."""
    c = rat(1, 24) ** m * rat(-1, 108) ** n
    return QMPolynomial({(0, m, n): c})


@lru_cache(maxsize=None)
def sigma_tilde(z_order):
    """Rescaled Weierstrass sigma from the a_{m,n} recursion:

        sigma~(z) = sum a_{m,n}/(4m+6n+1)! (E4/24)^m (-E6/108)^n z^{4m+6n+1}.

    Equals 2*pi*i times the classical sigma in the rescaled variable, so
    every coefficient is a rational polynomial in E4, E6 alone.  Served
    from the grown tower (`_tower`).
    """
    return _tower_series("sigma", z_order, 1)


@lru_cache(maxsize=None)
def b_table(bound):
    """b_{m,n} defined by 1/sigma~ = (1/z) sum b_{m,n} (E4/24)^m (-E6/108)^n z^{4m+6n}.

    sigma~ * (1/sigma~) = 1 holds monomial by monomial in (E4/24, -E6/108),
    so the table is the inverse of the weighted a-table on the (m, n)
    lattice: b_{0,0} = 1 and, for (m, n) != (0, 0),

        b_{m,n} = -sum a_{i,j}/(4i+6j+1)! b_{m-i,n-j}

    over (0, 0) != (i, j) <= (m, n), filled in increasing 4m + 6n; each
    degree first adds its own weighted a-entries.  Served read-only from
    the grown table (`_grown`).
    """
    a = weierstrass_a(bound)

    def fill(state, degree):
        table, weighted = state.table, state.weighted
        lattice = _lattice(degree)
        weighted += [
            (i, j, a[(i, j)] / factorial(degree + 1))
            for i, j in lattice
            if a[(i, j)]
        ]
        for m, n in lattice:
            table[(m, n)] = -sum(
                w * table[(m - i, n - j)]
                for i, j, w in weighted
                if i <= m and j <= n
            )

    return _grown_view("b", bound, fill)


@lru_cache(maxsize=None)
def _tower():
    """The grown prime-form tower: the z-coefficients of sigma~/z, Theta/z
    and z/Theta known so far, each list a prefix of the series, and the
    lock they grow under.  Reached through an lru_cache, so clearing every
    lru_cache of the package empties it."""
    return SimpleNamespace(sigma=[], theta=[], recip=[], lock=Lock())


def _tower_series(name, z_order, start):
    """z^start times the first z_order coefficients of the grown series
    `name` ("sigma", "theta" or "recip"), over a tuple prefix of the
    tower, after each series it reads has computed the coefficients it
    lacks; coefficients once computed never change.

        sigma~/z at z^e  sum_{4m+6n=e} a_{m,n}/(e+1)! (E4/24)^m (-E6/108)^n
        Theta/z at z^k   sum_j (E2/24)^j / j! [sigma~/z at z^{k-2j}]
        z/Theta          R_0 = 1, R_k = -sum_{i=1}^{k} [Theta/z at z^i] R_{k-i}

    Theta/z has constant term 1, so z/Theta is the reciprocal recurrence
    on its coefficients as they are.
    """
    if z_order < 1:
        who = "sigma_tilde" if name == "sigma" else "prime_form"
        raise InvalidSeries(f"{who} needs z-order >= 1")
    state = _tower()
    with state.lock:
        sigma, theta = state.sigma, state.theta
        if len(sigma) < z_order:
            a = weierstrass_a(z_order - 1)
            sigma += [
                sum(
                    (
                        _qm_e4_e6_block(m, n) * (a[(m, n)] / factorial(e + 1))
                        for m, n in _lattice(e)
                        if a[(m, n)]
                    ),
                    QM_ZERO,
                )
                for e in range(len(sigma), z_order)
            ]
        if name != "sigma" and len(theta) < z_order:
            e2 = [  # (E2/24)^j / j!
                QMPolynomial({(j, 0, 0): rat(1, 24**j * factorial(j))})
                for j in range((z_order + 1) // 2)
            ]
            theta += [
                sum(
                    (e2[j] * sigma[k - 2 * j] for j in range(k // 2 + 1)),
                    QM_ZERO,
                )
                for k in range(len(theta), z_order)
            ]
        if name == "recip":
            _reciprocal_loop(theta[:z_order], QM_ZERO, state.recip)
        coeffs = tuple(getattr(state, name)[:z_order])
    return PowerSeries("z", coeffs, start)


@lru_cache(maxsize=None)
def prime_form(z_order):
    """Theta(z) = exp(E2 z^2/24) * sigma~(z), from the grown tower."""
    return _tower_series("theta", z_order, 1)


def prime_form_exponential(z_order):
    """Theta(z) = z exp(sum_{k>=1} B_{2k}/(2k(2k)!) E_{2k} z^{2k}).

    The second route to the prime form, through the fitted E_{2k}; verify
    and the tests compare it with prime_form.
    """
    body = log_theta_minus_log_z(z_order - 1).exp()
    return PowerSeries("z", body.coeffs, 1)


@lru_cache(maxsize=None)
def one_over_theta(z_order):
    """Laurent reciprocal of the prime form: the one-point tower |z^{2g-1}|,
    known to order z_order - 2, from the grown tower."""
    return _tower_series("recip", z_order, -1)


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
    """[z^{2g-1}] of 1/Theta, weight 2g: the check route of onepoint_from_b."""
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
