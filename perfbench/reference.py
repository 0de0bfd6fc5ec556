"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ``qmgw``.  Stationary invariants of the elliptic curve
come from the GW/Hurwitz correspondence (Okounkov-Pandharipande, "Gromov-
Witten theory, Hurwitz theory, and completed cycles", math/0204305): the
disconnected invariant with psi-powers l_i is the q-bracket
(Bloch-Okounkov, alg-geom/9712009)

    < prod_i p_{l_i+2}(lam) / (l_i+1)! >_q
        = sum_lam f(lam) q^|lam| / sum_lam q^|lam|,

    p_k(lam) = sum_i [(lam_i-i+1/2)^{k-1} - (-i+1/2)^{k-1}]
               + (1-2^{1-k}) zeta(1-k),

summed over a cached table of partitions with exact ``Fraction`` values.
A leg with psi-power -2 reads the z^{-1} coefficient of the generating
function  sum_k p_k z^{k-1}/(k-1)!, which is 1 for every partition, so it
contributes the factor 1.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def bernoulli(n):
    """B_n with B_1 = -1/2 (only even n >= 2 are used)."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


def divisor_sum(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def eisenstein_coefficients(k, order):
    """E_k = 1 - (2k/B_k) sum_n sigma_{k-1}(n) q^n, through q^order."""
    factor = Fraction(2 * k) / bernoulli(k)
    return [Fraction(1)] + [
        -factor * divisor_sum(k - 1, n) for n in range(1, order + 1)
    ]


def weight_dimension(w):
    """Number of monomials E2^a E4^b E6^c of weight w."""
    if w < 0 or w % 2:
        return 0
    return sum(
        1
        for c in range(w // 6 + 1)
        for b in range((w - 6 * c) // 4 + 1)
    )


@lru_cache(maxsize=None)
def _partitions_of(n, largest):
    if n == 0:
        return ((),)
    out = []
    for k in range(min(n, largest), 0, -1):
        out.extend((k,) + rest for rest in _partitions_of(n - k, k))
    return tuple(out)


@lru_cache(maxsize=None)
def frobenius_table(n):
    """Frobenius coordinates (a_j, b_j) of every partition of n.

    The sets {lam_i - i + 1/2} and {-i + 1/2} differ exactly by the
    {a_j + 1/2} and {-(b_j + 1/2)}, so the sum defining p_k runs over the
    Durfee square only.
    """
    out = []
    for lam in _partitions_of(n, n):
        conj = [sum(1 for part in lam if part > i) for i in range(lam[0])] if lam else []
        d = sum(1 for i, part in enumerate(lam) if part > i)
        out.append(
            tuple((lam[j] - j - 1, conj[j] - j - 1) for j in range(d))
        )
    return tuple(out)


def _p_times_power(frob, k):
    """2^{k-1} * p_k(lam) without its constant, as an integer."""
    e = k - 1
    return sum((2 * a + 1) ** e - (-2 * b - 1) ** e for a, b in frob)


def _p_constant(k):
    """2^{k-1} (1 - 2^{1-k}) zeta(1-k), with zeta(1-k) = -B_k/k for k >= 2."""
    return (2 ** (k - 1) - 1) * (-bernoulli(k) / k)


def _series_mul(a, b, order):
    return [
        sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)
    ]


@lru_cache(maxsize=None)
def _euler_product(order):
    """prod_{n>=1} (1 - q^n) through q^order, the inverse of sum q^|lam|."""
    out = [0] * (order + 1)
    out[0] = 1
    for m in range(1, order + 1):
        for i in range(order, m - 1, -1):
            out[i] -= out[i - m]
    return tuple(out)


@lru_cache(maxsize=None)
def bracket(legs, order):
    """Disconnected stationary invariant for psi-powers `legs` (each
    l >= 0 or l == -2) as q-series coefficients 0..order."""
    legs = tuple(sorted(legs))
    if any(l < 0 and l != -2 for l in legs):
        raise ValueError(f"reference covers psi-powers >= 0 and -2, got {legs}")
    # p_k/(k-1)! = (den*P + num) / (den * 2^{k-1} (k-1)!) with P integer:
    # the sum runs on integers and divides once per q-power.
    ks = [l + 2 for l in legs if l >= 0]
    consts = [_p_constant(k) for k in ks]
    scale = Fraction(1)
    for k, c in zip(ks, consts):
        scale /= c.denominator * 2 ** (k - 1) * factorial(k - 1)
    numerator = []
    for n in range(order + 1):
        total = 0
        for frob in frobenius_table(n):
            f = 1
            for k, c in zip(ks, consts):
                f *= c.denominator * _p_times_power(frob, k) + c.numerator
            total += f
        numerator.append(total * scale)
    return tuple(_series_mul(numerator, _euler_product(order), order))


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]
        yield [(first,)] + part


def connected_bracket(legs, order):
    """Connected invariant by Moebius inversion over set partitions:

        conn(S) = sum_pi (-1)^{|pi|-1} (|pi|-1)! prod_{B in pi} disc(B).
    """
    legs = tuple(legs)
    total = [Fraction(0)] * (order + 1)
    for part in _set_partitions(tuple(range(len(legs)))):
        blocks = len(part)
        weight = (-1) ** (blocks - 1) * factorial(blocks - 1)
        prod = [Fraction(1)] + [Fraction(0)] * order
        for block in part:
            prod = _series_mul(
                prod, bracket(tuple(legs[i] for i in block), order), order
            )
        total = [t + weight * p for t, p in zip(total, prod)]
    return tuple(total)


# Theta_{1,n} of the Fermat cubic for n = 1..6 and n = 9.
FJRW_GENUS_ONE_PRIMARIES = {
    1: Fraction(0),
    2: Fraction(0),
    3: Fraction(1, 108),
    4: Fraction(0),
    5: Fraction(0),
    6: Fraction(1, 243),
    9: Fraction(8, 2187),
}

# s-coefficients of the Cayley images of E4 and E6.
CAYLEY_FRAME_COEFFICIENTS = {
    "e4": {1: Fraction(8, 3), 4: Fraction(5, 81), 7: Fraction(2, 5103)},
    "e6": {0: Fraction(-8), 3: Fraction(-28, 27), 6: Fraction(-7, 405)},
}


def weierstrass_product_defects(a, b, bound):
    """(m, n) where sum a_{m1,n1}/(4m1+6n1+1)! b_{m2,n2} != delta_{(m,n),(0,0)}.

    sigma(z) = sum a/(4m+6n+1)! X^m Y^n z^{4m+6n+1} and
    1/sigma(z) = z^{-1} sum b X^m Y^n z^{4m+6n} multiply to 1.
    """
    bad = []
    for m in range(bound // 4 + 1):
        for n in range(bound // 6 + 1):
            if 4 * m + 6 * n > bound:
                continue
            total = Fraction(0)
            for m1 in range(m + 1):
                for n1 in range(n + 1):
                    total += (
                        a[(m1, n1)]
                        / factorial(4 * m1 + 6 * n1 + 1)
                        * b[(m - m1, n - n1)]
                    )
            if total != (1 if (m, n) == (0, 0) else 0):
                bad.append((m, n))
    return bad

