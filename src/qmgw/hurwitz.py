"""Stationary invariants from completed cycles (GW/Hurwitz correspondence).

Okounkov-Pandharipande ("Gromov-Witten theory, Hurwitz theory, and
completed cycles", math/0204305): the disconnected stationary invariant
with psi-powers l_i is the q-bracket

    < prod_i p_{l_i+2}(lam) / (l_i+1)! >_q
        = sum_lam q^|lam| prod_i (...) / sum_lam q^|lam|,

    p_k(lam) = sum_i [(lam_i-i+1/2)^{k-1} - (-i+1/2)^{k-1}]
               + (1-2^{1-k}) zeta(1-k),

which Bloch-Okounkov ("The character of the infinite wedge
representation", alg-geom/9712009) show is quasimodular of weight
sum(l_i+2).

A partition is a finite set of particles at the sites s = a_j + 1/2 and as
many holes at -(b_j + 1/2) (its modified Frobenius coordinates), with
|lam| = sum of the sites of both.  With e = k - 1, a particle adds
(2s)^e to 2^e p_k, a hole -(-2s)^e, and the constant is
(2^e - 1) zeta(-e).  Expanding the product over legs assigns each leg to
one particle, one hole or its constant, so the bracket needs no partition
enumeration: one integer DP over the sites counts the ways d particles
with sum of 2s equal to t absorb a set of legs, and the holes are the
same count up to the sign (-1)^(#legs + sum of their e).  Cost is
polynomial in the q-order, where summing over partitions costs p(n).
"""

from functools import lru_cache
from math import factorial
from operator import add, mul

from .errors import InvalidSeries
from .modular import bernoulli, euler_coefficients
from .rational import rat


def _over_masks(values, op, unit):
    """table[mask] = op-fold of values[i] over the set bits i of mask."""
    table = [unit]
    for v in values:
        table += [op(t, v) for t in table]
    return table


@lru_cache(maxsize=None)
def bracket(exponents, order):
    """q-coefficients 0..order of < prod_i p_{e_i+1}/e_i! >_q, e_i >= 0.

    `exponents` holds e_i = l_i + 1 for psi-powers l_i >= -1; the values
    are exact rationals.
    """
    exponents = tuple(exponents)
    if any(e < 0 for e in exponents):
        raise InvalidSeries(f"bracket exponents must be >= 0, got {exponents}")
    full = (1 << len(exponents)) - 1
    budget = 2 * order  # bound on 2|lam|
    power = _over_masks(exponents, add, 0)

    # One side: (d sites, sum t of their 2s, legs absorbed) -> count.  The
    # other side also needs d sites, so t + d^2 <= budget.
    side = {(0, 0, 0): 1}
    for m in range(1, budget, 2):
        grown = dict(side)
        for (d, t, mask), v in side.items():
            if t + m + (d + 1) ** 2 > budget:
                continue
            free = full ^ mask
            sub = free
            while True:
                key = (d + 1, t + m, mask | sub)
                grown[key] = grown.get(key, 0) + v * m ** power[sub]
                if not sub:
                    break
                sub = (sub - 1) & free
        side = grown

    # Unabsorbed legs take their constant c_i = num_i/den_i; everything is
    # scaled by prod den_i so that the sums stay integral.
    consts = [(2 ** e - 1) * -bernoulli(e + 1) / (e + 1) for e in exponents]
    over_nums = _over_masks([c.numerator for c in consts], mul, 1)
    over_dens = _over_masks([c.denominator for c in consts], mul, 1)
    # holes plus constants: (d, legs covered) -> {t: count}
    rest = {}
    for (d, t, mask), v in side.items():
        sign = -1 if (bin(mask).count("1") + power[mask]) % 2 else 1
        v *= sign * over_dens[mask]
        free = full ^ mask
        sub = free
        while True:
            row = rest.setdefault((d, mask | sub), {})
            row[t] = row.get(t, 0) + v * over_nums[sub]
            if not sub:
                break
            sub = (sub - 1) & free
    numer = [0] * (order + 1)
    for (d, t, mask), v in side.items():
        v *= over_dens[mask]
        for t2, h in rest.get((d, full ^ mask), {}).items():
            if t + t2 <= budget:
                numer[(t + t2) // 2] += v * h

    # 1 / sum_lam q^|lam| is the Euler product prod (1 - q^k)
    euler = euler_coefficients(order)
    scale = over_dens[full]
    for e in exponents:
        scale *= 2 ** e * factorial(e)
    return tuple(
        rat(sum(numer[j] * euler[n - j] for j in range(n + 1)), scale)
        for n in range(order + 1)
    )
