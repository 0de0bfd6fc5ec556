"""Stationary invariants from completed cycles (GW/Hurwitz correspondence).

Every stationary value qmgw serves comes from here: `stationary_invariant`
reads a lone leg off the b-table and fits two or more legs from the
q-bracket below, and `connected_stationary` inverts the cumulants by one
recursion on multisets of psi-powers, conn(M) = disc(M) minus
n(B) conn(B) disc(M - B) over the proper sub-multisets B holding M's first
leg, n(B) the number of leg subsets with B's multiset.  The determinant
assembly in `determinant` shares none of this code and checks it
coefficient by coefficient.

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
with sum of 2s equal to t absorb legs, and the holes are the same count up
to the sign (-1)^(#legs + sum of their e).  Cost is polynomial in the
q-order, where summing over partitions costs p(n).

Legs with equal exponents are interchangeable, so the DP keys its state
on k, the number of legs absorbed from each class of equal exponents, not
on the set of legs: equal legs cost polynomially, not 3^N.  With c_i legs
in class i, a leg set with counts k is one of prod_i C(c_i, k_i), so the
pairing divides by that number exactly.  The value of a state packs all
its counts into one int, the count for d sites and t at bit offset
(d*size + t)*width (Kronecker substitution; Harvey, J. Symbolic Comput.
44 (2009) 1502-1510): taking a site is one mask-and-shift per state, each
class choice one multiply-add, and the pairing's products are summed as
one packed int that is unpacked once.
"""

from functools import lru_cache
from itertools import product
from math import comb, factorial, isqrt, prod
from operator import mul

from .errors import InsufficientOrder, InvalidSeries
from .modular import (
    bernoulli,
    euler_coefficients,
    quasimodularize,
    weight_basis,
)
from .rational import rat
from .series import PowerSeries
from .theta import QM_ONE, QM_ZERO, onepoint_from_b


def _absorb(rows, caps, bases):
    """Spread rows[k] over every k + j with j <= caps - k, weighted by
    prod_i C(caps_i - k_i, j_i) bases_i^j_i, the ways to pick j_i more of
    the caps_i - k_i free legs of class i, each taking bases_i.  One class
    at a time, so a state costs sum_i (caps_i + 1) multiply-adds, not
    prod_i (caps_i + 1); each spread starts from the rows themselves (j_i
    = 0, weight 1), and a class whose base is 0 spreads nothing more."""
    for i, (cap, base) in enumerate(zip(caps, bases)):
        if not base:
            continue
        powers = [base**j for j in range(cap + 1)]
        spread = dict(rows)
        for k, row in rows.items():
            head, ki, tail = k[:i], k[i], k[i + 1 :]
            for j in range(1, cap - ki + 1):
                key = head + (ki + j,) + tail
                w = comb(cap - ki, j) * powers[j]
                spread[key] = spread.get(key, 0) + row * w
        rows = spread
    return rows


def _unpack(packed, width, count):
    """Slots 0..count-1 of sum_t a_t 2^(t*width), each -2^(width-1) <=
    a_t < 2^(width-1); the slots above count may hold anything."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    packed &= (1 << (count * width)) - 1
    out = []
    for _ in range(count):
        slot = ((packed + half) & mask) - half
        out.append(slot)
        packed = (packed - slot) >> width
    return out


@lru_cache(maxsize=None)
def bracket(exponents, order):
    """q-coefficients 0..order of < prod_i p_{e_i+1}/e_i! >_q, e_i >= 0.

    `exponents` holds e_i = l_i + 1 for psi-powers l_i >= -1; the values
    are exact rationals.
    """
    exponents = tuple(exponents)
    if any(e < 0 for e in exponents):
        raise InvalidSeries(f"bracket exponents must be >= 0, got {exponents}")
    values = sorted(set(exponents))  # one class per distinct exponent u
    caps = tuple(exponents.count(u) for u in values)
    budget = 2 * order  # bound on 2|lam|
    # An unabsorbed leg takes its constant num/den; everything is scaled by
    # prod den so that the counts stay integral.
    consts = [(2**u - 1) * -bernoulli(u + 1) / (u + 1) for u in values]
    nums = [c.numerator for c in consts]
    dens = [c.denominator for c in consts]

    # Slot width.  Every slot read below (of a particle row, scaled for the
    # pairing or not, of a hole-and-constant row, or of the pairing at
    # 2|lam| = T <= budget) is a sum over configurations of sites and over
    # assignments of each leg to one site, to its constant or, in a row, to
    # nothing.  The configurations of one slot are partitions of one
    # n <= order: lam itself in the pairing, and for a row of d sites with
    # sum t those sites with 1, 3, ..., 2d - 1 on the other side, a
    # partition of (t + d^2)/2 (the DP keeps t + d^2 <= budget).
    # So there are at most p(order) <= 2^(order-1) of them, since each
    # partition is a composition.  For one configuration the sum of |terms|
    # over the assignments is at most a product over legs of
    # 1 + den sum_sites m^u + |num|.  The sites m sum to at most budget, so
    # sum m^u <= budget^max(u, 1) (the number of sites for u = 0), and the
    # factor is at most (den + |num|) (budget^max(u, 1) + 1).  Hence
    # |slot| <= bound < 2^(width-2); a d-block of `size` slots then stays
    # below 2^(size*width-1) in absolute value, so slots and blocks unpack
    # exactly, and the particle slots, which are >= 0, mask exactly.
    bound = 1 << max(order - 1, 0)
    for u, cap, num, den in zip(values, caps, nums, dens):
        bound *= ((den + abs(num)) * (budget ** max(u, 1) + 1)) ** cap
    width = bound.bit_length() + 2
    size = budget + 1  # slots t = 0..budget of one d-block
    blocks = isqrt(order) + 1  # d^2 <= t and t + d^2 <= budget

    # Particles: rows[k] packs the count for d sites whose 2s sum to t at
    # slot d*size + t, summed over the leg sets with counts k.  The holes
    # also need d sites, so t + d^2 <= budget.  Taking site m moves slot
    # (d, t) to (d + 1, t + m).
    rows = {(0,) * len(caps): 1}
    for m in range(1, budget, 2):
        keep = 0  # the slots (d, t) with t + m + (d + 1)^2 <= budget
        for d in range(blocks):
            room = budget - m - (d + 1) ** 2
            if room < 0:
                break
            keep |= ((1 << (room + 1) * width) - 1) << d * size * width
        taken = {k: row & keep for k, row in rows.items()}
        for k, row in _absorb(taken, caps, [m**u for u in values]).items():
            rows[k] = rows.get(k, 0) + (row << (size + m) * width)

    # Holes and constants: rest[k] for the legs they cover, packed the
    # same way.  A hole takes den * -(-m)^u, so a hole row carries
    # prod (-(-1)^u den)^k.
    hole = [-den if u % 2 == 0 else den for u, den in zip(values, dens)]
    holes = {k: row * prod(map(pow, hole, k)) for k, row in rows.items()}
    rest = _absorb(holes, caps, nums)

    # Every set of legs with the same counts holds the same share of a row,
    # so the pairing of one particle set with the complementary holes is the
    # row divided exactly by the number of such sets.  The d-blocks of the
    # two sides pair up one by one, as t-rows.
    packed = 0
    for k, row in rows.items():
        other = rest.get(tuple(cap - ki for cap, ki in zip(caps, k)))
        if other is None:
            continue
        row = row // prod(map(comb, caps, k)) * prod(map(pow, dens, k))
        packed += sum(
            map(mul, _unpack(row, size * width, blocks),
                _unpack(other, size * width, blocks))
        )
    numer = _unpack(packed, width, budget + 1)[::2]

    # 1 / sum_lam q^|lam| is the Euler product prod (1 - q^k), whose
    # nonzero coefficients sit at the pentagonal numbers
    euler = [(p, c) for p, c in enumerate(euler_coefficients(order)) if c]
    scale = prod(map(pow, dens, caps))
    for e in exponents:
        scale *= 2 ** e * factorial(e)
    return tuple(
        rat(sum(c * numer[n - p] for p, c in euler if p <= n), scale)
        for n in range(order + 1)
    )


def stationary_invariant(legs, z_order=None):
    """Disconnected stationary ancestor correlation function for the legs.

    `legs` is a tuple of psi-powers l_i >= -2; the result is the
    coefficient of prod z_i^{l_i+1} in the N-point series, a generator
    polynomial of weight sum(l_i + 2).  Any N is served: a lone leg reads
    the b-table (the genus-g one-point function, 2g - 1 = l + 1), two or
    more are the completed-cycles q-bracket fitted back to the generators.
    `determinant.npoint` assembles the same coefficients independently and
    checks both.  A `z_order` below sum(l_i + 1) raises InsufficientOrder;
    any other leaves the value unchanged.
    """
    legs = tuple(legs)
    if not legs:
        raise InvalidSeries("need at least one leg")
    if any(l < -2 for l in legs):
        raise InvalidSeries("psi-powers must be >= -2")
    exponents = tuple(l + 1 for l in legs)
    needed = max(0, sum(exponents))
    if z_order is not None and z_order < needed:
        raise InsufficientOrder(
            f"legs {legs} need z-order >= {needed}", required=needed
        )
    weight = sum(l + 2 for l in legs)
    # a z^{-1} coefficient (psi-power -2) contributes the factor 1
    exponents = tuple(sorted(e for e in exponents if e != -1))
    if 0 in exponents or weight % 2:
        value = QM_ZERO
    elif not exponents:
        value = QM_ONE
    elif len(exponents) == 1:
        value = onepoint_from_b((exponents[0] + 1) // 2)
    else:
        q_order = len(weight_basis(weight)) + 9
        value = quasimodularize(
            PowerSeries("q", bracket(exponents, q_order)), weight, margin=10
        )
    if value and value.weight != weight:
        raise InvalidSeries(
            f"weight bookkeeping broken: expected {weight}, "
            f"found {value.weight}"
        )
    return value


def connected_stationary(legs, z_order=None):
    """Connected stationary ancestor function: the cumulant of the
    disconnected values.

    With the Euler factor absorbed into the ancestor normalization,
    disc(S) = sum over set partitions of S of prod over blocks conn(B), so
    one-point connected equals one-point disconnected.  Both depend only on
    the multiset M of psi-powers, so the inversion runs on sorted legs:

        conn(M) = disc(M) - sum_B n(B) conn(B) disc(M - B),

    B over the proper sub-multisets of M holding its first (least) leg.
    Removing that leg leaves c_u legs of each psi-power u, of which B
    takes k_u; n(B) = prod_u C(c_u, k_u) counts the leg subsets it stands
    for.  disc is `stationary_invariant`, fitted once per multiset.
    `z_order` is checked once against the full legs, as
    `stationary_invariant` checks it: below sum(l_i + 1) it raises
    InsufficientOrder, otherwise the value is unchanged.
    """
    legs = tuple(legs)
    whole = tuple(sorted(legs))
    disc = {whole: stationary_invariant(legs, z_order=z_order)}
    conn = {}

    def fitted(m):
        if m not in disc:
            disc[m] = stationary_invariant(m)
        return disc[m]

    def connected(m):
        if m in conn:
            return conn[m]
        first, rest = m[0], m[1:]
        classes = [(u, rest.count(u)) for u in sorted(set(rest))]
        value = fitted(m)
        for ks in product(*(range(c + 1) for _, c in classes)):
            block, comp, n = (first,), (), 1
            for (u, c), k in zip(classes, ks):
                block += (u,) * k
                comp += (u,) * (c - k)
                n *= comb(c, k)
            if comp:
                term = connected(block) * fitted(comp)
                value = value - (term * n if n > 1 else term)
        conn[m] = value
        return value

    return connected(whole)
