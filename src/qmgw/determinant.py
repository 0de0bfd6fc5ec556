"""Stationary N-point generating functions via the determinant formula:
the check route of every stationary value `hurwitz` serves.

npoint(N, Dz) returns the Euler-product-normalized disconnected stationary
generating function as a symmetric truncated series in z_1..z_N whose
coefficients are generator polynomials: the coefficient of
prod z_i^{l_i + 1} is the disconnected stationary correlation function
with insertions of psi-powers l_i (ancestor normalization).

Assembly follows the permutation-sum of theta-derivative determinants
divided by Theta(z_1 + ... + z_N).  Write Theta(w) = w u(w) with u a unit.
The column of the matrix at a partial sum w is multiplied by w, so it
holds the power series Theta^{(m)}(w)/(m! u(w)), and the final
1/Theta(z_1 + ... + z_N) contributes 1/u of the full sum; the units never
leave the one-variable ingredients.  Only the linear forms z_S then need
a common denominator: one permutation's cleared determinant is multiplied
by the bare z_S over all non-prefix subsets S, the result is symmetrized
over the legs, and the z_S with |S| >= 2 are removed again by exact
linear-form divisions.  Every truncated product stays at total degree
z_order + N and every intermediate object is a genuine multivariate
polynomial; the only negative exponents appear in the final monomial
shift by prod z_i^{-1}, where they belong.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod
from types import MappingProxyType

from ._backend import Frozen, add_into, conv_trunc, exp_mul_dict
from .errors import InvalidSeries
from .theta import QM_ZERO, one_over_theta, prime_form

MAX_LEGS = 4


class MultiZPoly(Frozen):
    """Truncated symmetric series in z_1..z_N with QMPolynomial coefficients.

    Keys are exponent tuples (each entry >= -1), values nonzero
    QMPolynomials; monomials of total degree > cap are not represented.
    Immutable: `npoint` serves it from a cache.
    """

    __slots__ = ("n_legs", "cap", "data")

    def __init__(self, n_legs, cap, data):
        object.__setattr__(self, "n_legs", n_legs)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(
            self,
            "data",
            MappingProxyType({k: v for k, v in data.items() if not v.is_zero()}),
        )

    def coefficient(self, exponents):
        return self.data.get(tuple(exponents), QM_ZERO)

    def is_symmetric(self):
        for key, value in self.data.items():
            canon = tuple(sorted(key))
            if self.data.get(canon, QM_ZERO) != value:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, MultiZPoly):
            return NotImplemented
        return self.n_legs == other.n_legs and self.data == other.data

    def __repr__(self):
        return (
            f"MultiZPoly(N={self.n_legs}, cap={self.cap}, "
            f"terms={len(self.data)})"
        )


def _linear_form(subset, n_legs):
    """z_{i1}+...+z_{ik} as an exponent dict with int coefficients."""
    return {
        tuple(1 if j == i else 0 for j in range(n_legs)): 1 for i in subset
    }


def _linear_form_powers(subset, n_legs, max_degree):
    """Powers (z_{i1}+...+z_{ik})^e for e = 0..max_degree, as exponent dicts
    with int (multinomial) coefficients."""
    powers = [{(0,) * n_legs: 1}]
    linear = _linear_form(subset, n_legs)
    for _ in range(max_degree):
        powers.append(exp_mul_dict(powers[-1], linear, max_degree))
    return powers


def _substitute(series_coeffs, powers, cap):
    """sum_e series_coeffs[e] * L^e over precomputed linear-form powers."""
    out = {}
    for e, qm in enumerate(series_coeffs[: min(cap + 1, len(powers))]):
        if qm:
            add_into(out, ((k, qm * mult) for k, mult in powers[e].items()))
    return out


def _shift_key(key, i, amount):
    return key[:i] + (key[i] + amount,) + key[i + 1 :]


def _minus_c_times(carry, rest):
    """The terms of -c * carry, c = z_{i2}+...+z_{ik} the non-pivot part."""
    return (
        (_shift_key(key, i, 1), -qm) for key, qm in carry.items() for i in rest
    )


def _divide_linear(poly, subset, valid):
    """Exact division of {exp: QM} by z_{i1}+...+z_{ik}.

    Synthetic division along the pivot variable a = subset[0]; the
    remainder must vanish on all monomials of total degree < valid.
    Returns the quotient truncated to total degree valid - 1.
    """
    a = subset[0]
    rest = subset[1:]
    by_deg = {}
    for key, qm in poly.items():
        by_deg.setdefault(key[a], {})[key] = qm
    if not by_deg:
        return {}
    top = max(by_deg)
    quotient = {}
    carry = {}  # q_k currently being assembled, keyed with a-slot = k
    for k in range(top, 0, -1):
        # q_{k-1} = A_k - c * q_k, written into a-slot k-1
        level = add_into(dict(by_deg.get(k, {})), _minus_c_times(carry, rest))
        carry = {}
        for key, qm in level.items():
            nk = _shift_key(key, a, -1)
            carry[nk] = qm
            if sum(nk) <= valid - 1:
                quotient[nk] = qm
    # remainder = A_0 - c * q_0
    remainder = add_into(dict(by_deg.get(0, {})), _minus_c_times(carry, rest))
    bad = [k for k in remainder if sum(k) < valid]
    if bad:
        raise InvalidSeries(
            f"division by linear form {subset} not exact at {sorted(bad)[:3]}"
        )
    return quotient


def _det_cleared(entries, n, cap):
    """Leibniz determinant of the cleared matrix given as {(i,j): value}.

    Every value is an exponent dict; missing entries are structural zeros.
    Products of total degree > cap are not formed.
    """
    total = {}
    for perm in permutations(range(n)):
        factors = [entries.get((perm[j], j)) for j in range(n)]
        if any(d is None for d in factors):
            continue
        acc = factors[0]
        for d in factors[1:]:
            acc = exp_mul_dict(acc, d, cap)
        # an odd permutation has an odd number of inversions
        if sum(a > b for a, b in combinations(perm, 2)) % 2:
            add_into(total, ((key, -v) for key, v in acc.items()))
        else:
            add_into(total, acc.items())
    return total


@lru_cache(maxsize=None)
def npoint(n_legs, z_order):
    """The normalized disconnected stationary N-point series, N in 1..4.

    Coefficients are reliable for total degree <= z_order; each exponent
    is >= -1.  Truncated products run at total degree z_order + N, but
    the determinant has N! terms and the common denominator 2^N - 1 - N
    linear forms, which is why N is capped.
    """
    if not 1 <= n_legs <= MAX_LEGS:
        raise InvalidSeries(f"n_legs must be 1..{MAX_LEGS}, got {n_legs}")
    if z_order < 0:
        raise InvalidSeries("z_order must be nonnegative")
    n = n_legs
    subsets = [
        s for k in range(1, n + 1) for s in combinations(range(n), k)
    ]
    cap = z_order + n

    # single-variable ingredients, dense lists indexed by w-exponent:
    # theta_k = Theta^{(k)}(0)/k!, and 1/u(w) = w/Theta(w)
    theta = prime_form(cap + n)
    oot = one_over_theta(cap + n)
    unit_inv_list = [oot.coefficient(e - 1) for e in range(cap + 1)]

    prefixes = [tuple(range(k + 1)) for k in range(n)]  # {0}, {0,1}, ...
    powers = {p: _linear_form_powers(p, n, cap) for p in prefixes}

    # cleared matrix for the identity ordering: column j (0-based, j < n-1)
    # holds Theta^{(m)}(w)/(m! u(w)), m = j-i+1, w = z_{prefix of length
    # n-1-j}, which is w itself for m = 0; the last column holds the
    # constants Theta^{(n-i)}(0)/(n-i)!, and its common factor
    # 1/u(z_1+...+z_N) multiplies the determinant once.
    entries = {}
    for j in range(n - 1):
        arg = prefixes[n - 2 - j]  # prefix of length n-1-j
        for i in range(min(j + 2, n)):
            m = j - i + 1
            if m == 0:
                entries[(i, j)] = powers[arg][1]
                continue
            deriv = [
                theta.coefficient(e + m) * comb(e + m, m)
                for e in range(cap + 1)
            ]
            lst = conv_trunc(deriv, unit_inv_list, cap, QM_ZERO)
            entries[(i, j)] = _substitute(lst, powers[arg], cap)
    for i in range(n):
        const = theta.coefficient(n - i)  # Theta^{(n-i)}(0)/(n-i)!
        if const:
            entries[(i, n - 1)] = {(0,) * n: const}

    full_inv = _substitute(unit_inv_list, powers[prefixes[-1]], cap)
    one_term = exp_mul_dict(_det_cleared(entries, n, cap), full_inv, cap)
    # the bare linear forms z_S complete the common denominator; each one
    # is exact, so it raises the known total degree by one
    valid = cap
    for s in subsets:
        if s not in prefixes:
            one_term = exp_mul_dict(one_term, _linear_form(s, n))
            valid += 1

    # symmetrize over the legs: the sum over all N! permutations is, at a
    # key, the sum of one_term over the key's distinct rearrangements
    # times the number of permutations that fix the key
    orbits = add_into(
        {}, ((tuple(sorted(key)), v) for key, v in one_term.items())
    )
    total = {}
    for canon, v in orbits.items():
        v = v * prod(factorial(canon.count(e)) for e in set(canon))
        total.update(dict.fromkeys(permutations(canon), v))

    # strip prod_{|S| >= 2} z_S by exact linear-form divisions
    for s in subsets:
        if len(s) >= 2:
            total = _divide_linear(total, s, valid)
            valid -= 1
    assert valid == cap

    # finally the monomial shift by prod z_i^{-1}; the last division left
    # total degree <= cap, so every shifted key lies within z_order
    shifted = {}
    for key, v in total.items():
        nk = tuple(e - 1 for e in key)
        if min(nk) < -1:
            raise InvalidSeries(
                f"assembled N-point series has exponent < -1 at {nk}"
            )
        shifted[nk] = v
    return MultiZPoly(n, z_order, shifted)
