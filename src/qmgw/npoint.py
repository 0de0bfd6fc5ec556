"""Stationary N-point generating functions via the determinant formula.

npoint(N, Dz) returns the Euler-product-normalized disconnected stationary
generating function as a symmetric truncated series in z_1..z_N whose
coefficients are generator polynomials: the coefficient of
prod z_i^{l_i + 1} is the disconnected stationary correlation function
with insertions of psi-powers l_i (ancestor normalization).

Assembly follows the permutation-sum of theta-derivative determinants
divided by Theta(z_1 + ... + z_N).  Internally every 1/Theta(w) at a
partial sum w is cleared first: one permutation's determinant (with the
column denominators cleared) is multiplied by Theta(z_S) over all
non-prefix subsets S, the result is symmetrized over the legs, and the
common factor  prod_S Theta(z_S)  over all nonempty subsets is removed
again by exact linear-form divisions followed by single-variable
reciprocal substitutions.  This keeps every intermediate object a genuine
multivariate polynomial; the only negative exponents appear in the final
monomial shift by prod z_i^{-1}, where they belong.
"""

from functools import lru_cache
from itertools import permutations
from math import factorial

from ._backend import exp_mul_dict_capped
from .errors import InsufficientOrder, InvalidSeries
from .hurwitz import bracket
from .modular import quasimodularize, weight_basis
from .rational import ONE, rat
from .series import PowerSeries
from .theta import (
    QM_ONE,
    QM_ZERO,
    one_over_theta,
    prime_form,
    theta_z_derivative,
)

MAX_LEGS = 4


class MultiZPoly:
    """Truncated symmetric series in z_1..z_N with QMPolynomial coefficients.

    Keys are exponent tuples (each entry >= -1), values nonzero
    QMPolynomials; monomials of total degree > cap are not represented.
    """

    __slots__ = ("n_legs", "cap", "data")

    def __init__(self, n_legs, cap, data):
        self.n_legs = n_legs
        self.cap = cap
        self.data = {
            k: v for k, v in data.items() if not v.is_zero()
        }

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


def _linear_form_powers(subset, n_legs, max_degree):
    """Powers (z_{i1}+...+z_{ik})^e for e = 0..max_degree, as exponent dicts."""
    unit = {(0,) * n_legs: ONE}
    powers = [unit]
    linear = {}
    for i in subset:
        key = tuple(1 if j == i else 0 for j in range(n_legs))
        linear[key] = ONE
    for _ in range(max_degree):
        powers.append(exp_mul_dict_capped(powers[-1], linear, max_degree))
    return powers


def _substitute(series_coeffs, powers, cap):
    """sum_e series_coeffs[e] * L^e over precomputed linear-form powers."""
    out = {}
    for e, qm in enumerate(series_coeffs):
        if e > cap or e >= len(powers) or qm.is_zero():
            continue
        for key, mult in powers[e].items():
            c = qm * mult
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _on_leg(coeffs, leg, n_legs, cap):
    """sum_e coeffs[e] z_leg^e as an exponent dict, degrees e <= cap."""
    out = {}
    for e, c in enumerate(coeffs[: cap + 1]):
        if c:
            key = [0] * n_legs
            key[leg] = e
            out[tuple(key)] = c
    return out


def _shift_key(key, i, amount):
    return key[:i] + (key[i] + amount,) + key[i + 1 :]


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
        level = dict(by_deg.get(k, {}))
        for key, qm in carry.items():
            for i in rest:
                nk = _shift_key(key, i, 1)
                prev = level.get(nk)
                if prev is None:
                    level[nk] = -qm
                else:
                    s = prev - qm
                    if s:
                        level[nk] = s
                    else:
                        del level[nk]
        carry = {}
        for key, qm in level.items():
            nk = _shift_key(key, a, -1)
            carry[nk] = qm
            if sum(nk) <= valid - 1:
                quotient[nk] = qm
    # remainder = A_0 - c * q_0
    remainder = dict(by_deg.get(0, {}))
    for key, qm in carry.items():
        key_up = _shift_key(key, a, 1)  # back to a-slot 0 shifted by c-mult
        for i in rest:
            nk = _shift_key(_shift_key(key_up, a, -1), i, 1)
            prev = remainder.get(nk)
            if prev is None:
                remainder[nk] = -qm
            else:
                s = prev - qm
                if s:
                    remainder[nk] = s
                else:
                    del remainder[nk]
    bad = [k for k, v in remainder.items() if sum(k) < valid and v]
    if bad:
        raise InvalidSeries(
            f"division by linear form {subset} not exact at {sorted(bad)[:3]}"
        )
    return quotient


def _nonempty_subsets(n):
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def _det_cleared(entries, n):
    """Leibniz determinant of the cleared matrix given as {(i,j): value}.

    Every value is an exponent dict; missing entries are structural zeros.
    """
    total = {}
    cap = entries["cap"]
    for perm in permutations(range(n)):
        factors = [entries.get((perm[j], j)) for j in range(n)]
        if any(d is None for d in factors):
            continue
        acc = factors[0]
        for d in factors[1:]:
            acc = exp_mul_dict_capped(acc, d, cap)
        negate = _perm_sign(perm) < 0
        for key, v in acc.items():
            c = -v if negate else v
            prev = total.get(key)
            if prev is None:
                total[key] = c
            else:
                s = prev + c
                if s:
                    total[key] = s
                else:
                    del total[key]
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def npoint(n_legs, z_order):
    """The normalized disconnected stationary N-point series, N in 1..4.

    Coefficients are reliable for total degree <= z_order; each exponent
    is >= -1.  Cost grows steeply with N (the internal clearing degree is
    z_order + 2^N - 1), which is why N is capped.
    """
    if not 1 <= n_legs <= MAX_LEGS:
        raise InvalidSeries(f"n_legs must be 1..{MAX_LEGS}, got {n_legs}")
    if z_order < 0:
        raise InvalidSeries("z_order must be nonnegative")
    n = n_legs
    if n == 1:
        oot = one_over_theta(z_order + 2)
        data = {
            (e,): oot.coefficient(e)
            for e in range(-1, z_order + 1)
        }
        return MultiZPoly(1, z_order, data)

    subsets = _nonempty_subsets(n)
    clearing = len(subsets)  # degree of prod_S z_S
    cap = z_order + clearing

    # single-variable ingredients, dense lists indexed by w-exponent
    theta = prime_form(cap + 1)
    theta_list = [theta.coefficient(e) for e in range(cap + 1)]
    deriv_lists = {}
    for m in range(1, n + 1):
        dm = theta_z_derivative(m, cap + 1)
        deriv_lists[m] = [dm.coefficient(e) for e in range(cap + 1)]
    oot = one_over_theta(cap + 3)
    # 1/u where u(w) = Theta(w)/w; power series with constant term 1
    unit_inv_list = [oot.coefficient(e - 1) for e in range(cap + 1)]

    powers = {
        s: _linear_form_powers(s, n, cap) for s in subsets if len(s) >= 2
    }

    prefixes = [tuple(range(k + 1)) for k in range(n)]  # {0}, {0,1}, ...
    prefix_set = set(prefixes)

    # cleared matrix for the identity ordering: column j (0-based, j < n-1)
    # carries Theta^{(j-i+1)}(w)/(j-i+1)! * Theta(w) cleared to
    # Theta^{(j-i+1)}(w)/(j-i+1)! with w = z_{prefix of length n-1-j};
    # the last column holds the constants Theta^{(n-i)}(0)/(n-i)!.
    entries = {"cap": cap}
    subst_cache = {}
    for j in range(n - 1):
        arg = prefixes[n - 2 - j]  # prefix of length n-1-j
        for i in range(min(j + 2, n)):
            m = j - i + 1
            key = (m, arg)
            if key not in subst_cache:
                if m == 0:
                    lst = theta_list
                else:
                    lst = [c * rat(1, factorial(m)) for c in deriv_lists[m]]
                if len(arg) == 1:
                    subst_cache[key] = _on_leg(lst, arg[0], n, cap)
                else:
                    subst_cache[key] = _substitute(lst, powers[arg], cap)
            entries[(i, j)] = subst_cache[key]
    for i in range(n):
        const = theta.coefficient(n - i)  # Theta^{(n-i)}(0)/(n-i)!
        if const:
            entries[(i, n - 1)] = {(0,) * n: const}

    one_term = _det_cleared(entries, n)
    for s in subsets:
        if s in prefix_set:
            continue
        if len(s) == 1:
            factor = _on_leg(theta_list, s[0], n, cap)
        else:
            factor = _substitute(theta_list, powers[s], cap)
        one_term = exp_mul_dict_capped(one_term, factor, cap)

    # symmetrize over the legs
    total = {}
    for perm in permutations(range(n)):
        for key, v in one_term.items():
            nk = tuple(key[perm[i]] for i in range(n))
            prev = total.get(nk)
            if prev is None:
                total[nk] = v
            else:
                s = prev + v
                if s:
                    total[nk] = s
                else:
                    del total[nk]

    # strip prod_S Theta(z_S): exact divisions by the linear forms...
    valid = cap
    for s in subsets:
        if len(s) >= 2:
            total = _divide_linear(total, s, valid)
            valid -= 1
    # ...then the unit parts 1/u(z_S)
    assert valid == z_order + n
    for s in subsets:
        if len(s) >= 2:
            factor = _substitute(unit_inv_list, powers[s], valid)
        else:
            factor = _on_leg(unit_inv_list, s[0], n, valid)
        total = exp_mul_dict_capped(total, factor, valid)

    # finally the monomial shift by prod z_i^{-1}
    shifted = {}
    for key, v in total.items():
        nk = tuple(e - 1 for e in key)
        if sum(nk) <= z_order:
            if min(nk) < -1:
                raise InvalidSeries(
                    f"assembled N-point series has exponent < -1 at {nk}"
                )
            shifted[nk] = v
    return MultiZPoly(n, z_order, shifted)


def stationary_invariant(legs, z_order=None):
    """Disconnected stationary ancestor correlation function for the legs.

    `legs` is a tuple of psi-powers l_i >= -2; the result is the
    coefficient of prod z_i^{l_i+1} in the N-point series, a generator
    polynomial of weight sum(l_i + 2).  Any N is served: a lone leg reads
    1/Theta, two or more are the completed-cycles q-bracket fitted back
    to the generators, and the determinant assembly `npoint` stays as the
    independent cross-check.
    """
    legs = tuple(legs)
    if not legs:
        raise InvalidSeries("need at least one leg")
    if any(l < -2 for l in legs):
        raise InvalidSeries("psi-powers must be >= -2")
    exponents = tuple(l + 1 for l in legs)
    needed = max(0, sum(exponents))
    if z_order is None:
        z_order = needed
    elif z_order < needed:
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
        value = npoint(1, max(z_order, exponents[0])).coefficient(exponents)
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


def _partitions_with_first(indices):
    """Blocks B containing indices[0], paired with the complement."""
    first, rest = indices[0], indices[1:]
    for mask in range(1 << len(rest)):
        block = (first,) + tuple(
            rest[i] for i in range(len(rest)) if mask >> i & 1
        )
        comp = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
        yield block, comp


def connected_from_disconnected(legs, tables):
    """Connected stationary ancestor function by cumulant inversion.

    `tables` maps every nonempty subset of leg positions (as a sorted
    tuple of indices) to the disconnected ancestor value; with the Euler
    factor absorbed into the ancestor normalization the relation is

        disc(S) = sum over partitions of S of prod over blocks conn(B),

    so one-point connected equals one-point disconnected.
    """
    legs = tuple(legs)
    indices = tuple(range(len(legs)))
    missing = [
        s
        for s in _nonempty_subsets(len(legs))
        if tuple(sorted(s)) not in tables
    ]
    if missing:
        raise InvalidSeries(f"missing disconnected sub-tables for {missing}")

    cache = {}

    def conn(subset):
        subset = tuple(sorted(subset))
        if subset in cache:
            return cache[subset]
        value = tables[subset]
        for block, comp in _partitions_with_first(subset):
            if not comp:
                continue
            value = value - conn(block) * disc(comp)
        cache[subset] = value
        return value

    def disc(subset):
        return tables[tuple(sorted(subset))]

    return conn(indices)


def connected_stationary(legs, z_order=None):
    """Connected stationary ancestor function, computing its own tables.

    Subsets holding the same multiset of psi-powers share one value.
    """
    legs = tuple(legs)
    by_multiset = {}
    tables = {}
    for sub in _nonempty_subsets(len(legs)):
        sub_legs = tuple(legs[i] for i in sub)
        key = tuple(sorted(sub_legs))
        if key not in by_multiset:
            by_multiset[key] = stationary_invariant(sub_legs, z_order=z_order)
        tables[sub] = by_multiset[key]
    return connected_from_disconnected(legs, tables)
