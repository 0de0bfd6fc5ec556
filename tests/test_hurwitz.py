"""The completed-cycles route against the determinant assembly and against
a direct sum over partitions."""

import random
from fractions import Fraction
from itertools import product
from math import factorial
from operator import add, mul

import pytest

import qmgw
from qmgw.determinant import npoint
from qmgw.errors import InsufficientOrder, InvalidSeries
from qmgw.hurwitz import (
    _unpack,
    bracket,
    connected_stationary,
    stationary_invariant,
)
from qmgw.modular import (
    E2,
    bernoulli,
    euler_coefficients,
    qm_eval,
    ramanujan_derive,
)
from qmgw.rational import rat
from qmgw.theta import onepoint_from_b

C2 = E2 * rat(-1, 24)


def assert_route_matches(n_legs, z_order):
    """Every coefficient of npoint(n_legs, z_order), weight included."""
    f = npoint(n_legs, z_order)
    keys = [
        k
        for k in product(range(-1, z_order + n_legs + 1), repeat=n_legs)
        if sum(k) <= z_order
    ]
    for key in keys:
        legs = tuple(e - 1 for e in key)
        det = f.coefficient(key)
        value = stationary_invariant(legs, z_order=z_order)
        assert value == det, legs
        assert value.weight == (sum(l + 2 for l in legs) if det else None)


def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def p_k(lam, k):
    """The shifted-symmetric p_k of Okounkov-Pandharipande, from its
    definition, with zeta(1 - k) = -B_k / k."""
    value = sum(
        Fraction(2 * (part - i) - 1, 2) ** (k - 1)
        - Fraction(-2 * i - 1, 2) ** (k - 1)
        for i, part in enumerate(lam)
    )
    return value + (1 - Fraction(1, 2 ** (k - 1))) * Fraction(-bernoulli(k) / k)


def brute_force_bracket(legs, order):
    sums = []
    for n in range(order + 1):
        total = Fraction(0)
        for lam in partitions(n):
            term = Fraction(1)
            for l in legs:
                term *= p_k(lam, l + 2) / factorial(l + 1)
            total += term
        sums.append(total)
    counts = [sum(1 for _ in partitions(n)) for n in range(order + 1)]
    # divide by sum_lam q^|lam|, whose constant term is 1
    out = []
    for n in range(order + 1):
        out.append(sums[n] - sum(out[j] * counts[n - j] for j in range(n)))
    return tuple(out)


def mask_dp_bracket(exponents, order):
    """The bracket by the earlier DP, whose state holds the set of absorbed
    legs as a bit mask: 3^N work, kept here as an oracle."""

    def over_masks(values, op, unit):
        table = [unit]
        for v in values:
            table += [op(t, v) for t in table]
        return table

    full = (1 << len(exponents)) - 1
    budget = 2 * order
    power = over_masks(exponents, add, 0)
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
    consts = [(2**e - 1) * -bernoulli(e + 1) / (e + 1) for e in exponents]
    over_nums = over_masks([c.numerator for c in consts], mul, 1)
    over_dens = over_masks([c.denominator for c in consts], mul, 1)
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
    euler = euler_coefficients(order)
    scale = over_dens[full]
    for e in exponents:
        scale *= 2**e * factorial(e)
    return tuple(
        rat(sum(numer[j] * euler[n - j] for j in range(n + 1)), scale)
        for n in range(order + 1)
    )


def oracle_grid():
    """Seeded exponent tuples with 1-6 legs at q-orders 0-14, drawn from
    pools of one to three values so that most repeat an exponent, then
    three larger cases of equal and of two classes of legs."""
    rng = random.Random(13)
    grid = []
    for i in range(66):
        pool = rng.sample(range(8), rng.randint(1, 3))
        exponents = tuple(rng.choice(pool) for _ in range(1 + i % 6))
        grid.append((exponents, rng.randint(0, 14)))
    return grid + [((1,) * 7, 20), ((6,) * 6, 20), ((2, 2, 2, 3, 3, 3), 16)]


class TestAgainstDeterminant:
    def test_two_point_every_coefficient(self):
        assert_route_matches(2, 8)

    def test_three_point_every_coefficient(self):
        assert_route_matches(3, 3)

    def test_four_point_every_coefficient(self):
        assert_route_matches(4, 2)

    def test_four_point_stationary_legs(self):
        assert_route_matches(4, 4)


class TestBracket:
    @pytest.mark.parametrize(
        "legs, order",
        [
            ((0, 0, 0, 0, 0), 12),
            ((1, 2, 3), 12),
            ((0, 4), 12),
            ((0, 0, 1), 12),
            ((1, 1, 0, 0), 12),
            ((2, 2, 2, 0), 12),
            ((0,) * 8, 10),
        ],
        ids=[f"legs{i}" for i in range(7)],
    )
    def test_equals_sum_over_partitions(self, legs, order):
        exponents = tuple(l + 1 for l in legs)
        assert bracket(exponents, order) == brute_force_bracket(legs, order)

    def test_grid_matches_mask_dp(self):
        grid = oracle_grid()
        assert len(grid) >= 60
        assert {len(e) for e, _ in grid[:-3]} == set(range(1, 7))
        for exponents, order in grid:
            expected = mask_dp_bracket(exponents, order)
            assert bracket(exponents, order) == expected, (exponents, order)

    def test_leg_order_is_irrelevant(self):
        assert bracket((3, 1, 2), 9) == bracket((1, 2, 3), 9)

    def test_psi_minus_one_leg_vanishes(self):
        assert not any(bracket((0, 3), 10))

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidSeries):
            bracket((-1, 2), 5)


class TestUnpack:
    WIDTH = 8

    def pack(self, slots):
        return sum(a << t * self.WIDTH for t, a in enumerate(slots))

    def test_negative_slots(self):
        slots = [-1, -5, 0, -100, 3]
        assert _unpack(self.pack(slots), self.WIDTH, 5) == slots

    def test_carries_across_slots(self):
        # -1 in slot 0 borrows from every slot above it in the packed int
        slots = [-1, 0, 0, 1, -1, 127]
        packed = self.pack(slots)
        assert packed & 0xFF == 0xFF
        assert _unpack(packed, self.WIDTH, 6) == slots

    def test_edge_of_the_slot_width(self):
        edge = [127, -128, -128, 127, -1, 127, -128]
        assert _unpack(self.pack(edge), self.WIDTH, 7) == edge
        # one past the edge aliases to the other end
        assert _unpack(self.pack([128, 0]), self.WIDTH, 2) == [-128, 1]

    def test_slots_above_the_count_are_ignored(self):
        packed = self.pack([5, -7]) + (-(3**200) << 2 * self.WIDTH)
        assert _unpack(packed, self.WIDTH, 2) == [5, -7]


class TestAnyLegCount:
    @pytest.mark.parametrize("n_legs", [5, 6])
    def test_divisor_equation(self, n_legs):
        expected = C2
        for _ in range(n_legs - 1):
            expected = ramanujan_derive(expected)
        assert connected_stationary((0,) * n_legs) == expected


class TestZOrderKeyword:
    """perfbench's stationary-cold calls both serving functions through the
    top-level names as fn(legs, z_order=k); a z-order that reaches
    sum(l_i + 1) of the full legs leaves the value alone, a smaller one
    raises.  A psi -2 leg lowers that sum below what the legs without it
    need, so the connected value must not check its sub-multisets."""

    @pytest.mark.parametrize(
        "name", ["stationary_invariant", "connected_stationary"]
    )
    @pytest.mark.parametrize(
        "legs",
        [(2,), (0, 2), (1, 1, 2), (3, -2), (1, -2, -2), (2, 2, -2)],
    )
    def test_value_independent_of_a_sufficient_order(self, name, legs):
        serve = getattr(qmgw, name)
        needed = max(0, sum(l + 1 for l in legs))
        for k in (needed, needed + 3):
            assert serve(legs, z_order=k) == serve(legs)
        with pytest.raises(InsufficientOrder) as err:
            serve(legs, z_order=needed - 1)
        assert err.value.required == needed
        assert str(err.value) == f"legs {legs} need z-order >= {needed}"


class TestServedQExpansion:
    """`gw onepoint --q-expand` prints qm_eval(onepoint_from_b(g), order):
    the b-table's polynomial, expanded by Horner over E2 on ints.  The
    one-leg bracket of the exponent 2g - 1 shares neither the b-table nor
    a series product, and gives the same coefficients."""

    @pytest.mark.parametrize("genus", [1, 2, 5, 7, 10])
    def test_equals_the_one_leg_bracket(self, genus):
        served = qm_eval(onepoint_from_b(genus), 100)
        assert (served.start, served.order) == (0, 100)
        assert served.coeffs == bracket((2 * genus - 1,), 100)
