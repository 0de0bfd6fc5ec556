"""The completed-cycles route against the determinant assembly and against
a direct sum over partitions."""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from qmgw.errors import InvalidSeries
from qmgw.hurwitz import bracket
from qmgw.modular import E2, bernoulli, ramanujan_derive
from qmgw.npoint import connected_stationary, npoint, stationary_invariant
from qmgw.rational import rat

C2 = E2 * rat(-1, 24)


def assert_route_matches(n_legs, z_order, keys=None):
    """Every coefficient of npoint(n_legs, z_order), weight included."""
    f = npoint(n_legs, z_order)
    if keys is None:
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


class TestAgainstDeterminant:
    def test_two_point_every_coefficient(self):
        assert_route_matches(2, 8)

    def test_three_point_every_coefficient(self):
        assert_route_matches(3, 3)

    @pytest.mark.slow
    def test_four_point_every_coefficient(self):
        assert_route_matches(4, 2)

    @pytest.mark.slow
    def test_four_point_stationary_legs(self):
        assert_route_matches(4, 4, keys=[(1, 1, 1, 1)])


class TestBracket:
    @pytest.mark.parametrize("legs", [(0, 0, 0, 0, 0), (1, 2, 3), (0, 4)])
    def test_equals_sum_over_partitions(self, legs):
        exponents = tuple(l + 1 for l in legs)
        assert bracket(exponents, 12) == brute_force_bracket(legs, 12)

    def test_leg_order_is_irrelevant(self):
        assert bracket((3, 1, 2), 9) == bracket((1, 2, 3), 9)

    def test_psi_minus_one_leg_vanishes(self):
        assert not any(bracket((0, 3), 10))

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidSeries):
            bracket((-1, 2), 5)


class TestAnyLegCount:
    @pytest.mark.parametrize("n_legs", [5, 6])
    def test_divisor_equation(self, n_legs):
        expected = C2
        for _ in range(n_legs - 1):
            expected = ramanujan_derive(expected)
        assert connected_stationary((0,) * n_legs) == expected
