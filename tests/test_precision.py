"""Truncation orders are explicit: a declared O(x^N) never overstates what
is known, for the series type itself and for every public builder."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from qmgw.cayley import cayley_frame
from qmgw.chazy import chazy_solve_s, genus_one_initial_data
from qmgw.determinant import npoint
from qmgw.errors import InsufficientOrder
from qmgw.mirror import alpha
from qmgw.modular import QMPolynomial, eisenstein
from qmgw.series import D_DS, PowerSeries
from qmgw.theta import (
    one_over_theta,
    prime_form,
    prime_form_exponential,
    sigma_tilde,
)

STARTS = st.integers(min_value=-3, max_value=3)
LENGTHS = st.integers(min_value=1, max_value=6)

qm_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    rationals(),
    max_size=3,
).map(QMPolynomial)

# each draw: (coefficient strategy, a strategy for a unit of that ring)
RINGS = st.sampled_from(
    [
        (rationals(), rationals().filter(bool)),
        (qm_polys, rationals().filter(bool).map(QMPolynomial.constant)),
    ]
)


@st.composite
def series_pairs(draw, unit_lead=False):
    """Two z-series over one ring, each with its own start and length."""
    coeffs, units = draw(RINGS)
    out = []
    for _ in range(2):
        n = draw(LENGTHS)
        cs = draw(st.lists(coeffs, min_size=n, max_size=n))
        if unit_lead:
            cs[0] = draw(units)
        out.append(PowerSeries("z", cs, draw(STARTS)))
    return tuple(out)


class TestSeriesPrecision:
    @given(series_pairs())
    def test_cancelled_sum_keeps_the_smaller_order(self, pair):
        a, b = pair
        zero = a - a
        assert zero.is_zero() and zero.order == a.order
        total = zero + b
        assert total.order == min(a.order, b.order)
        assert total.start == min(a.start, b.start)

    @given(series_pairs())
    def test_product_order(self, pair):
        a, b = pair
        product = a * b
        assert product.start == a.start + b.start
        assert product.order == min(a.order + b.start, b.order + a.start)
        assert product == b * a

    @given(series_pairs(unit_lead=True))
    def test_reciprocal_order(self, pair):
        a, _ = pair
        r = a.reciprocal()
        assert r.start == -a.start
        assert r.order == a.order - 2 * a.start
        product = a * r
        assert product.order == a.order - a.start
        for n in range(product.order + 1):
            assert bool(product.coefficient(n)) == (n == 0)

    @given(RINGS.flatmap(lambda ring: ring[0]))
    def test_derivative_of_order_zero_series_is_refused(self, c):
        # d/ds (c + O(s)) is O(s^0): no coefficient of it is known
        with pytest.raises(InsufficientOrder) as info:
            PowerSeries("s", [c]).derive(D_DS)
        assert info.value.required == 1
        assert PowerSeries("s", [c], 1).derive(D_DS).order == 0

    def test_zero_series_equality_respects_order(self):
        z = PowerSeries.zero("q", 3)
        assert z == PowerSeries("q", [0, 0], 2)
        assert z != PowerSeries.zero("q", 2)


ORDERS = st.integers(min_value=3, max_value=12)
EXTRA = st.integers(min_value=0, max_value=4)


def assert_stable(build, n, k):
    low = build(n)
    assert build(n + k).truncate(low.order) == low


def assert_npoint_stable(n_legs, z, k):
    """npoint(N, z + k) restricted to total degree <= z is npoint(N, z)."""
    high = npoint(n_legs, z + k)
    low = {key: v for key, v in high.data.items() if sum(key) <= z}
    assert low == npoint(n_legs, z).data


class TestBuilderPrecision:
    @given(ORDERS, EXTRA)
    def test_prime_form(self, n, k):
        assert_stable(prime_form, n, k)

    @given(ORDERS, EXTRA)
    def test_sigma_tilde(self, n, k):
        assert_stable(sigma_tilde, n, k)

    @given(ORDERS, EXTRA)
    def test_prime_form_exponential(self, n, k):
        assert_stable(prime_form_exponential, n, k)

    @given(ORDERS, EXTRA)
    def test_one_over_theta(self, n, k):
        assert_stable(one_over_theta, n, k)

    @given(st.sampled_from([2, 4, 6, 8]), ORDERS, EXTRA)
    def test_eisenstein(self, weight, n, k):
        assert_stable(lambda order: eisenstein(weight, order), n, k)

    @given(ORDERS, EXTRA)
    def test_chazy_solve_s(self, n, k):
        init = genus_one_initial_data()
        assert_stable(lambda order: chazy_solve_s(init, order), n, k)

    @given(ORDERS, EXTRA)
    def test_cayley_frame(self, n, k):
        for i in range(3):
            assert_stable(lambda order: cayley_frame(order)[i], n, k)

    @given(ORDERS, EXTRA)
    def test_alpha(self, n, k):
        assert_stable(alpha, n, k)

    @given(st.integers(min_value=0, max_value=6), EXTRA)
    def test_npoint_two_legs(self, z, k):
        assert_npoint_stable(2, z, k)

    @given(st.integers(min_value=0, max_value=2), EXTRA)
    def test_npoint_three_legs(self, z, k):
        assert_npoint_stable(3, z, k)
