"""The order-indexed stores grow in place: the integer q-columns
(`monomial_ints`), the Weierstrass a/b tables (`weierstrass_a`,
`b_table`) and the prime-form tower (`sigma_tilde`, `prime_form`,
`one_over_theta`) extend from where they stopped.  The reference is the
per-order code they replaced: every column, table and series built from
nothing at the order asked for."""

import sys
import threading
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import clear_package_caches, count_recurrence
from qmgw import modular, theta
from qmgw._backend import conv_ints, conv_trunc
from qmgw.modular import E2, QMPolynomial, monomial_ints, weight_basis
from qmgw.rational import ONE, ZERO, rat
from qmgw.series import PowerSeries
from qmgw.theta import (
    b_table,
    one_over_theta,
    onepoint_qm,
    prime_form,
    sigma_tilde,
    weierstrass_a,
)

#: every exponent key of weight 2..16: all three slots, long predecessor chains
KEYS = [key for w in range(2, 17, 2) for key in weight_basis(w)]


@lru_cache(maxsize=None)
def ref_generator(slot, order):
    sums = modular._divisor_power_sums(2 * slot + 1, order)
    return (1,) + tuple((-24, 240, -504)[slot] * s for s in sums[1:])


@lru_cache(maxsize=None)
def ref_monomial(key, order):
    slot = max((i for i, e in enumerate(key) if e), default=None)
    if slot is None:
        return (1,) + (0,) * order
    prev = ref_monomial(key[:slot] + (key[slot] - 1,) + key[slot + 1 :], order)
    return tuple(conv_trunc(prev, ref_generator(slot, order), order, 0))


@lru_cache(maxsize=None)
def ref_a(bound):
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
    return table


@lru_cache(maxsize=None)
def ref_b(bound):
    a = ref_a(bound)
    weighted = [
        (i, j, v / factorial(4 * i + 6 * j + 1))
        for (i, j), v in a.items()
        if v and (i or j)
    ]
    table = {(0, 0): ONE}
    for m, n in a:
        if m or n:
            table[(m, n)] = -sum(
                w * table[(m - i, n - j)]
                for i, j, w in weighted
                if i <= m and j <= n
            )
    return table


REF_TABLES = {"a": (weierstrass_a, ref_a), "b": (b_table, ref_b)}


@lru_cache(maxsize=None)
def ref_sigma(z_order):
    coeffs = [QMPolynomial.zero()] * z_order
    for (m, n), a in ref_a(z_order - 1).items():
        e = 4 * m + 6 * n
        if a:
            c = a / factorial(e + 1) * rat(1, 24) ** m * rat(-1, 108) ** n
            coeffs[e] = coeffs[e] + QMPolynomial({(0, m, n): c})
    return PowerSeries("z", coeffs, 1)


@lru_cache(maxsize=None)
def ref_theta(z_order):
    exponent = [QMPolynomial.zero()] * z_order
    if z_order > 2:
        exponent[2] = E2 * rat(1, 24)
    return PowerSeries("z", exponent).exp() * ref_sigma(z_order)


@lru_cache(maxsize=None)
def ref_recip(z_order):
    return ref_theta(z_order).reciprocal()


REF_TOWER = {
    "sigma": (sigma_tilde, ref_sigma),
    "theta": (prime_form, ref_theta),
    "recip": (one_over_theta, ref_recip),
}


def assert_tower(name, z_order):
    served, ref = REF_TOWER[name]
    got, want = served(z_order), ref(z_order)
    assert type(got.coeffs) is tuple
    assert (got.coeffs, got.start, got.order) == (
        want.coeffs, want.start, want.order
    ), (name, z_order)


def steps(what):
    """1-6 requests (order or bound, what): rising, falling, repeated, odd."""
    orders = st.integers(min_value=0, max_value=40)
    return st.lists(st.tuples(orders, what), min_size=1, max_size=6)


def assert_table(name, bound):
    served, ref = REF_TABLES[name]
    got = served(bound)
    assert list(got.items()) == list(ref(bound).items()), (name, bound)
    with pytest.raises(TypeError):
        got[(0, 0)] = 5


class TestAgainstThePerOrderCode:
    @given(steps(st.sampled_from(KEYS)))
    @example([(12, (1, 1, 0)), (60, (1, 1, 0))])
    @example([(9, (0, 4, 0)), (31, (2, 1, 1)), (3, (0, 4, 0)), (40, (8, 0, 0))])
    def test_columns(self, requests):
        clear_package_caches()
        for order, key in requests:
            got = monomial_ints(key, order)
            assert type(got) is tuple
            assert got == ref_monomial(key, order), (key, order)
            for slot, unit in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
                assert monomial_ints(unit, order) == ref_generator(slot, order)

    @given(steps(st.sampled_from("ab")))
    @example([(10, "b"), (40, "b")])
    @example([(33, "a"), (7, "b"), (7, "b"), (21, "b"), (12, "a")])
    def test_tables(self, requests):
        clear_package_caches()
        for bound, name in requests:
            assert_table(name, bound)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=40),
                st.sampled_from(sorted(REF_TOWER)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example([(3, "recip"), (27, "recip"), (9, "theta"), (40, "sigma")])
    @example([(40, "theta"), (12, "recip"), (12, "recip"), (1, "sigma")])
    def test_prime_form_tower(self, requests):
        clear_package_caches()
        for z_order, name in requests:
            assert_tower(name, z_order)

    def test_repeat_call_returns_the_same_object(self):
        clear_package_caches()
        col, table = monomial_ints((2, 1, 1), 20), b_table(20)
        monomial_ints((2, 1, 1), 30), b_table(30)
        assert monomial_ints((2, 1, 1), 20) is col and b_table(20) is table


class TestHeldViews:
    def test_views_do_not_change_when_the_store_grows(self):
        clear_package_caches()
        b10, a10 = b_table(10), weierstrass_a(10)
        col = monomial_ints((1, 1, 0), 12)
        saved = [list(b10.items()), list(a10.items()), col]
        b_table(40)
        monomial_ints((1, 1, 0), 60)
        assert [list(b10.items()), list(a10.items()), col] == saved
        assert list(b10) == list(ref_b(10)) and len(col) == 13
        for view in (b10, a10):
            with pytest.raises(TypeError):
                view[(0, 0)] = 5
            with pytest.raises(TypeError):
                del view[(0, 0)]

    def test_held_tower_series_do_not_change(self):
        clear_package_caches()
        held = [sigma_tilde(10), prime_form(10), one_over_theta(10)]
        saved = [(f.coeffs, f.order) for f in held]
        one_over_theta(40)
        assert [(f.coeffs, f.order) for f in held] == saved
        assert held == [ref_sigma(10), ref_theta(10), ref_recip(10)]
        assert len(theta._tower().recip) == 40

    def test_threads_share_one_table(self):
        clear_package_caches()
        bounds = [40, 12, 27, 33]
        got = {}

        def grow(bound):
            got[bound] = b_table(bound)

        workers = [threading.Thread(target=grow, args=(b,)) for b in bounds]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        for bound in bounds:
            assert list(got[bound].items()) == list(ref_b(bound).items())

    def test_threads_share_one_tower(self, monkeypatch):
        clear_package_caches()
        counts = count_recurrence(monkeypatch)
        orders = [27, 5, 40, 13, 33, 9]  # more threads than cores
        got = {}

        def grow(z_order):
            got[z_order] = one_over_theta(z_order)

        workers = [threading.Thread(target=grow, args=(n,)) for n in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        for z_order in orders:
            assert got[z_order] == ref_recip(z_order)
        # each coefficient computed once, by whichever thread needed it first
        assert sum(counts) == len(theta._tower().recip) == 40


class TestTowerCounts:
    def test_the_tower_computes_each_coefficient_once(self, monkeypatch):
        # genus 1..13 read 1/Theta to z-orders 3, 5, ..., 27: 27
        # coefficients in all, where one reciprocal per genus took 195
        clear_package_caches()
        counts = count_recurrence(monkeypatch)
        for g in range(1, 14):
            onepoint_qm(g)
        assert counts == [3] + [2] * 12  # 27 in all


class TestClearContract:
    def test_clearing_every_lru_cache_empties_the_stores(self, monkeypatch):
        b_table(40)
        monomial_ints((1, 2, 1), 40)
        clear_package_caches()
        degrees, starts = [], []
        real_lattice, real_conv = theta._lattice, modular.conv_ints

        def lattice(degree):
            degrees.append(degree)
            return real_lattice(degree)

        def conv(a, b, lo, n):
            starts.append(lo)
            return real_conv(a, b, lo, n)

        monkeypatch.setattr(theta, "_lattice", lattice)
        monkeypatch.setattr(modular, "conv_ints", conv)
        assert list(b_table(26).items()) == list(ref_b(26).items())
        # the a-table, then the b-table, each from degree 1
        assert degrees == list(range(1, 27)) * 2
        assert monomial_ints((1, 2, 1), 30) == ref_monomial((1, 2, 1), 30)
        # E2 E4, E2 E4^2, E2 E4^2 E6: each column from q^0
        assert starts == [0, 0, 0]

    def test_clearing_every_lru_cache_empties_the_tower(self, monkeypatch):
        one_over_theta(30)
        clear_package_caches()
        state = theta._tower()
        assert (state.sigma, state.theta, state.recip) == ([], [], [])
        counts = count_recurrence(monkeypatch)
        assert_tower("recip", 12)
        assert counts == [12]
