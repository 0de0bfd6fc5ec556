"""The order-indexed stores grow in place: the integer q-columns
(`monomial_ints`) and the Weierstrass a/b tables
(`weierstrass_a`, `b_table`) extend from where they stopped.  The
reference is the per-order code they replaced: every column and table
built from nothing at the order asked for."""

import threading
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import clear_package_caches
from qmgw import modular, theta
from qmgw._backend import conv_ints, conv_trunc
from qmgw.modular import monomial_ints, weight_basis
from qmgw.rational import ONE, ZERO, rat
from qmgw.theta import b_table, weierstrass_a

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
