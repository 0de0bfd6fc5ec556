"""The sparse-dict layer: the zero-dropping accumulator and the
exponent-dict product, over rationals and generator polynomials; and the
integer convolution tail of the grown q-columns."""

from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from qmgw._backend import add_into, conv_ints, conv_trunc, exp_mul_dict
from qmgw.modular import E2, E4, QMPolynomial
from qmgw.rational import ONE, ZERO, rat


def _naive_product(da, db):
    """Every pair summed with a plain dict, zeros stripped at the end."""
    out = {}
    for (ka, va), (kb, vb) in product(da.items(), db.items()):
        key = tuple(x + y for x, y in zip(ka, kb))
        out[key] = out.get(key, ZERO) + va * vb
    return {k: v for k, v in out.items() if v}


# small numerators, so that products cancel often
exponent_dicts = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * 3),
    rationals(max_num=2, max_den=2).filter(bool),
    max_size=8,
)


class TestAddInto:
    def test_cancelling_key_is_removed(self):
        out = {(1, 0): rat(1, 2), (0, 1): ONE}
        same = add_into(out, [((1, 0), rat(-1, 2)), ((2, 2), rat(3))])
        assert same is out
        assert out == {(0, 1): ONE, (2, 2): rat(3)}

    def test_zero_is_never_stored(self):
        out = add_into({}, [((0,), ZERO), ((1,), ONE), ((1,), -ONE)])
        assert out == {}

    def test_generator_polynomial_values(self):
        zero = QMPolynomial.zero()
        out = add_into(
            {(1, 1): E2},
            [((1, 1), -E2), ((0, 0), zero), ((0, 2), E4), ((0, 2), E2)],
        )
        assert out == {(0, 2): E4 + E2}
        assert add_into({(0, 2): E4}, [((0, 2), -E4)]) == {}

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), rationals(max_num=2, max_den=2)),
            max_size=20,
        )
    )
    def test_matches_summing_then_stripping(self, pairs):
        expect = {}
        for key, c in pairs:
            expect[key] = expect.get(key, ZERO) + c
        out = add_into({}, pairs)
        assert out == {k: v for k, v in expect.items() if v}
        assert all(out.values())


class TestExpMulDict:
    @given(exponent_dicts, exponent_dicts)
    def test_uncapped_is_the_full_product(self, da, db):
        assert exp_mul_dict(da, db) == _naive_product(da, db)

    @given(exponent_dicts, exponent_dicts, st.integers(0, 12))
    def test_cap_restricts_to_total_degree(self, da, db, cap):
        full = exp_mul_dict(da, db)
        capped = exp_mul_dict(da, db, cap)
        assert capped == {k: v for k, v in full.items() if sum(k) <= cap}

    def test_cancellation_drops_the_key(self):
        # (x + y)(x - y) = x^2 - y^2: the xy terms cancel
        da = {(1, 0): ONE, (0, 1): ONE}
        db = {(1, 0): ONE, (0, 1): -ONE}
        assert exp_mul_dict(da, db) == {(2, 0): ONE, (0, 2): -ONE}

    def test_generator_polynomial_values(self):
        da = {(1, 0): E2, (0, 1): E4}
        db = {(0, 0): E4, (1, 1): E2}
        assert exp_mul_dict(da, db, 1) == {(1, 0): E2 * E4, (0, 1): E4 * E4}
        assert exp_mul_dict(da, db)[(2, 1)] == E2 * E2


class TestConvInts:
    @given(
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12),
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12),
        st.data(),
    )
    def test_tail_of_the_truncated_product(self, a, b, data):
        # both sequences hold n + 1 terms or more, as grown columns do
        n = data.draw(st.integers(0, min(len(a), len(b)) - 1))
        lo = data.draw(st.integers(0, n + 1))
        assert conv_ints(a, b, lo, n) == conv_trunc(a, b, n, 0)[lo:]
