import copy
import pickle
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_round_trips, rationals
from qmgw import modular
from qmgw.anomaly import d_dC2
from qmgw.cayley import cayley_frame
from qmgw.errors import InsufficientOrder, InvalidSeries, NotQuasiModular
from qmgw.modular import (
    E2,
    E4,
    E6,
    QMPolynomial,
    _solve_fraction_free,
    bernoulli,
    eisenstein,
    euler_function,
    monomial_ints,
    qm_eval,
    quasimodularize,
    ramanujan_derive,
    reduce_e2k,
    theta_q,
    weight_basis,
)
from qmgw.rational import ONE, ZERO, rat
from qmgw.series import PowerSeries


def divisor_sum(n, power):
    return sum(rat(d) ** power for d in range(1, n + 1) if n % d == 0)


class TestEisenstein:
    def test_weight_two_low_coefficients(self):
        # oracle: sigma_1(1) = 1, sigma_1(2) = 3, sigma_1(3) = 4
        e2 = eisenstein(2, 3)
        assert list(e2.coeffs) == [ONE, rat(-24), rat(-72), rat(-96)]
        for n in range(1, 4):
            assert e2.coefficient(n) == -24 * divisor_sum(n, 1)

    def test_weight_four_low_coefficients(self):
        e4 = eisenstein(4, 2)
        assert list(e4.coeffs) == [ONE, rat(240), rat(2160)]
        assert e4.coefficient(2) == 240 * divisor_sum(2, 3)

    def test_constant_term_always_one(self):
        for k in (2, 4, 6, 8, 12):
            assert eisenstein(k, 5).coefficient(0) == ONE

    def test_weight_six_factor(self):
        assert eisenstein(6, 1).coefficient(1) == rat(-504)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
    def test_closed_form(self, k):
        # E_k = 1 - (2k/B_k) sum_n sigma_{k-1}(n) q^n, summed directly
        factor = rat(2 * k) / bernoulli(k)
        for order in (0, 1, 17, 60):
            want = [ONE] + [
                -factor * divisor_sum(n, k - 1) for n in range(1, order + 1)
            ]
            assert list(eisenstein(k, order).coeffs) == want

    def test_odd_weight_rejected(self):
        with pytest.raises(InvalidSeries):
            eisenstein(3, 5)
        with pytest.raises(InvalidSeries):
            eisenstein(-2, 5)

    def test_negative_order_rejected(self):
        with pytest.raises(
            InvalidSeries, match="cannot expand to the negative order -5"
        ):
            eisenstein(4, -5)
        # refused, not cached: the same call raises again
        with pytest.raises(InvalidSeries):
            eisenstein(4, -5)

    def test_bernoulli_convention(self):
        assert bernoulli(2) == rat(1, 6)
        assert bernoulli(4) == rat(-1, 30)
        assert bernoulli(6) == rat(1, 42)
        assert bernoulli(12) == rat(-691, 2730)


def reference_bernoulli(n_max):
    """B_0..B_{n_max} one Fraction at a time from the defining recursion
    sum_{j=0}^{n} C(n+1, j) B_j = 0, the reference of the tangent-number
    route of `bernoulli`."""
    out = []
    for n in range(n_max + 1):
        acc = sum(comb(n + 1, j) * b for j, b in enumerate(out))
        out.append(Fraction(1) if n == 0 else -acc / (n + 1))
    return out


class TestBernoulli:
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_matches_the_recursive_definition(self, order):
        # from cold, so the tangent table is built for 16, 32 and 64
        # entries in one order and for the largest first in the other
        modular._tangent_numbers.cache_clear()
        bernoulli.cache_clear()
        ns = range(81) if order == "ascending" else range(80, -1, -1)
        got = {n: bernoulli(n) for n in ns}
        want = reference_bernoulli(80)
        assert [got[n] for n in range(81)] == want
        assert all(type(got[n]) is Fraction for n in range(81))

    def test_tangent_numbers(self):
        # tan x = x + 2 x^3/3! + 16 x^5/5! + 272 x^7/7! + ...
        assert modular._tangent_numbers(5) == (1, 2, 16, 272, 7936)

    def test_negative_index_refused(self):
        with pytest.raises(ValueError, match="no Bernoulli number B_-2"):
            bernoulli(-2)


class TestEulerFunction:
    def test_pentagonal_expansion(self):
        # oracle: 1 + sum_{k>=1} (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2})
        order = 30
        oracle = [ZERO] * (order + 1)
        oracle[0] = ONE
        k = 1
        while k * (3 * k - 1) // 2 <= order:
            sign = -1 if k % 2 else 1
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if e <= order:
                    oracle[e] += sign
            k += 1
        assert euler_function(order) == PowerSeries("q", oracle)

    def test_low_order(self):
        assert euler_function(7) == PowerSeries(
            "q", [1, -1, -1, 0, 0, 1, 0, 1]
        )

    def test_zero_order(self):
        assert euler_function(0) == PowerSeries.one("q", 0)

    def test_negative_order_rejected(self):
        with pytest.raises(
            InvalidSeries, match="cannot expand to the negative order -1"
        ):
            euler_function(-1)

    def test_inverse_pair(self):
        e = euler_function(10)
        assert e * e.reciprocal() == PowerSeries.one("q", 10)


class TestQMPolynomial:
    def test_zero_coefficients_absent(self):
        p = QMPolynomial({(1, 0, 0): ZERO, (0, 1, 0): ONE})
        assert (1, 0, 0) not in p.terms

    def test_product_weight(self):
        assert (E2 * E4).weight == 6

    def test_weight_read_off_terms(self):
        assert QMPolynomial.constant(3).weight == 0
        assert (E2 + E4).weight is None
        assert QMPolynomial.zero().weight is None

    def test_ring_results_skip_coercion(self, monkeypatch):
        want = E2 * E4 - E6 * E2 + E4 * E4
        neg = QMPolynomial({(1, 0, 0): -ONE})

        def refuse(*args):
            raise AssertionError("rat called on a ring result")

        monkeypatch.setattr(modular, "rat", refuse)
        assert E2 * E4 - E6 * E2 + E4 * E4 == want
        assert -E2 == neg

    def test_other_operand_decides(self):
        # a PowerSeries operand is left to PowerSeries.__rmul__
        s = PowerSeries("q", [1, 2, 3])
        assert E2 * s == s * E2
        assert (E2 * s).coeffs == (E2, 2 * E2, 3 * E2)

    def test_scalar_operands_unchanged(self):
        assert E2 * 3 == 3 * E2 == QMPolynomial({(1, 0, 0): 3})
        assert E2 + rat(1, 2) == QMPolynomial({(1, 0, 0): 1, (0, 0, 0): rat(1, 2)})
        assert E2 - rat(1, 2) == QMPolynomial({(1, 0, 0): 1, (0, 0, 0): rat(-1, 2)})
        with pytest.raises(TypeError):
            E2 * object()

    def test_negative_power(self):
        with pytest.raises(InvalidSeries):
            E2 ** -1
        with pytest.raises(InvalidSeries):
            QMPolynomial.zero() ** -1

    def test_qm_eval_generator(self):
        assert qm_eval(E2, 8) == eisenstein(2, 8)

    def test_qm_eval_zero(self):
        assert qm_eval(QMPolynomial.zero(), 5) == PowerSeries.zero("q", 5)

    def test_qm_eval_ramanujan_identity(self):
        lhs = qm_eval(E2 * E2 - 12 * ramanujan_derive(E2), 10)
        assert lhs == eisenstein(4, 10)


class TestExponentKeys:
    @pytest.mark.parametrize(
        "key",
        [(-1, 0, 0), (0, 0, -2), (1, 0), (1, 0, 0, 0), (1.0, 0, 0), ("1", 0, 0), 5, "abc"],
    )
    def test_public_constructor_rejects_bad_keys(self, key):
        with pytest.raises(InvalidSeries, match="exponent key") as err:
            QMPolynomial({key: 1})
        assert repr(key) in str(err.value)

    def test_bad_key_rejected_even_with_zero_coefficient(self):
        with pytest.raises(InvalidSeries):
            QMPolynomial({(-1, 0, 0): 0})

    def test_sequences_of_three_ints_accepted(self):
        assert QMPolynomial({(1, 0, 0): 1}) == E2
        assert QMPolynomial({(0, 1, 0): 1}) == QMPolynomial({(0, 1, 0): ONE})
        assert QMPolynomial({(0, 0, 0): 0}).is_zero()


# -- a Fraction-dict reference for the ring operations --------------------
# Term dicts {(a, b, c): Fraction}, zeros dropped, each operation pair by
# pair: the layout QMPolynomial used before it kept ints over one
# denominator.


def ref_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def ref_scale(a, c):
    return {k: c * v for k, v in a.items() if c * v}


def ref_lower(a, slot):
    """d/d(generator `slot`) by the power rule."""
    return {
        k[:slot] + (k[slot] - 1,) + k[slot + 1 :]: k[slot] * v
        for k, v in a.items()
        if k[slot]
    }


REF_IMAGES = (
    {(2, 0, 0): Fraction(1, 12), (0, 1, 0): Fraction(-1, 12)},
    {(1, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1, 3)},
    {(1, 0, 1): Fraction(1, 2), (0, 2, 0): Fraction(-1, 2)},
)


def ref_ramanujan(a):
    out = {}
    for slot, image in enumerate(REF_IMAGES):
        out = ref_add(out, ref_mul(ref_lower(a, slot), image))
    return out


def assert_holds(p, terms):
    """p is `terms` in the canonical int layout: nonzero ints over
    den > 0 with gcd(den, *nums) == 1, so a value built another way is
    equal and hashes alike."""
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert {k: Fraction(v, p.den) for k, v in p.nums.items()} == terms
    assert dict(p.terms) == terms
    twin = QMPolynomial(terms)
    assert twin == p and hash(twin) == hash(p)


term_dicts = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    rationals(max_num=40, max_den=36),
    max_size=6,
)
scalars = st.one_of(st.integers(-30, 30), rationals(max_num=30, max_den=12))


class TestIntegerLayout:
    """QMPolynomial keeps ints over one denominator; every operation is
    pinned to the Fraction-dict reference above."""

    @given(term_dicts, term_dicts)
    def test_product(self, a, b):
        assert_holds(QMPolynomial(a) * QMPolynomial(b), ref_mul(a, b))

    @given(term_dicts, term_dicts)
    def test_sum_and_difference(self, a, b):
        p, q = QMPolynomial(a), QMPolynomial(b)
        assert_holds(p + q, ref_add(a, b))
        assert_holds(p - q, ref_add(a, ref_scale(b, -1)))

    @given(term_dicts, scalars)
    def test_scalar_multiple(self, a, c):
        p = QMPolynomial(a)
        assert_holds(p * c, ref_scale(a, c))
        assert_holds(c * p, ref_scale(a, c))
        assert_holds(-p, ref_scale(a, -1))
        if c:
            assert_holds(p / c, ref_scale(a, 1 / Fraction(c)))
            assert_holds(p + c, ref_add(a, {(0, 0, 0): Fraction(c)}))

    @given(term_dicts)
    def test_ramanujan_derive(self, a):
        assert_holds(ramanujan_derive(QMPolynomial(a)), ref_ramanujan(a))

    @given(term_dicts)
    def test_d_dC2(self, a):
        assert_holds(d_dC2(QMPolynomial(a)), ref_scale(ref_lower(a, 0), -24))

    @pytest.mark.parametrize(
        "a, b",
        [
            # neither denominator divides the other
            ({(1, 0, 0): rat(1, 6)}, {(1, 0, 0): rat(1, 10), (0, 1, 0): rat(3, 4)}),
            # one divides the other, and the sum cancels down to den 2
            ({(1, 0, 0): rat(1, 6)}, {(1, 0, 0): rat(1, 3)}),
            # the sum cancels to zero
            ({(0, 0, 1): rat(5, 7)}, {(0, 0, 1): rat(-5, 7)}),
            ({(2, 1, 0): rat(-7, 12), (0, 0, 0): 3}, {(2, 1, 0): rat(1, 8)}),
        ],
    )
    def test_sums_over_unequal_denominators(self, a, b):
        p, q = QMPolynomial(a), QMPolynomial(b)
        assert_holds(p + q, ref_add(a, b))
        assert_holds(q + p, ref_add(a, b))

    def test_products_and_multiples_reduce(self):
        # (3/4 E2) (2/9 E4) = 1/6 E2 E4, and 6 (1/6 E2 E4) = E2 E4
        p = QMPolynomial({(1, 0, 0): rat(3, 4)}) * QMPolynomial({(0, 1, 0): rat(2, 9)})
        assert (dict(p.nums), p.den) == ({(1, 1, 0): 1}, 6)
        q = p * 6
        assert (dict(q.nums), q.den) == ({(1, 1, 0): 1}, 1)
        assert (p * 0).is_zero() and (p * 0).den == 1

    def test_zero_is_canonical(self):
        for z in (QMPolynomial.zero(), QMPolynomial({}), E2 - E2, E4 * 0):
            assert (dict(z.nums), z.den) == ({}, 1)
            assert z == QMPolynomial.zero() and hash(z) == hash(QMPolynomial.zero())

    def test_terms_view_is_built_once(self):
        p = E2 * rat(1, 3) + E4 * rat(5, 6)
        assert p.terms is p.terms
        assert dict(p.terms) == {(1, 0, 0): rat(1, 3), (0, 1, 0): rat(5, 6)}
        assert all(type(v) is Fraction for v in p.terms.values())

    def test_fit_returns_the_bareiss_pair(self, monkeypatch):
        # the fit wraps its integer solution without rat per coefficient
        p = rat(-5, 11) * E2**3 * E4 + rat(7, 3) * E4 * E6 - E2**2 * E6 * rat(1, 4)
        series = qm_eval(p, len(weight_basis(10)) + 10)

        def refuse(*args):
            raise AssertionError("rat called on the fitted coefficients")

        monkeypatch.setattr(modular, "rat", refuse)
        got = quasimodularize(series, 10)
        monkeypatch.undo()
        assert_holds(got, dict(p.terms))


class TestImmutable:
    """A value served from a cache cannot be rebound by a caller."""

    def test_generator_polynomial(self):
        p = reduce_e2k(8)
        for name in ("terms", "nums", "den", "weight"):
            with pytest.raises(AttributeError):
                setattr(p, name, 1)
            with pytest.raises(AttributeError):
                delattr(p, name)
        with pytest.raises(TypeError):
            p.nums[(0, 0, 0)] = 1
        assert reduce_e2k(8) == E4 * E4

    def test_power_series(self):
        e4 = eisenstein(4, 10)
        for name in ("coeffs", "order", "start", "var"):
            with pytest.raises(AttributeError):
                setattr(e4, name, 3)
            with pytest.raises(AttributeError):
                delattr(e4, name)
        assert eisenstein(4, 10).order == 10
        assert eisenstein(4, 10).coefficient(1) == 240

    def test_copy_and_pickle_still_work(self):
        e4 = eisenstein(4, 10)
        assert copy.copy(e4) == e4 and copy.deepcopy(e4) == e4
        assert pickle.loads(pickle.dumps(e4)) == e4
        p = E2 * rat(1, 3) + E6
        assert copy.copy(p) == p and hash(copy.copy(p)) == hash(p)

    def test_pickle_and_deepcopy_round_trip(self):
        p = E2 * 3
        assert_round_trips(p, ["nums"])
        p.terms  # the Fraction view is a read-only slot too, once built
        assert_round_trips(p, ["nums", "_terms"])
        clone = pickle.loads(pickle.dumps(p))
        assert hash(clone) == hash(p) and clone.terms == p.terms


def eval_by_repeated_squaring(p, order, gens):
    """qm_eval's formula term by term, each gen ** e built anew."""
    var = gens[0].var
    out = PowerSeries.zero(var, order)
    for key, v in p.sorted_terms():
        term = PowerSeries.constant(var, v, order)
        for gen, e in zip(gens, key):
            if e:
                term = term * gen ** e
        out = out + term
    return out


class TestQmEvalPowers:
    """qm_eval runs Horner over cached columns; pinned to gen ** e."""

    @pytest.mark.parametrize("frame", ["eisenstein", "cayley"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_repeated_squaring(self, frame, seed):
        rng = random.Random(seed)
        terms = {}
        for _ in range(rng.randint(2, 6)):
            key = (rng.randint(0, 13), rng.randint(0, 6), rng.randint(0, 4))
            terms[key] = rat(rng.randint(-30, 30), rng.randint(1, 12))
        terms[(rng.randint(8, 13), rng.randint(0, 2), rng.randint(0, 2))] = ONE
        p = QMPolynomial(terms)
        if frame == "eisenstein":
            order = rng.randint(0, 24)
            gens = tuple(eisenstein(k, order) for k in (2, 4, 6))
            got = qm_eval(p, order)
        else:
            order = rng.randint(0, 32)
            gens = tuple(g.truncate(order) for g in cayley_frame(32))
            got = qm_eval(p, order, gens=gens)
        want = eval_by_repeated_squaring(p, order, gens)
        assert (got.var, got.start, got.order) == (want.var, 0, order)
        assert got.coeffs == want.coeffs


class TestRamanujanDerive:
    def test_generator_images(self):
        assert ramanujan_derive(E2) == (E2 * E2 - E4) / 12
        assert ramanujan_derive(E4) == (E2 * E4 - E6) / 3
        assert ramanujan_derive(E6) == (E2 * E6 - E4 * E4) / 2

    def test_kills_constants(self):
        assert ramanujan_derive(QMPolynomial.constant(rat(7, 3))).is_zero()

    def test_raises_weight_by_two(self):
        assert ramanujan_derive(E4).weight == 6

    @given(st.integers(min_value=0, max_value=200))
    def test_differential_ring_isomorphism(self, seed):
        import random

        rng = random.Random(seed)
        terms = {}
        for w in range(0, 9, 2):
            for key in weight_basis(w):
                if rng.random() < 0.5:
                    terms[key] = rat(rng.randrange(-6, 7), rng.randrange(1, 4))
        p = QMPolynomial(terms)
        assert theta_q(qm_eval(p, 14)) == qm_eval(ramanujan_derive(p), 14)

    def test_leibniz(self):
        p, q = E2 * E4, E6 + QMPolynomial.constant(2)
        lhs = ramanujan_derive(p * q)
        rhs = ramanujan_derive(p) * q + p * ramanujan_derive(q)
        assert lhs == rhs


class TestQuasimodularize:
    def test_theta_q_e2(self):
        got = quasimodularize(theta_q(eisenstein(2, 20)), 4)
        assert got == (E2 * E2 - E4) / 12

    def test_classical_weight_eight(self):
        assert quasimodularize(eisenstein(8, 20), 8) == E4 * E4

    def test_wrong_weight_rejected(self):
        with pytest.raises(NotQuasiModular) as err:
            quasimodularize(eisenstein(2, 20), 4)
        assert str(err.value) == (
            "residual at q^2: fit gives 576, series has -72 (weight 4)"
        )

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrder) as err:
            quasimodularize(eisenstein(4, 5), 12)
        assert err.value.required is not None

    def test_not_quasimodular_series(self):
        f = euler_function(25)
        with pytest.raises(NotQuasiModular) as err:
            quasimodularize(f, 4)
        assert str(err.value) == (
            "residual at q^2: fit gives 714, series has -1 (weight 4)"
        )

    def test_fractional_residual_reported_exactly(self):
        with pytest.raises(NotQuasiModular) as err:
            quasimodularize(euler_function(40), 12)
        assert str(err.value) == (
            "residual at q^7: fit gives 24908425748/13, series has 1 (weight 12)"
        )

    def test_round_trip_identity(self):
        p = E2 * E4 + 3 * E6
        dim = len(weight_basis(6))
        assert quasimodularize(qm_eval(p, dim + 10), 6) == p

    def test_every_margin_coefficient_checked(self):
        p = E2 * E4 + 3 * E6
        dim = len(weight_basis(6))
        good = list(qm_eval(p, dim + 10).coeffs)
        for i in range(dim, dim + 11):
            bad = PowerSeries("q", good[:i] + [good[i] + 1] + good[i + 1 :])
            with pytest.raises(NotQuasiModular, match=rf"^residual at q\^{i}:"):
                quasimodularize(bad, 6)

    def test_basis_expansions_independent(self):
        # the square solve block must be invertible at every used weight
        for w in (4, 8, 12, 14):
            basis = weight_basis(w)
            dim = len(basis)
            rows = [
                [
                    qm_eval(QMPolynomial({key: ONE}), dim).coefficient(i)
                    for key in basis
                ]
                for i in range(dim)
            ]
            assert all(x.denominator == 1 for row in rows for x in row)
            rows = [[x.numerator for x in row] for row in rows]
            # solving against an arbitrary rhs must succeed
            assert _solve_fraction_free(rows, [ONE] * dim) is not None

    def test_fit_runs_no_fraction_convolution(self, monkeypatch):
        p = E2**3 * E6 + 5 * E4**3 - rat(2, 7) * E6 * E6 + E2 * E4 * E6
        dim = len(weight_basis(12))
        series = qm_eval(p, dim + 10)
        real_conv = modular.conv_trunc

        def refuse(*args):
            raise AssertionError("the fit expanded a polynomial over Q")

        def ints_only(a, b, n, zero):
            assert all(type(x) is int for x in (*a, *b, zero))
            return real_conv(a, b, n, zero)

        real_column = modular.conv_ints
        columns = []

        def int_columns(a, b, lo, n):
            assert all(type(x) is int for x in (*a, *b))
            columns.append(n)
            return real_column(a, b, lo, n)

        modular.monomial_ints.cache_clear()
        modular._columns.cache_clear()
        monkeypatch.setattr(modular, "qm_eval", refuse)
        monkeypatch.setattr(PowerSeries, "__mul__", refuse)
        monkeypatch.setattr(modular, "conv_trunc", ints_only)
        monkeypatch.setattr(modular, "conv_ints", int_columns)
        assert quasimodularize(series, 12) == p
        assert modular.monomial_ints.cache_info().misses > 0
        assert columns  # the basis columns were rebuilt, on ints

    def test_weight_zero(self):
        f = PowerSeries.constant("q", rat(5), 15)
        assert quasimodularize(f, 0) == QMPolynomial.constant(5)


class TestMonomialInts:
    def test_matches_qm_eval(self):
        for w in range(0, 25, 2):
            for key in weight_basis(w):
                got = monomial_ints(key, 30)
                assert isinstance(got, tuple)
                want = qm_eval(QMPolynomial({key: ONE}), 30).coeffs
                assert got == tuple(want)

    def test_generator_table_matches_eisenstein(self):
        for key, k in (((1, 0, 0), 2), ((0, 1, 0), 4), ((0, 0, 1), 6)):
            for order in range(61):
                want = [int(c) for c in eisenstein(k, order).coeffs]
                assert list(monomial_ints(key, order)) == want


def _gauss(matrix, rhs):
    """Plain Gauss-Jordan elimination over Fraction; None if singular."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


class TestFractionFreeSolve:
    def test_agrees_with_fraction_gauss(self):
        rng = random.Random(11)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            rhs = [rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            want = _gauss(matrix, rhs)
            got = _solve_fraction_free(matrix, rhs)
            if want is None:
                singular += 1
                assert got is None
            else:
                nums, den = got
                assert [Fraction(y, den) for y in nums] == want
        assert 0 < singular < 300


class TestReduceE2k:
    def test_weight_eight_and_ten(self):
        assert reduce_e2k(8) == E4 * E4
        assert reduce_e2k(10) == E4 * E6

    def test_weight_four_is_generator(self):
        assert reduce_e2k(4) == E4

    def test_always_modular(self):
        for k in (4, 6, 8, 10, 12, 14, 16):
            assert all(not key[0] for key in reduce_e2k(k).terms)

    def test_weight_fourteen(self):
        assert reduce_e2k(14) == E4 * E4 * E6
