import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmgw import modular
from qmgw.errors import InsufficientOrder, InvalidSeries, NotQuasiModular
from qmgw.modular import (
    E2,
    E4,
    E6,
    QMPolynomial,
    bernoulli,
    eisenstein,
    euler_function,
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

    def test_odd_weight_rejected(self):
        with pytest.raises(InvalidSeries):
            eisenstein(3, 5)
        with pytest.raises(InvalidSeries):
            eisenstein(-2, 5)

    def test_bernoulli_convention(self):
        assert bernoulli(2) == rat(1, 6)
        assert bernoulli(4) == rat(-1, 30)
        assert bernoulli(6) == rat(1, 42)
        assert bernoulli(12) == rat(-691, 2730)


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

    def test_inverse_pair(self):
        e = euler_function(10)
        assert e * e.reciprocal() == PowerSeries.one("q", 10)


class TestQMPolynomial:
    def test_weight_enforcement(self):
        with pytest.raises(InvalidSeries):
            QMPolynomial({(1, 1, 0): ONE}, weight=4)

    def test_zero_coefficients_absent(self):
        p = QMPolynomial({(1, 0, 0): ZERO, (0, 1, 0): ONE})
        assert (1, 0, 0) not in p.terms

    def test_product_weight(self):
        assert (E2 * E4).weight == 6

    def test_weight_read_off_terms(self):
        assert QMPolynomial.constant(3).weight == 0
        assert (E2 + E4).weight is None
        assert QMPolynomial.zero().weight is None
        assert QMPolynomial({}, weight=4).is_zero()

    def test_ring_results_skip_coercion(self, monkeypatch):
        want = E2 * E4 - E6 * E2 + E4 * E4
        neg = QMPolynomial({(1, 0, 0): -ONE})

        def refuse(*args):
            raise AssertionError("rat called on a ring result")

        monkeypatch.setattr(modular, "rat", refuse)
        assert E2 * E4 - E6 * E2 + E4 * E4 == want
        assert -E2 == neg

    def test_negative_power(self):
        quarter = QMPolynomial.constant(rat(1, 4))
        assert QMPolynomial.constant(2) ** -2 == quarter
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
        with pytest.raises(NotQuasiModular):
            quasimodularize(eisenstein(2, 20), 4)

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrder) as err:
            quasimodularize(eisenstein(4, 5), 12)
        assert err.value.required is not None

    def test_not_quasimodular_series(self):
        f = euler_function(25)
        with pytest.raises(NotQuasiModular):
            quasimodularize(f, 4)

    def test_round_trip_identity(self):
        p = E2 * E4 + 3 * E6
        dim = len(weight_basis(6))
        assert quasimodularize(qm_eval(p, dim + 10), 6) == p

    def test_basis_expansions_independent(self):
        # the square solve block must be invertible at every used weight
        from qmgw.modular import _solve_exact

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
            # solving against an arbitrary rhs must succeed
            assert _solve_exact(rows, [ONE] * dim) is not None

    def test_weight_zero(self):
        f = PowerSeries.constant("q", rat(5), 15)
        assert quasimodularize(f, 0) == QMPolynomial.constant(5)


class TestReduceE2k:
    def test_weight_eight_and_ten(self):
        assert reduce_e2k(8) == E4 * E4
        assert reduce_e2k(10) == E4 * E6

    def test_weight_four_is_generator(self):
        assert reduce_e2k(4) == E4

    def test_always_modular(self):
        for k in (4, 6, 8, 10, 12, 14, 16):
            assert reduce_e2k(k).max_e2_exponent() == 0

    def test_weight_fourteen(self):
        assert reduce_e2k(14) == E4 * E4 * E6
