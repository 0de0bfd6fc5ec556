from math import factorial

import pytest

from qmgw import modular, theta
from qmgw.cayley import cayley_frame, fjrw_onepoint_all_genus
from qmgw.errors import InvalidSeries, NotQuasiModular
from qmgw.modular import E2, E4, E6, QMPolynomial, qm_eval, quasimodularize
from qmgw.rational import ONE, rat
from qmgw.series import D_DS, PowerSeries
from qmgw.theta import (
    b_table,
    log_theta_deriv,
    one_over_theta,
    onepoint_from_b,
    onepoint_qm,
    prime_form,
    prime_form_exponential,
    sigma_tilde,
    weierstrass_a,
)

QM1 = QMPolynomial.constant(ONE)


class TestSigma:
    def test_leading_term(self):
        s = sigma_tilde(7)
        assert s.coefficient(1) == QM1

    def test_z5_coefficient(self):
        # a_{1,0}/5! * (E4/24) with a_{1,0} = -1
        assert sigma_tilde(7).coefficient(5) == E4 * rat(-1, 2880)

    def test_odd_series(self):
        s = sigma_tilde(12)
        for n in range(2, 12, 2):
            assert s.coefficient(n).is_zero()

    def test_two_routes_agree(self):
        assert prime_form(15) == prime_form_exponential(15)

    def test_production_route_fits_no_q_expansion(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise NotQuasiModular("q-expansion fit on the production route")

        monkeypatch.setattr(modular, "quasimodularize", refuse)
        modular.reduce_e2k.cache_clear()
        for value in vars(theta).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        assert prime_form(30).order == 30
        assert sigma_tilde(30).order == 30
        assert one_over_theta(30).order == 28
        assert b_table(30)[(0, 0)] == ONE
        with pytest.raises(NotQuasiModular):
            prime_form_exponential(30)


class TestWeierstrassTables:
    def test_a_initial_values(self):
        a = weierstrass_a(12)
        assert a[(0, 0)] == ONE
        # one recursion step: only the last term survives
        assert a[(1, 0)] == rat(-1)
        assert a[(0, 1)] == 3 * a[(1, 0)]

    def test_b_initial_values(self):
        b = b_table(12)
        assert b[(0, 0)] == ONE
        assert b[(1, 0)] == rat(1, 120)

    def test_b_cross_route_weight_four(self):
        # sum over 2l+4m+6n = 4 of the b-formula equals [z^3](1/Theta)
        assert onepoint_from_b(2) == one_over_theta(7).coefficient(3)

    def test_cached_tables_are_read_only(self):
        for table in (weierstrass_a(6), b_table(6)):
            with pytest.raises(TypeError):
                table[(0, 0)] = 5
        assert weierstrass_a(6)[(0, 0)] == ONE
        assert b_table(6)[(0, 0)] == ONE


class TestPrimeForm:
    def test_leading_coefficients(self):
        theta = prime_form(5)
        assert theta.coefficient(1) == QM1
        assert theta.coefficient(3) == E2 * rat(1, 24)

    def test_weight_grading(self):
        theta = prime_form(11)
        for k in range(1, 6):
            coeff = theta.coefficient(2 * k + 1)
            if not coeff.is_zero():
                assert coeff.weight == 2 * k

    def test_tower_weights(self):
        for g in range(1, 14):
            assert onepoint_qm(g).weight == onepoint_from_b(g).weight == 2 * g
        theta = prime_form(15)
        for k in range(1, 16):
            if theta.coefficient(k):
                assert theta.coefficient(k).weight == k - 1
        oot = one_over_theta(15)
        for k in range(-1, oot.order + 1):
            if oot.coefficient(k):
                assert oot.coefficient(k).weight == k + 1

    def test_one_over_theta_low_coefficients(self):
        oot = one_over_theta(7)
        assert oot.coefficient(-1) == QM1
        assert oot.coefficient(1) == E2 * rat(-1, 24)
        expected = QMPolynomial(
            {(0, 1, 0): rat(1, 2880), (2, 0, 0): rat(1, 1152)}
        )
        assert oot.coefficient(3) == expected
        # same thing written as (1/576)(E4/5 + E2^2/2)
        assert expected == (E4 / 5 + E2 * E2 / 2) * rat(1, 576)

    def test_product_with_reciprocal(self):
        theta = prime_form(9)
        product = theta * one_over_theta(9)
        assert product.coefficient(0) == QM1
        for n in range(1, 6):
            assert product.coefficient(n).is_zero()


class TestLogThetaDeriv:
    def test_first_derivative(self):
        d1 = log_theta_deriv(1, 6)
        assert d1.start == -1
        assert d1.coefficient(-1) == QM1
        assert d1.coefficient(1) == E2 * rat(1, 12)

    def test_second_derivative(self):
        d2 = log_theta_deriv(2, 6)
        assert d2.start == -2
        assert d2.coefficient(-2) == -QM1

    def test_m_zero_rejected(self):
        with pytest.raises(InvalidSeries):
            log_theta_deriv(0, 6)

    def test_derivative_consistency(self):
        # d/dz of log-derivative order m gives order m+1
        d1 = log_theta_deriv(1, 8)
        d2 = log_theta_deriv(2, 7)
        stepped = d1.derive(D_DS)
        for n in range(-2, 6):
            assert stepped.coefficient(n) == d2.coefficient(n)

    def test_theta_derivative_against_ratio(self):
        # Theta' = (dlog Theta) * Theta
        theta = prime_form(9)
        lhs = theta.derive(D_DS)
        rhs = log_theta_deriv(1, 8) * theta
        for n in range(0, 7):
            assert lhs.coefficient(n) == rhs.coefficient(n)


class TestOnePointTower:
    def test_genus_one(self):
        assert onepoint_qm(1) == E2 * rat(-1, 24)

    def test_cached_polynomial_is_read_only(self):
        with pytest.raises(TypeError):
            onepoint_qm(1).terms[(1, 0, 0)] = 99
        assert onepoint_qm(1) == E2 * rat(-1, 24)

    def test_genus_two(self):
        assert onepoint_qm(2) == QMPolynomial(
            {(0, 1, 0): rat(1, 2880), (2, 0, 0): rat(1, 1152)}
        )

    def test_b_route_equality_to_genus_seven(self):
        for g in range(1, 8):
            assert onepoint_qm(g, z_order=15) == onepoint_from_b(g)

    def test_membership_at_declared_weight(self):
        for g in range(1, 6):
            p = onepoint_qm(g)
            w = 2 * g
            expansion = qm_eval(p, 24)
            assert quasimodularize(expansion, w) == p

    def test_q_expansion_anchors(self):
        series = qm_eval(onepoint_qm(1), 6)
        assert series.coefficient(0) == rat(-1, 24)
        assert series.coefficient(1) == ONE

    @pytest.mark.parametrize("ring", ["generators", "cayley"])
    def test_b_sum_matches_power_formula(self, ring):
        # onepoint_from_b writes the monomials down, and its Cayley image
        # runs Horner over cached columns; the formula takes ** anew
        if ring == "generators":
            images = (E2 * rat(-1, 24), E4 * rat(1, 24), E6 * rat(-1, 108))
        else:
            frame = cayley_frame(32)
            images = (
                frame.e2 * rat(-1, 24),
                frame.e4 * rat(1, 24),
                frame.e6 * rat(-1, 108),
            )
        c2, c4, c6 = images
        for g in range(1, 14):
            table = b_table(2 * g)
            want = None
            for (m, n), b in table.items():
                l = g - 2 * m - 3 * n
                if l < 0 or not b:
                    continue
                term = (b / factorial(l)) * ((c2 ** l) * (c4 ** m) * (c6 ** n))
                want = term if want is None else want + term
            if ring == "generators":
                assert onepoint_from_b(g) == want, g
            else:
                got = fjrw_onepoint_all_genus(g, frame)
                assert (got.start, got.order) == (want.start, 32)
                assert got.coeffs == want.coeffs


class TestZLaurent:
    """Laurent series in z with generator-polynomial coefficients."""

    def test_valuation_skips_leading_zeros(self):
        z = PowerSeries("z", [QMPolynomial.zero(), QM1, QM1], -2)
        assert z.valuation() == -1
        assert z.start == -2 and z.order == 0

    def test_reciprocal_requires_constant_lead(self):
        with pytest.raises(InvalidSeries):
            PowerSeries("z", [E2]).reciprocal()

    def test_mul_valuations_add(self):
        a = PowerSeries("z", [QM1, QM1], 2)
        b = PowerSeries("z", [QM1, QM1], -1)
        assert (a * b).valuation() == 1
