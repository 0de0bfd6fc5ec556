import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coeff_lists
from qmgw.errors import InvalidSeries, VariableMismatch
from qmgw.rational import ONE, ZERO, rat
from qmgw.series import D_DS, THETA_Q, PowerSeries


def series(var, *coeffs):
    return PowerSeries(var, [rat(c) for c in coeffs])


def q_series(order):
    return coeff_lists(order).map(lambda cs: PowerSeries("q", cs))


class TestMul:
    def test_difference_of_squares(self):
        one_plus = series("q", 1, 1, 0, 0)
        one_minus = series("q", 1, -1, 0, 0)
        assert one_plus * one_minus == series("q", 1, 0, -1, 0)

    def test_multiplicative_identity(self):
        f = series("q", 3, "-1/2", 7, "2/5")
        assert f * PowerSeries.one("q", 3) == f

    def test_geometric_series_inverts_one_minus_q(self):
        order = 12
        geometric = PowerSeries("q", [ONE] * (order + 1))
        one_minus = PowerSeries.one("q", order) - PowerSeries.identity(
            "q", order
        )
        assert geometric * one_minus == PowerSeries.one("q", order)

    def test_variable_mismatch_rejected(self):
        with pytest.raises(VariableMismatch):
            series("q", 1, 2) * series("s", 1, 2)

    def test_truncation_takes_minimum(self):
        a = PowerSeries.one("q", 9)
        b = PowerSeries.one("q", 4)
        assert (a * b).order == 4

    @given(q_series(6), q_series(6), q_series(6))
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)


class TestInverseAndTranscendental:
    def test_exp_of_zero(self):
        assert PowerSeries.zero("q", 5).exp() == PowerSeries.one("q", 5)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(InvalidSeries):
            series("q", 1, 1).exp()

    def test_exp_over_generator_polynomials(self):
        from qmgw.modular import E2, E4, E6, QMPolynomial

        zero = QMPolynomial.zero()
        a = PowerSeries("z", [zero, E2, zero, E4 * rat(1, 3), zero, zero])
        b = PowerSeries("z", [zero, zero, E6 * rat(-2), zero, E2 * E4, E4])
        assert (a + b).exp() == a.exp() * b.exp()
        assert a.exp().coefficient(0) == QMPolynomial.constant(ONE)
        assert a.exp().coefficient(2) == E2 * E2 * rat(1, 2)

    def test_log_requires_unit_constant(self):
        with pytest.raises(InvalidSeries):
            series("q", 2, 1).log()

    def test_reciprocal_requires_unit(self):
        with pytest.raises(InvalidSeries):
            series("q", 0, 1).reciprocal()

    def test_log_of_inverse_euler_product(self):
        # oracle: -sum_k log(1 - q^k) expanded directly as sum_{k,j} q^{kj}/j
        order = 14
        oracle = [ZERO] * (order + 1)
        for k in range(1, order + 1):
            j = 1
            while j * k <= order:
                oracle[j * k] += rat(1, j)
                j += 1
        from qmgw.modular import euler_function

        lhs = euler_function(order).reciprocal().log()
        assert lhs == PowerSeries("q", oracle)
        # same numbers as divisor sums: sigma_1(n)/n
        for n in range(1, order + 1):
            sigma1 = sum(d for d in range(1, n + 1) if n % d == 0)
            assert oracle[n] == rat(sigma1, n)

    @given(q_series(7))
    def test_exp_log_round_trip(self, f):
        g = PowerSeries("q", [ZERO] + list(f.coeffs[1:]))
        assert g.exp().log() == g
        h = PowerSeries("q", [ONE] + list(f.coeffs[1:]))
        assert h.log().exp() == h

    @given(q_series(7))
    def test_reciprocal_is_inverse(self, f):
        g = PowerSeries("q", [ONE] + list(f.coeffs[1:]))
        assert g * g.reciprocal() == PowerSeries.one("q", 7)


class TestCompose:
    def test_inner_constant_rejected(self):
        with pytest.raises(InvalidSeries):
            series("q", 1, 1).compose(series("q", 1, 1))

    @given(q_series(6), q_series(6))
    def test_horner_matches_power_accumulation(self, f, g):
        inner = PowerSeries("q", [ZERO] + list(g.coeffs[1:]))
        expected = PowerSeries.zero("q", 6)
        power = PowerSeries.one("q", 6)
        for k in range(7):
            expected = expected + f.coefficient(k) * power
            power = power * inner
        assert f.compose(inner) == expected

    def test_compose_retags_to_inner_variable(self):
        f = series("x", 1, 2, 3)
        g = series("q", 0, 1, 1)
        assert f.compose(g).var == "q"


class TestDerive:
    def test_theta_q_on_eisenstein_leading(self):
        from qmgw.modular import eisenstein

        d = eisenstein(2, 6).derive(THETA_Q)
        assert d.coefficient(0) == ZERO
        assert d.coefficient(1) == rat(-24)

    def test_d_ds_drops_an_order(self):
        f = series("s", 5, 1, 3)
        assert f.derive(D_DS) == series("s", 1, 6)

    @given(q_series(6), q_series(6))
    def test_derivation_property_both_modes(self, a, b):
        for mode in (THETA_Q, D_DS):
            lhs = (a * b).derive(mode)
            rhs = a.derive(mode) * b + a * b.derive(mode)
            assert lhs == rhs.truncate(lhs.order)

    def test_divide_with_common_valuation(self):
        num = series("q", 0, 2, 4, 6)
        den = series("q", 0, 1, 1, 1)
        quotient = num.divide(den)
        assert quotient == series("q", 2, 2, 2)
        assert (quotient * den.truncate(2)).coeffs == num.truncate(2).coeffs


class TestLaurent:
    def test_reciprocal_of_z(self):
        z = PowerSeries("z", [ONE], 1)
        r = z.reciprocal()
        assert r.start == -1 and r.coefficient(-1) == ONE

    def test_reciprocal_newton_oracle(self):
        # f = z + z^3 c/24; Newton iteration b <- b(2 - f b) from b = 1/z
        c = rat(5)
        f = PowerSeries("z", [ONE, ZERO, c / 24, ZERO, ZERO, ZERO], 1)
        b = PowerSeries("z", [ONE, ZERO, ZERO, ZERO, ZERO, ZERO], -1)
        two = PowerSeries("z", [rat(2), ZERO, ZERO, ZERO, ZERO, ZERO], 0)
        for _ in range(4):
            b = b * (two - f * b)
        r = f.reciprocal()
        for n in range(-1, 4):
            assert r.coefficient(n) == b.coefficient(n)
        assert r.coefficient(1) == -c / 24

    def test_reciprocal_involution(self):
        f = PowerSeries("z", [rat(3), rat(1), rat(4), rat(1), rat(5)], -2)
        assert f.reciprocal().reciprocal() == f

    def test_zero_input_rejected(self):
        with pytest.raises(InvalidSeries):
            PowerSeries("z", [ZERO], 0).reciprocal()

    def test_valuation_negates(self):
        f = PowerSeries("z", [rat(2), rat(1)], 3)
        assert f.reciprocal().start == -3

    @given(
        st.integers(min_value=-3, max_value=3),
        coeff_lists(5),
    )
    def test_product_with_reciprocal_is_one(self, val, coeffs):
        coeffs = [ONE] + list(coeffs[1:])
        f = PowerSeries("z", coeffs, val)
        product = f * f.reciprocal()
        assert product.coefficient(0) == ONE
        for n in range(1, 4):
            assert product.coefficient(n) == ZERO
