import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coeff_lists, rationals
from qmgw.chazy import (
    D_DS,
    THETA_1_3,
    THETA_Q,
    bp_residual,
    chazy_residual,
    chazy_solve_s,
    fjrw_genus1_series,
    genus_one_initial_data,
)
from qmgw.modular import eisenstein
from qmgw.rational import ZERO, rat
from qmgw.series import PowerSeries


def s_series(coeffs):
    return PowerSeries("s", coeffs)


class TestResiduals:
    def test_eisenstein_two_solves_q_frame(self):
        assert chazy_residual(eisenstein(2, 30), THETA_Q).is_zero()

    def test_constants_are_solutions(self):
        assert chazy_residual(
            PowerSeries.constant("s", rat(7, 2), 10), D_DS
        ).is_zero()

    def test_linear_s_gives_three(self):
        f = PowerSeries("s", [0, 1, 0, 0, 0, 0, 0])
        r = chazy_residual(f, D_DS)
        assert r == PowerSeries.constant("s", 3, r.order)

    def test_bp_of_zero(self):
        assert bp_residual(PowerSeries.zero("s", 8), D_DS).is_zero()

    def test_bp_of_genus_one_block(self):
        g = eisenstein(2, 30) * rat(-1, 24)
        assert bp_residual(g, THETA_Q).is_zero()

    @given(coeff_lists(20, max_num=8, max_den=4))
    def test_bp_chazy_proportionality(self, coeffs):
        # polynomial-expansion identity: chazy(-24 g) = -480 bp(g)
        g = s_series(coeffs)
        assert chazy_residual(-24 * g, D_DS) == -480 * bp_residual(g, D_DS)


class TestSolver:
    def test_elliptic_expansion(self):
        f = chazy_solve_s((ZERO, ZERO, rat(-2, 9)), 8)
        assert f == s_series(
            [0, 0, rat(-1, 9), 0, 0, rat(-1, 1215), 0, 0, rat(-1, 459270)]
        )

    def test_zero_solution(self):
        assert chazy_solve_s((0, 0, 0), 10).is_zero()

    def test_gap_pattern(self):
        f = chazy_solve_s(genus_one_initial_data(), 10)
        for n in (3, 4, 6, 7, 9, 10):
            assert f.coefficient(n) == ZERO

    @given(
        st.tuples(
            rationals(max_num=4, max_den=3),
            rationals(max_num=4, max_den=3),
            rationals(max_num=4, max_den=3),
        )
    )
    def test_solver_residual_vanishes(self, init):
        f = chazy_solve_s(init, 12)
        assert chazy_residual(f, D_DS).is_zero()

    @given(rationals(max_num=5, max_den=4).filter(bool))
    def test_scaling_family(self, lam):
        # lambda f(lambda s) stays a solution (weight-2 rescaling)
        f = chazy_solve_s(genus_one_initial_data(), 12)
        g = s_series([lam * lam ** n * c for n, c in enumerate(f.coeffs)])
        assert chazy_residual(g, D_DS).is_zero()

    def test_uniqueness_of_formal_solution(self):
        # two runs from the same triple agree; the recursion leaves no slack
        a = chazy_solve_s((1, rat(1, 2), rat(-1, 3)), 9)
        b = chazy_solve_s((1, rat(1, 2), rat(-1, 3)), 12)
        assert b.truncate(9) == a


class TestGenusOneSeries:
    def test_invariant_values(self):
        f = fjrw_genus1_series(9)
        assert f.coefficient(0) == ZERO
        assert f.coefficient(1) == ZERO
        assert 2 * f.coefficient(2) == THETA_1_3
        # 5! [s^5] and 8! [s^8]
        assert f.coefficient(5) == rat(1, 29160)
        assert 120 * f.coefficient(5) == rat(1, 243)
        assert 40320 * f.coefficient(8) == rat(8, 2187)

    def test_minimal_order_enforced(self):
        from qmgw.errors import InvalidSeries

        with pytest.raises(InvalidSeries):
            chazy_solve_s((0, 0, 0), 1)
