import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coeff_lists, rationals
from qmgw import verify
from qmgw.cayley import CayleyFrame, cayley_frame
from qmgw.chazy import (
    D_DS,
    THETA_1_3,
    THETA_Q,
    _ramanujan_residuals,
    bp_residual,
    chazy_residual,
    chazy_solve_s,
    fjrw_genus1_series,
    genus_one_initial_data,
)
from qmgw.cli import main
from qmgw.errors import InsufficientOrder, InvalidSeries, QmgwError
from qmgw.modular import E2, E4, E6, eisenstein
from qmgw.rational import ZERO, rat
from qmgw.series import PowerSeries

MODES = (THETA_Q, D_DS)
OVER_Q = "needs power series over Q starting at exponent 0"


def s_series(coeffs):
    return PowerSeries("s", coeffs)


# the residuals in series operations: the reference the integer passes of
# `chazy` must reproduce, variable, start, order and coefficients


def reference_chazy(f, mode):
    d1 = f.derive(mode)
    d2 = d1.derive(mode)
    d3 = d2.derive(mode)
    return 2 * d3 - 2 * (f * d2) + 3 * (d1 * d1)


def reference_bp(g, mode):
    d1 = g.derive(mode)
    d2 = d1.derive(mode)
    d3 = d2.derive(mode)
    return (
        rat(12, 5) * (g * d2)
        - rat(18, 5) * (d1 * d1)
        + rat(1, 10) * d3
    )


def reference_ramanujan(e2, e4, e6, mode):
    return (
        e2.derive(mode) - (e2 * e2 - e4) * rat(1, 12),
        e4.derive(mode) - (e2 * e4 - e6) * rat(1, 3),
        e6.derive(mode) - (e2 * e6 - e4 * e4) * rat(1, 2),
    )


def layout(f):
    return f.var, f.start, f.order, f.coeffs


@st.composite
def series_over_q(draw, min_order=3, max_order=30):
    """A power series over Q: zero, integral or with denominators."""
    var = draw(st.sampled_from(("q", "s")))
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    kind = draw(st.sampled_from(("zero", "integral", "rational")))
    if kind == "zero":
        return PowerSeries.zero(var, order)
    max_den = 1 if kind == "integral" else 8
    return PowerSeries(var, draw(coeff_lists(order, max_den=max_den)))


@st.composite
def ramanujan_triples(draw):
    """Three power series over Q in one variable, of unequal orders."""
    e2 = draw(series_over_q(min_order=1))
    rest = [draw(series_over_q(min_order=1)).retag(e2.var) for _ in range(2)]
    return (e2, *rest)


def raised(fn, *args):
    with pytest.raises(QmgwError) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestIntegerPasses:
    @given(series_over_q(), st.sampled_from(MODES))
    def test_chazy_matches_the_series_reference(self, f, mode):
        assert layout(chazy_residual(f, mode)) == layout(reference_chazy(f, mode))

    @given(series_over_q(), st.sampled_from(MODES))
    def test_bp_matches_the_series_reference(self, g, mode):
        assert layout(bp_residual(g, mode)) == layout(reference_bp(g, mode))

    @given(ramanujan_triples(), st.sampled_from(MODES))
    def test_ramanujan_matches_the_series_reference(self, triple, mode):
        got = _ramanujan_residuals(*triple, mode)
        want = reference_ramanujan(*triple, mode)
        assert [layout(r) for r in got] == [layout(r) for r in want]

    def test_eisenstein_and_cayley_frames(self):
        # wide integer coefficients on the q side, denominators on the s side
        q = [eisenstein(k, 60) for k in (2, 4, 6)]
        s = list(cayley_frame(24))
        for triple, mode in ((q, THETA_Q), (s, D_DS)):
            got = _ramanujan_residuals(*triple, mode)
            want = reference_ramanujan(*triple, mode)
            assert [layout(r) for r in got] == [layout(r) for r in want]
            assert all(r.is_zero() for r in got)
            e2 = triple[0]
            assert layout(chazy_residual(e2, mode)) == layout(
                reference_chazy(e2, mode)
            )
            assert layout(bp_residual(e2, mode)) == layout(reference_bp(e2, mode))


class TestRefusals:
    LAURENT = PowerSeries("s", [1, rat(1, 2), 0, 3, rat(-2, 3)], start=-1)
    OVER_GENERATORS = PowerSeries("q", [E2, E4, E6, E2 * E4, E4 * E6])

    @pytest.mark.parametrize("f", [LAURENT, OVER_GENERATORS])
    @pytest.mark.parametrize("mode", MODES)
    def test_series_outside_q_power_series(self, f, mode):
        # the series operations accepted these; the integer passes name
        # their domain instead
        reference_chazy(f, mode)
        reference_bp(f, mode)
        reference_ramanujan(f, f, f, mode)
        for fn in (chazy_residual, bp_residual):
            assert raised(fn, f, mode) == (InvalidSeries, f"{fn.__name__} {OVER_Q}")
        assert raised(_ramanujan_residuals, f, f, f, mode) == (
            InvalidSeries,
            f"the Ramanujan residuals {OVER_Q}",
        )

    @pytest.mark.parametrize(
        "mode, order", [("d_dz", 6), (D_DS, 0), (D_DS, 1), (D_DS, 2)]
    )
    def test_same_errors_as_the_series_operations(self, mode, order):
        f = PowerSeries("s", [rat(1, 3)] * (order + 1))
        assert raised(chazy_residual, f, mode) == raised(reference_chazy, f, mode)
        assert raised(bp_residual, f, mode) == raised(reference_bp, f, mode)
        if mode == D_DS and order >= 1:
            # one derivative is all the Ramanujan rows take
            _ramanujan_residuals(f, f, f, mode)
        else:
            assert raised(_ramanujan_residuals, f, f, f, mode) == raised(
                reference_ramanujan, f, f, f, mode
            )

    def test_order_one_d_ds_text(self):
        f = PowerSeries("s", [1, 2])
        assert raised(chazy_residual, f, D_DS) == (
            InsufficientOrder,
            "d/ds of an order-0 series leaves nothing known",
        )

    def test_mixed_variables(self):
        f = PowerSeries("s", [1, 2, 3])
        g = PowerSeries("q", [1, 2, 3])
        for triple in ((f, g, f), (f, f, g)):
            assert raised(_ramanujan_residuals, *triple, D_DS) == raised(
                reference_ramanujan, *triple, D_DS
            )


def perturbed_eisenstein(weight, k):
    """`eisenstein` with 1 added to [q^k] of E_weight."""

    def eis(w, order):
        e = eisenstein(w, order)
        if w != weight:
            return e
        c = list(e.coeffs)
        c[k] += 1
        return PowerSeries("q", c)

    return eis


def failed_rows(argv):
    out = io.StringIO()
    code = main(["verify", *argv, "--no-cache"], out=out)
    return code, [line for line in out.getvalue().splitlines() if "FAIL" in line]


class TestFailurePaths:
    @pytest.mark.parametrize(
        "k, failures",
        [
            (0, "['ramanujan E2', 'ramanujan E4', 'ramanujan E6']"),
            (4, "['ramanujan E2', 'ramanujan E4', 'ramanujan E6']"),
            (15, "['ramanujan E2', 'ramanujan E4']"),
            (16, "['ramanujan E4']"),
        ],
    )
    def test_frame_with_a_changed_ce4_coefficient(self, k, failures):
        frame = cayley_frame(16)
        c = list(frame.e4.coeffs)
        c[k] += rat(1, 7)
        bad = CayleyFrame(frame.e2, PowerSeries("s", c), frame.e6)
        with pytest.raises(InvalidSeries) as info:
            bad.validate()
        assert str(info.value) == f"Cayley frame inconsistent: {failures}"

    def test_verify_ramanujan_with_a_perturbed_e4(self, monkeypatch):
        monkeypatch.setattr(verify, "eisenstein", perturbed_eisenstein(4, 7))
        assert failed_rows(["ramanujan"]) == (
            1,
            [
                "  FAIL  theta_q E2 = (E2^2 - E4)/12  (first mismatch at q^7)",
                "  FAIL  theta_q E4 = (E2 E4 - E6)/3  (first mismatch at q^7)",
                "  FAIL  theta_q E6 = (E2 E6 - E4^2)/2  (first mismatch at q^7)",
                "verify: FAIL",
            ],
        )

    def test_verify_chazy_and_bp_with_a_perturbed_e2(self, monkeypatch):
        monkeypatch.setattr(verify, "eisenstein", perturbed_eisenstein(2, 5))
        assert failed_rows(["chazy", "bp"]) == (
            1,
            [
                "  FAIL  E2 satisfies the q-frame equation  (residual at q^5)",
                "  FAIL  genus-one building block solves the relation  "
                "(residual at q^5)",
                "verify: FAIL",
            ],
        )


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
