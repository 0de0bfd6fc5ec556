import random

import pytest

from qmgw.errors import InsufficientOrder, InvalidSeries
from qmgw.mirror import (
    alpha,
    appendix_identity_checks,
    borwein_a,
    borwein_c_cubed,
    hyp2f1,
    i_function_fjrw,
    i_function_gw,
    i_function_identity_checks,
    mirror_map_check,
    mirror_map_series,
    revert_series,
)
from qmgw.rational import ONE, ZERO, rat
from qmgw.series import PowerSeries


class TestHyp2F1:
    def test_first_coefficient(self):
        f = hyp2f1((rat(1, 3), rat(2, 3), ONE), 4)
        assert f.coefficient(1) == rat(2, 9)

    def test_order_zero(self):
        assert hyp2f1((rat(1, 2), rat(5), rat(3)), 0) == PowerSeries.one(
            "x", 0
        )

    def test_vanishing_upper_parameter(self):
        f = hyp2f1((ZERO, rat(7), rat(2)), 6)
        assert f == PowerSeries.one("x", 6)

    def test_pole_in_lower_parameter(self):
        with pytest.raises(InvalidSeries):
            hyp2f1((ONE, ONE, rat(-2)), 6)

    def test_geometric_case(self):
        # 2F1(1, b; b; x) = 1/(1-x)
        f = hyp2f1((ONE, rat(5), rat(5)), 8)
        assert all(c == ONE for c in f.coeffs)


class TestBorwein:
    def test_lattice_counts(self):
        # oracle: brute-force count over a generous window
        order = 40
        window = 20
        counts = [0] * (order + 1)
        for m in range(-window, window + 1):
            for n in range(-window, window + 1):
                v = m * m + m * n + n * n
                if v <= order:
                    counts[v] += 1
        assert borwein_a(order) == PowerSeries(
            "q", [rat(c) for c in counts]
        )

    def test_low_coefficients(self):
        assert list(borwein_a(4).coeffs) == [
            ONE,
            rat(6),
            ZERO,
            rat(6),
            rat(6),
        ]

    def test_representation_at_48(self):
        # m = -4, n = 8 is a representation; naive sqrt bounds miss it
        assert borwein_a(48).coefficient(48) != ZERO

    def test_c_cubed_leading(self):
        c3 = borwein_c_cubed(5)
        assert c3.coefficient(0) == ZERO
        assert c3.coefficient(1) == rat(27)

    def test_alpha_leading(self):
        a = alpha(6)
        assert a.coefficient(1) == rat(27)
        assert a.coefficient(2) == rat(-405)

    def test_alpha_against_product_oracle(self):
        # direct product assembly with independent code
        from qmgw.modular import euler_function

        order = 12
        ef = euler_function(order)
        c3 = (27 * (ef.subst_power(3) ** 9) * ef.reciprocal() ** 3).shift(1)
        a3_inv = (borwein_a(order) ** 3).reciprocal()
        assert alpha(order) == c3 * a3_inv


class TestIdentityBattery:
    def test_all_pass_at_order_twelve(self):
        report = appendix_identity_checks(12)
        assert report.passed
        assert len(report.rows) == 6

    def test_order_guard(self):
        with pytest.raises(InsufficientOrder):
            appendix_identity_checks(8)

    def test_hypergeometric_composition(self):
        order = 12
        a = borwein_a(order)
        f = hyp2f1((rat(1, 3), rat(2, 3), ONE), order)
        assert f.compose(alpha(order)) == a


class TestIFunctions:
    def test_gw_coefficients(self):
        i0, i1 = i_function_gw(3)
        assert list(i0.coeffs) == [ONE, rat(6), rat(90), rat(1680)]
        assert i1.coefficient(0) == ZERO
        # d = 1: (3d)!/(d!)^3 * 3 (1/2 + 1/3) = 6 * 5/2 = 15
        assert i1.coefficient(1) == rat(15)

    def test_gw_is_scaled_hypergeometric(self):
        report = i_function_identity_checks(12)
        assert report.passed

    def test_fjrw_leading_terms(self):
        i0, i1 = i_function_fjrw(8)
        assert i0.coefficient(1) == ONE
        assert i0.coefficient(4) == rat(1, 3) ** 3 / rat(6)
        assert i1.coefficient(2) == ONE

    def test_fjrw_supports(self):
        i0, i1 = i_function_fjrw(11)
        for n in range(12):
            if n % 3 != 1:
                assert i0.coefficient(n) == ZERO
            if n % 3 != 2:
                assert i1.coefficient(n) == ZERO


def reference_revert(f):
    """Lagrange reversion by Miller's recurrence over Fraction: (coeffs,
    start, order)."""
    h = PowerSeries(f.var, f.coeffs[1:]).reciprocal().coeffs
    g = [ZERO]
    for k in range(1, f.order + 1):
        p = [ONE]
        for m in range(1, k):
            acc = sum(
                (((k + 1) * i - m) * h[i] * p[m - i] for i in range(1, m + 1)),
                ZERO,
            )
            p.append(acc / m)
        g.append(p[k - 1] / k)
    return tuple(g), 0, f.order


class TestMirrorMap:
    def test_reversion_oracle(self):
        # g = f^{-1} built independently by Lagrange-style iteration
        f = PowerSeries("q", [ZERO, ONE, rat(3), rat(-2), rat(1, 2), ZERO])
        g = revert_series(f)
        # iterate x -> q - (f(x) - x) starting from x = q
        h = PowerSeries("q", [ZERO, ONE] + [ZERO] * 4)
        q = PowerSeries("q", [ZERO, ONE] + [ZERO] * 4)
        for _ in range(6):
            h = q - (f.compose(h) - h)
        assert g == h
        assert f.compose(g) == q

    @pytest.mark.parametrize("seed", range(8))
    def test_reversion_matches_full_products(self, seed):
        # revert_series reads (x/f)^k by Miller's recurrence, to x^(k-1)
        rng = random.Random(seed)
        order = rng.randint(1, 20)
        tail = [
            rat(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8
            else ZERO
            for _ in range(order - 1)
        ]
        f = PowerSeries("q", [ZERO, ONE] + tail)
        x_over_f = PowerSeries("q", f.coeffs[1:]).reciprocal()
        want = [ZERO]
        power = x_over_f
        for k in range(1, order + 1):
            want.append(power.coefficient(k - 1) / k)
            power = power * x_over_f
        got = revert_series(f)
        assert (got.start, got.order) == (0, order)
        assert list(got.coeffs) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_reversion_matches_the_fraction_reference(self, seed):
        # mixed denominators: the integer recurrence carries E^(i-1) and
        # the falling factorials exactly
        rng = random.Random(100 + seed)
        for _ in range(4):
            order = rng.randint(1, 16)
            tail = [
                rat(rng.randint(-30, 30), rng.randint(1, 12))
                if rng.random() < 0.8 else ZERO
                for _ in range(order - 1)
            ]
            f = PowerSeries("q", [ZERO, ONE] + tail)
            got = revert_series(f)
            assert (got.coeffs, got.start, got.order) == reference_revert(f)
            assert f.compose(got) == PowerSeries("q", [0, 1] + [0] * (order - 1))

    def test_reversion_refuses_other_rings(self):
        from qmgw.modular import E2, QMPolynomial

        zero = QMPolynomial.zero()
        f = PowerSeries("q", [ZERO, ONE, ZERO]) * PowerSeries(
            "q", [QMPolynomial.constant(1), E2, zero]
        )
        with pytest.raises(InvalidSeries):
            revert_series(f)

    def test_reversion_requires_normalized_input(self):
        with pytest.raises(InvalidSeries):
            revert_series(PowerSeries("q", [ONE, ONE]))

    def test_leading_behavior(self):
        qx = mirror_map_series(6)
        assert qx.coefficient(0) == ZERO
        assert qx.coefficient(1) == ONE

    def test_relation_holds_on_the_nose(self):
        report = mirror_map_check(10)
        assert report.passed
        assert "on the nose" in report.rows[0][2]

    def test_second_order_coefficient(self):
        # by hand: x(q) = q - 15 q^2 + ..., so 27 x(q) = 27 q - 405 q^2 + ...
        qx = mirror_map_series(4).retag("q")
        xq = revert_series(qx)
        assert xq.coefficient(2) == rat(-15)
        assert alpha(4).coefficient(2) == rat(-405)

    def test_sensitivity_control(self):
        # perturbing one coefficient of the non-log block must break it
        from qmgw.mirror import i_function_gw

        order = 10
        i0, i1 = i_function_gw(order)
        bad = i1 + PowerSeries("x", [0, 0, 0, 1] + [0] * (order - 3))
        qx = (bad.divide(i0)).exp().shift(1).retag("q")
        xq = revert_series(qx)
        assert 27 * xq != alpha(order).truncate(xq.order)

    def test_rescaling_detection_path(self, monkeypatch):
        # a hauptmodul off by q -> (1/2) q must be reported with the
        # detected rescaling factor, not as a silent mismatch
        from qmgw import mirror as m

        original = m.alpha

        def distorted(order):
            s = original(order)
            lam = rat(1, 2)
            return PowerSeries(
                s.var, [c * lam ** n for n, c in enumerate(s.coeffs)]
            )

        monkeypatch.setattr(m, "alpha", distorted)
        report = m.mirror_map_check(10)
        assert not report.passed
        assert "rescaling" in report.rows[0][2]
        assert "1/2" in report.rows[0][2]
