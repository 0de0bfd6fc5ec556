from functools import lru_cache

import pytest

from qmgw import anomaly, modular
from qmgw.anomaly import (
    _frame_substitution,
    d_dC2,
    hae_onepoint_check,
    prime_form_anomaly_check,
)
from qmgw.cayley import cayley_frame, cayley_transform
from qmgw.modular import E2, E4, E6, QMPolynomial, weight_basis
from qmgw.rational import ONE, rat
from qmgw.series import PowerSeries
from qmgw.theta import onepoint_qm

C2 = E2 * rat(-1, 24)


class TestAnomalyDerivative:
    def test_on_c2(self):
        assert d_dC2(C2) == QMPolynomial.constant(ONE)

    def test_kills_other_generators(self):
        assert d_dC2(E4).is_zero()
        assert d_dC2(E6).is_zero()

    def test_power_rule(self):
        from math import factorial

        for g in range(1, 6):
            got = d_dC2(C2 ** g / factorial(g))
            want = C2 ** (g - 1) / factorial(g - 1)
            assert got == want

    def test_derivation_property(self):
        p = E2 * E4 + QMPolynomial.constant(3)
        q = E2 * E2 * E6
        assert d_dC2(p * q) == d_dC2(p) * q + p * d_dC2(q)

    def test_weight_drops_by_two(self):
        assert d_dC2(E2).weight == 0


class TestPrimeFormAnomaly:
    def test_full_report_passes(self):
        report = prime_form_anomaly_check(9)
        assert report.passed
        assert len(report.rows) > 10

    def test_z3_coefficient_detail(self):
        # d/dC2 (E2/24) = -1 equals -[z^1] Theta = -1
        from qmgw.theta import prime_form

        theta = prime_form(5)
        assert d_dC2(theta.coefficient(3)) == -theta.coefficient(1)

    def test_z1_coefficient_of_reciprocal(self):
        from qmgw.theta import one_over_theta

        oot = one_over_theta(5)
        assert d_dC2(oot.coefficient(1)) == oot.coefficient(-1)


class TestOnePointLadder:
    def test_to_genus_seven(self):
        report = hae_onepoint_check(7)
        assert report.passed
        # both directions present
        names = [name for name, _, _ in report.rows]
        assert any("curve side" in n for n in names)
        assert any("s-frame side" in n for n in names)

    def test_genus_two_by_hand(self):
        assert d_dC2(onepoint_qm(2)) == onepoint_qm(1)

    def test_genus_one_hits_constant(self):
        assert d_dC2(onepoint_qm(1)) == QMPolynomial.constant(ONE)

    def test_minimal_genus(self):
        with pytest.raises(ValueError):
            hae_onepoint_check(1)


class TestFrameSubstitution:
    """The integer substitution route equals the production transport."""

    def test_every_generator_monomial_to_weight_14(self):
        frame = cayley_frame(40)
        monomials = [
            QMPolynomial({key: 1})
            for w in range(0, 15, 2)
            for key in weight_basis(w)
        ]
        want = [cayley_transform(p, frame) for p in monomials]
        assert _frame_substitution(monomials, frame) == want

    @pytest.mark.parametrize("s_order", [12, 40, 80])
    def test_one_point_tower_to_genus_seven(self, s_order):
        frame = cayley_frame(s_order)
        tower = [onepoint_qm(g) for g in range(1, 8)]
        want = [cayley_transform(p, frame) for p in tower]
        assert _frame_substitution(tower, frame) == want

    def test_zero_polynomial(self):
        frame = cayley_frame(12)
        got = _frame_substitution([QMPolynomial.zero()], frame)
        assert got == [PowerSeries.zero("s", 12)]

    def test_ladder_sees_a_fault_in_the_production_transport(
        self, monkeypatch
    ):
        # the columns CE4^b, b >= 3, of qm_eval's Horner built with CE6 in
        # place of their last CE4 factor; c_6 is the first genus to read one
        @lru_cache(maxsize=None)
        def faulty(pair, b, c):
            gen = pair.x4 if b < 3 else pair.x6
            prev, gen = ((b, c - 1), pair.x6) if c else ((b - 1, 0), gen)
            return faulty(pair, *prev) * gen if any(prev) else gen

        monkeypatch.setattr(modular, "_column", faulty)
        anomaly._onepoint_transport.cache_clear()
        try:
            report = hae_onepoint_check(7)
        finally:
            anomaly._onepoint_transport.cache_clear()
        failing = [name for name, ok, _ in report.rows if not ok]
        assert failing == [
            "s-frame side: transport of d/dC2 c_7 = genus-6 series"
        ]
