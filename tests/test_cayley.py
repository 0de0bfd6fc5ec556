import pytest

from qmgw.cayley import (
    CayleyFrame,
    FjrwInsertion,
    cayley_frame,
    cayley_transform,
    extract_fjrw_invariants,
    fjrw_correlation,
    fjrw_onepoint_all_genus,
    fjrw_primary_genus1_invariants,
)
from qmgw.chazy import D_DS, fjrw_genus1_series
from qmgw.errors import InsufficientOrder, InvalidSeries, UnsupportedInsertion
from qmgw.modular import E2, QMPolynomial, ramanujan_derive
from qmgw.rational import ZERO, parse_rat, rat
from qmgw.series import PowerSeries
from qmgw.theta import onepoint_qm

# golden data: first 12 s-coefficients of the frame, pinned after the
# first verified build (regression guard, not an oracle)
GOLDEN_E2 = [
    "0", "0", "-1/9", "0", "0", "-1/1215", "0", "0",
    "-1/459270", "0", "0", "-13/1364031900",
]
GOLDEN_E4 = [
    "0", "8/3", "0", "0", "5/81", "0", "0", "2/5103",
    "0", "0", "1/413343", "0",
]
GOLDEN_E6 = [
    "-8", "0", "0", "-28/27", "0", "0", "-7/405", "0",
    "0", "-17/98415", "0", "0",
]


@pytest.fixture(scope="module")
def frame():
    return cayley_frame(16)


class TestFrame:
    def test_reference_expansions(self, frame):
        assert frame.e2.coefficient(2) == rat(-1, 9)
        assert frame.e2.coefficient(5) == rat(-1, 1215)
        assert frame.e2.coefficient(8) == rat(-1, 459270)
        assert frame.e4.coefficient(1) == rat(8, 3)
        assert frame.e4.coefficient(4) == rat(5, 81)
        assert frame.e4.coefficient(7) == rat(2, 5103)
        assert frame.e6.coefficient(0) == rat(-8)
        assert frame.e6.coefficient(3) == rat(-28, 27)
        assert frame.e6.coefficient(6) == rat(-7, 405)

    def test_golden_regression(self, frame):
        for series, golden in (
            (frame.e2, GOLDEN_E2),
            (frame.e4, GOLDEN_E4),
            (frame.e6, GOLDEN_E6),
        ):
            for n, value in enumerate(golden):
                assert series.coefficient(n) == parse_rat(value)

    def test_frame_validates(self, frame):
        assert frame.validate()

    def test_invalid_frame_rejected(self):
        bad = CayleyFrame(
            PowerSeries("s", [0, 1, 0, 0]),
            PowerSeries.zero("s", 3),
            PowerSeries.zero("s", 3),
        )
        with pytest.raises(InvalidSeries):
            bad.validate()

    def test_minimal_order(self):
        with pytest.raises(InsufficientOrder):
            cayley_frame(2)

    def test_built_once_per_order_and_read_only(self):
        frame = cayley_frame(16)
        assert cayley_frame(16) is frame
        assert cayley_frame(17) is not frame
        with pytest.raises(AttributeError):
            frame.e2 = frame.e4
        assert frame == cayley_frame.__wrapped__(16)

    def test_served_series_are_immutable(self):
        e4 = cayley_frame(10).e4
        with pytest.raises(AttributeError):
            e4.order = 3
        with pytest.raises(AttributeError):
            e4.coeffs = (0,)
        with pytest.raises(AttributeError):
            del e4.var
        assert cayley_frame(10).e4.order == 10
        assert cayley_frame(10) == cayley_frame.__wrapped__(10)


class TestTransform:
    def test_constant_passes_through(self, frame):
        c = QMPolynomial.constant(rat(5, 3))
        out = cayley_transform(c, frame)
        assert out.coefficient(0) == rat(5, 3)
        assert all(c == ZERO for c in out.coeffs[1:])

    def test_genus_one_block(self, frame):
        lhs = cayley_transform(E2 * rat(-1, 24), frame)
        rhs = fjrw_genus1_series(frame.order)
        assert lhs == rhs

    def test_commutes_with_derivation(self, frame):
        # d/ds o transform = transform o ramanujan derivative
        import random

        from qmgw.modular import weight_basis

        rng = random.Random(20240)
        for _ in range(6):
            terms = {}
            for w in range(0, 9, 2):
                for key in weight_basis(w):
                    if rng.random() < 0.4:
                        terms[key] = rat(
                            rng.randrange(-5, 6), rng.randrange(1, 4)
                        )
            p = QMPolynomial(terms)
            lhs = cayley_transform(p, frame).derive(D_DS)
            rhs = cayley_transform(ramanujan_derive(p), frame)
            assert lhs == rhs.truncate(lhs.order)


class TestOnePointTower:
    def test_genus_one_consistency(self, frame):
        assert fjrw_onepoint_all_genus(1, frame) == fjrw_genus1_series(
            frame.order
        )

    def test_genus_two_structure(self, frame):
        # (1/2)(-CE2/24)^2 + (1/120)(CE4/24)
        ce2, ce4 = frame.e2, frame.e4
        expected = (
            rat(1, 2) * (ce2 * rat(-1, 24)) ** 2
            + rat(1, 120) * ce4 * rat(1, 24)
        )
        assert fjrw_onepoint_all_genus(2, frame) == expected

    def test_genus_two_values(self, frame):
        series = fjrw_onepoint_all_genus(2, frame)
        assert series.coefficient(0) == ZERO
        assert series.coefficient(1) == rat(1, 1080)

    def test_route_equality_to_genus_seven(self, frame):
        for g in range(1, 8):
            direct = fjrw_onepoint_all_genus(g, frame)
            transported = cayley_transform(onepoint_qm(g), frame)
            assert direct == transported

    def test_transport_pinned_against_frame_powers(self):
        # every one-point value the tower serves, at the CLI's s-orders,
        # against a sum of products of frame powers built once per order,
        # monomial by monomial: no code shared with qm_eval
        def layout(f):
            return f.var, f.start, f.order, f.coeffs

        for order in (16, 32, 80):
            frame = cayley_frame(order)
            powers = [[x**0] for x in frame]
            for row, x in zip(powers, frame):
                for _ in range(13):  # genus <= 13: every exponent is <= 13
                    row.append(row[-1] * x)
            for g in range(1, 14):
                qm = onepoint_qm(g)
                want = PowerSeries.zero("s", order)
                for (i, j, k), v in qm.terms.items():
                    want = want + powers[0][i] * powers[1][j] * powers[2][k] * v
                want = layout(want)
                assert layout(cayley_transform(qm, frame)) == want, (g, order)
                got = fjrw_onepoint_all_genus(g, frame)
                assert layout(got) == want, (g, order)

    def test_genus_zero_rejected(self, frame):
        with pytest.raises(InvalidSeries):
            fjrw_onepoint_all_genus(0, frame)


class TestCorrelation:
    def test_single_phi(self, frame):
        out = fjrw_correlation([FjrwInsertion("phi")], frame)
        assert out == fjrw_genus1_series(frame.order)

    def test_genus_two_psi_squared(self, frame):
        out = fjrw_correlation([FjrwInsertion("phi", 2)], frame)
        assert out.coefficient(1) == rat(1, 1080)

    def test_two_point_primary_is_derivative(self, frame):
        two = fjrw_correlation(
            [FjrwInsertion("phi"), FjrwInsertion("phi")], frame
        )
        one = fjrw_correlation([FjrwInsertion("phi")], frame)
        d = one.derive(D_DS)
        assert two.truncate(d.order) == d

    def test_five_phi_is_fourth_derivative(self, frame):
        five = fjrw_correlation([FjrwInsertion("phi")] * 5, frame)
        d = fjrw_correlation([FjrwInsertion("phi")], frame)
        for _ in range(4):
            d = d.derive(D_DS)
        assert isinstance(five, PowerSeries)
        assert five.truncate(d.order) == d

    def test_odd_pair_vanishes(self, frame):
        out = fjrw_correlation(
            [FjrwInsertion("b1"), FjrwInsertion("b1")], frame
        )
        assert out.is_zero()

    def test_lone_odd_insertion_unsupported(self, frame):
        with pytest.raises(UnsupportedInsertion):
            fjrw_correlation([FjrwInsertion("b1")], frame)

    def test_identity_insertion_unsupported(self, frame):
        with pytest.raises(UnsupportedInsertion):
            fjrw_correlation(
                [FjrwInsertion("1"), FjrwInsertion("phi")], frame
            )

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidSeries):
            FjrwInsertion("omega")

    def test_negative_psi_rejected(self):
        with pytest.raises(InvalidSeries):
            FjrwInsertion("phi", -1)


class TestInvariantExtraction:
    def test_genus_one_invariants(self):
        values = dict(fjrw_primary_genus1_invariants(15))
        assert values[1] == ZERO and values[2] == ZERO
        assert values[3] == rat(1, 108)
        assert values[4] == ZERO and values[5] == ZERO
        assert values[6] == rat(1, 243)
        assert values[9] == rat(8, 2187)
        assert values[12] == rat(104, 6561)
        assert values[15] == rat(2960, 59049)

    def test_extract_respects_base(self):
        f = PowerSeries("s", [rat(1), rat(2), rat(3)])
        out = extract_fjrw_invariants(f, base_n=4)
        assert out == [(4, rat(1)), (5, rat(2)), (6, rat(6))]

    def test_denominator_support(self, frame):
        # observed empirically at these orders: denominators factor over
        # {2, 3, 5, 7, 11, 13} only (regression pin, not a theorem; the
        # s^8 coefficient already carries a 7 in its denominator)
        for g in range(1, 6):
            series = fjrw_onepoint_all_genus(g, frame)
            for c in series.coeffs:
                den = c.denominator
                for p in (2, 3, 5, 7, 11, 13):
                    while den % p == 0:
                        den //= p
                assert den == 1

