import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coeff_lists, rational_or_integral_lists
from qmgw import modular
from qmgw import series as series_module
from qmgw.errors import InsufficientOrder, InvalidSeries, VariableMismatch
from qmgw.modular import E2, E4, QMPolynomial, qm_eval
from qmgw.rational import ONE, ZERO, Rational, parse_rat, rat
from qmgw.series import D_DS, THETA_Q, PowerSeries
from qmgw._backend import conv_trunc


def series(var, *coeffs):
    return PowerSeries(var, [rat(c) for c in coeffs])


def q_series(order, lists=coeff_lists):
    return lists(order).map(lambda cs: PowerSeries("q", cs))


class TestRat:
    def test_exact_argument_returned_as_is(self):
        x = Rational(-3, 4)
        assert rat(x) is x
        assert rat(x, 2) == Rational(-3, 8)

    @pytest.mark.parametrize(
        "value, want",
        [(3, 3), (-7, -7), (True, 1), (False, 0)],
    )
    def test_other_arguments_keep_value_and_type(self, value, want):
        got = rat(value)
        assert got == want and type(got) is Rational

    def test_strings_are_read_by_parse_rat_alone(self):
        assert parse_rat("-10/12") == Rational(-5, 6)
        with pytest.raises(TypeError):
            rat("-10/12")


class TestMul:
    def test_difference_of_squares(self):
        one_plus = series("q", 1, 1, 0, 0)
        one_minus = series("q", 1, -1, 0, 0)
        assert one_plus * one_minus == series("q", 1, 0, -1, 0)

    def test_multiplicative_identity(self):
        f = series("q", 3, rat(-1, 2), 7, rat(2, 5))
        assert f * PowerSeries.one("q", 3) == f

    def test_geometric_series_inverts_one_minus_q(self):
        order = 12
        geometric = PowerSeries("q", [ONE] * (order + 1))
        one_minus = series("q", 1, -1, *[0] * (order - 1))
        assert geometric * one_minus == PowerSeries.one("q", order)

    def test_variable_mismatch_rejected(self):
        with pytest.raises(VariableMismatch):
            series("q", 1, 2) * series("s", 1, 2)

    def test_truncation_takes_minimum(self):
        a = PowerSeries.one("q", 9)
        b = PowerSeries.one("q", 4)
        assert (a * b).order == 4

    @given(
        q_series(6, rational_or_integral_lists),
        q_series(6, rational_or_integral_lists),
        q_series(6, rational_or_integral_lists),
    )
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

    def test_reciprocal_requires_unit(self):
        with pytest.raises(InvalidSeries):
            series("q", 0, 1).reciprocal()

    @given(q_series(7, rational_or_integral_lists), st.sampled_from([ONE, -ONE]))
    def test_reciprocal_is_inverse(self, f, unit):
        g = PowerSeries("q", [unit] + list(f.coeffs[1:]))
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

    @given(
        st.sampled_from("qs"),
        st.integers(0, 12).flatmap(coeff_lists),
        st.integers(0, 12).flatmap(coeff_lists),
    )
    def test_matches_untruncated_horner(self, var, outer, inner):
        # compose carries Horner step k to order n - k only
        f = PowerSeries(var, outer)
        g = PowerSeries(var, [ZERO] + inner[1:])
        n = min(f.order, g.order)
        want = PowerSeries.constant(var, f.coefficient(n), n)
        for k in range(n - 1, -1, -1):
            want = want * g.truncate(n) + f.coefficient(k)
        got = f.compose(g)
        assert (got.var, got.start, got.order) == (var, 0, n)
        assert got.coeffs == want.coeffs

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


def reference_product(f, g):
    """f * g term by term over Fraction: (coeffs, start, order)."""
    start = f.start + g.start
    order = min(f.order + g.start, g.order + f.start)
    out = [Rational(0)] * (order - start + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            if i + j < len(out):
                out[i + j] += a * b
    return tuple(out), start, order


def reference_reciprocal(f):
    """1/f by its defining recurrence over Fraction: (coeffs, start, order)."""
    a = f.coeffs
    out = [1 / a[0]]
    for k in range(1, len(a)):
        acc = sum((a[i] * out[k - i] for i in range(1, k + 1)), Rational(0))
        out.append(-acc / a[0])
    return tuple(out), -f.start, f.order - 2 * f.start


def integral_grid(seed):
    """Seeded z-series: integral ones (zero and negative entries, some with
    a +-1 constant), rational ones (one entry at least not an integer), and
    integral ones whose last coefficient alone is not; unequal orders and
    Laurent starts -3..3, every kind below 0 in the first round."""
    rng = random.Random(seed)
    out = []
    for i, kind in enumerate(("integral", "unit", "rational", "last") * 4):
        n = rng.randint(0, 12)
        cs = [
            rat(rng.choice((0, rng.randint(-60, -1), rng.randint(1, 60))))
            for _ in range(n + 1)
        ]
        if kind == "unit":
            cs[0] = rat(rng.choice((1, -1)))
        elif kind == "rational":
            cs = [rat(rng.randint(-60, 60), rng.randint(1, 9)) for _ in cs]
            cs[rng.randint(0, n)] = rat(
                2 * rng.randint(-30, 30) + 1, 2 * rng.randint(1, 4)
            )
        elif kind == "last":
            cs[-1] = rat(2 * rng.randint(-30, 30) + 1, 2)
        start = rng.randint(-3, -1) if i < 4 else rng.randint(-3, 3)
        out.append(PowerSeries("z", cs, start))
    return out


def is_integral(f):
    return all(c.denominator == 1 for c in f.coeffs)


class TestIntegralPath:
    """A product of two series over Q runs over ZZ, each factor scaled to
    its least common denominator and each result wrapped once over the
    product of the two, with unchanged results."""

    @pytest.mark.parametrize("seed", range(4))
    def test_products_match_the_fraction_reference(self, seed, monkeypatch):
        calls = []

        def recording(a, b, n, zero):
            ints = all(type(x) is int for x in (*a, *b))
            calls.append((zero, ints))
            return conv_trunc(a, b, n, zero)

        monkeypatch.setattr(series_module, "conv_trunc", recording)
        grid = integral_grid(seed)
        kinds = set()  # (integral factors, the product starts below 0)
        for f in grid:
            for g in grid:
                got = f * g
                assert (got.coeffs, got.start, got.order) == reference_product(f, g)
                assert all(type(c) is Rational for c in got.coeffs)
                zero, ints = calls.pop()
                assert type(zero) is int
                assert ints
                kinds.add((is_integral(f) + is_integral(g), got.start < 0))
        assert not calls
        assert kinds == {(n, below) for n in range(3) for below in (True, False)}

    @pytest.mark.parametrize("seed", range(4))
    def test_reciprocals_match_the_fraction_reference(self, seed):
        for f in integral_grid(seed):
            if not f.coeffs[0]:
                continue
            got = f.reciprocal()
            assert (got.coeffs, got.start, got.order) == reference_reciprocal(f)
            assert all(type(c) is Rational for c in got.coeffs)

    def test_unit_constant_minus_one(self):
        f = series("q", -1, 3, 0, -2, 5)
        assert f.reciprocal().coeffs == reference_reciprocal(f)[0]
        assert (f * f.reciprocal()).coeffs == (ONE, ZERO, ZERO, ZERO, ZERO)

    def test_integral_times_generator_series(self):
        from qmgw.modular import QMPolynomial
        from qmgw.theta import prime_form

        qm0 = QMPolynomial.zero()
        f = PowerSeries("z", [rat(1), rat(-2), rat(0), rat(3), rat(1), rat(4)])
        g = PowerSeries("z", prime_form(6).coeffs)
        mixed = f * g  # over Q by its zero, with polynomial coefficients
        for a, b in ((f, g), (g, f), (mixed, f), (f, mixed)):
            want, start, order = reference_product(a, b)
            got = a * b
            assert (got.start, got.order) == (start, order)
            assert [qm0 + c for c in got.coeffs] == [qm0 + c for c in want]


def reference_exp(f):
    """exp(f) by its defining recurrence over Fraction: (coeffs, start,
    order)."""
    a = f.coeffs
    out = [Rational(1)]
    for k in range(1, len(a)):
        acc = sum((i * a[i] * out[k - i] for i in range(1, k + 1)), Rational(0))
        out.append(acc / k)
    return tuple(out), 0, f.order


def reference_compose(f, g):
    """f(g) by Horner over Fraction, step k to order n - k: (coeffs, start,
    order)."""
    n = min(f.order, g.order)
    step = [f.coeffs[n]]
    for k in range(n - 1, -1, -1):
        step = [f.coeffs[k]] + conv_trunc(step, g.coeffs[1 : n + 1], n - k - 1, ZERO)
    return tuple(step), 0, n


def rational_grid(seed, count=16, constant=None):
    """Seeded series over Q: mixed denominators 1..12, zero entries, orders
    0..12; with `constant` the constant term is set to it."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cs = [
            ZERO if rng.random() < 0.2
            else rat(rng.randint(-40, 40), rng.randint(1, 12))
            for _ in range(rng.randint(0, 12) + 1)
        ]
        if constant is not None:
            cs[0] = constant
        out.append(PowerSeries("z", cs))
    return out


class TestRationalPath:
    """Reciprocal, exp and compose over Q run on one common denominator,
    with the results of the Fraction recurrences (the reciprocal's seeded
    grid is TestIntegralPath's, whose rational series have non-unit
    leading coefficients and Laurent starts)."""

    def test_laurent_reciprocal_with_non_unit_leading_coefficient(self):
        f = PowerSeries(
            "z", [rat(-3, 2), rat(1, 3), ZERO, rat(5, 4), rat(-7, 6), rat(2)], -2
        )
        got = f.reciprocal()
        assert (got.coeffs, got.start, got.order) == reference_reciprocal(f)
        assert (got.start, got.order) == (2, 7)
        product = f * got
        assert product.coeffs == (ONE,) + (ZERO,) * 5

    @pytest.mark.parametrize("seed", range(4))
    def test_exp_matches_the_fraction_reference(self, seed):
        for f in rational_grid(seed, constant=ZERO):
            got = f.exp()
            assert (got.coeffs, got.start, got.order) == reference_exp(f)
            assert all(type(c) is Rational for c in got.coeffs)

    @pytest.mark.parametrize("seed", range(4))
    def test_compose_matches_the_fraction_reference(self, seed):
        outers = rational_grid(seed, count=6)
        inners = rational_grid(seed + 100, count=6, constant=ZERO)
        for f in outers:
            for g in inners:
                got = f.compose(g.retag("q"))
                assert (got.coeffs, got.start, got.order) == reference_compose(f, g)
                assert got.var == "q"
                assert all(type(c) is Rational for c in got.coeffs)

    def test_compose_refuses_other_rings(self):
        from qmgw.modular import E2

        zero = QMPolynomial.zero()
        over_qm = PowerSeries("z", [QMPolynomial.constant(1), E2, zero])
        inner = series("z", 0, 1, rat(1, 2))
        with pytest.raises(InvalidSeries, match="over Q"):
            over_qm.compose(inner)
        with pytest.raises(InvalidSeries, match="over Q"):
            inner.compose(PowerSeries("z", [zero, E2, zero]))


def lifted(f):
    """f with every coefficient c lifted to the generator polynomial c."""
    coeffs = [QMPolynomial.constant(c) for c in f.coeffs]
    return PowerSeries(f.var, coeffs, f.start)


class TestAcrossRings:
    """Reciprocal and exp run one recurrence over Q and over the generator
    polynomials: a series over Q and its lift give the same result."""

    @staticmethod
    def assert_same(over_q, over_qm):
        assert (over_qm.start, over_qm.order) == (over_q.start, over_q.order)
        want = tuple(QMPolynomial.constant(c) for c in over_q.coeffs)
        assert over_qm.coeffs == want

    @pytest.mark.parametrize("seed", range(4))
    def test_reciprocal(self, seed):
        rng = random.Random(seed)
        grid = [
            PowerSeries("z", f.coeffs, rng.randint(-3, 3))
            for f in rational_grid(seed)
            if f.coeffs[0]
        ]
        assert any(abs(f.coeffs[0]) != 1 for f in grid)
        assert any(f.start for f in grid)
        for f in grid:
            self.assert_same(f.reciprocal(), lifted(f).reciprocal())

    @pytest.mark.parametrize("seed", range(4))
    def test_exp(self, seed):
        for f in rational_grid(seed, constant=ZERO):
            self.assert_same(f.exp(), lifted(f).exp())


class TestCoefficient:
    def test_below_start_is_zero(self):
        f = PowerSeries("z", [rat(2), rat(1)], 3)
        assert f.coefficient(2) == ZERO and f.coefficient(-5) == ZERO
        assert f.coefficient(3) == 2 and f.coefficient(4) == 1

    def test_past_order_is_unknown(self):
        f = series("q", 1, 2, 3)
        with pytest.raises(InsufficientOrder) as err:
            f.coefficient(3)
        assert err.value.required == 3
        assert "known to order 2" in str(err.value)


class TestShift:
    def test_negative_shift_rejected(self):
        with pytest.raises(InvalidSeries):
            series("q", 1, 2, 3, 4).shift(-1)


def horner_by_powers(terms, gens, one):
    """The substituted sum term by term, each x ** e built anew."""
    out = None
    for key, v in sorted(terms.items()):
        term = one * v
        for x, e in zip(gens, key):
            if e:
                term = term * x ** e
        out = term if out is None else out + term
    return out


def random_terms(rng, top=9):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        key = (rng.randint(0, top), rng.randint(0, 5), rng.randint(0, 4))
        terms[key] = rat(rng.randint(-30, 30), rng.randint(1, 12))
    # an E2 exponent with empty rows below it
    terms[(top, rng.randint(0, 2), rng.randint(0, 2))] = ONE
    return terms


def random_gens(rng, var, order, start=0):
    return tuple(
        PowerSeries(
            var,
            [rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(order + 1)],
            start,
        )
        for _ in range(3)
    )


def eisenstein_grid():
    """Seeded generator polynomials for the Eisenstein frame: the zero
    polynomial, a constant, one with an empty E2 row, homogeneous ones
    of weight 0-40 and mixed-weight ones, with integral and non-integral
    coefficients."""
    rng = random.Random(30)
    grid = [
        QMPolynomial.zero(),
        QMPolynomial.constant(rat(-5, 3)),
        QMPolynomial({(2, 0, 0): rat(1, 12), (0, 1, 0): rat(-7)}),
    ]
    for w in range(0, 42, 2):
        keys = modular.weight_basis(w)
        grid.append(QMPolynomial({
            key: rat(rng.randint(-99, 99), rng.choice((1, 1, 2, 12, 691)))
            for key in rng.sample(keys, rng.randint(1, min(len(keys), 5)))
        }))
    for _ in range(8):
        grid.append(QMPolynomial({
            rng.choice(modular.weight_basis(2 * rng.randint(0, 20))):
                rat(rng.randint(-99, 99), rng.randint(1, 24))
            for _ in range(rng.randint(2, 6))
        }))
    return grid


class TestHornerEval:
    """qm_eval on any generator triple: Horner in x2 over cached x4^b x6^c
    columns."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_term_by_term_powers(self, seed):
        rng = random.Random(seed)
        p = QMPolynomial(random_terms(rng))
        gens = random_gens(rng, "s", rng.randint(0, 12))
        order = gens[0].order
        got = qm_eval(p, order, gens)
        want = horner_by_powers(p.terms, gens, PowerSeries.one("s", order))
        assert (got.start, got.order, got.coeffs) == (
            want.start, want.order, want.coeffs,
        )

    @pytest.mark.parametrize("order", [0, 1, 5, 17, 40, 200])
    def test_eisenstein_frame_matches_the_series_route(self, order):
        # the default frame runs on ints; the same Horner on the explicit
        # Eisenstein series runs on PowerSeries
        gens = tuple(modular.eisenstein(k, order) for k in (2, 4, 6))
        grid = eisenstein_grid()
        assert any(not p for p in grid) and any(
            p.weight is None and p for p in grid
        )
        for p in grid:
            got = qm_eval(p, order)
            want = qm_eval(p, order, gens)
            assert (got.var, got.start, got.order, got.coeffs) == (
                want.var, want.start, want.order, want.coeffs,
            ), p

    @pytest.mark.parametrize("frame", ["eisenstein", "series"])
    @pytest.mark.parametrize(
        "p", [QMPolynomial.zero(), QMPolynomial.constant(2), E2 * E4],
        ids=["zero", "constant", "E2E4"],
    )
    def test_negative_order_rejected(self, p, frame):
        gens = None
        if frame == "series":
            gens = tuple(modular.eisenstein(k, 3) for k in (2, 4, 6))
        message = r"^cannot expand to the negative order -1$"
        with pytest.raises(InvalidSeries, match=message):
            qm_eval(p, -1, gens)

    def test_no_terms(self):
        gens = random_gens(random.Random(0), "s", 3)
        got = qm_eval(QMPolynomial.zero(), 3, gens)
        assert (got.var, got.start, got.coeffs) == ("s", 0, (ZERO,) * 4)

    @pytest.mark.parametrize("shift", ["start", "order", "moved"])
    def test_columns_are_keyed_exactly(self, shift):
        # a shifted start is equal under ==, moved series carry the same
        # coefficient tuples; none may reuse a column
        rng = random.Random(7)
        x2, x4, x6 = random_gens(rng, "q", 6)
        if shift == "start":
            y4 = PowerSeries("q", (ZERO,) + x4.coeffs, -1)
            assert y4 == x4 and hash(y4) == hash(x4)
            y6 = x6
        elif shift == "order":
            y4, y6 = x4.truncate(4), x6.truncate(3)
        else:
            y4, y6 = (PowerSeries("q", x.coeffs, 1) for x in (x4, x6))
        p = QMPolynomial({(1, 2, 1): ONE, (0, 3, 0): rat(2), (0, 0, 2): rat(-1)})
        triples = [(x2, x4, x6), (x2, y4, y6)] * 2
        warm = [qm_eval(p, 6, gens) for gens in triples]
        assert (warm[0].start, warm[0].order) != (warm[1].start, warm[1].order)
        for gens, got in zip(triples, warm):
            modular._column.cache_clear()
            cold = qm_eval(p, 6, gens)
            assert (got.start, got.order, got.coeffs) == (
                cold.start, cold.order, cold.coeffs,
            )

    def test_cached_columns_are_read_only(self):
        rng = random.Random(3)
        _, x4, x6 = random_gens(rng, "q", 5)
        col = modular._column(modular._GeneratorPair(x4, x6), 2, 1)
        assert col == x4 * x4 * x6
        with pytest.raises(TypeError):
            col.coeffs[0] = ONE

    def test_same_result_after_cache_clear(self):
        from qmgw.cayley import (
            cayley_frame,
            cayley_transform,
            fjrw_onepoint_all_genus,
        )

        rng = random.Random(11)
        p = QMPolynomial(random_terms(rng, top=7))
        frame = cayley_frame(16)

        def values():
            q, s = qm_eval(p, 20), cayley_transform(p, frame)
            b = fjrw_onepoint_all_genus(9, frame)
            return [(f.start, f.order, f.coeffs) for f in (q, s, b)]

        warm = values()
        assert warm == values()
        modular._column.cache_clear()
        modular.monomial_ints.cache_clear()
        cold = values()
        assert modular._column.cache_info().misses > 0
        assert modular.monomial_ints.cache_info().misses > 0
        assert cold == warm


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
        rational_or_integral_lists(5),
        st.sampled_from([ONE, -ONE]),
    )
    def test_product_with_reciprocal_is_one(self, val, coeffs, unit):
        coeffs = [unit] + list(coeffs[1:])
        f = PowerSeries("z", coeffs, val)
        product = f * f.reciprocal()
        assert product.coefficient(0) == ONE
        for n in range(1, 4):
            assert product.coefficient(n) == ZERO


class TestGeneratorCoefficients:
    """Series over the generator polynomials keep their coefficient ring."""

    def setup_method(self):
        from qmgw.modular import E2, E4, QMPolynomial

        self.one = QMPolynomial.constant(1)
        self.zero = QMPolynomial.zero()
        self.e2, self.e4 = E2, E4

    def test_shift_pads_with_the_ring_zero(self):
        f = PowerSeries("z", [self.one, self.e2, self.zero])
        assert f.shift(1) == PowerSeries("z", [self.zero, self.one, self.e2])

    def test_subst_power_pads_with_the_ring_zero(self):
        f = PowerSeries("z", [self.one, self.e2, self.zero])
        assert f.subst_power(2) == PowerSeries(
            "z", [self.one, self.zero, self.e2]
        )

    def test_power_zero_is_the_unit_of_the_ring(self):
        from qmgw.modular import QMPolynomial
        from qmgw.theta import prime_form

        f = PowerSeries("z", prime_form(6).coeffs)
        unit = f ** 0
        assert unit.coeffs == (self.one,) + (self.zero,) * f.order
        assert all(type(c) is QMPolynomial for c in (unit * f).coeffs)
        assert unit * f == f

    def test_scalar_from_the_ring_scales_each_coefficient(self):
        f = PowerSeries("q", [1, 2])
        assert (f * self.e2).coeffs == (self.e2, self.e2 * 2)
        assert self.e2 * f == f * self.e2


class TestRefusedCoefficients:
    """A value that is neither a number nor an element of a ring with
    zero() is refused as a coefficient or a scalar, naming the value."""

    def test_coefficient(self):
        with pytest.raises(InvalidSeries, match="'1/2'"):
            PowerSeries("q", ["1/2"])

    def test_scalar(self):
        f = PowerSeries("q", [1, 2])
        for product in (lambda: f * "1/2", lambda: "1/2" * f):
            with pytest.raises(InvalidSeries, match="'1/2'"):
                product()
