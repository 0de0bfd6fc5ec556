import random
from math import factorial

import pytest

import qmgw.virasoro
from conftest import assert_round_trips
from qmgw.errors import InvalidSeries
from qmgw.rational import ONE, ZERO, Rational, rat
from qmgw.virasoro import (
    THEORIES,
    DiffOperator,
    mono_var,
    pochhammer,
    poly_add,
    poly_mul_mono,
    poly_scale,
    poly_var,
    quantization_S,
    theories_structurally_equal,
    virasoro_commutator_check,
    virasoro_op,
)


class TestPochhammer:
    def test_convention(self):
        assert pochhammer(rat(5), 0) == ONE
        assert pochhammer(rat(3), 2) == rat(12)
        assert pochhammer(rat(0), 3) == ZERO
        assert pochhammer(rat(1), 4) == rat(24)


class TestOperators:
    def test_l0_scales_by_level(self):
        l0 = virasoro_op("curve", 0, 8)
        for level in (0, 3, 5):
            got = l0.apply(poly_var(0, level))
            want = poly_scale(poly_var(0, level), level)
            assert got == want

    def test_point_sector_shifted_weight(self):
        l0 = virasoro_op("curve", 0, 8)
        got = l0.apply(poly_var(3, 4))
        assert got == poly_scale(poly_var(3, 4), 5)

    def test_kills_constants(self):
        for k in range(-1, 4):
            op = virasoro_op("curve", k, 8)
            assert op.apply({(): ONE}) == {}

    def test_affine_term_on_probe(self):
        # L_k contains -(k+1)! d/d t0_{k+1}
        for k in range(-1, 3):
            op = virasoro_op("curve", k, 8)
            got = op.apply(poly_var(0, k + 1))
            affine = got.get((), ZERO)
            assert affine == -rat(factorial(k + 1))

    def test_level_cap_guard(self):
        with pytest.raises(InvalidSeries):
            virasoro_op("curve", 3, 2)

    def test_unknown_theory(self):
        with pytest.raises(InvalidSeries):
            virasoro_op("orbifold", 0, 5)


def fraction_virasoro_op(theory, k, level_cap):
    """L_k from the module docstring's formula, every coefficient a
    Fraction: -(k+1)! d/dt[0,k+1] + sum (l + off)_{k+1} t[s,l] d/dt[s,k+l],
    off 0 in sectors 0 and 2 and 1 in sectors 1 and 3 (both theories)."""
    assert theory in THEORIES
    terms = [(((), (0, k + 1)), -rat(factorial(k + 1)))]
    for sector, off in ((0, 0), (1, 1), (2, 0), (3, 1)):
        for l in range(level_cap + 1):
            if 0 <= k + l <= level_cap:
                w = ONE
                for i in range(k + 1):
                    w *= rat(l + off + i)
                terms.append((((sector, l), (sector, k + l)), w))
    return DiffOperator(terms)


class TestIntegerCoefficients:
    @pytest.mark.parametrize("theory", THEORIES)
    @pytest.mark.parametrize("k", range(-1, 5))
    def test_operator_matches_the_fraction_build(self, theory, k):
        op = virasoro_op(theory, k, 10)
        want = fraction_virasoro_op(theory, k, 10)
        assert op == want
        assert all(type(c) is int for c in op.terms.values())
        assert all(type(c) is Rational for c in want.terms.values())

    @pytest.mark.parametrize("theory", THEORIES)
    def test_commutators_match_the_fraction_build(self, theory):
        for n, m in ((2, -1), (1, 0), (3, 1), (4, -1)):
            got = virasoro_op(theory, n, 10).commutator(
                virasoro_op(theory, m, 10)
            )
            want = fraction_virasoro_op(theory, n, 10).commutator(
                fraction_virasoro_op(theory, m, 10)
            )
            assert got == want
            assert all(type(c) is int for c in got.terms.values())
            scaled = virasoro_op(theory, n + m, 10).scaled(n - m)
            assert all(type(c) is int for c in scaled.terms.values())


class TestBracket:
    def test_example_pairs(self):
        for n, m, in ((1, 0), (2, -1), (1, -1), (3, 3)):
            for theory in THEORIES:
                report = virasoro_commutator_check(n, m, 10, theory)
                assert report.passed, (theory, n, m)

    def test_symbolic_commutator_interior(self):
        # [L_1, L_-1] = 2 L_0, compared term-by-term away from the cap
        cap = 10
        l1 = virasoro_op("curve", 1, cap)
        lm1 = virasoro_op("curve", -1, cap)
        l0 = virasoro_op("curve", 0, cap)
        comm = l1.commutator(lm1)
        twice = l0.scaled(2).terms
        for (src, dst), coeff in twice.items():
            if src and src[1] <= cap - 2 and dst[1] <= cap - 2:
                assert comm.terms.get((src, dst)) == coeff
        assert comm.terms.get(((), (0, 1))) == twice.get(((), (0, 1)))

    def test_antisymmetry(self):
        report = virasoro_commutator_check(2, 2, 10, "curve")
        assert report.passed

    def test_structural_identity_of_theories(self):
        for k in range(-1, 4):
            assert theories_structurally_equal(k, 10)

    def test_window_guard(self):
        with pytest.raises(InvalidSeries):
            virasoro_commutator_check(1, -2, 10, "curve")

    @staticmethod
    def assert_both_halves_fail(monkeypatch, wrong):
        # doubling the affine term of L_wrong breaks [L_1, L_-1] = 2 L_0;
        # both the term comparison and the probes must see it.  The true
        # operators' probe images are built first, so the probes fail only
        # if the doubled operator reads images of its own.
        assert virasoro_commutator_check(1, -1, 10, "curve").passed
        build = qmgw.virasoro.virasoro_op

        def doubled(theory, k, level_cap):
            op = build(theory, k, level_cap)
            if k != wrong:
                return op
            return DiffOperator(
                ((src, dst), 2 * c if src == () else c)
                for (src, dst), c in op.terms.items()
            )

        monkeypatch.setattr(qmgw.virasoro, "virasoro_op", doubled)
        [(_, ok, detail)] = virasoro_commutator_check(1, -1, 10, "curve").rows
        assert ok is False
        terms, monos = (int(part.split()[0]) for part in detail.split(", "))
        assert terms > 0 and monos > 0, detail

    def test_detects_a_wrong_operator(self, monkeypatch):
        # with L_1 doubled the affine coefficient of d/dt01 in [L_1, L_-1]
        # is -4, while 2 L_0 has -2
        self.assert_both_halves_fail(monkeypatch, 1)

    def test_detects_a_wrong_bracket_target(self, monkeypatch):
        # L_0 enters the probes only through its images
        self.assert_both_halves_fail(monkeypatch, 0)

    @pytest.mark.parametrize(
        "cubic, bracket_fails",
        [
            # b1 and b2 with each other's bidegree: still a Virasoro family
            ({"1": (0, (0, 0)), "b1": (1, (0, 1)), "b2": (2, (1, 0)),
              "phi": (3, (1, 1))}, False),
            # b1 and b2 on one sector: their terms add up, no longer one
            ({"1": (0, (0, 0)), "b1": (1, (1, 0)), "b2": (1, (0, 1)),
              "phi": (3, (1, 1))}, True),
        ],
    )
    def test_cubic_rows_read_the_cubic_state_space(
        self, monkeypatch, cubic, bracket_fails
    ):
        from qmgw.config import RunConfig
        from qmgw.verify import suite_virasoro

        monkeypatch.setitem(qmgw.virasoro.STATE_SPACES, "fermat_cubic", cubic)
        virasoro_op.cache_clear()
        try:
            rows = {name: ok for name, ok, _ in suite_virasoro(RunConfig()).rows}
        finally:
            monkeypatch.undo()
            virasoro_op.cache_clear()
        failed = [name for name, ok in rows.items() if not ok]
        want = ["cubic operators from 1, b1, b2, phi = curve's under the label map"]
        if bracket_fails:
            want.insert(0, "bracket relation on fermat_cubic, -1 <= n,m <= 3, cap 10")
        assert failed == want


def _mono(exponents):
    return tuple(sorted((v, e) for v, e in exponents.items() if e))


def oracle_quantization(t, level_cap, max_degree, poly):
    """sum_N G^N p / N! with G = -t (q[0,0]^2 / (2 hbar) + V), term by
    term on plain dict polynomials with Fraction coefficients.  V = sum_{k
    < level_cap} q[0,k+1] d/d q[0,k]; the square multiplies only monomials
    of sector-0 degree <= max_degree - 2.  Returns {hbar_power: poly}."""
    t = Rational(t)

    def generator(graded):
        out = {}
        for (h, mono), c in graded.items():
            exponents = dict(mono)
            for (s, l), e in mono:
                if s == 0 and l < level_cap:
                    shifted = dict(exponents)
                    shifted[(0, l)] -= 1
                    shifted[(0, l + 1)] = shifted.get((0, l + 1), 0) + 1
                    key = (h, _mono(shifted))
                    out[key] = out.get(key, 0) - t * e * c
            if sum(e for (s, _), e in mono if s == 0) + 2 <= max_degree:
                squared = dict(exponents)
                squared[(0, 0)] = squared.get((0, 0), 0) + 2
                key = (h - 1, _mono(squared))
                out[key] = out.get(key, 0) - t * c / 2
        return {key: c for key, c in out.items() if c}

    term = {(0, mono): Rational(c) for mono, c in poly.items()}
    total = dict(term)
    n = 0
    while term:
        n += 1
        term = {key: c / n for key, c in generator(term).items()}
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    graded = {}
    for (h, mono), c in total.items():
        if c:
            graded.setdefault(h, {})[mono] = c
    return graded


def _random_poly(rng, level_cap):
    """Up to four terms over every sector, levels up to level_cap + 1."""
    poly = {}
    for _ in range(rng.randint(0, 4)):
        exponents = {}
        for _ in range(rng.randint(0, 3)):
            var = (rng.choice((0, 0, 1, 2, 3)), rng.randint(0, level_cap + 1))
            exponents[var] = exponents.get(var, 0) + rng.randint(1, 2)
        c = rat(rng.randint(-9, 9), rng.randint(1, 6))
        if c:
            poly[_mono(exponents)] = c
    return poly


def _fixed_cases():
    """(t, level_cap, poly) cases that do not depend on a seed."""
    cases = [(rat(1, 2), 3, {}), (rat(-2, 3), 2, {(): rat(5)})]
    # sector-0 levels above the cap, which count toward the degree
    above = {
        _mono({(0, 1): 2, (0, 4): 1}): rat(3, 2),
        _mono({(0, 3): 2}): 1,
    }
    cases.append((rat(1, 3), 2, above))
    # a sector-0 degree above MAX_DEGREE
    high = {_mono({(0, 0): 3, (0, 2): 2, (0, 5): 2}): 4}
    cases.append((rat(-1, 2), 3, high))
    # parts V and the square never touch, with power chains of
    # different lengths: the weights are shared across the groups
    parts = {
        (): 1,
        _mono({(0, 0): 2, (3, 1): 1}): -1,
        _mono({(0, 6): 1, (2, 2): 2}): rat(5, 3),
        _mono({(0, 4): 6, (1, 0): 1}): rat(1, 7),
        _mono({(0, 2): 1, (1, 0): 1}): 2,
    }
    cases.append((rat(2, 3), 4, parts))
    for level_cap in range(9):
        probe = {_mono({(0, 0): 1, (3, level_cap): 1}): 2, (): rat(1, 5)}
        cases.append((rat(-3, 4), level_cap, probe))
    return cases


def _random_cases(seed):
    """Twelve random (t, level_cap, poly) cases from `seed`."""
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        level_cap = rng.randint(0, 5)
        t = rat(rng.randint(-5, 5), rng.randint(1, 4))
        cases.append((t, level_cap, _random_poly(rng, level_cap)))
    return cases


class TestQuantization:
    # the fixed cases run once, as their own parameter
    @pytest.mark.parametrize("seed", [*range(4), "fixed"])
    def test_matches_the_fraction_series(self, seed):
        cases = _fixed_cases() if seed == "fixed" else _random_cases(seed)
        for t, level_cap, poly in cases:
            op = quantization_S(t, level_cap)
            want = oracle_quantization(t, level_cap, op.MAX_DEGREE, poly)
            assert op.apply(poly) == want, (t, level_cap, poly)

    def test_zero_parameter_is_identity(self):
        op = quantization_S(0, 5)
        probe = poly_add(poly_var(0, 2), {(): rat(3)})
        assert op.apply(probe) == {0: probe}

    def test_operator_is_immutable(self):
        op = quantization_S(rat(1, 2), 6)
        with pytest.raises(AttributeError):
            op.t = rat(1, 3)
        with pytest.raises(AttributeError):
            del op.level_cap
        assert op.t == rat(1, 2) and op.level_cap == 6

    def test_vector_field_first_step(self):
        op = quantization_S(rat(1, 2), 5)
        out = op.apply(poly_var(0, 0))
        h0 = out[0]
        assert h0.get(mono_var(0, 1)) == rat(-1, 2)
        # full flow: q0_n coefficient is (-t)^n / n!
        from math import factorial

        for n in range(5):
            want = rat(-1, 2) ** n / factorial(n)
            assert h0.get(mono_var(0, n), ZERO) == want

    def test_squared_term_is_hbar_graded(self):
        op = quantization_S(rat(1, 3), 4)
        out = op.apply({(): ONE})
        assert out[0] == {(): ONE}
        assert -1 in out  # the multiplication term lands in hbar^{-1}

    def test_commutes_with_point_sector_multiplication(self):
        op = quantization_S(rat(2, 5), 5)
        probe = poly_add(poly_var(0, 1), {(): ONE})
        lhs = op.apply(poly_mul_mono(probe, mono_var(3, 2), 1))
        rhs = {
            h: poly_mul_mono(p, mono_var(3, 2), 1)
            for h, p in op.apply(probe).items()
        }
        assert lhs == rhs

    def test_high_degree_input_runs_to_the_end(self):
        # q[0,0]^11 at cap 6 needs 67 powers; the termination bound is
        # max(11, MAX_DEGREE) * 6 + MAX_DEGREE // 2 + 1 = 70
        op = quantization_S(rat(1, 2), 6)
        poly = {(((0, 0), 11),): 1}
        want = oracle_quantization(rat(1, 2), 6, op.MAX_DEGREE, poly)
        assert op.apply(poly) == want

    def test_refuses_negative_levels(self):
        with pytest.raises(InvalidSeries):
            quantization_S(rat(1, 2), 5).apply(poly_var(0, -1))

    def test_fixes_point_sector_pointwise(self):
        op = quantization_S(rat(7, 4), 6)
        poly = poly_mul_mono(poly_var(3, 1), mono_var(3, 4), 1)
        assert op.apply(poly)[0] == poly


class TestDiffOperatorAlgebra:
    def test_commutator_shapes_close(self):
        a = DiffOperator([(((), (0, 1)), ONE), (((0, 0), (0, 2)), rat(2))])
        b = DiffOperator([(((0, 2), (0, 3)), ONE)])
        c = a.commutator(b)
        assert isinstance(c, DiffOperator)
        # [d/dt01 + 2 t00 d/dt02, t02 d/dt03] = 2 t00 d/dt03
        assert c.terms == {((0, 0), (0, 3)): rat(2)}

    def test_scaling_by_zero_is_the_zero_operator(self):
        zero = DiffOperator([])
        assert virasoro_op("curve", 1, 10).scaled(0) == zero

    def test_leibniz_rule_on_products(self):
        window = [(s, l) for s in range(4) for l in range(4)]
        for k in (-1, 0, 2):
            op = virasoro_op("curve", k, 6)
            for i, x in enumerate(window):
                for y in window[i:]:
                    product = poly_mul_mono(poly_var(*x), mono_var(*y), 1)
                    want = poly_add(
                        poly_mul_mono(op.apply(poly_var(*x)), mono_var(*y), 1),
                        poly_mul_mono(op.apply(poly_var(*y)), mono_var(*x), 1),
                    )
                    assert op.apply(product) == want, (k, x, y)

    def test_cached_operator_is_read_only(self):
        op = virasoro_op("curve", 1, 6)
        assert virasoro_op("curve", 1, 6) is op
        term = next(iter(op.terms))
        dst = next(iter(op._by_dst))
        with pytest.raises(TypeError):
            op.terms[term] = ONE
        with pytest.raises(TypeError):
            op._by_dst[dst] = ()
        with pytest.raises(AttributeError):
            op._by_dst[dst].append(((), ONE))
        assert op == virasoro_op.__wrapped__("curve", 1, 6)

    def test_cached_operator_cannot_be_rebound(self):
        op = virasoro_op("curve", 1, 10)
        with pytest.raises(AttributeError):
            op.terms = {}
        with pytest.raises(AttributeError):
            op._by_dst = {}
        with pytest.raises(AttributeError):
            del op.terms
        assert virasoro_op("curve", 1, 10) == virasoro_op.__wrapped__("curve", 1, 10)

    def test_pickle_and_deepcopy_round_trip(self):
        assert_round_trips(virasoro_op("curve", 1, 4), ["terms", "_by_dst"])

    def test_action_linearity(self):
        op = virasoro_op("curve", 1, 6)
        p = poly_var(0, 3)
        q = poly_var(3, 2)
        lhs = op.apply(poly_add(p, q))
        rhs = poly_add(op.apply(p), op.apply(q))
        assert lhs == rhs
