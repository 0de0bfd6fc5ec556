from importlib import import_module

import pytest

from qmgw.errors import InsufficientOrder, InvalidSeries
from qmgw.modular import E2, E4, QMPolynomial, ramanujan_derive
from qmgw.npoint import (
    MultiZPoly,
    _nonempty_subsets,
    connected_from_disconnected,
    connected_stationary,
    npoint,
    stationary_invariant,
)
from qmgw.rational import ONE, rat
from qmgw.theta import one_over_theta

C2 = E2 * rat(-1, 24)
npoint_module = import_module("qmgw.npoint")


def divisor_derivative(p, times):
    for _ in range(times):
        p = ramanujan_derive(p)
    return p


class TestOnePoint:
    def test_matches_theta_reciprocal(self):
        f1 = npoint(1, 9)
        oot = one_over_theta(11)
        for e in range(-1, 10):
            assert f1.coefficient((e,)) == oot.coefficient(e)

    def test_conventional_leg_values(self):
        assert stationary_invariant((-2,)) == QMPolynomial.constant(ONE)
        assert stationary_invariant((0,)) == C2
        assert stationary_invariant((2,)) == QMPolynomial(
            {(0, 1, 0): rat(1, 2880), (2, 0, 0): rat(1, 1152)}
        )

    def test_even_exponents_vanish(self):
        f1 = npoint(1, 8)
        for e in range(0, 8, 2):
            assert f1.coefficient((e,)).is_zero()


class TestTwoPoint:
    def test_symmetry(self):
        assert npoint(2, 8).is_symmetric()

    def test_closed_form_reproduced(self):
        # oracle built from single-variable series only:
        # (q)F2 = (1/Theta(z1+z2)) (dlog Theta(z1) + dlog Theta(z2))
        from qmgw.verify import _two_point_matches_closed_form

        assert _two_point_matches_closed_form(8)

    def test_weight_grading(self):
        f2 = npoint(2, 8)
        for key, value in f2.data.items():
            assert value.weight == sum(key) + 2

    def test_divisor_equation(self):
        conn = connected_stationary((0, 0))
        assert conn == divisor_derivative(C2, 1)
        assert conn == (E2 * E2 - E4) * rat(-1, 288)

    def test_disconnected_value(self):
        # disc(0,0) = conn(0,0) + conn(0)^2
        disc = stationary_invariant((0, 0))
        assert disc == divisor_derivative(C2, 1) + C2 * C2


class TestThreeFourPoint:
    def test_three_point_symmetry_and_weights(self):
        f3 = npoint(3, 3)
        assert f3.is_symmetric()
        for key, value in f3.data.items():
            assert value.weight == sum(key) + 3

    def test_three_point_divisor_equation(self):
        conn = connected_stationary((0, 0, 0))
        assert conn == divisor_derivative(C2, 2)

    @pytest.mark.slow
    def test_four_point_divisor_equation(self):
        conn = connected_stationary((0, 0, 0, 0))
        assert conn == divisor_derivative(C2, 3)

    @pytest.mark.slow
    def test_four_point_symmetry(self):
        assert npoint(4, 2).is_symmetric()

    def test_leg_count_capped(self):
        with pytest.raises(InvalidSeries):
            npoint(5, 2)


def _anomaly_merge_residuals(n, dz):
    """Mismatch count for the anomaly action on the assembled series.

    The prime-form anomaly (d/dC2 Theta = -z^2 Theta) forces

        d/dC2 F_N = (z_1+...+z_N)^2 F_N
                    - 2 sum_{i<j} (z_i+z_j) F_{N-1}(..., z_i+z_j),

    which couples consecutive assemblies on every coefficient.  Returns
    the offending monomials inside the valid window (empty = pass).
    """
    from qmgw._backend import exp_mul_dict_capped
    from qmgw.anomaly import d_dC2
    from qmgw.npoint import _linear_form_powers

    f_n = npoint(n, dz)
    f_prev = npoint(n - 1, dz + 2)
    lhs = {
        k: d_dC2(v)
        for k, v in f_n.data.items()
        if not d_dC2(v).is_zero()
    }
    rhs = {}
    total_sq = {}
    for i in range(n):
        for j in range(n):
            key = tuple(
                (1 if t == i else 0) + (1 if t == j else 0)
                for t in range(n)
            )
            total_sq[key] = total_sq.get(key, 0) + 1
    for k, v in f_n.data.items():
        if sum(k) + 2 > dz:
            continue
        for d, mult in total_sq.items():
            nk = tuple(a + b for a, b in zip(k, d))
            rhs[nk] = rhs.get(nk, QMPolynomial.zero()) + v * mult
    from itertools import combinations

    for i, j in combinations(range(n), 2):
        others = [t for t in range(n) if t not in (i, j)]
        powers = _linear_form_powers((i, j), n, dz + 2)
        for key_prev, v in f_prev.data.items():
            *single, e_pair = key_prev
            merged_power = e_pair + 1  # one extra (z_i+z_j) factor
            if merged_power < 0 or merged_power > dz + 2:
                continue
            for pkey, mult in powers[merged_power].items():
                nk = list(pkey)
                for slot, e in zip(others, single):
                    nk[slot] += e
                nk = tuple(nk)
                if sum(nk) <= dz + 2:
                    rhs[nk] = rhs.get(nk, QMPolynomial.zero()) + v * (
                        -2 * mult
                    )
    bad = []
    for key in set(lhs) | set(rhs):
        if sum(key) > dz - 2 or min(key) < -1:
            continue
        l = lhs.get(key, QMPolynomial.zero())
        r = rhs.get(key, QMPolynomial.zero())
        if l != r:
            bad.append(key)
    return bad


class TestAnomalyMergeIdentity:
    def test_two_point(self):
        assert _anomaly_merge_residuals(2, 6) == []

    def test_three_point(self):
        assert _anomaly_merge_residuals(3, 4) == []

    @pytest.mark.slow
    def test_four_point(self):
        assert _anomaly_merge_residuals(4, 2) == []


class TestStationaryInvariant:
    def test_weight_attached(self):
        v = stationary_invariant((0, 2))
        assert v.weight == 6

    def test_bad_psi_rejected(self):
        with pytest.raises(InvalidSeries):
            stationary_invariant((-3,))

    def test_insufficient_z_order(self):
        with pytest.raises(InsufficientOrder) as err:
            stationary_invariant((2, 2), z_order=2)
        assert err.value.required == 6

    def test_empty_legs_rejected(self):
        with pytest.raises(InvalidSeries):
            stationary_invariant(())


class TestConnectedFromDisconnected:
    def test_one_point_connected_equals_disconnected(self):
        tables = {(0,): stationary_invariant((0,))}
        assert connected_from_disconnected((0,), tables) == tables[(0,)]

    def test_two_point_subtraction(self):
        legs = (0, 0)
        tables = {
            (0,): stationary_invariant((0,)),
            (1,): stationary_invariant((0,)),
            (0, 1): stationary_invariant(legs),
        }
        conn = connected_from_disconnected(legs, tables)
        assert conn == tables[(0, 1)] - C2 * C2

    def test_missing_table_raises(self):
        with pytest.raises(InvalidSeries):
            connected_from_disconnected((0, 0), {(0,): C2})

    def test_each_multiset_fitted_once(self, monkeypatch):
        legs = (1,) * 7
        by_size = {k: stationary_invariant((1,) * k) for k in range(1, 8)}
        tables = {s: by_size[len(s)] for s in _nonempty_subsets(7)}
        want = connected_from_disconnected(legs, tables)
        calls = []

        def counting(sub_legs, z_order=None):
            calls.append(sub_legs)
            return stationary_invariant(sub_legs, z_order=z_order)

        monkeypatch.setattr(npoint_module, "stationary_invariant", counting)
        assert connected_stationary(legs) == want
        assert len(calls) == 7

    def test_degree_zero_and_one_anchors(self):
        # connected genus-one series has q^0 = -1/24 and q^1 = 1
        from qmgw.modular import qm_eval

        series = qm_eval(connected_stationary((0,)), 8)
        assert series.coefficient(0) == rat(-1, 24)
        assert series.coefficient(1) == ONE


class TestMultiZPoly:
    def test_coefficient_lookup_default(self):
        p = MultiZPoly(2, 4, {(1, 1): QMPolynomial.constant(ONE)})
        assert p.coefficient((0, 0)).is_zero()

    def test_zero_values_dropped(self):
        p = MultiZPoly(1, 2, {(0,): QMPolynomial.zero()})
        assert not p.data
