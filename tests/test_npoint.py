import random

import pytest

from conftest import assert_round_trips
from qmgw import hurwitz
from qmgw.determinant import MultiZPoly, npoint
from qmgw.errors import InsufficientOrder, InvalidSeries
from qmgw.hurwitz import connected_stationary, stationary_invariant
from qmgw.modular import E2, E4, QMPolynomial, ramanujan_derive
from qmgw.rational import ONE, rat
from qmgw.theta import one_over_theta

C2 = E2 * rat(-1, 24)


def _nonempty_subsets(n):
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def _partitions_with_first(indices):
    """Blocks B containing indices[0], paired with the complement."""
    first, rest = indices[0], indices[1:]
    for mask in range(1 << len(rest)):
        block = (first,) + tuple(
            rest[i] for i in range(len(rest)) if mask >> i & 1
        )
        comp = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
        yield block, comp


def connected_from_disconnected(legs, tables):
    """The reference cumulant inversion over subsets of leg positions.

    `tables` maps every nonempty subset of positions (a sorted tuple of
    indices) to its disconnected value, and

        disc(S) = sum over partitions of S of prod over blocks conn(B).

    It knows nothing of multisets: about 3^N / 2 products for N legs.
    """
    cache = {}

    def conn(subset):
        if subset not in cache:
            value = tables[subset]
            for block, comp in _partitions_with_first(subset):
                if comp:
                    value = value - conn(block) * tables[comp]
            cache[subset] = value
        return cache[subset]

    return conn(tuple(range(len(legs))))


def subset_tables(legs):
    """The disconnected value of every nonempty subset of positions."""
    return {
        s: stationary_invariant(tuple(legs[i] for i in s))
        for s in _nonempty_subsets(len(legs))
    }


def oracle_grid():
    """Six leg tuples for each N = 1..7 from a fixed seed, psi-powers 0..4
    (0..3 from N = 5 on, where the reference's 3^N products dominate).
    Per N, one tuple has a psi -1 leg and one a psi -2 leg, both at the
    weight they drew; the other four are bumped to even weight, where the
    values are nonzero."""
    rng = random.Random(29)
    grid = []
    for n in range(1, 8):
        top = 4 if n <= 4 else 3
        for i in range(6):
            legs = [rng.randint(0, top) for _ in range(n)]
            if i < 2:
                legs[rng.randrange(n)] = -1 - i
            elif sum(legs) % 2:
                legs[legs.index(max(legs))] += 1
            grid.append(tuple(legs))
    return grid


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

    @pytest.mark.parametrize("serve", [stationary_invariant, connected_stationary])
    def test_lone_leg_equals_determinant_series(self, serve):
        # a lone leg reads the b-table; npoint(1, .) is 1/Theta itself
        f1 = npoint(1, 26)
        for l in range(-2, 26):
            assert serve((l,)) == f1.coefficient((l + 1,)), l

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

    def test_four_point_divisor_equation(self):
        conn = connected_stationary((0, 0, 0, 0))
        assert conn == divisor_derivative(C2, 3)

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
    from qmgw.anomaly import d_dC2
    from qmgw.determinant import _linear_form_powers

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
        with pytest.raises(InsufficientOrder) as err:
            stationary_invariant((4,), z_order=4)
        assert err.value.required == 5

    def test_empty_legs_rejected(self):
        with pytest.raises(InvalidSeries):
            stationary_invariant(())


class TestConnectedFromDisconnected:
    def test_one_point_connected_equals_disconnected(self):
        for l in (-2, -1, 0, 3):
            assert connected_stationary((l,)) == stationary_invariant((l,))

    def test_two_point_subtraction(self):
        conn = connected_stationary((0, 0))
        assert conn == stationary_invariant((0, 0)) - C2 * C2

    def test_empty_legs_rejected(self):
        with pytest.raises(InvalidSeries, match="need at least one leg"):
            connected_stationary(())

    def test_grid_covers_the_cases(self):
        grid = oracle_grid()
        assert len(grid) >= 40
        assert {len(legs) for legs in grid} == set(range(1, 8))
        assert any(-2 in legs for legs in grid)
        assert any(-1 in legs for legs in grid)
        assert any(sum(legs) % 2 for legs in grid)
        assert any(len(set(legs)) < len(legs) for legs in grid)
        assert any(len(set(legs)) == len(legs) > 2 for legs in grid)

    @pytest.mark.parametrize("legs", oracle_grid(), ids=str)
    def test_matches_the_subset_inversion(self, legs):
        want = connected_from_disconnected(legs, subset_tables(legs))
        assert connected_stationary(legs) == want

    def test_each_multiset_fitted_once(self, monkeypatch):
        legs = (1,) * 7
        want = connected_from_disconnected(legs, subset_tables(legs))
        calls = []

        def counting(sub_legs, z_order=None):
            calls.append(sub_legs)
            return stationary_invariant(sub_legs, z_order=z_order)

        monkeypatch.setattr(hurwitz, "stationary_invariant", counting)
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

    def test_cached_series_is_read_only(self):
        before = npoint(2, 2).coefficient((1, 1))
        with pytest.raises(TypeError):
            npoint(2, 2).data[(1, 1)] = QMPolynomial.constant(ONE)
        assert npoint(2, 2).coefficient((1, 1)) == before
        assert before.terms

    def test_cached_series_cannot_be_rebound(self):
        served = npoint(2, 2)
        for name in ("data", "n_legs", "cap"):
            with pytest.raises(AttributeError):
                setattr(served, name, {})
            with pytest.raises(AttributeError):
                delattr(served, name)
        assert npoint(2, 2) == npoint.__wrapped__(2, 2)

    def test_pickle_and_deepcopy_round_trip(self):
        assert_round_trips(npoint(1, 2), ["data"])
