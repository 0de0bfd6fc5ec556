"""Exit-criteria suite: one check per numbered criterion, each printing a
pass/fail line with its measured runtime (run with -s to see them inline).

All equalities are exact rational identities; every runtime bound is the
documented budget for the default orders.
"""

import io
import random
import time

import pytest

from qmgw.cayley import (
    cayley_frame,
    cayley_transform,
    fjrw_onepoint_all_genus,
    fjrw_primary_genus1_invariants,
)
from qmgw.chazy import (
    D_DS,
    THETA_Q,
    bp_residual,
    chazy_residual,
    chazy_solve_s,
    genus_one_initial_data,
)
from qmgw.cli import main as cli_main
from qmgw.determinant import npoint
from qmgw.hurwitz import connected_stationary
from qmgw.modular import (
    E2,
    E4,
    eisenstein,
    qm_eval,
    quasimodularize,
    ramanujan_derive,
    theta_q,
)
from qmgw.mirror import (
    alpha,
    appendix_identity_checks,
    borwein_a,
    hyp2f1,
    i_function_fjrw,
    i_function_gw,
    mirror_map_check,
)
from qmgw.rational import ONE, ZERO, rat
from qmgw.series import PowerSeries
from qmgw.theta import onepoint_from_b, onepoint_qm
from qmgw.virasoro import (
    THEORIES,
    mono_var,
    poly_add,
    poly_mul_mono,
    poly_var,
    quantization_S,
    virasoro_commutator_check,
)

pytestmark = pytest.mark.acceptance

Z_ORDER = 14
Q_ORDER = 24


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.label}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label} exceeded its {self.budget}s budget: "
                f"{elapsed:.2f}s"
            )
        return False


def test_criterion_01_chazy_and_ramanujan():
    with _Timer("1 (chazy + ramanujan at order 27)", 1.0):
        e2 = eisenstein(2, 30)
        e4 = eisenstein(4, 30)
        e6 = eisenstein(6, 30)
        residual = chazy_residual(e2, THETA_Q).truncate(27)
        assert residual.is_zero()
        assert (theta_q(e2) - (e2 * e2 - e4) / 12).truncate(27).is_zero()
        assert (theta_q(e4) - (e2 * e4 - e6) / 3).truncate(27).is_zero()
        assert (
            (theta_q(e6) - (e2 * e6 - e4 * e4) / 2).truncate(27).is_zero()
        )


def test_criterion_02_bp_chazy_proportionality():
    with _Timer("2 (bp residual proportionality, 20 random series)", 1.0):
        rng = random.Random(13711)
        for _ in range(20):
            g = PowerSeries(
                "s",
                [
                    rat(rng.randrange(-9, 10), rng.randrange(1, 7))
                    for _ in range(21)
                ],
            )
            assert chazy_residual(-24 * g, D_DS) == -480 * bp_residual(
                g, D_DS
            )


def test_criterion_03_genus_one_series_and_invariants():
    with _Timer("3 (genus-one series and primary invariants)", 1.0):
        sol = chazy_solve_s(genus_one_initial_data(), 8)
        assert sol == PowerSeries(
            "s",
            [0, 0, rat(-1, 9), 0, 0, rat(-1, 1215), 0, 0, rat(-1, 459270)],
        )
        values = dict(fjrw_primary_genus1_invariants(9))
        assert values[3] == rat(1, 108)
        assert values[4] == ZERO and values[5] == ZERO
        assert values[6] == rat(1, 243)
        assert values[9] == rat(8, 2187)


def test_criterion_04_cayley_frame_expansions():
    with _Timer("4 (frame expansions match reference values)", 1.0):
        frame = cayley_frame(9)
        e4_want = {0: ZERO, 1: rat(8, 3), 4: rat(5, 81), 7: rat(2, 5103)}
        e6_want = {0: rat(-8), 3: rat(-28, 27), 6: rat(-7, 405)}
        for n, v in e4_want.items():
            assert frame.e4.coefficient(n) == v
        for n, v in e6_want.items():
            assert frame.e6.coefficient(n) == v
        for n in (2, 3, 5, 6):
            assert frame.e4.coefficient(n) == ZERO
        for n in (1, 2, 4, 5):
            assert frame.e6.coefficient(n) == ZERO


def test_criterion_05_one_point_tower():
    with _Timer(f"5 (one-point tower, Dz={Z_ORDER}, q-order {Q_ORDER})", 30.0):
        frame = cayley_frame(16)
        for g in range(1, 8):
            tower = onepoint_qm(g, z_order=Z_ORDER + 1)
            expansion = qm_eval(tower, Q_ORDER)
            assert quasimodularize(expansion, 2 * g) == tower
            assert tower == onepoint_from_b(g)
            assert cayley_transform(tower, frame) == fjrw_onepoint_all_genus(
                g, frame
            )


def test_criterion_06_two_point_consistency():
    with _Timer("6 (two-point determinant assembly)", 30.0):
        connected = connected_stationary((0, 0))
        divisor = ramanujan_derive(E2 * rat(-1, 24))
        assert connected == divisor
        assert connected == (E2 * E2 - E4) * rat(-1, 288)
        from qmgw.verify import _two_point_matches_closed_form

        assert _two_point_matches_closed_form(8)
        assert npoint(2, 8).is_symmetric()


def test_criterion_07_anomaly_equations():
    with _Timer("7 (anomaly checks to genus 7, both frames)", 5.0):
        from qmgw.anomaly import hae_onepoint_check, prime_form_anomaly_check

        assert prime_form_anomaly_check(9).passed
        assert hae_onepoint_check(7).passed


def test_criterion_08_virasoro_and_quantization():
    with _Timer("8 (operator algebra at level cap 10)", 5.0):
        for theory in THEORIES:
            for n in range(-1, 4):
                for m in range(-1, 4):
                    if n + m < -1:
                        continue
                    assert virasoro_commutator_check(
                        n, m, 10, theory
                    ).passed, (theory, n, m)
        op = quantization_S(rat(1, 2), 10)
        probe = poly_add(poly_var(0, 1), {(): ONE})
        lhs = op.apply(poly_mul_mono(probe, mono_var(3, 2), 1))
        rhs = {
            h: poly_mul_mono(p, mono_var(3, 2), 1)
            for h, p in op.apply(probe).items()
        }
        assert lhs == rhs
        point_only = {mono_var(3, 5): ONE}
        assert op.apply(point_only)[0] == point_only


def test_criterion_09_appendix_identities():
    with _Timer("9 (hypergeometric frame, orders 12 / 10)", 10.0):
        assert appendix_identity_checks(12).passed
        f = hyp2f1((rat(1, 3), rat(2, 3), ONE), 12)
        assert f.compose(alpha(12)) == borwein_a(12)
        i0_gw, _ = i_function_gw(12)
        scaled = PowerSeries(
            "x", [c * rat(27) ** n for n, c in enumerate(f.coeffs)]
        )
        assert i0_gw == scaled
        i0_f, _ = i_function_fjrw(12)
        g = hyp2f1((rat(1, 3), rat(1, 3), rat(2, 3)), 4)
        expanded = [ZERO] * 13
        for n in range(5):
            e = 1 + 3 * n
            if e <= 12:
                expanded[e] = g.coefficient(n) / rat(27) ** n
        assert i0_f == PowerSeries("t", expanded)
        report = mirror_map_check(10)
        assert report.passed
        assert "on the nose" in report.rows[0][2]


def test_criterion_10_determinism():
    def capture(argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    with _Timer("10 (byte-identical repeated runs)", 180.0):
        code1, verify1 = capture(["verify", "all", "--no-cache"])
        code2, verify2 = capture(["verify", "all", "--no-cache"])
        assert code1 == code2 == 0
        assert verify1 == verify2
        _, table1 = capture(["tables", "b", "--bound", "12", "--no-cache"])
        _, table2 = capture(["tables", "b", "--bound", "12", "--no-cache"])
        assert table1 == table2
