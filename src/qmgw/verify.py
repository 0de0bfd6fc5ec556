"""Identity suites behind the `verify` subcommand.

Runs the structural checks each module promises, with deterministic
randomized instances (fixed seed) so output is byte-stable run to run.
Each suite returns a CheckReport; the command prints one line per
identity with the first failing coefficient on failure.
"""

import random

from .anomaly import (
    CheckReport,
    d_dC2,
    hae_onepoint_check,
    prime_form_anomaly_check,
)
from .cayley import cayley_frame, cayley_transform, fjrw_onepoint_all_genus
from .chazy import (
    D_DS,
    THETA_Q,
    bp_residual,
    chazy_residual,
    chazy_solve_s,
    fjrw_genus1_series,
    genus_one_initial_data,
)
from .modular import (
    E2,
    QMPolynomial,
    eisenstein,
    qm_eval,
    quasimodularize,
    ramanujan_derive,
    reduce_e2k,
    theta_q,
    weight_basis,
)
from .mirror import (
    appendix_identity_checks,
    i_function_identity_checks,
    mirror_map_check,
)
from .npoint import connected_stationary, npoint, stationary_invariant
from .rational import ONE, rat
from .series import PowerSeries
from .theta import (
    one_over_theta,
    onepoint_qm,
    onepoint_from_b,
    prime_form,
    prime_form_exponential,
    sigma_tilde,
)
from .virasoro import (
    THEORIES,
    quantization_S,
    mono_var,
    poly_mul_mono,
    poly_var,
    theories_structurally_equal,
    virasoro_commutator_check,
)

_SEED = 987654321


def _random_series(rng, var, order, scale=6):
    coeffs = [
        rat(rng.randrange(-scale, scale + 1), rng.randrange(1, 5))
        for _ in range(order + 1)
    ]
    return PowerSeries(var, coeffs)


def _random_qm(rng, max_weight=8):
    terms = {}
    for w in range(0, max_weight + 1, 2):
        for key in weight_basis(w):
            if rng.random() < 0.4:
                terms[key] = rat(rng.randrange(-5, 6), rng.randrange(1, 4))
    return QMPolynomial(terms)


def suite_ramanujan(config):
    report = CheckReport("ramanujan / differential ring")
    order = config.q_order
    e2, e4, e6 = (
        eisenstein(2, order),
        eisenstein(4, order),
        eisenstein(6, order),
    )
    checks = [
        ("theta_q E2 = (E2^2 - E4)/12", theta_q(e2), (e2 * e2 - e4) * rat(1, 12)),
        ("theta_q E4 = (E2 E4 - E6)/3", theta_q(e4), (e2 * e4 - e6) * rat(1, 3)),
        (
            "theta_q E6 = (E2 E6 - E4^2)/2",
            theta_q(e6),
            (e2 * e6 - e4 * e4) * rat(1, 2),
        ),
    ]
    for name, lhs, rhs in checks:
        diff = lhs - rhs
        report.add(
            name,
            diff.is_zero(),
            "" if diff.is_zero() else f"first mismatch at q^{diff.valuation()}",
        )
    rng = random.Random(_SEED)
    for i in range(5):
        p = _random_qm(rng)
        lhs = theta_q(qm_eval(p, order))
        rhs = qm_eval(ramanujan_derive(p), order)
        report.add(f"theta_q qm_eval = qm_eval ramanujan_derive #{i}", lhs == rhs)
    report.add("E8 reduces to E4^2", reduce_e2k(8) == QMPolynomial.e4() * QMPolynomial.e4())
    report.add(
        "E10 reduces to E4 E6", reduce_e2k(10) == QMPolynomial.e4() * QMPolynomial.e6()
    )
    rng2 = random.Random(_SEED + 1)
    for i in range(5):
        p = _random_qm(rng2)
        w = p.weight
        if w is None:
            continue
        dim = len(weight_basis(w))
        back = quasimodularize(
            qm_eval(p, dim + config.margin), w, margin=config.margin
        )
        report.add(f"quasimodularize o qm_eval = id #{i}", back == p)
    return report


def suite_chazy(config):
    report = CheckReport("chazy equation")
    r = chazy_residual(eisenstein(2, max(config.q_order, 30)), THETA_Q)
    report.add(
        "E2 satisfies the q-frame equation",
        r.is_zero(),
        "" if r.is_zero() else f"residual at q^{r.valuation()}",
    )
    f = chazy_solve_s(genus_one_initial_data(), config.s_order + 4)
    want = [
        (2, rat(-1, 9)),
        (5, rat(-1, 1215)),
        (8, rat(-1, 459270)),
        (3, 0),
        (4, 0),
        (6, 0),
        (7, 0),
    ]
    ok = all(f.coefficient(n) == rat(v) for n, v in want)
    report.add("s-frame solution matches its known leading terms", ok)
    rng = random.Random(_SEED + 2)
    for i in range(4):
        init = tuple(rat(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(3))
        sol = chazy_solve_s(init, 12)
        res = chazy_residual(sol, D_DS)
        report.add(f"solver residual vanishes #{i}", res.is_zero())
    sol = chazy_solve_s(genus_one_initial_data(), 14)
    lam = rat(2, 3)
    scaled = PowerSeries(
        "s", [lam * lam ** n * c for n, c in enumerate(sol.coeffs)]
    )
    report.add(
        "scaling family lambda f(lambda s) stays a solution",
        chazy_residual(scaled, D_DS).is_zero(),
    )
    g1 = fjrw_genus1_series(10)
    report.add("[s^2] of the genus-one series = 1/216", g1.coefficient(2) == rat(1, 216))
    return report


def suite_bp(config):
    report = CheckReport("boundary-relation residual")
    e2 = eisenstein(2, max(config.q_order, 30))
    r = bp_residual(e2 * rat(-1, 24), THETA_Q)
    report.add(
        "genus-one building block solves the relation",
        r.is_zero(),
        "" if r.is_zero() else f"residual at q^{r.valuation()}",
    )
    rng = random.Random(_SEED + 3)
    for i in range(20):
        g = _random_series(rng, "s", 20)
        lhs = chazy_residual(-24 * g, D_DS)
        rhs = -480 * bp_residual(g, D_DS)
        report.add(f"chazy(-24 g) = -480 bp(g) #{i}", lhs == rhs)
    return report


def suite_prime_form(config):
    report = CheckReport("prime form and one-point tower")
    dz = config.z_order
    # the exponential route fits E_{2k} from q-expansions; the production
    # route runs the a_{m,n} recursion and never does
    exponential = prime_form_exponential(dz)
    report.add(
        "exponential route equals sigma-factored route",
        exponential == prime_form(dz),
    )
    e2_exponent = [QMPolynomial.zero()] * dz
    e2_exponent[2] = E2 * rat(-1, 24)
    report.add(
        "recursion route to sigma matches",
        sigma_tilde(dz) == exponential * PowerSeries("z", e2_exponent).exp(),
    )
    oot = one_over_theta(dz)
    expect = {
        -1: QMPolynomial.constant(ONE),
        1: E2 * rat(-1, 24),
        3: QMPolynomial(
            {(0, 1, 0): rat(1, 2880), (2, 0, 0): rat(1, 1152)}
        ),
    }
    for n, val in expect.items():
        report.add(
            f"1/Theta coefficient at z^{n}", oot.coefficient(n) == val
        )
    gmax = (dz + 1) // 2
    for g in range(1, gmax + 1):
        report.add(
            f"b-table route equals tower at genus {g}",
            onepoint_qm(g, z_order=dz + 2) == onepoint_from_b(g),
        )
    inv = qm_eval(onepoint_qm(1), config.q_order)
    report.add("genus-one q^0 coefficient is -1/24", inv.coefficient(0) == rat(-1, 24))
    report.add("genus-one q^1 coefficient is 1", inv.coefficient(1) == ONE)
    report.add(
        "two-point closed form from the determinant assembly",
        _two_point_matches_closed_form(min(dz, 8)),
    )
    return report


def _two_point_matches_closed_form(dz):
    """Independent assembly of the closed two-point form:

        (1/Theta(z1+z2)) (dlog Theta(z1) + dlog Theta(z2)),
    built from single-variable series only and compared against the
    determinant engine coefficientwise.
    """
    from .theta import log_theta_deriv
    from .npoint import _linear_form_powers, _substitute

    assembled = npoint(2, dz)
    cap = dz + 2
    oot = one_over_theta(cap + 3)
    h = [oot.coefficient(e - 1) for e in range(cap + 1)]  # w/Theta(w)
    powers = _linear_form_powers((0, 1), 2, cap)
    h12 = _substitute(h, powers, cap)  # (z1+z2)/Theta(z1+z2)
    ltd = log_theta_deriv(1, cap + 2)
    g = [ltd.coefficient(e) for e in range(1, cap + 1)]  # odd part, z^1 up
    # [g(z1)+g(z2)]/(z1+z2) for odd g: sum_{k odd} g_k * H_{k-1}
    # with H_m = sum_{i+j=m} (-1)^j z1^i z2^j ... built directly:
    sym = {}
    for k in range(1, cap + 1, 2):
        gk = g[k - 1]
        if gk.is_zero():
            continue
        for i in range(k):
            j = k - 1 - i
            key = (i, j)
            c = gk if j % 2 == 0 else -gk
            sym[key] = sym.get(key, QMPolynomial.zero()) + c
    from ._backend import exp_mul_dict_capped

    part = exp_mul_dict_capped(h12, {k: v for k, v in sym.items() if v}, cap)
    # + h12 * z1^-1 z2^-1
    total = {}
    for key, v in part.items():
        if sum(key) <= dz:
            total[key] = v
    for key, v in h12.items():
        nk = (key[0] - 1, key[1] - 1)
        if sum(nk) <= dz:
            s = total.get(nk, QMPolynomial.zero()) + v
            if s:
                total[nk] = s
            else:
                total.pop(nk, None)
    return {k: v for k, v in total.items() if v} == assembled.data


def suite_weights(config):
    report = CheckReport("weight bookkeeping")
    dz = min(config.z_order, 10)
    f1 = npoint(1, dz)
    for e in range(-1, dz + 1):
        val = f1.coefficient((e,))
        if val.is_zero():
            continue
        report.add(
            f"one-point z^{e} weight {e + 1}",
            val.weight == e + 1,
        )
    f2 = npoint(2, min(dz, 8))
    ok = True
    bad = None
    for key, val in sorted(f2.data.items()):
        w = sum(key) + 2
        if val.weight != w:
            ok = False
            bad = key
            break
    report.add(
        "two-point coefficients homogeneous of weight sum(l_i+2)",
        ok,
        "" if ok else f"first failure at exponents {bad}",
    )
    report.add("two-point series symmetric", f2.is_symmetric())
    top = min(6, f2.cap)
    pairs = [
        (e1, e2) for e1 in range(-1, top + 2) for e2 in range(-1, top - e1 + 1)
    ]
    bad = next(
        (
            key
            for key in pairs
            if stationary_invariant((key[0] - 1, key[1] - 1))
            != f2.coefficient(key)
        ),
        None,
    )
    report.add(
        "completed-cycles route equals determinant assembly",
        bad is None,
        "" if bad is None else f"first failure at exponents {bad}",
    )
    for legs in [(0,), (2,), (0, 0), (1, 1)]:
        val = stationary_invariant(legs)
        w = sum(l + 2 for l in legs)
        back = quasimodularize(
            qm_eval(val, len(weight_basis(w)) + config.margin),
            w,
            margin=config.margin,
        )
        report.add(f"round trip through q-expansion, legs {legs}", back == val)
    return report


def suite_hae(config):
    report = CheckReport("anomaly equations (one-point specialization)")
    sub = prime_form_anomaly_check(min(config.z_order, 9))
    report.add(
        "prime-form anomaly dC2 Theta = -z^2 Theta",
        sub.passed,
        "" if sub.passed else next(d for _, ok, d in sub.rows if not ok),
    )
    frame = cayley_frame(max(config.s_order, 12))
    ladder = hae_onepoint_check(7, frame=frame)
    report.add(
        "one-point ladder to genus 7, both frames",
        ladder.passed,
        "" if ladder.passed else next(n for n, ok, _ in ladder.rows if not ok),
    )
    rng = random.Random(_SEED + 4)
    for i in range(4):
        p = _random_qm(rng)
        q = _random_qm(rng)
        lhs = d_dC2(p * q)
        rhs = d_dC2(p) * q + p * d_dC2(q)
        report.add(f"anomaly derivative is a derivation #{i}", lhs == rhs)
    return report


def suite_virasoro(config):
    report = CheckReport("operator algebra")
    cap = 10
    for theory in THEORIES:
        failures = []
        for n in range(-1, 4):
            for m in range(-1, 4):
                if n + m < -1:
                    continue
                sub = virasoro_commutator_check(n, m, cap, theory)
                if not sub.passed:
                    failures.append((n, m))
        report.add(
            f"bracket relation on {theory}, -1 <= n,m <= 3, cap {cap}",
            not failures,
            f"failing pairs {failures}" if failures else "",
        )
    report.add(
        "curve and cubic operators coincide under relabeling",
        all(theories_structurally_equal(k, cap) for k in range(-1, 4)),
    )
    s_op = quantization_S(rat(1, 2), 6)
    probe = poly_var(0, 1)
    lhs = s_op.apply(poly_mul_mono(probe, mono_var(3, 3), 1))
    rhs = {
        h: poly_mul_mono(p, mono_var(3, 3), 1)
        for h, p in s_op.apply(probe).items()
    }
    report.add("quantization commutes with point-sector variables", lhs == rhs)
    p3 = {mono_var(3, 2): ONE}
    report.add(
        "quantization fixes the point sector at hbar^0",
        s_op.apply(p3).get(0) == p3,
    )
    ident = quantization_S(0, 6)
    report.add("t = 0 gives the identity", ident.apply(probe) == {0: probe})
    return report


def suite_mirror(config):
    report = CheckReport("hypergeometric frame")
    order = max(config.q_order // 2, 12)
    for sub in (
        appendix_identity_checks(order),
        i_function_identity_checks(12),
        mirror_map_check(max(10, order - 2)),
    ):
        for name, ok, detail in sub.rows:
            report.add(name, ok, detail)
    return report


def suite_fjrw(config):
    report = CheckReport("frame transport")
    frame = cayley_frame(max(config.s_order, 12))
    want = {
        "CE4 reference expansion": (
            frame.e4,
            {1: rat(8, 3), 4: rat(5, 81), 7: rat(2, 5103)},
        ),
        "CE6 reference expansion": (
            frame.e6,
            {0: rat(-8), 3: rat(-28, 27), 6: rat(-7, 405)},
        ),
    }
    for name, (series, coeffs) in want.items():
        report.add(
            name, all(series.coefficient(n) == v for n, v in coeffs.items())
        )
    for g in range(1, 8):
        a = fjrw_onepoint_all_genus(g, frame)
        b = cayley_transform(onepoint_qm(g), frame)
        report.add(f"one-point transport at genus {g}", a == b)
    one = connected_stationary((0,))
    two = connected_stationary((0, 0))
    lhs = cayley_transform(two, frame)
    rhs = cayley_transform(one, frame).derive(D_DS).truncate(frame.order - 1)
    report.add(
        "two-point primary = d/ds of one-point through the frame",
        lhs.truncate(rhs.order) == rhs,
    )
    return report


SUITES = {
    "ramanujan": suite_ramanujan,
    "chazy": suite_chazy,
    "bp": suite_bp,
    "prime-form": suite_prime_form,
    "weights": suite_weights,
    "hae": suite_hae,
    "virasoro": suite_virasoro,
    "mirror": suite_mirror,
    "fjrw": suite_fjrw,
}


def run_suites(names, config):
    """One report per suite; a suite that raises becomes one FAIL row."""
    if "all" in names:
        names = list(SUITES)
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        try:
            reports.append(SUITES[name](config))
        except Exception as exc:
            report = CheckReport(name)
            report.add(
                "suite ran to completion", False, f"{type(exc).__name__}: {exc}"
            )
            reports.append(report)
    return reports
