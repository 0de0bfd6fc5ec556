"""Holomorphic Cayley transformation and FJRW correlation functions.

The transformation is implemented purely algebraically: the generators are
replaced by their expansions around the elliptic point, computed from the
s-frame Chazy solution and the Ramanujan identities with the plain d/ds
derivative.  The transcendental data pinning the expansion point are never
evaluated; they are recorded as documentation strings on the frame.
"""

from collections import namedtuple
from math import factorial

from .chazy import (
    D_DS,
    THETA_1_3,
    chazy_residual,
    chazy_solve_s,
    fjrw_genus1_series,
    genus_one_initial_data,
)
from .errors import InsufficientOrder, InvalidSeries, UnsupportedInsertion
from .modular import qm_eval
from .npoint import connected_stationary
from .rational import ONE, ZERO, rat
from .series import PowerSeries
from .theta import onepoint_from_b

TAU_STAR_NOTE = "tau* = -(i/sqrt(3)) * exp(2*pi*i/3)  (elliptic point, not evaluated)"
SCALE_NOTE = (
    "c = (1/(2*pi*i)) * Gamma(1/3)/Gamma(2/3)^2 * exp(-pi*i/3)"
    "  (disk-coordinate scale, not evaluated)"
)

EVEN_LABELS = ("1", "phi")
ODD_LABELS = ("b1", "b2")
LABELS = EVEN_LABELS + ODD_LABELS

#: degree of each state-space element (the grading entering selection rules)
DEGREES = {"1": 0, "b1": 1, "b2": 1, "phi": 2}

#: label translation of the state-space isomorphism, curve side -> cubic side
PSI_MAP = {"1": "1", "omega": "phi", "e1": "b1", "e2": "b2"}


class FjrwInsertion(namedtuple("FjrwInsertion", "label psi")):
    __slots__ = ()

    def __new__(cls, label, psi=0):
        if label not in LABELS:
            raise InvalidSeries(f"unknown insertion label {label!r}")
        if psi < 0:
            raise InvalidSeries("psi-power must be >= 0")
        return super().__new__(cls, label, psi)


class CayleyFrame(
    namedtuple(
        "CayleyFrame",
        "e2 e4 e6 tau_star scale",
        defaults=(TAU_STAR_NOTE, SCALE_NOTE),
    )
):
    """s-expansions of the three generators around the elliptic point."""

    __slots__ = ()

    @property
    def order(self):
        return self.e2.order

    def gens(self):
        return (self.e2, self.e4, self.e6)

    def validate(self):
        """Chazy for the E2 image and all three Ramanujan identities, d/ds."""
        e2, e4, e6 = self.e2, self.e4, self.e6
        checks = {
            "chazy(CE2)": chazy_residual(e2, D_DS),
            "ramanujan E2": e2.derive(D_DS) - (e2 * e2 - e4) * rat(1, 12),
            "ramanujan E4": e4.derive(D_DS) - (e2 * e4 - e6) * rat(1, 3),
            "ramanujan E6": e6.derive(D_DS) - (e2 * e6 - e4 * e4) * rat(1, 2),
        }
        failures = [name for name, r in checks.items() if not r.is_zero()]
        if failures:
            raise InvalidSeries(f"Cayley frame inconsistent: {failures}")
        return True


def cayley_frame(order, theta_1_3=THETA_1_3):
    """Frame at truncation `order`, from the s-frame Chazy solution:

        CE2 = chazy solution with f''(0) fixed by the initial invariant,
        CE4 = CE2^2 - 12 d/ds CE2,
        CE6 = CE2*CE4 - 3 d/ds CE4.
    """
    if order < 3:
        raise InsufficientOrder("cayley_frame needs order >= 3", required=3)
    # build with headroom so the d/ds losses keep all three at `order`
    e2 = chazy_solve_s(genus_one_initial_data(theta_1_3), order + 2)
    e4 = e2 * e2 - 12 * e2.derive(D_DS)
    e6 = e2 * e4 - 3 * e4.derive(D_DS)
    frame = CayleyFrame(
        e2.truncate(order), e4.truncate(order), e6.truncate(order)
    )
    frame.validate()
    return frame


def cayley_transform(p, frame, order=None):
    """Substitute the frame images for the generators of a QMPolynomial.

    Through `qm_eval`: Horner in CE2 over cached CE4^b CE6^c columns, one
    product per column not cached yet and one per Horner step.
    """
    if order is None:
        order = frame.order
    if order > frame.order:
        raise InsufficientOrder(
            f"frame order {frame.order} < requested {order}",
            required=order,
        )
    gens = tuple(g.truncate(order) for g in frame.gens())
    return qm_eval(p, order, gens=gens)


def fjrw_onepoint_all_genus(g, frame):
    """One-point genus-g function from the reciprocal-sigma table:

        sum_{l+2m+3n=g} (b_{m,n}/l!) (-CE2/24)^l (CE4/24)^m (-CE6/108)^n,

    the Cayley transform of the curve-side b-table sum `onepoint_from_b`.
    """
    if g < 1:
        raise InvalidSeries("one-point tower starts at genus 1")
    return cayley_transform(onepoint_from_b(g), frame)


def fjrw_correlation(insertions, frame):
    """FJRW correlation function for the given insertions, as an s-series.

    Supported sector: every insertion phi*psi^l (the stationary image);
    these transport from the curve side as the Cayley transform of the
    connected stationary correlation function.  A repeated odd insertion
    vanishes identically by the sign rule for odd classes; anything else
    non-stationary is refused.
    """
    spec = []
    for ins in insertions:
        if not isinstance(ins, FjrwInsertion):
            ins = FjrwInsertion(*ins) if isinstance(ins, tuple) else FjrwInsertion(ins)
        spec.append(ins)
    if not spec:
        raise InvalidSeries("need at least one insertion")
    odd = [i.label for i in spec if i.label in ODD_LABELS]
    if odd:
        if any(odd.count(lbl) >= 2 for lbl in set(odd)):
            return PowerSeries.zero("s", frame.order)
        raise UnsupportedInsertion(
            "odd insertions are only computable in vanishing pairs"
        )
    if any(i.label != "phi" for i in spec):
        raise UnsupportedInsertion(
            "only the stationary sector (phi psi^l insertions) is computed"
        )
    legs = tuple(i.psi for i in spec)
    qm = connected_stationary(legs)
    return cayley_transform(qm, frame)


def extract_fjrw_invariants(f, base_n, max_m=None):
    """Invariants from an s-series: n = base_n + m insertions <-> m! [s^m] f."""
    if max_m is None:
        max_m = f.order
    out = []
    for m in range(min(max_m, f.order) + 1):
        out.append((base_n + m, factorial(m) * f.coefficient(m)))
    return out


def fjrw_primary_genus1_invariants(max_n, order=None):
    """(n, Theta_{1,n}) for n = 1..max_n from the genus-one series."""
    if order is None:
        order = max_n
    series = fjrw_genus1_series(max(order, max_n, 2))
    values = extract_fjrw_invariants(series, base_n=1, max_m=max_n - 1)
    return values[:max_n]


class GenusZeroData(namedtuple("GenusZeroData", "pairings")):
    """Primary genus-zero data: the residue pairing values and the
    statement that every primary genus-zero value with n >= 4 vanishes."""

    __slots__ = ()

    def pairing(self, a, b, c):
        for (x, y, z), v in self.pairings:
            if (x, y, z) == (a, b, c):
                return v
        return ZERO

    def primary_value(self, labels):
        """Primary genus-zero FJRW value for the ordered labels."""
        labels = tuple(labels)
        if len(labels) >= 4:
            return ZERO
        if len(labels) == 3:
            return self.pairing(*labels)
        raise InvalidSeries("genus-zero correlators need n >= 3")


def genus_zero_data():
    return GenusZeroData(
        pairings=(
            (("1", "1", "phi"), ONE),
            (("1", "phi", "1"), ONE),
            (("phi", "1", "1"), ONE),
            (("1", "b1", "b2"), ONE),
            (("1", "b2", "b1"), -ONE),
        )
    )


__all__ = [
    "CayleyFrame",
    "FjrwInsertion",
    "GenusZeroData",
    "PSI_MAP",
    "DEGREES",
    "cayley_frame",
    "cayley_transform",
    "fjrw_correlation",
    "fjrw_onepoint_all_genus",
    "extract_fjrw_invariants",
    "fjrw_primary_genus1_invariants",
    "fjrw_genus1_series",
    "genus_zero_data",
]
