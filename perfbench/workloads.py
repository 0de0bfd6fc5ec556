"""Workload make-up and seeded inputs.

The make-up of every workload is fixed: requests per leg count and total
exponent, genus range, orders and table bounds.  The seed only chooses how
the exponents of a stationary request are spread over its legs, which
leaves the cost of a request unchanged: a request with N legs and total
exponent T = sum(l_i + 1) is made at z-order T, so it assembles npoint(N, T)
whatever the spread.
"""

import random
from itertools import product

from reference import weight_dimension

WORKLOADS = ("stationary-cold", "tower-session", "verify-all", "tables-cache")

# Extra q-coefficients compared beyond the dimension of the weight basis.
MARGIN = 10

# (legs, total exponent T, disconnected requests, connected requests,
#  residue legs allowed).  Every 4-leg request at T >= 4 assembles
# npoint(4, 4), which takes 20-30 s on its own; two or three residue legs
# (psi-power -2, exponent -1) bring a 4-leg request to T = 0, so it still
# runs the full 4-leg determinant assembly at a cost a run can afford.
# The median request falls in the middle of the six 3-leg T=5 requests,
# with three cheaper and three dearer requests on either side.
STATIONARY = (
    (2, 6, 1, 1, False),
    (2, 10, 1, 0, False),
    (3, 5, 3, 3, False),
    (3, 7, 1, 1, False),
    (4, 0, 1, 0, True),
)
STATIONARY_TINY = ((2, 4, 1, 1, False), (3, 3, 1, 0, False))

TOWER = {"genera": 13, "s_order": 32, "margin": 6, "max_n": 9}
TOWER_TINY = {"genera": 3, "s_order": 12, "margin": 6, "max_n": 9}

# Raised above the defaults (q 24, s 16, z 14) so that the suites other
# than virasoro do real work as well.
VERIFY_ORDERS = ["--order", "64", "--s-order", "40", "--z-order", "24"]
VERIFY_SUITES = (
    "ramanujan", "chazy", "bp", "prime-form", "weights", "hae",
    "virasoro", "mirror", "fjrw",
)
VERIFY_TINY_SUITES = ("chazy", "bp", "fjrw")

TABLES = {
    "a_bound": 32, "b_bound": 32, "eisenstein_k": 6, "eisenstein_order": 300,
    "max_n": 60, "warm_passes": 3,
}
TABLES_TINY = {
    "a_bound": 12, "b_bound": 12, "eisenstein_k": 4, "eisenstein_order": 20,
    "max_n": 9, "warm_passes": 1,
}


def _spreads(n, total, residue):
    """Exponent tuples (e_i = l_i + 1) with sum `total`; e_i >= 1, or -1
    for a residue leg.  An exponent 0 (psi-power -1) always gives 0."""
    choices = ([-1] if residue else []) + list(range(1, total + 2 * n + 1))
    return [e for e in product(choices, repeat=n) if sum(e) == total]


def stationary_requests(seed, makeup=STATIONARY):
    rng = random.Random(seed)
    out = []
    for n, total, disc, conn, residue in makeup:
        spreads = _spreads(n, total, residue)
        q_order = weight_dimension(total + n) + MARGIN
        for connected in [False] * disc + [True] * conn:
            exps = rng.choice(spreads)
            out.append({
                "legs": [e - 1 for e in exps],
                "connected": connected,
                "z_order": total,
                "q_order": q_order,
            })
    return out


def plan(name, seed, tiny=False):
    """The inputs of one round, as a JSON-able dict."""
    if name == "stationary-cold":
        makeup = STATIONARY_TINY if tiny else STATIONARY
        return {"workload": name, "requests": stationary_requests(seed, makeup)}
    if name == "tower-session":
        p = dict(TOWER_TINY if tiny else TOWER, workload=name)
        p["q_orders"] = [
            weight_dimension(2 * g) + p["margin"]
            for g in range(1, p["genera"] + 1)
        ]
        return p
    if name == "verify-all":
        return {
            "workload": name,
            "suites": list(VERIFY_TINY_SUITES if tiny else VERIFY_SUITES),
            "orders": [] if tiny else VERIFY_ORDERS,
        }
    if name == "tables-cache":
        t = TABLES_TINY if tiny else TABLES
        return {
            "workload": name,
            "warm_passes": t["warm_passes"],
            "commands": [
                ["tables", "a", "--bound", str(t["a_bound"])],
                ["tables", "b", "--bound", str(t["b_bound"])],
                ["tables", "eisenstein", "--k", str(t["eisenstein_k"]),
                 "--order", str(t["eisenstein_order"])],
                ["fjrw", "invariants", "--max", str(t["max_n"])],
            ],
        }
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
