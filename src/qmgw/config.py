"""Run configuration shared by the command-line surface."""

import os
from collections import namedtuple
from pathlib import Path

from .errors import InsufficientOrder, InvalidSeries

FORMATS = ("json", "csv", "text")

#: the `verify` suites in run order; `verify.SUITES` follows it, and the
#: CLI names them without importing `verify`
SUITE_NAMES = (
    "ramanujan",
    "chazy",
    "bp",
    "prime-form",
    "weights",
    "hae",
    "virasoro",
    "mirror",
    "fjrw",
)

#: documented floors; commands with stricter needs raise InsufficientOrder
#: naming the actual minimum.
MIN_Q_ORDER = 4
MIN_S_ORDER = 3
MIN_Z_ORDER = 3


def default_cache_dir():
    env = os.environ.get("CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "qmgw"


class RunConfig(
    namedtuple(
        "RunConfig",
        "q_order s_order z_order margin cache_dir fmt no_cache",
    )
):
    """Validated, immutable run settings; `cache_dir` defaults to
    `default_cache_dir()`."""

    __slots__ = ()

    def __new__(
        cls,
        q_order=24,
        s_order=16,
        z_order=14,
        margin=10,
        cache_dir=None,
        fmt="json",
        no_cache=False,
    ):
        cache_dir = default_cache_dir() if cache_dir is None else Path(cache_dir)
        if fmt not in FORMATS:
            raise InvalidSeries(f"unknown output format {fmt!r}")
        for name, value, floor in (
            ("q-order", q_order, MIN_Q_ORDER),
            ("s-order", s_order, MIN_S_ORDER),
            ("z-order", z_order, MIN_Z_ORDER),
        ):
            if value < floor:
                raise InsufficientOrder(
                    f"{name} must be >= {floor}", required=floor
                )
        if margin < 1:
            raise InvalidSeries("verification margin must be >= 1")
        return super().__new__(
            cls, q_order, s_order, z_order, margin, cache_dir, fmt, no_cache
        )
