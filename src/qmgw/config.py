"""Run configuration shared by the command-line surface."""

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InsufficientOrder, InvalidSeries

FORMATS = ("json", "csv", "text")

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


@dataclass
class RunConfig:
    q_order: int = 24
    s_order: int = 16
    z_order: int = 14
    b_bound: int = 14
    margin: int = 10
    cache_dir: Path = field(default_factory=default_cache_dir)
    fmt: str = "json"
    no_cache: bool = False

    def __post_init__(self):
        self.cache_dir = Path(self.cache_dir)
        if self.fmt not in FORMATS:
            raise InvalidSeries(f"unknown output format {self.fmt!r}")
        for name, value, floor in (
            ("q-order", self.q_order, MIN_Q_ORDER),
            ("s-order", self.s_order, MIN_S_ORDER),
            ("z-order", self.z_order, MIN_Z_ORDER),
        ):
            if value < floor:
                raise InsufficientOrder(
                    f"{name} must be >= {floor}", required=floor
                )
        if self.b_bound < 2:
            raise InvalidSeries("b-table bound must be >= 2")
        if self.margin < 1:
            raise InvalidSeries("verification margin must be >= 1")
