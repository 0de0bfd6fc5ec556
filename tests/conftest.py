import copy
import pickle

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from qmgw.rational import rat

settings.register_profile(
    "qmgw",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("qmgw")


def rationals(max_num=20, max_den=8):
    return st.builds(
        rat,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def coeff_lists(order, **kw):
    return st.lists(
        rationals(**kw), min_size=order + 1, max_size=order + 1
    )


def rational_or_integral_lists(order):
    """Coefficient lists, every entry an integer in half of the draws: with
    max_den=8 an all-integral list of length 7 comes up once in about 1,500.
    """
    return st.one_of(coeff_lists(order), coeff_lists(order, max_den=1))


def clear_package_caches():
    """Clear every lru_cache bound in a loaded qmgw module, as a fresh
    process starts (and as perfbench's `layers.lru_caches` clears them
    before each cold request)."""
    import sys

    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "qmgw" or name.startswith("qmgw."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(
                    value, "cache_info"
                ):
                    found[id(value)] = value
    for cache in found.values():
        cache.cache_clear()


def assert_round_trips(value, mappings):
    """A pickle and a deep-copy round trip of a Frozen value equal it, keep
    its type, refuse assignment, and keep each slot in `mappings` a
    read-only mapping."""
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
        for name in mappings:
            with pytest.raises(AttributeError):
                setattr(clone, name, {})
            with pytest.raises(TypeError):
                getattr(clone, name)["key"] = 0


def count_recurrence(monkeypatch):
    """A list that records how many 1/Theta coefficients the grown tower of
    `qmgw.theta` computes, one entry per extension."""
    from qmgw import theta

    counts = []
    real = theta._reciprocal_loop

    def loop(b, zero, out=None):
        before = 0 if out is None else len(out)
        out = real(b, zero, out)
        counts.append(len(out) - before)
        return out

    monkeypatch.setattr(theta, "_reciprocal_loop", loop)
    return counts

