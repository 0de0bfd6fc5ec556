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
