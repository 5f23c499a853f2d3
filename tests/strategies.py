"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

from thetalift import HCParam, Signature


@st.composite
def wide_params(draw):
    """(lam, m0, n0) with n = 6..8 and |lam - m0/2| <= 15/2, as the suites enumerate them."""
    n = draw(st.integers(6, 8))
    k0 = draw(st.sampled_from((0, -1)))
    m0 = (n + k0) % 2
    universe = [t for t in range(-15, 16) if t % 2 == (k0 - 1) % 2]
    values = sorted(
        draw(st.lists(st.sampled_from(universe), min_size=n, max_size=n, unique=True)),
        reverse=True,
    )
    on_q = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p_tw = [t + m0 for t, q in zip(values, on_q) if not q]
    q_tw = [t + m0 for t, q in zip(values, on_q) if q]
    lam = HCParam.from_twices(Signature(len(p_tw), len(q_tw)), tuple(p_tw + q_tw))
    return lam, m0, n % 2
