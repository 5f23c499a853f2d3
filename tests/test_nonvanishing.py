"""Tower invariants, window counts, and the occurrence criterion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetalift import (
    EnumerationBounds,
    HCParam,
    HalfInt,
    InternalError,
    LiftContext,
    NVInvariants,
    ParityMismatch,
    PreconditionViolation,
    Signature,
    c_count,
    conjugate_dual,
    half,
    invariants,
    li_sufficient,
    occurs,
)
from thetalift import nonvanishing
from thetalift.core import _conjugate_dual_m0, _split
from thetalift.nonvanishing import _dual_shifted, _Tower, _tower_invariants
from thetalift.suites import iter_params


def _lam11():
    return HCParam(Signature(1, 1), (half(1), half(-1)))


def test_invariants_u11_half_pair():
    inv = invariants(_lam11(), 0, 0)
    # the would-be chain straddles both parts, so no chain
    assert inv.k_lambda == 0
    assert (inv.r_lambda, inv.s_lambda) == (2, 0)
    # nothing cancels: X_inf is all of X
    assert inv.X_inf_tw == ((1, +1), (-1, -1))
    assert (c_count(inv, +1, 1), c_count(inv, -1, 1)) == (1, 1)
    assert (c_count(inv, +1, 4), c_count(inv, -1, 4)) == (1, 1)
    assert c_count(inv, +1, 0) == 0


def test_invariants_chain_inside_one_part():
    lam = HCParam(Signature(2, 0), (half(1), half(-1)))
    inv = invariants(lam, 0, 0)
    assert inv.k_lambda == 2
    assert (inv.r_lambda, inv.s_lambda) == (0, 0)
    # chain values never cancel out of the fixed point
    assert inv.X_inf_tw == ((1, +1), (-1, +1))


def test_invariants_no_chain_tower():
    lam = HCParam(Signature(1, 0), (HalfInt(2),))
    inv = invariants(lam, 0, -1)
    assert inv.k_lambda == -1
    assert (inv.r_lambda, inv.s_lambda) == (1, 0)


def test_invariants_parity_guard():
    with pytest.raises(ParityMismatch):
        invariants(_lam11(), 1, 0)
    with pytest.raises(PreconditionViolation):
        invariants(_lam11(), 0, 2)


def test_pair_deletion_cancels_adjacent_classes():
    # alpha directly above gamma cancels; the reverse order stays
    lam = HCParam(Signature(1, 1), (half(3), half(1)))
    inv = invariants(lam, 0, 0)
    assert inv.X_inf_tw == ()
    assert (inv.r_lambda, inv.s_lambda) == (1, 1)
    kept = invariants(HCParam(Signature(1, 1), (half(1), half(3))), 0, 0)
    assert kept.X_inf_tw == ((3, -1), (1, +1))


def test_pair_deletion_cancels_beta_above_delta():
    # beta directly above delta cancels; the reverse order stays
    lam = HCParam(Signature(1, 1), (half(-1), half(-3)))
    inv = invariants(lam, 0, 0)
    assert inv.X_inf_tw == ()
    assert (inv.r_lambda, inv.s_lambda) == (1, 1)
    kept = invariants(HCParam(Signature(1, 1), (half(-3), half(-1))), 0, 0)
    assert kept.X_inf_tw == ((-1, -1), (-3, +1))


# The core's consistency failures are bugs, never user errors: each
# raises InternalError (exit 3), not ChainNotPresent or
# UnclassifiableZero (exit 2). Valid parameters reach none of them, so
# the tests hand-make the shifted parts; pytest.raises holds under -O.


def test_tower_invariants_reject_a_chain_centre_in_both_parts():
    with pytest.raises(InternalError, match="both parts"):
        _tower_invariants((1, -1), (1, -1), 0)


def test_tower_invariants_reject_a_zero_outside_the_chain():
    # The even tower's chains hold no zero.
    with pytest.raises(InternalError, match="zero outside the chain"):
        _tower_invariants((3,), (0,), 0)


def test_tower_invariants_reject_a_chain_span_with_other_values():
    # The odd chain (1, 0, -1) of the p-part, with 1/2 of the q-part
    # off the lattice inside its span.
    with pytest.raises(InternalError, match="holds 4 values"):
        _tower_invariants((2, 0, -2), (1,), -1)


def test_invariants_report_a_split_that_disagrees_with_the_core(monkeypatch):
    # A chain the core claims but the parts lack, and a signature the
    # strict split does not give, are internal errors too.
    lam = HCParam(Signature(1, 1), (half(3), half(-1)))  # lam - m0/2 = (3/2 | -1/2)
    x_inf = ((3, 1), (-1, -1))
    assert _tower_invariants((3,), (-1,), 0) == NVInvariants(0, 2, 0, x_inf)
    for wrong, message in (
        (NVInvariants(4, 2, 0, x_inf), "no centered chain of length 4"),
        (NVInvariants(0, 0, 2, x_inf), r"gives \(2, 0\), the tower \(0, 2\)"),
    ):
        monkeypatch.setattr(nonvanishing, "_tower_invariants", lambda p, q, k0: wrong)
        with pytest.raises(InternalError, match=message):
            invariants(lam, 0, 0)


def test_negative_plane_count_is_an_internal_error():
    # Only a dual whose (r_lambda, s_lambda) is not the swap of the
    # parameter's reaches t < 0: the target (0, 3) swaps to (3, 0)
    # against the dual's (5, 0), so l = 0 and t = -1.
    tower = _Tower(
        _lam11(), 0, 0, inv=NVInvariants(0, 1, 0, ()), dual_inv=NVInvariants(0, 5, 0, ())
    )
    assert tower.decide(Signature(3, 0)) == (0, 1, False, None)
    with pytest.raises(InternalError, match=r"negative plane count t=-1 .* target \(0,3\)"):
        tower.decide(Signature(0, 3))


def test_occurs_examples_u11():
    lam = _lam11()
    ok, pos = occurs(lam, 0, Signature(2, 0))
    assert ok and (pos.l, pos.t) == (0, 0)
    ok, pos = occurs(lam, 0, Signature(3, 1))
    assert ok and (pos.l, pos.t) == (1, 0)
    ok, pos = occurs(lam, 0, Signature(4, 0))
    assert not ok and pos.reason == "positive window count exceeds the step count"
    ok, pos = occurs(lam, 0, Signature(1, 1))
    assert not ok and pos.swapped
    assert pos.reason == "below the first occurrence in its tower"


def test_occurs_swaps_orientation():
    # beta-heavy parameter first occurs on the (0, 2) side
    lam = HCParam(Signature(1, 1), (half(-1), half(1)))
    ok, pos = occurs(lam, 0, Signature(0, 2))
    assert ok and not pos.swapped
    # equal margins stay unswapped
    ok, pos = occurs(lam, 0, Signature(1, 3))
    assert ok and not pos.swapped and (pos.l, pos.t) == (1, 0)
    # a strictly larger q margin flips to the conjugate dual
    ok, pos = occurs(lam, 0, Signature(1, 5))
    assert ok and pos.swapped and (pos.l, pos.t) == (1, 1)
    # the flipped orientation inherits the dual's window counts
    ok, pos = occurs(lam, 0, Signature(0, 4))
    assert not ok and pos.swapped
    assert pos.reason == "positive window count exceeds the step count"


def test_occurs_vanishes_between_chain_steps():
    # k_lambda = 2 forces the unique same-size occurrence at (1, 1)
    lam = HCParam(Signature(2, 0), (half(1), half(-1)))
    ok, pos = occurs(lam, 0, Signature(1, 1))
    assert ok and (pos.l, pos.t) == (1, 0)
    ok, pos = occurs(lam, 0, Signature(2, 0))
    assert not ok and (pos.l, pos.t) == (0, 1)
    assert pos.reason == "step count below the chain length"
    ok, pos = occurs(lam, 0, Signature(3, 1))
    assert not ok and pos.reason == "step count below the chain length"
    ok, pos = occurs(lam, 0, Signature(2, 2))
    assert ok and (pos.l, pos.t) == (2, 0)
    ok, pos = occurs(lam, 0, Signature(4, 2))
    assert ok and (pos.l, pos.t) == (2, 1)


def test_occurs_duality_symmetry():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    ctx = LiftContext(1, 1, 3, 1)
    dual = conjugate_dual(lam, ctx)
    for r in range(0, 6):
        for s in range(0, 6):
            if (r + s) % 2 != 1:
                continue
            assert occurs(lam, 1, Signature(r, s))[0] == occurs(dual, 1, Signature(s, r))[0]


def test_li_sufficient_examples():
    lam = _lam11()
    # m - n + 1 = 3 needs every boundary entry at least 3/2 in size
    assert not li_sufficient(lam, 0, Signature(3, 1))
    big = HCParam(Signature(1, 1), (half(7), half(-7)))
    assert li_sufficient(big, 0, Signature(3, 1))
    assert not li_sufficient(big, 0, Signature(1, 1))  # m < n


def test_li_implies_occurs():
    big = HCParam(Signature(1, 1), (half(7), half(-7)))
    target = Signature(3, 1)
    assert li_sufficient(big, 0, target)
    ok, _ = occurs(big, 0, target)
    assert ok


@given(st.integers(0, 4), st.integers(0, 4))
def test_persistence_along_diagonal(dr, ds):
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    base = Signature(0, 1)
    ok_base, _ = occurs(lam, 1, base)
    assert ok_base
    stepped = Signature(base.p + dr + 1, base.q + dr + 1)
    ok, _ = occurs(lam, 1, stepped)
    assert ok


@st.composite
def _params_at_exponent(draw):
    """(lam, m0, k0) with lam of size up to 7 and entries up to 25/2."""
    n = draw(st.integers(1, 7))
    k0 = draw(st.sampled_from((0, -1)))
    parity = (n - 1) % 2
    values = draw(
        st.lists(st.integers(-12, 12).map(lambda v: 2 * v + parity),
                 min_size=n, max_size=n, unique=True)
    )
    on_p = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p_tw = sorted((v for v, p in zip(values, on_p) if p), reverse=True)
    q_tw = sorted((v for v, p in zip(values, on_p) if not p), reverse=True)
    lam = HCParam.from_twices(Signature(len(p_tw), len(q_tw)), tuple(p_tw + q_tw))
    return lam, (n + k0) % 2, k0


def _delete_pairs_one_at_a_time(X, cls):
    """Delete any adjacent alpha-gamma or beta-delta pair until none is left."""
    work = list(X)
    while True:
        for i in range(len(work) - 1):
            if (cls.get(work[i][0]), cls.get(work[i + 1][0])) in (("a", "g"), ("b", "d")):
                del work[i : i + 2]
                break
        else:
            return tuple(work)


def _chain_length(p_tw, q_tw, k0):
    """k_lambda by search: the longest centered chain of the k0 class inside one part."""
    for k in range(len(p_tw) + len(q_tw), 0, -1):
        chain = set(range(1 - k, k, 2))
        if k % 2 == -k0 and (chain <= set(p_tw) or chain <= set(q_tw)):
            return k
    return k0


@given(_params_at_exponent())
def test_x_inf_is_the_fixpoint_of_pair_deletion(case):
    # A reference oracle: X, the chain and the strict split are built
    # here from lam itself, and the cancellations made one at a time.
    lam, m0, k0 = case
    inv = invariants(lam, m0, k0)
    p_tw = tuple(t - m0 for t in lam.p_tw)
    q_tw = tuple(t - m0 for t in lam.q_tw)
    assert inv.k_lambda == _chain_length(p_tw, q_tw, k0)
    X = tuple(sorted([(t, +1) for t in p_tw] + [(t, -1) for t in q_tw], reverse=True))
    sp = _split(lam, m0, True, max(inv.k_lambda, 0))
    assert (inv.r_lambda, inv.s_lambda) == (sp.x + sp.w, sp.z + sp.y)
    cls = {
        t: c
        for part, c in ((sp.alpha_tw, "a"), (sp.beta_tw, "b"), (sp.gamma_tw, "g"),
                        (sp.delta_tw, "d"))
        for t in part
    }
    assert inv.X_inf_tw == _delete_pairs_one_at_a_time(X, cls)


def _assert_tower_matches_invariants(lam, m0, k0):
    # The tower's invariants are invariants()'s, for lam and for its
    # conjugate dual, whose strict splits cross-check r and s.
    tower = _Tower(lam, m0, k0)
    dual = _conjugate_dual_m0(lam, m0)
    assert tower.inv == invariants(lam, m0, k0), str(lam)
    assert tower.dual_inv == invariants(dual, m0, k0), str(lam)
    # The tower reads the dual from lam's own shifted parts, negated and
    # reversed: they are the explicit dual's shifted parts.
    explicit = (tuple(t - m0 for t in dual.p_tw), tuple(t - m0 for t in dual.q_tw))
    assert _dual_shifted(lam, m0) == explicit, str(lam)


def test_tower_dual_invariants_at_the_benchmark_window():
    bounds = EnumerationBounds(max_n=3, max_m_minus_n=4, height=half(7))
    count = 0
    for lam, k0, m0, _n0 in iter_params(bounds):
        _assert_tower_matches_invariants(lam, m0, k0)
        count += 1
    assert count == 954


@given(_params_at_exponent())
def test_tower_dual_invariants_beyond_the_window(case):
    _assert_tower_matches_invariants(*case)
