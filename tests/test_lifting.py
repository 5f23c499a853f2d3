"""Explicit lifts in both directions and the block-data helpers."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalift import (
    AqLambdaData,
    ChamberAmbiguous,
    HCParam,
    HalfInt,
    InternalError,
    InternalWeaklyFairViolation,
    LiftContext,
    LiftResult,
    NotCompactLevi,
    NotGoodRange,
    PreconditionViolation,
    Signature,
    SignatureMismatch,
    aq_infinitesimal_character,
    aq_to_discrete_series,
    half,
    lift,
    lift_down,
    lift_up,
    occurs,
    sigma_from_eta_prime,
    transfer_eta,
)
from thetalift import lifting
from thetalift.core import split_abgd
from thetalift.lifting import _LiftUp

from strategies import wide_params


def _blocks(aq):
    """The blocks as (p_i, q_i, lambda_i), each value an integer."""
    return [(p, q, lam_tw // 2) for p, q, lam_tw in aq.triples]


def test_lift_up_scalar_to_rank_three():
    # one-dimensional source, two steps past the first occurrence
    lam = HCParam(Signature(1, 0), (HalfInt(2),))
    ctx = LiftContext(1, 1, 1, 3)
    aq = lift_up(lam, ctx, Signature(2, 1))
    assert _blocks(aq) == [(1, 0, 1), (1, 1, 1)]
    assert aq.target == Signature(2, 1)


def test_lift_up_u11_to_u31():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx = LiftContext(0, 0, 2, 4)
    aq = lift_up(lam, ctx, Signature(3, 1))
    assert _blocks(aq) == [(1, 0, -1), (1, 1, 0), (1, 0, 1)]


def test_lift_up_same_size_omits_middle_block():
    lam = HCParam(Signature(2, 0), (half(7), half(-7)))
    ctx = LiftContext(0, 0, 2, 2)
    aq = lift_up(lam, ctx, Signature(1, 1))
    assert _blocks(aq) == [(1, 0, 3), (0, 1, -3)]


def test_lift_up_rejects_vanishing_target():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx = LiftContext(0, 0, 2, 4)
    with pytest.raises(PreconditionViolation):
        lift_up(lam, ctx, Signature(4, 0))


def test_lift_up_rejects_shrinking_target():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    ctx = LiftContext(1, 1, 3, 1)
    with pytest.raises(PreconditionViolation):
        lift_up(lam, ctx, Signature(0, 1))


def test_lift_down_chain_removal():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    ctx = LiftContext(1, 1, 3, 1)
    out = lift_down(lam, ctx, Signature(0, 1))
    assert out.sig == Signature(0, 1)
    assert out.entries == (HalfInt(2),)


def test_lift_down_rejects_other_targets():
    # the tower admits exactly one occurrence at each smaller size
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    ctx = LiftContext(1, 1, 3, 1)
    with pytest.raises(PreconditionViolation):
        lift_down(lam, ctx, Signature(1, 0))


def test_lift_dispatch():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    up = lift(lam, LiftContext(0, 0, 2, 4), Signature(3, 1))
    assert up.nonzero and up.kind == "aq_weakly_fair"
    gone = lift(lam, LiftContext(0, 0, 2, 4), Signature(4, 0))
    assert not gone.nonzero
    assert gone.to_json() == {
        "status": "vanishes",
        "position": {
            "l": 0,
            "t": 1,
            "swapped": False,
            "reason": "positive window count exceeds the step count",
        },
    }
    assert gone.position == occurs(lam, 0, Signature(4, 0))[1]
    assert LiftResult.vanishes().to_json() == {"status": "vanishes"}
    lam3 = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    down = lift(lam3, LiftContext(1, 1, 3, 1), Signature(0, 1))
    assert down.nonzero and down.kind == "discrete_series"
    assert down.to_json() == {
        "status": "nonzero",
        "kind": "discrete_series",
        "param": {"p": 0, "q": 1, "p_part": [], "q_part": ["2"]},
    }


def test_lift_result_json_for_blocks():
    lam = HCParam(Signature(1, 0), (HalfInt(2),))
    res = lift(lam, LiftContext(1, 1, 1, 3), Signature(2, 1))
    assert res.to_json() == {
        "status": "nonzero",
        "kind": "aq_weakly_fair",
        "blocks": [
            {"p": 1, "q": 0, "lambda": "1"},
            {"p": 1, "q": 1, "lambda": "1"},
        ],
    }


def test_aq_lambda_data_checks_blocks():
    # Blocks are doubled (p_i, q_i, lam_tw) triples.
    with pytest.raises(ValueError, match="bad block signature"):
        AqLambdaData(Signature(0, 0), ((0, 0, 2),))
    with pytest.raises(ValueError, match="must be an integer"):
        AqLambdaData(Signature(1, 0), ((1, 0, 1),))  # lambda_i = 1/2


def test_aq_lambda_data_takes_only_ints():
    for value in (2.0, half(2), "2"):
        with pytest.raises(TypeError):
            AqLambdaData(Signature(1, 0), ((1, 0, value),))


def test_aq_lambda_data_checks_sums():
    with pytest.raises(SignatureMismatch):
        AqLambdaData(Signature(2, 1), ((1, 0, 0),))


def test_aq_lambda_data_weakly_fair_guard():
    # values may climb by at most the mean of the block sizes
    with pytest.raises(InternalWeaklyFairViolation, match=r"\(1, 0, -1\) then \(1, 0, 1\)"):
        AqLambdaData(Signature(2, 0), ((1, 0, -2), (1, 0, 2)))
    # sizes 1 and 3: a climb of 2 sits on the bound, a climb of 3 is past it
    AqLambdaData(Signature(4, 0), ((1, 0, 0), (3, 0, 4)))
    with pytest.raises(InternalWeaklyFairViolation, match=r"\(1, 0, 0\) then \(3, 0, 3\)"):
        AqLambdaData(Signature(4, 0), ((1, 0, 0), (3, 0, 6)))
    # any decrease is fine
    AqLambdaData(Signature(2, 0), ((1, 0, 2), (1, 0, -2)))


def test_aq_good_range_flag():
    equal = AqLambdaData(Signature(2, 0), ((1, 0, 2), (1, 0, 2)))
    assert equal.in_good_range
    # a climb of one is weakly fair but not good
    boundary = AqLambdaData(Signature(2, 0), ((1, 0, 0), (1, 0, 2)))
    assert not boundary.in_good_range


def test_infinitesimal_character():
    # the lift adds a zero-centered segment to the source entries
    aq = AqLambdaData(Signature(3, 1), ((1, 0, -2), (1, 1, 0), (1, 0, 2)))
    assert aq_infinitesimal_character(aq) == (
        half(1),
        half(1),
        half(-1),
        half(-1),
    )


def test_aq_to_discrete_series_roundtrip():
    lam = HCParam(Signature(2, 0), (half(7), half(-7)))
    aq = lift_up(lam, LiftContext(0, 0, 2, 2), Signature(1, 1))
    back = aq_to_discrete_series(aq)
    assert back == HCParam(Signature(1, 1), (half(7), half(-7)))


def test_aq_to_discrete_series_rejects_mixed_block():
    aq = AqLambdaData(Signature(1, 1), ((1, 1, 0),))
    with pytest.raises(NotCompactLevi):
        aq_to_discrete_series(aq)


def test_aq_to_discrete_series_chamber_tie():
    # two blocks on opposite sides with equal values cannot be ordered
    aq = AqLambdaData(Signature(1, 1), ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ChamberAmbiguous):
        aq_to_discrete_series(aq)


def test_aq_to_discrete_series_not_good_range():
    aq = AqLambdaData(Signature(2, 0), ((1, 0, 0), (1, 0, 2)))
    with pytest.raises(NotGoodRange):
        aq_to_discrete_series(aq)


@given(st.integers(2, 8), st.integers(0, 3))
def test_lift_up_blocks_partition_target(extra, shift):
    # lambda = (shift + 3/2, shift + 1/2) on U(2,0), lifted up `extra` steps
    lam = HCParam(Signature(2, 0), (half(2 * shift + 3), half(2 * shift + 1)))
    m = 2 + 2 * extra
    ctx = LiftContext(0, 0, 2, m)
    target = Signature(2 + extra, m - 2 - extra)
    aq = lift_up(lam, ctx, target)
    assert sum(p for p, _, _ in aq.triples) == target.p
    assert sum(q for _, q, _ in aq.triples) == target.q
    # two rank-one blocks from the source plus one filler block
    assert len(aq.triples) == 3
    p, q, _ = aq.triples[2]
    assert p + q == m - 2
    chi = aq_infinitesimal_character(aq)
    assert len(chi) == m
    assert all(a.twice >= b.twice for a, b in zip(chi, chi[1:]))


# The builders check each block and seam where it is fixed: _LiftUp.__init__
# the unit blocks and the seams among them, once per parameter; _LiftUp.at
# the head/tail seam once for the size m = n, and per form the interval
# block, its two seams and the signature sums. These mutations show that
# each moved check still fires. They use pytest.raises, so they also run
# under python -O.

MUT_LAM = HCParam(Signature(0, 3), (HalfInt(4), HalfInt(3), HalfInt(0)))
MUT_CTX = LiftContext(1, 1, 3, 5)
MUT_TARGET = Signature(2, 3)


class _Upside(int):
    """An int that compares upside down, so sorting it puts it in climbing order."""

    def __lt__(self, other):
        return int.__gt__(self, other)

    def __gt__(self, other):
        return int.__lt__(self, other)


def test_lift_up_checks_the_head_seams_once_per_parameter(monkeypatch):
    up = _LiftUp(MUT_LAM, MUT_CTX)
    assert len(up.head) == 2 and len(up.tail) == 1
    # A split of plain ints cannot break a head seam, since the merge sorts
    # it; values that sort upside down make the head climb.
    sp = split_abgd(MUT_LAM, MUT_CTX)
    doctored = SimpleNamespace(
        alpha_tw=sp.alpha_tw,
        beta_tw=sp.beta_tw,
        gamma_tw=tuple(map(_Upside, sp.gamma_tw)),
        delta_tw=sp.delta_tw,
    )
    monkeypatch.setattr(lifting, "split_abgd", lambda lam, ctx: doctored)
    # The builder serves every size of the tower, so the check fires when
    # it is built, before any size is asked for.
    with pytest.raises(InternalWeaklyFairViolation, match="leave the weakly fair range"):
        _LiftUp(MUT_LAM, MUT_CTX)


def test_lift_up_checks_the_head_tail_seam_at_the_source_size():
    # MUT_LAM's tower has the sizes 3, 5, ...; at m = n = 3 there is no
    # interval block and the last head block meets the first tail block.
    source_size = Signature(1, 2)
    up = _LiftUp(MUT_LAM, MUT_CTX)
    assert up.at(source_size) == lift_up(MUT_LAM, LiftContext(1, 1, 3, 3), source_size)
    up.at(MUT_TARGET)
    # Tail values raised far above the head break only that seam.
    up.tail = tuple((p, q, tw + 100) for p, q, tw in up.tail)
    with pytest.raises(InternalWeaklyFairViolation, match="leave the weakly fair range"):
        up.at(source_size)


def test_lift_up_rejects_a_size_outside_its_tower():
    up = _LiftUp(MUT_LAM, MUT_CTX)
    with pytest.raises(InternalError, match="size 4 is outside the tower"):
        up.at(Signature(2, 2))


def test_lift_up_checks_the_interval_seams_per_form():
    up = _LiftUp(MUT_LAM, MUT_CTX)
    good = up.interval_tw
    assert up.at(MUT_TARGET) == lift_up(MUT_LAM, MUT_CTX, MUT_TARGET)
    # too high for the head block before it, then too low for the tail block after it
    for broken in (good + 100, good - 100):
        up.interval_tw = broken
        with pytest.raises(InternalWeaklyFairViolation):
            up.at(MUT_TARGET)


def test_lift_up_checks_the_signature_sums_per_form():
    up = _LiftUp(MUT_LAM, MUT_CTX)
    x, y, z, w = up.shape
    # The interval block takes what the split leaves; a wrong split shape
    # gives it one column too many.
    up.shape = (x, y, z - 1, w)
    with pytest.raises(SignatureMismatch):
        up.at(MUT_TARGET)


@settings(max_examples=100, deadline=None)
@given(wide_params())
def test_one_lift_up_serves_every_size_of_its_tower(params):
    # The builder holds one size at a time; going up, down, up again and
    # then to m = n must give what a fresh builder gives for each size.
    lam, m0, n0 = params
    n = lam.sig.n
    sizes = [m + (m - m0) % 2 for m in (n + 3, n + 1, n + 3, n)]
    up = None
    for m in sizes:
        ctx = LiftContext(m0, n0, n, m)
        for r in range(m + 1):
            target = Signature(r, m - r)
            if not occurs(lam, m0, target)[0]:
                continue
            if up is None:
                up = _LiftUp(lam, ctx)
            aq = up.at(target)
            fresh = [lift_up(lam, ctx, target)]
            if m > n:
                fresh.append(sigma_from_eta_prime(*transfer_eta(lam, ctx, target), target))
            for want in fresh:
                assert aq == want
                assert hash(aq) == hash(want)
                assert aq.to_json() == want.to_json()
