"""Half-integer arithmetic, parameter validation, splits, duality."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetalift import (
    ChainNotPresent,
    HCParam,
    HalfInt,
    LiftContext,
    NotDominant,
    ParityMismatch,
    PreconditionViolation,
    RepeatedEntry,
    Signature,
    UnclassifiableZero,
    WrongParityClass,
    conjugate_dual,
    half,
    make_regular_deformation,
    parse_half_list,
    split_abgd,
)
from thetalift.core import LAX, STRICT, SIDE_P, SIDE_Q


def test_halfint_construction():
    assert HalfInt(3).twice == 6
    assert half(3).twice == 3
    assert HalfInt.halves(7) == half(7)
    assert half(4).is_integer
    assert half(4).as_int() == 2
    assert not half(7).is_integer
    with pytest.raises(ValueError):
        half(7).as_int()


def test_halfint_parse_and_str():
    assert HalfInt.parse("2") == HalfInt(2)
    assert HalfInt.parse("-7/2") == half(-7)
    assert HalfInt.parse("+3/2") == half(3)
    assert str(half(-7)) == "-7/2"
    assert str(half(4)) == "2"
    for bad in ("", "1/4", "2/2", "0/2", "a", "1.5", "7 / 2"):
        with pytest.raises(ValueError):
            HalfInt.parse(bad)


def test_halfint_arithmetic_mixes_with_int():
    assert half(3) + 1 == half(5)
    assert 1 + half(3) == half(5)
    assert half(3) - half(1) == 1
    assert -half(3) == half(-3)
    assert half(3) * 2 == 3
    assert half(3) < 2 < half(5)
    assert sorted([half(5), 0, half(-1)]) == [half(-1), 0, half(5)]


def test_halfint_hash_agrees_with_int():
    assert hash(half(4)) == hash(2)
    assert {half(4), 2} == {2}
    assert half(4) == 2 and 2 == half(4)


def test_halfint_immutable():
    v = half(3)
    with pytest.raises(AttributeError):
        v.twice = 5


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_halfint_add_sub_roundtrip(a, b):
    x, y = HalfInt.halves(a), HalfInt.halves(b)
    assert (x + y) - y == x
    assert str(HalfInt.parse(str(x))) == str(x)


def test_parse_half_list():
    assert parse_half_list("1/2,-1/2") == (half(1), half(-1))
    assert parse_half_list("1 0 2") == (HalfInt(1), HalfInt(0), HalfInt(2))
    assert parse_half_list("") == ()


def test_signature():
    sig = Signature(2, 1)
    assert sig.n == 3
    assert sig.swapped() == Signature(1, 2)
    with pytest.raises(ValueError):
        Signature(-1, 0)


def test_hcparam_valid():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    assert lam.p_part == (HalfInt(1), HalfInt(0))
    assert lam.q_part == (HalfInt(2),)
    assert lam.n == 3
    assert lam.to_json() == {
        "p": 2,
        "q": 1,
        "p_part": ["1", "0"],
        "q_part": ["2"],
    }


def test_hcparam_parse():
    lam = HCParam.parse("1 0 | 2")
    assert lam.sig == Signature(2, 1)
    assert lam.entries == (HalfInt(1), HalfInt(0), HalfInt(2))


def test_hcparam_wrong_parity_class():
    # n = 2 needs half-odd entries
    with pytest.raises(WrongParityClass):
        HCParam(Signature(1, 1), (HalfInt(1), HalfInt(0)))


def test_hcparam_repeated_entry():
    # across parts: caught by the global distinctness check
    with pytest.raises(RepeatedEntry):
        HCParam(Signature(1, 1), (half(1), half(1)))
    # within a part: already not strictly decreasing
    with pytest.raises(NotDominant):
        HCParam(Signature(2, 0), (half(1), half(1)))


def test_hcparam_not_dominant():
    with pytest.raises(NotDominant):
        HCParam(Signature(2, 0), (half(-1), half(1)))
    # cross-part order is free
    HCParam(Signature(1, 1), (half(-1), half(1)))


def test_lift_context_parity():
    ctx = LiftContext(1, 1, 1, 3)
    assert ctx.reversed() == LiftContext(1, 1, 3, 1)
    with pytest.raises(ParityMismatch):
        LiftContext(0, 1, 1, 3)  # m0 must match target_dim parity
    with pytest.raises(ParityMismatch):
        LiftContext(1, 0, 1, 3)  # n0 must match source_dim parity
    assert LiftContext.minimal(2, 4) == LiftContext(0, 0, 2, 4)
    assert LiftContext.minimal(1, 2) == LiftContext(0, 1, 1, 2)


def test_split_lax_basic():
    # lambda_0 = (1/2, -1/2) on U(1,1): alpha from p-part, delta from q-part
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    sp = split_abgd(lam, LiftContext(0, 0, 2, 2), LAX)
    assert sp.alpha == (half(1),)
    assert sp.beta == ()
    assert sp.gamma == ()
    assert sp.delta == (half(-1),)
    assert (sp.x, sp.y, sp.z, sp.w) == (1, 0, 0, 1)


def test_split_lax_zero_goes_nonpositive():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    sp = split_abgd(lam, LiftContext(1, 1, 3, 1), LAX)
    # lambda_0 = (1/2, -1/2 | 3/2): the -1/2 lands in beta
    assert sp.alpha == (half(1),)
    assert sp.beta == (half(-1),)
    assert sp.gamma == (half(3),)
    assert sp.delta == ()


def test_split_strict_rejects_stray_zero():
    lam = HCParam(Signature(1, 0), (HalfInt(0),))
    with pytest.raises(UnclassifiableZero):
        split_abgd(lam, LiftContext(0, 1, 1, 2), STRICT)


def test_split_strict_chain_removal():
    # lambda_0 = (1/2, -1/2) inside the p-part: chain of length 2
    lam = HCParam(Signature(2, 0), (half(1), half(-1)))
    sp = split_abgd(lam, LiftContext(0, 0, 2, 2), STRICT, chain_k=2)
    assert sp.alpha == sp.beta == sp.gamma == sp.delta == ()
    assert sp.chain_k == 2
    assert sp.chain_side == SIDE_P


def test_split_strict_chain_side_q():
    # lambda_0 = 0, the length-one chain, sits in the q-part
    lam = HCParam(Signature(0, 1), (HalfInt(0),))
    sp = split_abgd(lam, LiftContext(0, 1, 1, 2), STRICT, chain_k=1)
    assert sp.chain_side == SIDE_Q


def test_split_chain_not_present():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    # chain would need both values in one part
    with pytest.raises(ChainNotPresent):
        split_abgd(lam, LiftContext(0, 0, 2, 2), STRICT, chain_k=2)


def test_conjugate_dual_example():
    # same group, entries reflected through m0/2
    lam = HCParam(Signature(1, 0), (HalfInt(2),))
    ctx = LiftContext(0, 1, 1, 2)
    dual = conjugate_dual(lam, ctx)
    assert dual.sig == Signature(1, 0)
    assert dual.entries == (HalfInt(-2),)


def test_conjugate_dual_is_involution():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    ctx = LiftContext(1, 1, 3, 1)
    assert conjugate_dual(conjugate_dual(lam, ctx), ctx) == lam


def test_conjugate_dual_shifts_by_m0():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx = LiftContext(2, 0, 2, 4)
    dual = conjugate_dual(lam, ctx)
    # each entry maps to m0 - entry inside its own part
    assert dual.sig == Signature(1, 1)
    assert dual.p_part == (half(3),)
    assert dual.q_part == (half(5),)


def test_regular_deformation():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx = LiftContext(0, 0, 2, 2)
    moved = make_regular_deformation(lam, ctx, 3)
    assert moved.entries == (half(7), half(-7))
    with pytest.raises(PreconditionViolation):
        make_regular_deformation(lam, ctx, 0)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_hcparam_accepts_any_dominant_interleaving(p, q, data):
    n = p + q
    if n == 0:
        return
    universe = [HalfInt.halves(2 * v + ((n - 1) % 2)) for v in range(-4, 5)]
    chosen = data.draw(
        st.lists(st.sampled_from(universe), min_size=n, max_size=n, unique=True)
    )
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if sum(mask) != q:
        return
    p_part = sorted((v for v, m in zip(chosen, mask) if not m), reverse=True)
    q_part = sorted((v for v, m in zip(chosen, mask) if m), reverse=True)
    lam = HCParam(Signature(p, q), tuple(p_part) + tuple(q_part))
    assert sorted(lam.entries, reverse=True) == sorted(chosen, reverse=True)
