"""Half-integer parsing and rendering, parameter validation, splits, duality."""

from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetalift import (
    ChainNotPresent,
    EnumerationBounds,
    HCParam,
    HalfInt,
    KType,
    LiftContext,
    LParameter,
    NotDominant,
    ParityMismatch,
    PreconditionViolation,
    RepeatedEntry,
    Signature,
    UnclassifiableZero,
    WrongParityClass,
    build_a_parameter,
    conjugate_dual,
    correspond_ktype,
    half,
    lift,
    lift_down,
    lift_up,
    make_regular_deformation,
    parse_half_list,
    split_abgd,
    split_mu,
    transfer_eta,
    verify_globalization,
)
from thetalift.core import LAX, STRICT
from thetalift.suites import iter_params

from test_packets import _same_value


def test_halfint_construction():
    assert HalfInt(3).twice == 6
    assert half(3).twice == 3
    assert HalfInt.halves(7) == half(7)
    with pytest.raises(TypeError):
        HalfInt(half(4))  # an int, not a HalfInt


def test_halfint_parse_and_str():
    assert HalfInt.parse("2") == HalfInt(2)
    assert HalfInt.parse("-7/2") == half(-7)
    assert HalfInt.parse("+3/2") == half(3)
    assert str(half(-7)) == "-7/2"
    assert str(half(4)) == "2"
    for bad in ("", "1/4", "2/2", "0/2", "a", "1.5", "7 / 2"):
        with pytest.raises(ValueError):
            HalfInt.parse(bad)


def test_halfint_has_no_arithmetic_or_ordering():
    # Computation runs on the doubled ints; HalfInt only parses and renders.
    with pytest.raises(TypeError):
        half(3) + 1
    with pytest.raises(TypeError):
        -half(3)
    with pytest.raises(TypeError):
        half(1) < half(3)


def test_halfint_hash_agrees_with_int():
    assert hash(half(4)) == hash(2)
    assert {half(4), 2} == {2}
    assert half(4) == 2 and 2 == half(4)


def test_halfint_immutable():
    v = half(3)
    with pytest.raises(AttributeError):
        v.twice = 5
    with pytest.raises(AttributeError):
        del v.twice
    assert v.twice == 3


@given(st.integers(-50, 50))
def test_halfint_str_parse_roundtrip(a):
    x = HalfInt.halves(a)
    assert str(HalfInt.parse(str(x))) == str(x)


def test_parse_half_list():
    assert parse_half_list("1/2,-1/2") == (half(1), half(-1))
    assert parse_half_list("1 0 2") == (HalfInt(1), HalfInt(0), HalfInt(2))
    assert parse_half_list("") == ()


@pytest.mark.parametrize("text", ["1/2, -1/2", "1/2 -1/2", " 1/2 ,-1/2 ", "1/2\t-1/2"])
def test_parse_half_list_separators(text):
    assert parse_half_list(text) == (half(1), half(-1))


@pytest.mark.parametrize("text", ["1/2,,-1/2", ",1/2", "1/2,", "1/2 , , -1/2", ","])
def test_parse_half_list_rejects_empty_entries(text):
    with pytest.raises(ValueError, match="empty entry"):
        parse_half_list(text)


@pytest.mark.parametrize("text", ["\u0663", "\uff13/2", "-\u0661/2", "1_0"])
def test_half_integer_literals_take_ascii_digits_only(text):
    with pytest.raises(ValueError, match="not a half-integer literal"):
        HalfInt.parse(text)
    with pytest.raises(ValueError, match="not a half-integer literal"):
        parse_half_list(f"1/2,{text}")


def test_signature():
    sig = Signature(2, 1)
    assert sig.n == 3
    assert sig.swapped() == Signature(1, 2)
    with pytest.raises(ValueError):
        Signature(-1, 0)


def test_hcparam_valid():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    assert lam.p_tw == (2, 0)
    assert lam.q_tw == (4,)
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


# Every public function that takes a context, called on a value of size
# 2, and whether it also takes a target.
_SIZE_2_LAM = HCParam.from_twices(Signature(1, 1), (3, -1))
_SIZE_2_KTYPE = KType(Signature(1, 1), (3,), (-1,))
SIZED_CALLS = {
    "split_abgd": (lambda ctx, target: split_abgd(_SIZE_2_LAM, ctx), False),
    "make_regular_deformation":
        (lambda ctx, target: make_regular_deformation(_SIZE_2_LAM, ctx, 1), False),
    "lift": (lambda ctx, target: lift(_SIZE_2_LAM, ctx, target), True),
    "lift_up": (lambda ctx, target: lift_up(_SIZE_2_LAM, ctx, target), True),
    "lift_down": (lambda ctx, target: lift_down(_SIZE_2_LAM, ctx, target), True),
    "build_a_parameter":
        (lambda ctx, target: build_a_parameter(LParameter.from_twices((1, -1)), ctx), False),
    "transfer_eta": (lambda ctx, target: transfer_eta(_SIZE_2_LAM, ctx, target), True),
    "verify_globalization":
        (lambda ctx, target: verify_globalization(_SIZE_2_LAM, ctx, target, 2), True),
    "correspond_ktype": (lambda ctx, target: correspond_ktype(_SIZE_2_KTYPE, ctx, target), True),
    "split_mu": (lambda ctx, target: split_mu(_SIZE_2_KTYPE, ctx, target), True),
}


@pytest.mark.parametrize("call, takes_target", SIZED_CALLS.values(), ids=SIZED_CALLS)
def test_every_context_checks_sizes_with_one_wording(call, takes_target):
    # A source of size 2 against a context for size 3, and a target of
    # size 6 against a context for size 4: one message each, everywhere.
    with pytest.raises(PreconditionViolation, match=r"^source size 2 != context source_dim 3$"):
        call(LiftContext(0, 1, 3, 4), Signature(2, 2))
    if takes_target:
        with pytest.raises(
            PreconditionViolation, match=r"^target size 6 != context target_dim 4$"
        ):
            call(LiftContext(0, 0, 2, 4), Signature(3, 3))


def test_split_lax_basic():
    # lambda_0 = (1/2, -1/2) on U(1,1): alpha from p-part, delta from q-part
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    sp = split_abgd(lam, LiftContext(0, 0, 2, 2), LAX)
    assert (sp.alpha_tw, sp.beta_tw, sp.gamma_tw, sp.delta_tw) == ((1,), (), (), (-1,))
    assert (sp.x, sp.y, sp.z, sp.w) == (1, 0, 0, 1)


def test_split_lax_zero_goes_nonpositive():
    lam = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    sp = split_abgd(lam, LiftContext(1, 1, 3, 1), LAX)
    # lambda_0 = (1/2, -1/2 | 3/2): the -1/2 lands in beta
    assert (sp.alpha_tw, sp.beta_tw, sp.gamma_tw, sp.delta_tw) == ((1,), (-1,), (3,), ())


def test_split_strict_rejects_stray_zero():
    lam = HCParam(Signature(1, 0), (HalfInt(0),))
    with pytest.raises(UnclassifiableZero):
        split_abgd(lam, LiftContext(0, 1, 1, 2), STRICT)


def test_split_strict_chain_removal():
    # lambda_0 = (5/2, 1/2, -1/2, -3/2 | 3/2, -5/2): the chain of length 2,
    # (1/2, -1/2), leaves the p-part; every other value keeps its run.
    lam = HCParam(Signature(4, 2), tuple(half(t) for t in (5, 1, -1, -3, 3, -5)))
    sp = split_abgd(lam, LiftContext(0, 0, 6, 4), STRICT, chain_k=2)
    assert (sp.alpha_tw, sp.beta_tw, sp.gamma_tw, sp.delta_tw) == ((5,), (-3,), (3,), (-5,))


def test_split_strict_chain_side_q():
    # lambda_0 = (3, -2 | 2, 1, 0, -1, -3): the chain of length 3,
    # (1, 0, -1), leaves the q-part and (2 | -3) stays behind in it.
    lam = HCParam(Signature(2, 5), tuple(half(t) for t in (6, -4, 4, 2, 0, -2, -6)))
    sp = split_abgd(lam, LiftContext(0, 1, 7, 4), STRICT, chain_k=3)
    assert (sp.alpha_tw, sp.beta_tw, sp.gamma_tw, sp.delta_tw) == ((6,), (-4,), (4,), (-6,))


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
    assert dual.p_tw == (3,)
    assert dual.q_tw == (5,)


def test_conjugate_duals_equal_validated_builds():
    # The dual is stored unvalidated; at the benchmark window (n <= 3,
    # height 7/2) each is what the validating constructor builds.
    duals = 0
    for lam, k0, m0, n0 in iter_params(EnumerationBounds(3, 4, half(7))):
        # The context of the tower's first up size; the dual reads only m0.
        dual = conjugate_dual(lam, LiftContext(m0, n0, lam.sig.n, lam.sig.n + 2 + k0))
        _same_value(dual, HCParam.from_twices(dual.sig, dual.entries_tw))
        duals += 1
    assert duals == 954


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
    by_value = attrgetter("twice")
    p_part = sorted((v for v, m in zip(chosen, mask) if not m), key=by_value, reverse=True)
    q_part = sorted((v for v, m in zip(chosen, mask) if m), key=by_value, reverse=True)
    lam = HCParam(Signature(p, q), tuple(p_part) + tuple(q_part))
    assert sorted(lam.entries, key=by_value, reverse=True) == sorted(
        chosen, key=by_value, reverse=True
    )
