"""Tempered packet bookkeeping and lift-packet members."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalift import (
    AParameter,
    HCParam,
    HalfInt,
    InternalError,
    InternalLemmaMismatch,
    InternalWeaklyFairViolation,
    LiftContext,
    LParameter,
    MalformedCharacter,
    PreconditionViolation,
    RepeatedEntry,
    SignCharacter,
    Signature,
    SignatureMismatch,
    WrongParityClass,
    epsilon_of_signature,
    eta_from_pi,
    half,
    occurs,
    packet_members,
    pi_from_eta,
    transfer_eta,
)
from thetalift.packets import _SigmaUnits, eta_prime_sign_ok, sigma_from_eta_prime

from strategies import wide_params


def test_epsilon_of_signature():
    assert [epsilon_of_signature(p, 3 - p) for p in range(4)] == [1, -1, 1, -1]
    assert epsilon_of_signature(0, 0) == 1
    assert epsilon_of_signature(2, 2) == 1
    # period four in p - q
    assert [epsilon_of_signature(d, 0) for d in range(5)] == [1, 1, -1, -1, 1]


def test_lparameter_validation():
    LParameter((half(1), half(-1)))
    with pytest.raises(RepeatedEntry):
        LParameter((half(1), half(1)))
    with pytest.raises(WrongParityClass):
        LParameter((HalfInt(2), HalfInt(1), half(1)))


def test_sign_character_parse():
    eta = SignCharacter.parse("++-")
    assert eta.values == (1, 1, -1)
    assert eta.as_strings() == ["+", "+", "-"]
    with pytest.raises(MalformedCharacter):
        SignCharacter((1, 0, -1))


def test_pi_from_eta_half_pair():
    phi = LParameter((half(1), half(-1)))
    sig, lam = pi_from_eta(phi, SignCharacter.parse("++"))
    assert sig == Signature(1, 1)
    assert lam == HCParam(Signature(1, 1), (half(1), half(-1)))
    sig, lam = pi_from_eta(phi, SignCharacter.parse("--"))
    assert sig == Signature(1, 1)
    assert lam == HCParam(Signature(1, 1), (half(-1), half(1)))


def test_pi_from_eta_alternating_gives_definite():
    phi = LParameter((HalfInt(2), HalfInt(1), HalfInt(0)))
    sig, lam = pi_from_eta(phi, SignCharacter((1, -1, 1)))
    assert sig == Signature(3, 0)
    assert lam.entries == (HalfInt(2), HalfInt(1), HalfInt(0))


def test_eta_from_pi_examples():
    phi, eta = eta_from_pi(HCParam(Signature(1, 1), (half(1), half(-1))))
    assert phi.kappas == (half(1), half(-1))
    assert eta.values == (1, 1)
    phi, eta = eta_from_pi(HCParam(Signature(1, 0), (HalfInt(2),)))
    assert eta.values == (1,)
    # kappa_1 = 2 sits in the q-part, kappa_2 = 1 and kappa_3 = 0 in the p-part
    phi, eta = eta_from_pi(HCParam(Signature(2, 1), (half(2), half(0), half(4))))
    assert phi.kappas == (HalfInt(2), HalfInt(1), HalfInt(0))
    assert eta.values == (-1, -1, 1)


def test_packet_round_trip_small():
    phi = LParameter((HalfInt(2), HalfInt(1), HalfInt(-3)))
    for eta, sig, lam in packet_members(phi):
        phi2, eta2 = eta_from_pi(lam)
        assert phi2.kappas == phi.kappas
        assert eta2.values == eta.values


def test_packet_members_order_and_count():
    phi = LParameter((half(1), half(-1)))
    rows = packet_members(phi)
    assert len(rows) == 4
    assert [r[0].as_strings() for r in rows] == [
        ["+", "+"],
        ["-", "+"],
        ["+", "-"],
        ["-", "-"],
    ]
    # signatures pair off by the determinant identity
    assert [(r[1].p, r[1].q) for r in rows] == [(1, 1), (0, 2), (2, 0), (1, 1)]


def test_every_character_in_bit_order():
    # The b-th character is -1 exactly where bit i of b is set.
    for size in range(7):
        want = [
            tuple(-1 if b >> i & 1 else 1 for i in range(size)) for b in range(1 << size)
        ]
        got = list(SignCharacter.every(size))
        assert all(type(eta) is SignCharacter for eta in got)
        assert [eta.values for eta in got] == want


def test_aparameter_validation():
    phi_p = AParameter((HalfInt(2),), half(1), 3)
    assert phi_p.i0 == 2
    assert not phi_p.tie_at_i0
    with pytest.raises(PreconditionViolation):
        AParameter((HalfInt(2),), half(1), 1)  # m must exceed n
    with pytest.raises(WrongParityClass):
        AParameter((half(1),), half(1), 3)  # mus must sit in Z + (m-1)/2


def test_aparameter_tie_needs_one_step():
    # numeric tie with m - n = 1 couples the character
    tied = AParameter((half(1),), half(1), 2)
    assert tied.i0 == 1 and tied.tie_at_i0
    # the same numeric tie three steps up leaves the group free
    free = AParameter((half(3),), half(3), 4)
    assert free.i0 == 1 and not free.tie_at_i0


def test_sigma_blocks_scalar_case():
    phi_p = AParameter((HalfInt(2),), half(1), 3)
    eta_p = SignCharacter((1, 1))  # e0' first, then e1'
    aq = sigma_from_eta_prime(phi_p, eta_p, Signature(2, 1))
    assert [(b.p_i, b.q_i, b.lam_i.as_int()) for b in aq.blocks] == [
        (1, 0, 1),
        (1, 1, 1),
    ]


def test_sigma_blocks_rank_two_case():
    phi_p = AParameter((half(1), half(-1)), HalfInt(0), 4)
    assert phi_p.i0 == 2
    eta_p = SignCharacter((1, 1, -1))
    aq = sigma_from_eta_prime(phi_p, eta_p, Signature(3, 1))
    assert [(b.p_i, b.q_i, b.lam_i.as_int()) for b in aq.blocks] == [
        (1, 0, -1),
        (1, 1, 0),
        (1, 0, 1),
    ]


def test_sigma_zero_when_sign_gate_fails():
    phi_p = AParameter((HalfInt(2),), half(1), 3)
    flipped = SignCharacter((-1, 1))
    assert sigma_from_eta_prime(phi_p, flipped, Signature(2, 1)) is None


def test_sigma_zero_when_capacity_fails():
    phi_p = AParameter((HalfInt(2),), half(1), 3)
    eta_p = SignCharacter((1, 1))
    assert sigma_from_eta_prime(phi_p, eta_p, Signature(0, 3)) is None


def test_sigma_rejects_tie_breaking_character():
    tied = AParameter((half(1),), half(1), 2)
    with pytest.raises(MalformedCharacter):
        sigma_from_eta_prime(tied, SignCharacter((1, -1)), Signature(1, 1))


def test_eta_prime_sign_ok_closed_form():
    phi_p = AParameter((HalfInt(2),), half(1), 3)
    assert eta_prime_sign_ok(phi_p, SignCharacter((1, 1)), Signature(2, 1))
    assert not eta_prime_sign_ok(phi_p, SignCharacter((-1, 1)), Signature(2, 1))
    rank2 = AParameter((half(1), half(-1)), HalfInt(0), 4)
    assert eta_prime_sign_ok(rank2, SignCharacter((1, 1, -1)), Signature(3, 1))
    assert not eta_prime_sign_ok(rank2, SignCharacter((-1, 1, -1)), Signature(3, 1))


def test_sigma_injective_on_nonzero():
    phi_p = AParameter((half(3), half(-1)), HalfInt(0), 4)
    seen = {}
    for bits in range(8):
        signs = tuple(-1 if (bits >> i) & 1 else 1 for i in range(3))
        aq = sigma_from_eta_prime(phi_p, SignCharacter(signs), Signature(2, 2))
        if aq is None:
            continue
        key = tuple((b.p_i, b.q_i, b.lam_i.twice) for b in aq.blocks)
        assert key not in seen
        seen[key] = signs


@given(st.integers(1, 5), st.data())
def test_determinant_identity_all_characters(n, data):
    base = [HalfInt.halves(2 * v + ((n - 1) % 2)) for v in range(-4, 5)]
    kappas = tuple(
        sorted(
            data.draw(st.lists(st.sampled_from(base), min_size=n, max_size=n, unique=True)),
            key=lambda v: -v.twice,
        )
    )
    phi = LParameter(kappas)
    bits = data.draw(st.integers(0, 2**n - 1))
    eta = SignCharacter(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))
    sig, lam = pi_from_eta(phi, eta)
    prod = 1
    for v in eta.values:
        prod *= v
    assert prod == epsilon_of_signature(sig.p, sig.q)
    assert sig.p + sig.q == n


# _SigmaUnits checks its unit blocks and the seams among them once, when a
# first form survives the gate, for every size it serves, and per form the
# big block, its two seams and the signature sums. These mutations show
# that each check still fires.

MUT_ETA = SignCharacter((1, -1, 1, 1))
MUT_TARGET = Signature(2, 3)


def _mutation_units(**doctored):
    """_SigmaUnits for mu = (4, 3, 0), mu0 = 1/2, m = 5 (i0 = 3), some fields replaced."""
    phi_p = AParameter((HalfInt(4), HalfInt(3), HalfInt(0)), half(1), 5)
    assert phi_p.i0 == 3
    for name, value in doctored.items():
        object.__setattr__(phi_p, name, value)
    return _SigmaUnits(phi_p, MUT_ETA.values[1:])


def test_sigma_checks_the_unit_block_seams():
    # mu_1 and mu_2 swapped: the two unit blocks before i0 climb.
    units = _mutation_units(mu_tw=(6, 8, 0))
    seam = r"lam_tw=2\) then AqBlock\(p_i=0, q_i=1, lam_tw=6\)"
    with pytest.raises(InternalWeaklyFairViolation, match=seam):
        units.at(MUT_ETA.values[0], MUT_TARGET)


def test_sigma_checks_the_big_block_seams_per_form():
    units = _mutation_units(mu0_tw=1 + 200)
    seam = r"lam_tw=4\) then AqBlock\(p_i=1, q_i=1, lam_tw=202\)"
    with pytest.raises(InternalWeaklyFairViolation, match=seam):
        units.at(MUT_ETA.values[0], MUT_TARGET)


def test_sigma_checks_the_signature_sums_per_form():
    units = _mutation_units()
    assert units.at(MUT_ETA.values[0], MUT_TARGET) is not None
    # One unit block too many counted on the p side leaves the big block
    # one p column short; with i0 odd the sign gate still passes.
    units.r_units += 1
    with pytest.raises(SignatureMismatch):
        units.at(MUT_ETA.values[0], MUT_TARGET)


def test_sigma_product_form_reads_e0_and_the_whole_tail():
    units = _mutation_units()
    assert units.at(MUT_ETA.values[0], MUT_TARGET) is not None
    # A wrong tail product splits the product form from the closed form,
    # and the message names the full character, e'_0 and tail.
    units.tail_product = -units.tail_product
    split = r"closed=True product=False .* \+-\+\+ \(2,3\)"
    with pytest.raises(InternalLemmaMismatch, match=split):
        units.at(MUT_ETA.values[0], MUT_TARGET)


def test_sigma_units_reject_a_size_of_the_other_parity():
    units = _mutation_units()
    with pytest.raises(InternalError, match="size 6 has the wrong parity"):
        units.at(SignCharacter((1, -1, 1, 1)).values[0], Signature(3, 3))


@settings(max_examples=100, deadline=None)
@given(wide_params())
def test_one_sigma_units_serves_every_size_of_its_parity(params):
    # The builder holds one size at a time; going up, down and up again
    # must give what a fresh sigma_from_eta_prime gives for each size. The
    # transferred character's tail is the same at every size of the tower.
    lam, m0, n0 = params
    n = lam.sig.n
    sizes = [m + (m - m0) % 2 for m in (n + 3, n + 1, n + 3)]
    units = None
    for m in sizes:
        ctx = LiftContext(m0, n0, n, m)
        for r in range(m + 1):
            target = Signature(r, m - r)
            if not occurs(lam, m0, target)[0]:
                continue
            phi_p, eta_p = transfer_eta(lam, ctx, target)
            if units is None:
                units, tail = _SigmaUnits(phi_p, eta_p.values[1:]), eta_p.values[1:]
            assert eta_p.values[1:] == tail
            aq = units.at(eta_p.values[0], target)
            want = sigma_from_eta_prime(phi_p, eta_p, target)
            assert aq == want
            assert hash(aq) == hash(want)
            assert aq.to_json() == want.to_json()
