"""Packet combinatorics: parameters, sign characters, packet members.

A tempered parameter for size n is a strictly decreasing tuple kappa in
Z + (n-1)/2; its component group is (Z/2)^n with basis e_1, ..., e_n,
and a sign character eta picks one discrete series per real form: the
indices where eta(e_i) = (-1)^(i-1) contribute kappa_i to the p-part.
SignCharacter.every(k) walks all 2^k characters of (Z/2)^k in bit
order: the first value varies fastest, + before -, as in binary
counting with the first value as the low bit. Packet rows and the
packet suites all list characters in that order, as plain tuples of
values from _characters(k), whose pair (+1, -1) is checked once, at
import, instead of building a checked SignCharacter per row.

A member's work depends on its character one position at a time, so
the walks over every character (the packet rows, the packet suite, and
the apacket rows' values on e'_1, ..., e'_n) build each member from two
half-members. The k positions split into a low run, the first
min(ceil(k/2), 10) of them, and a high run of the rest. A half-member
(_Half) is what one run contributes to a member: its values, their
product, its p count and its pieces on either side of the member's
cut. Per query, the 2^low half-members of the low run are built once;
each high run half-member is built when the walk reaches it, once per
2^low members. Per member, one low and one high half-member are
joined, at a cost that does not grow with k. A walk so holds at most
2^10 + 1 half-members at any k, and its members still stream. The
member of a single character, as pi_from_eta and path B build it, is
its whole half-member joined with _NO_HALF, the half of an empty run.

_Members is pi_from_eta built from half-members. Per parameter it
builds and validates the n + 1 signatures (p, n - p) a member can have,
with their epsilons, once. Per half-member it splits the run's kappa
values into p-entries and q-entries. Per member it picks the signature
from the two p counts, checks the determinant identity on the two
products and stores the member's HCParam without validating it again:
kappa was validated, and each part keeps its order. pi_from_eta checks
the character's length and builds its member through _Members.at, the
same code with one half-member. eta_from_pi likewise stores the
kappa and the character it recovers from a valid HCParam unvalidated.

A lift parameter for a pair of sizes n < m keeps the n values mu_i
(shifted into Z + (m-1)/2) and inserts one extra value mu_0 in Z + n/2
at position i0; its component group gains a basis vector e'_0. A sign
character eta' either cuts out a weakly fair A_q(lam') on a given target
form of size m or kills it; the gate is a sign condition on eta'(e'_0)
with two independent formulations (a closed form in the block signature
at position i0 and a product form over all of eta'). Both are computed
and compared on every call.

The unit blocks of a lift packet member depend only on phi' and on
the character's values on e'_1, ..., e'_n (its tail); the target form adds the big
block at i0 and, through e'_0, the sign gate. One walk over mu_1, ...,
mu_n builds them: mu_{j+1} (j from 0) has the exponent e = j before
slot i0 and e = j + m - n after it, gives a (1,0) block when
eta'(e'_{j+1}) = (-1)^e and a (0,1) block otherwise, and its block
value is mu_{j+1} - (m-1)/2 + e. So as m grows by 2, the values before
i0 fall by 1 and those after rise by 1, and the signs depend on m only
through the parity of m - n. _SigmaUnits holds this first part and the
tail's product, so that callers iterating over forms, over e'_0 or over
the sizes of one parity build it once; per form it takes only e'_0's
value, an int, and the target. A size step checks that the new size
exceeds n and stores phi' again through AParameter._from_checked: a
step of even length keeps every value's parity class. Nothing is
memoized.

Every _SigmaUnits is joined from two half-members of its tail, each
holding one run's unit block signs and blocks (_unit_half). The object
of a single tail (_sigma_units) joins the whole tail's half-member with
_NO_HALF and checks its unit blocks and the seams within those before
i0 and within those after it (_check_unit_blocks) once; it serves the
walk's path B, verify_globalization and sigma_from_eta_prime, which
builds one per call. The apacket rows walk every tail with
_sigma_units_by_tail. Per query, it runs the same check once on
all-(1,0) blocks: each unit block has size 1, so whether it is valid,
and the seams, depend on mu alone. Per half-member, a run's unit block
signs and blocks are computed. Per tail, one _SigmaUnits is joined from
its two half-members, and serves the pair of rows that differ only in
e'_0. Per form, _SigmaUnits.at checks the tie rule, runs both forms of
the sign gate (_sign_gate) and checks the big block, the signature
sums and the big block's two seams. The public eta_prime_sign_ok runs
the same gate on the unit block signs alone, and builds no block; it
and sigma_from_eta_prime share one prologue (_check_character), which
checks the target's size, the character's length and the tie rule.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, Iterable, Iterator

from .core import HCParam, HalfInt, Signature, _Frozen, _halfint_twices, _ints, half_text
from .errors import (
    InternalError,
    InternalLemmaMismatch,
    MalformedCharacter,
    NotDominant,
    PreconditionViolation,
    RepeatedEntry,
    WrongParityClass,
)
from .lifting import AqLambdaData, Triple, _check_blocks, _check_seams

PLUS = +1
MINUS = -1


def _check_decreasing_distinct(values: tuple[int, ...], label: str) -> None:
    for a, b in zip(values, values[1:]):
        if a < b:
            raise NotDominant(f"{label} must decrease: {half_text(a)} then {half_text(b)}")
        if a == b:
            raise RepeatedEntry(f"{label} repeats {half_text(a)}")


class LParameter(_Frozen):
    """Strictly decreasing kappa_1 > ... > kappa_n in Z + (n-1)/2.

    kappa_tw stores the values doubled. LParameter(kappas) takes the
    HalfInt values that parsing gives, and from_twices(kappa_tw) the
    doubled ints.
    """

    __slots__ = ("kappa_tw",)

    def __init__(self, kappas: Iterable[HalfInt]) -> None:
        _set_kappa_tw(self, _halfint_twices(kappas, "LParameter"))
        self.__post_init__()

    @classmethod
    def from_twices(cls, kappa_tw: tuple[int, ...]) -> "LParameter":
        """The parameter with values kappa_tw[i]/2."""
        out = object.__new__(cls)
        _set_kappa_tw(out, _ints(kappa_tw, "LParameter.from_twices"))
        out.__post_init__()
        return out

    def __post_init__(self) -> None:
        n = len(self.kappa_tw)
        if n == 0:
            raise ValueError("empty parameter")
        want = (n - 1) % 2
        for k in self.kappa_tw:
            if k % 2 != want:
                raise WrongParityClass(f"{half_text(k)} is not in Z + ({n}-1)/2")
        _check_decreasing_distinct(self.kappa_tw, "kappa")

    @property
    def n(self) -> int:
        return len(self.kappa_tw)

    def to_json(self) -> dict:
        return {"kappa": [half_text(k) for k in self.kappa_tw]}


(_set_kappa_tw,) = LParameter._setters


class AParameter(_Frozen):
    """Lift parameter: mu_1 > ... > mu_n with mu_0 spliced in at i0.

    AParameter(mu_tw, mu0_tw, m) takes the values doubled: mu_tw in
    Z + (m-1)/2 and mu0_tw in Z + n/2, n = len(mu_tw). n, i0, the
    unique 1-based slot with mu_{i0-1} > mu0 >= mu_{i0}, and tie_at_i0
    are set once at construction. tie_at_i0 says that mu0 = mu_{i0} on
    a one-step target, m = n + 1; the tie then couples e'_0 to e'_{i0}
    in every admissible sign character. A repeated value only collapses
    the component group when the stretched summand has length one, so
    there is no tie whenever m - n > 1.

    The constructor validates, and guards input: the CLI's apacket
    query and transfer.build_a_parameter. _from_checked(mu_tw, mu0_tw,
    m) stores a tuple of ints that the caller has shown valid and
    derives n, i0 and tie_at_i0 through _store_a_parameter, the code the
    constructor runs once it has validated:
    - transfer._Transfer, phi' from a validated LParameter kappa and a
      LiftContext with m > n: kappa shifted by (m0 - n0)/2 keeps its
      order and moves from Z + (n-1)/2 into Z + (m-1)/2, since the
      context has m0 = m and n0 = n mod 2, and mu0 = n0/2 lies in
      Z + n/2;
    - _SigmaUnits._resize, phi' at another size m > n of the same
      parity as its own, which keeps every value's class;
    - suites.suite_eta_prime, each enumerated phi': values of the right
      parity, taken from a descending universe in order, and m > n.
    """

    __slots__ = ("mu_tw", "mu0_tw", "m", "n", "i0", "tie_at_i0")

    def __init__(self, mu_tw: tuple[int, ...], mu0_tw: int, m: int) -> None:
        mu_tw = _ints(mu_tw, "AParameter")
        _ints((mu0_tw, m), "AParameter")
        n = len(mu_tw)
        _check_larger(m, n)
        want = (m - 1) % 2
        for v in mu_tw:
            if v % 2 != want:
                raise WrongParityClass(f"{half_text(v)} is not in Z + ({m}-1)/2")
        if mu0_tw % 2 != n % 2:
            raise WrongParityClass(f"mu0={half_text(mu0_tw)} is not in Z + {n}/2")
        _check_decreasing_distinct(mu_tw, "mu")
        _store_a_parameter(self, mu_tw, mu0_tw, m)

    @classmethod
    def _from_checked(cls, mu_tw: tuple[int, ...], mu0_tw: int, m: int) -> "AParameter":
        """The parameter for doubled values that the caller has shown valid for m."""
        out = object.__new__(cls)
        _store_a_parameter(out, mu_tw, mu0_tw, m)
        return out

    def to_json(self) -> dict:
        return {
            "mu": [half_text(v) for v in self.mu_tw],
            "mu0": half_text(self.mu0_tw),
            "m": self.m,
            "i0": self.i0,
        }


_set_mu_tw, _set_mu0_tw, _set_m, _set_n, _set_i0, _set_tie_at_i0 = AParameter._setters


def _check_larger(m: int, n: int) -> None:
    """Raise PreconditionViolation unless a lift parameter's size m exceeds its n."""
    if m <= n:
        raise PreconditionViolation(f"need m > n, got m={m}, n={n}")


def _store_a_parameter(out: AParameter, mu_tw: tuple[int, ...], mu0_tw: int, m: int) -> None:
    """Store valid values in out, with n, i0 and tie_at_i0 derived from them."""
    n = len(mu_tw)
    i0 = 1 + sum(1 for v in mu_tw if v > mu0_tw)
    _set_mu_tw(out, mu_tw)
    _set_mu0_tw(out, mu0_tw)
    _set_m(out, m)
    _set_n(out, n)
    _set_i0(out, i0)
    _set_tie_at_i0(out, m - n == 1 and i0 <= n and mu_tw[i0 - 1] == mu0_tw)


class SignCharacter(_Frozen):
    """A character of (Z/2)^k recorded by its values on the basis.

    For an LParameter, values[i] is eta(e_{i+1}) and len == n. For an
    AParameter, values[0] is eta'(e'_0) and values[i] is eta'(e'_i), so
    len == n + 1. Constraints tying values together (such as the tie at
    i0) belong to the parameter and are enforced by the operations.
    every(k) yields all 2^k characters of size k in bit order, the first
    value varying fastest, + before -.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = _ints(values, "SignCharacter")
        _set_values(self, values)
        for v in values:
            if v not in (PLUS, MINUS):
                raise MalformedCharacter(f"character values must be +1 or -1, got {v}")

    @classmethod
    def parse(cls, text: str) -> "SignCharacter":
        signs = []
        for ch in text.strip():
            if ch == "+":
                signs.append(PLUS)
            elif ch == "-":
                signs.append(MINUS)
            elif not ch.isspace():
                raise MalformedCharacter(f"unexpected character {ch!r} in sign string")
        return cls(tuple(signs))

    @classmethod
    def every(cls, size: int) -> Iterator["SignCharacter"]:
        """Every character of size values, in bit order.

        The i-th character has value -1 exactly where bit i of its index
        is set: the first value varies fastest, + before -.
        """
        for values in _characters(size):
            yield cls(values)

    def as_strings(self) -> list[str]:
        return ["+" if v == PLUS else "-" for v in self.values]

    def __str__(self) -> str:
        return "".join(self.as_strings())


(_set_values,) = SignCharacter._setters


def _sign_pow(exponent: int) -> int:
    return PLUS if exponent % 2 == 0 else MINUS


def epsilon_of_signature(p: int, q: int) -> int:
    """The sign (-1)^((p-q)(p-q-1)/2) attached to the form of signature (p, q).

    >>> [epsilon_of_signature(p, 3 - p) for p in range(4)]
    [1, -1, 1, -1]
    """
    d = p - q
    return _sign_pow((d * (d - 1) // 2) % 2)


# The two values of a character, checked once by SignCharacter.
_PAIR = SignCharacter((PLUS, MINUS)).values


def _characters(size: int) -> Iterator[tuple[int, ...]]:
    """The values of every character of (Z/2)^size as plain tuples, in bit order.

    The order is SignCharacter.every's. Every value is one of _PAIR,
    which SignCharacter checked once, so a tuple needs no check of its
    own.
    """
    for values in itertools.product(_PAIR, repeat=size):
        yield values[::-1]


def pi_from_eta(phi: LParameter, eta: SignCharacter) -> tuple[Signature, HCParam]:
    """The packet member cut out by eta: its real form and parameter."""
    n = phi.n
    if len(eta.values) != n:
        raise MalformedCharacter(f"character has {len(eta.values)} values, parameter wants {n}")
    return _Members(phi).at(eta.values)


# The low run of a character has at most this many positions, so a walk
# over every character holds at most 2^10 low half-members and one high
# one at a time.
_LOW_RUN_CAP = 10


def _low_run(size: int) -> int:
    """The length of the low run of a character of this size: half, rounded up, at most the cap."""
    return min((size + 1) // 2, _LOW_RUN_CAP)


class _Half:
    """What one run of a character's positions contributes to its member.

    values are the character's values on the run and product their
    product. p counts the run's positions that go to the p side. before
    and after are the run's pieces on either side of the member's cut:
    for a packet member, its p-entries and q-entries; for a lift packet
    member, its unit blocks before and after slot i0. A member's pieces
    are its low half's followed by its high half's, on each side. text
    is what a renderer made of the half, or None.
    """

    __slots__ = ("values", "product", "p", "before", "after", "text")

    def __init__(self, values: tuple[int, ...], p: int, before: tuple, after: tuple) -> None:
        self.values = values
        self.product = math.prod(values)
        self.p = p
        self.before = before
        self.after = after
        self.text = None


# The half-member of an empty run: joined to a whole character's half, it
# makes that character's member from the one half.
_NO_HALF = _Half((), 0, (), ())


def _half_pairs(
    size: int,
    build: Callable[[int, tuple[int, ...]], _Half],
    render: Callable[[_Half], object] | None,
) -> Iterator[tuple[list[_Half], _Half]]:
    """The half-members of every character of (Z/2)^size, as (lows, high) in bit order.

    build(start, values) makes the half-member of the run of positions
    from start on with these values. The low run's 2^low half-members
    are built once, as the list lows; each high run character's half is
    built when the walk reaches it. Taking every low with each high in
    turn gives the characters in bit order, the first value varying
    fastest. render, when given, sets each half-member's text once.
    """
    low = _low_run(size)
    lows = [build(0, values) for values in _characters(low)]
    if render is not None:
        for part in lows:
            part.text = render(part)
    for values in _characters(size - low):
        high = build(low, values)
        if render is not None:
            high.text = render(high)
        yield lows, high


class _Members:
    """pi_from_eta() for one parameter, built from half-members.

    Per parameter: the n + 1 signatures, each validated, their epsilons
    and the signs (-1)^(i-1) that eta(e_i) is compared with. Per
    half-member (_half): one run's values split kappa into the run's
    p-entries and q-entries. Per member (signature, at, pairs): the two
    halves' p counts pick the signature, and the determinant identity is
    checked on the two halves' products. The member's two parts are
    subsequences of phi's strictly decreasing kappa_tw, in order, and
    its signature is forms[len(p-part)], so parity, the order within
    each part, distinct entries and the length hold by construction, and
    the HCParam is stored through _from_checked.

    at() takes one character's n values as a tuple of +1 and -1, the
    caller having checked the length, and joins their one half-member
    with _NO_HALF. pairs() and iteration walk every
    member in bit order with the low half-members built once, so a
    member costs the same at any n and a walk holds at most 2^10
    half-members plus one.
    """

    __slots__ = ("phi", "alternating", "forms", "epsilons")

    def __init__(self, phi: LParameter) -> None:
        n = phi.n
        self.phi = phi
        self.alternating = tuple(_sign_pow(i) for i in range(n))
        self.forms = tuple(Signature(p, n - p) for p in range(n + 1))
        self.epsilons = tuple(epsilon_of_signature(p, n - p) for p in range(n + 1))

    def _half(self, start: int, values: tuple[int, ...]) -> _Half:
        """The half-member of the positions from start on: kappa split by these values."""
        p_tw = []
        q_tw = []
        for kappa, v, sign in zip(
            self.phi.kappa_tw[start:], values, self.alternating[start:]
        ):
            (p_tw if v == sign else q_tw).append(kappa)
        return _Half(values, len(p_tw), tuple(p_tw), tuple(q_tw))

    def signature(self, low: _Half, high: _Half) -> Signature:
        """The real form of the member of two half-members."""
        sig = self.forms[low.p + high.p]
        # Determinant identity: the product of the values is forced by the
        # signature alone. Machine-checked at scale by the packet suite.
        if low.product * high.product != self.epsilons[sig.p]:
            raise InternalError(
                f"determinant identity failed for kappa {self.phi.to_json()['kappa']}, "
                f"character {SignCharacter(low.values + high.values)}, signature {sig}"
            )
        return sig

    @staticmethod
    def _param(sig: Signature, low: _Half, high: _Half) -> HCParam:
        return HCParam._from_checked(sig, low.before + high.before + low.after + high.after)

    def at(self, values: tuple[int, ...]) -> tuple[Signature, HCParam]:
        """The member for the character with these values: its real form and parameter."""
        whole = self._half(0, values)
        sig = self.signature(whole, _NO_HALF)
        return sig, self._param(sig, whole, _NO_HALF)

    def pairs(
        self, render: Callable[[_Half], object] | None = None
    ) -> Iterator[tuple[_Half, _Half, Signature]]:
        """(low half, high half, real form) of every member, in bit order.

        render, when given, sets each half-member's text, as _half_pairs says.
        """
        signature = self.signature
        for lows, high in _half_pairs(self.phi.n, self._half, render):
            for low in lows:
                yield low, high, signature(low, high)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], Signature, HCParam]]:
        """(character values, real form, parameter) of every member, in bit order."""
        signature, param = self.signature, self._param
        for lows, high in _half_pairs(self.phi.n, self._half, None):
            for low in lows:
                sig = signature(low, high)
                yield low.values + high.values, sig, param(sig, low, high)


def eta_from_pi(lam: HCParam) -> tuple[LParameter, SignCharacter]:
    """Inverse of pi_from_eta: recover kappa and the sign character.

    The sorted entries of a valid parameter are distinct and lie in
    Z + (n-1)/2, and every sign is +1 or -1, so kappa and the character
    are stored without validating them again; only the empty parameter
    of U(0, 0), which is valid but has no packet, raises ValueError.
    """
    order = tuple(sorted(lam.entries_tw, reverse=True))
    if not order:
        raise ValueError("empty parameter")
    p_set = set(lam.p_tw)
    signs = []
    sign = PLUS  # (-1)^(i-1) for the i-th largest value
    for kappa in order:
        signs.append(sign if kappa in p_set else -sign)
        sign = -sign
    phi = object.__new__(LParameter)
    _set_kappa_tw(phi, order)
    eta = object.__new__(SignCharacter)
    _set_values(eta, tuple(signs))
    return phi, eta


def _check_tie(phi_p: AParameter, e0: int, tail: tuple[int, ...]) -> None:
    """The tie rule on e0 = eta'(e'_0) and the tail eta'(e'_1), ..., eta'(e'_n)."""
    if phi_p.tie_at_i0 and e0 != tail[phi_p.i0 - 1]:
        raise MalformedCharacter("tied parameter requires eta'(e'_0) = eta'(e'_i0)")


def _check_character(phi_p: AParameter, eta_p: SignCharacter, target: Signature) -> None:
    """The public path-B checks: the target's size, the character's length and the tie rule."""
    if target.n != phi_p.m:
        raise PreconditionViolation(f"target size {target.n} != parameter size {phi_p.m}")
    if len(eta_p.values) != phi_p.n + 1:
        raise MalformedCharacter(
            f"character has {len(eta_p.values)} values, parameter wants {phi_p.n + 1}"
        )
    _check_tie(phi_p, eta_p.values[0], eta_p.values[1:])


def _unit_block_signs(
    phi_p: AParameter, tail: tuple[int, ...], start: int = 0
) -> list[tuple[int, int]]:
    """(r, s) of the unit block of each of mu_{start+1}, ..., in order.

    tail holds the character's values on e'_{start+1}, ..., one per
    block; the value on e'_0 never enters a unit block. eta'(e'_{j+1})
    (j from 0) is compared with (-1)^j before slot i0 and with
    (-1)^(j + m - n) after it: a sign that flips once per entry, and
    once more at slot i0 when m - n is odd.
    """
    skip, lead = phi_p.i0 - 1, phi_p.m - phi_p.n
    flip_at_i0 = lead % 2
    out = []
    sign = _sign_pow(start if start <= skip else start + lead)
    for j, v in enumerate(tail, start):
        if j == skip and flip_at_i0:
            sign = -sign
        out.append((1, 0) if v == sign else (0, 1))
        sign = -sign
    return out


def _unit_blocks(
    phi_p: AParameter, units: list[tuple[int, int]], start: int = 0
) -> tuple[tuple[Triple, ...], tuple[Triple, ...]]:
    """The unit blocks of mu_{start+1}, ... with these (r, s), split at slot i0.

    Blocks are (p, q, lam_tw) triples, valued as the module docstring says.
    """
    skip, lead, shift = phi_p.i0 - 1, phi_p.m - phi_p.n, phi_p.m - 1
    head = []
    tail = []
    for j, (mu, (r, s)) in enumerate(zip(phi_p.mu_tw[start:], units), start):
        if j < skip:
            head.append((r, s, mu - shift + 2 * j))
        else:
            tail.append((r, s, mu - shift + 2 * (j + lead)))
    return tuple(head), tuple(tail)


def _unit_half(phi_p: AParameter, start: int, values: tuple[int, ...]) -> _Half:
    """The half-member of the tail positions from start on: their unit block signs and blocks."""
    units = _unit_block_signs(phi_p, values, start)
    return _Half(values, units.count((1, 0)), *_unit_blocks(phi_p, units, start))


def _check_unit_blocks(head: tuple[Triple, ...], tail: tuple[Triple, ...]) -> tuple[int, int]:
    """Check unit blocks and the seams within those before and after slot i0; sum p and q."""
    sums = _check_blocks(head + tail)
    _check_seams(head)
    _check_seams(tail)
    return sums


def _sign_gate(
    phi_p: AParameter,
    e0: int,
    tail: tuple[int, ...],
    tail_product: int,
    target: Signature,
    r_i0: int,
    s_i0: int,
) -> bool:
    """Both forms of the sign gate for eta'(e'_0) = e0 on one form, compared.

    The balance (r_i0, s_i0) that the unit blocks leave of the target
    for the big block feeds the closed form only; the product form is
    e0 times the tail's product.
    """
    i0, dmn = phi_p.i0, phi_p.m - phi_p.n
    closed = _sign_pow(r_i0 * (i0 - 1) + s_i0 * i0 + (dmn * (dmn - 1) // 2))
    ok_closed = e0 == closed
    ok_product = e0 * tail_product == epsilon_of_signature(target.p, target.q)
    if ok_closed != ok_product:
        raise InternalLemmaMismatch(
            f"sign gate split: closed={ok_closed} product={ok_product} "
            f"for {phi_p.to_json()} {SignCharacter((e0,) + tail)} {target}"
        )
    return ok_closed


def eta_prime_sign_ok(phi_p: AParameter, eta_p: SignCharacter, target: Signature) -> bool:
    """The nonvanishing sign gate, evaluated two independent ways.

    Closed form: eta'(e'_0) must equal (-1)^(r_i0 (i0-1) + s_i0 i0 +
    (m-n)(m-n-1)/2) where (r_i0, s_i0) is the balance left for the big
    block. Product form: the product of all n + 1 values must equal
    (-1)^((r-s)(r-s-1)/2). The two are provably equivalent; disagreement
    raises InternalLemmaMismatch. Only the unit block signs are counted;
    no block is built.
    """
    _check_character(phi_p, eta_p, target)
    e0, tail = eta_p.values[0], eta_p.values[1:]
    r_units = _unit_block_signs(phi_p, tail).count((1, 0))
    r_i0, s_i0 = target.p - r_units, target.q - (phi_p.n - r_units)
    return _sign_gate(phi_p, e0, tail, math.prod(tail), target, r_i0, s_i0)


def sigma_from_eta_prime(
    phi_p: AParameter, eta_p: SignCharacter, target: Signature
) -> AqLambdaData | None:
    """The A_q(lam') member cut out by eta' on the target form, or None.

    None means the character kills this form: a unit block count went
    negative or the sign gate failed. The character is validated and
    its unit blocks built and checked once; both forms of the sign gate
    are still evaluated and compared, as in eta_prime_sign_ok.
    """
    _check_character(phi_p, eta_p, target)
    return _sigma_units(phi_p, eta_p.values[1:]).at(eta_p.values[0], target)


class _SigmaUnits:
    """sigma_from_eta_prime() for one parameter and one tail, split at the size and the form.

    The unit block signs and the unit blocks depend only on phi' and on
    the character's values on e'_1, ..., e'_n (the tail, of length n),
    so they are computed once per object. The constructor joins two
    half-members of the tail, a low and a high one (_unit_half), whose
    blocks the caller has checked: it takes the tail, its product, the
    unit counts and the blocks from them. _sigma_units builds the object
    of one tail, and _sigma_units_by_tail those of every tail. phi'
    changes with the size m only in m itself, and the unit signs only
    with the parity of m - n, so the object serves every size of one
    parity: it holds phi' at the size of the last target and, for a size
    step d, which must be even, checks that the new size exceeds n,
    stores phi' at it through AParameter._from_checked, since an even
    step keeps each value's parity class, and moves the doubled unit
    block values before i0 by -d and those after by +d. Per form, at()
    takes e'_0's value as an int and one target form, checks the tie
    rule, takes the big block's balance, runs both forms of the sign
    gate (_sign_gate), adds the i0 block and checks that block, the sums
    and its two seams.
    """

    __slots__ = ("phi_p", "tail", "tail_product", "r_units", "s_units", "_blocks")

    def __init__(self, phi_p: AParameter, low: _Half, high: _Half) -> None:
        self.phi_p = phi_p
        self.tail = low.values + high.values
        self.tail_product = low.product * high.product
        self.r_units = r_units = low.p + high.p
        self.s_units = s_units = phi_p.n - r_units
        self._blocks = (low.before + high.before, low.after + high.after, r_units, s_units)

    def _resize(self, m: int) -> None:
        """Move phi' and the unit blocks to size m."""
        phi_p = self.phi_p
        d = m - phi_p.m
        if d % 2:
            raise InternalError(f"size {m} has the wrong parity for {phi_p.to_json()}")
        _check_larger(m, phi_p.n)
        self.phi_p = AParameter._from_checked(phi_p.mu_tw, phi_p.mu0_tw, m)
        head, tail, units_p, units_q = self._blocks
        head = tuple((r, s, v - d) for r, s, v in head)
        tail = tuple((r, s, v + d) for r, s, v in tail)
        self._blocks = (head, tail, units_p, units_q)

    def at(self, e0: int, target: Signature) -> AqLambdaData | None:
        """The member for eta'(e'_0) = e0 on one target form, or None when it is killed."""
        if target.n != self.phi_p.m:
            self._resize(target.n)
        phi_p, tail = self.phi_p, self.tail
        _check_tie(phi_p, e0, tail)
        r_i0, s_i0 = target.p - self.r_units, target.q - self.s_units
        if r_i0 < 0 or s_i0 < 0:
            return None
        if not _sign_gate(phi_p, e0, tail, self.tail_product, target, r_i0, s_i0):
            return None
        head, after, units_p, units_q = self._blocks
        big = (r_i0, s_i0, phi_p.mu0_tw - phi_p.n + 2 * (phi_p.i0 - 1))
        return AqLambdaData._spliced(target, head, big, after, units_p, units_q)


def _sigma_units(phi_p: AParameter, tail: tuple[int, ...]) -> _SigmaUnits:
    """The _SigmaUnits of one tail: its whole half-member joined with _NO_HALF.

    The unit blocks and the seams within those before and after slot i0
    are checked here, once per object. The signature sums that at()
    checks come from the checked blocks, not from the sign count.
    """
    units = _SigmaUnits(phi_p, _unit_half(phi_p, 0, tail), _NO_HALF)
    head, after = units._blocks[:2]
    units._blocks = (head, after, *_check_unit_blocks(head, after))
    return units


def _sigma_units_by_tail(
    phi_p: AParameter, render: Callable[[_Half], object] | None = None
) -> Iterator[tuple[_Half, _Half, _SigmaUnits]]:
    """(low half, high half, _SigmaUnits) of every tail of phi', in bit order.

    A tail is a character's values on e'_1, ..., e'_n; each serves the
    two characters that differ only in e'_0, which varies fastest. Per
    query, the unit blocks are checked once: each has size 1, so whether
    it is valid, and the seams within the blocks before slot i0 and
    within those after it, depend on mu alone. Per half-member: the
    run's unit block signs and blocks. Per tail: one _SigmaUnits joined
    from its two half-members. render, when given, sets each
    half-member's text, as _half_pairs says.
    """
    _check_unit_blocks(*_unit_blocks(phi_p, [(1, 0)] * phi_p.n))
    for lows, high in _half_pairs(phi_p.n, partial(_unit_half, phi_p), render):
        for low in lows:
            yield low, high, _SigmaUnits(phi_p, low, high)


def packet_members(phi: LParameter) -> list[tuple[SignCharacter, Signature, HCParam]]:
    """All 2^n members of the packet, their characters in bit order.

    The order is SignCharacter.every's: eta(e_1) varies fastest, + before
    -. Deterministic for serialization.
    """
    return [(SignCharacter(values), sig, lam) for values, sig, lam in _Members(phi)]
