"""Packet combinatorics: parameters, sign characters, packet members.

A tempered parameter for size n is a strictly decreasing tuple kappa in
Z + (n-1)/2; its component group is (Z/2)^n with basis e_1, ..., e_n,
and a sign character eta picks one discrete series per real form: the
indices where eta(e_i) = (-1)^(i-1) contribute kappa_i to the p-part.
SignCharacter.every(k) walks all 2^k characters of (Z/2)^k in bit
order: the first value varies fastest, + before -, as in binary
counting with the first value as the low bit. Packet rows and the
packet suites all list characters in that order. The hot loops (the
packet and apacket rows, the packet suite) walk the characters as plain
tuples of values with _characters(k), which checks the pair (+1, -1)
once per walk instead of building a checked SignCharacter per row.

_Members is pi_from_eta split at the character, built once per
parameter: it builds and validates the n + 1 signatures (p, n - p) a
member can have, with their epsilons, once. Per character it splits
kappa into the two parts, checks the determinant identity and stores
the member's HCParam without validating it again: kappa was validated,
and each part keeps its order. pi_from_eta checks the character's
length and builds one per call. eta_from_pi likewise stores the kappa
and the character it recovers from a valid HCParam unvalidated.

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
value, an int, and the target. The public sigma_from_eta_prime builds
one per call. Nothing is memoized.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from .core import HCParam, HalfInt, Signature, _Frozen, _halfint_twices, half_text
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
        _set_kappa_tw(out, tuple(kappa_tw))
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
    """

    __slots__ = ("mu_tw", "mu0_tw", "m", "n", "i0", "tie_at_i0")

    def __init__(self, mu_tw: tuple[int, ...], mu0_tw: int, m: int) -> None:
        mu_tw = tuple(mu_tw)
        n = len(mu_tw)
        if m <= n:
            raise PreconditionViolation(f"need m > n, got m={m}, n={n}")
        want = (m - 1) % 2
        for v in mu_tw:
            if v % 2 != want:
                raise WrongParityClass(f"{half_text(v)} is not in Z + ({m}-1)/2")
        if mu0_tw % 2 != n % 2:
            raise WrongParityClass(f"mu0={half_text(mu0_tw)} is not in Z + {n}/2")
        _check_decreasing_distinct(mu_tw, "mu")
        i0 = 1 + sum(1 for v in mu_tw if v > mu0_tw)
        _set_mu_tw(self, mu_tw)
        _set_mu0_tw(self, mu0_tw)
        _set_m(self, m)
        _set_n(self, n)
        _set_i0(self, i0)
        _set_tie_at_i0(self, m - n == 1 and i0 <= n and mu_tw[i0 - 1] == mu0_tw)

    def _resized(self, m: int) -> "AParameter":
        """The parameter at size m, for m - self.m even, as the constructor builds it.

        Only m and tie_at_i0 depend on the size, beyond the m > n check:
        the parity class of mu_tw cannot change under an even step, which
        the caller checks, and the order of mu_tw cannot change at all. So
        the other fields are copied, not validated again.
        """
        n, i0 = self.n, self.i0
        if m <= n:
            raise PreconditionViolation(f"need m > n, got m={m}, n={n}")
        mu_tw, mu0_tw = self.mu_tw, self.mu0_tw
        out = object.__new__(AParameter)
        _set_mu_tw(out, mu_tw)
        _set_mu0_tw(out, mu0_tw)
        _set_m(out, m)
        _set_n(out, n)
        _set_i0(out, i0)
        _set_tie_at_i0(out, m - n == 1 and i0 <= n and mu_tw[i0 - 1] == mu0_tw)
        return out

    def to_json(self) -> dict:
        return {
            "mu": [half_text(v) for v in self.mu_tw],
            "mu0": half_text(self.mu0_tw),
            "m": self.m,
            "i0": self.i0,
        }


_set_mu_tw, _set_mu0_tw, _set_m, _set_n, _set_i0, _set_tie_at_i0 = AParameter._setters


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
        values = tuple(values)
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


def _characters(size: int) -> Iterator[tuple[int, ...]]:
    """The values of every character of (Z/2)^size as plain tuples, in bit order.

    The order is SignCharacter.every's. Every value is one of the pair
    (PLUS, MINUS), which is checked once per walk, so a tuple needs no
    check of its own.
    """
    pair = SignCharacter((PLUS, MINUS)).values
    for values in itertools.product(pair, repeat=size):
        yield values[::-1]


def pi_from_eta(phi: LParameter, eta: SignCharacter) -> tuple[Signature, HCParam]:
    """The packet member cut out by eta: its real form and parameter."""
    n = phi.n
    if len(eta.values) != n:
        raise MalformedCharacter(f"character has {len(eta.values)} values, parameter wants {n}")
    return _Members(phi).at(eta.values)


class _Members:
    """pi_from_eta() for one parameter, split at the character.

    Built once per parameter: the n + 1 signatures, each validated, their
    epsilons and the signs (-1)^(i-1) that eta(e_i) is compared with.
    at() takes one character's n values as a tuple of +1 and -1; the
    caller checks the length. The member's two parts are subsequences of
    phi's strictly decreasing kappa_tw, in order, and its signature is
    forms[len(p-part)], so parity, the order within each part, distinct
    entries and the length hold by construction, and at() stores the
    HCParam through _from_checked. The determinant identity is still
    checked per character.
    """

    __slots__ = ("phi", "alternating", "forms", "epsilons")

    def __init__(self, phi: LParameter) -> None:
        n = phi.n
        self.phi = phi
        self.alternating = tuple(_sign_pow(i) for i in range(n))
        self.forms = tuple(Signature(p, n - p) for p in range(n + 1))
        self.epsilons = tuple(epsilon_of_signature(p, n - p) for p in range(n + 1))

    def at(self, values: tuple[int, ...]) -> tuple[Signature, HCParam]:
        """The member for the character with these values: its real form and parameter."""
        p_vals = []
        q_vals = []
        for kappa, v, sign in zip(self.phi.kappa_tw, values, self.alternating):
            (p_vals if v == sign else q_vals).append(kappa)
        sig = self.forms[len(p_vals)]
        # Determinant identity: the product of the values is forced by the
        # signature alone. Machine-checked at scale by the packet suite.
        if math.prod(values) != self.epsilons[sig.p]:
            raise InternalError(
                f"determinant identity failed for kappa {self.phi.to_json()['kappa']}, "
                f"character {SignCharacter(values)}, signature {sig}"
            )
        return sig, HCParam._from_checked(sig, tuple(p_vals + q_vals))


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


def _validate_a_character(phi_p: AParameter, eta_p: SignCharacter) -> None:
    if len(eta_p.values) != phi_p.n + 1:
        raise MalformedCharacter(
            f"character has {len(eta_p.values)} values, parameter wants {phi_p.n + 1}"
        )
    _check_tie(phi_p, eta_p.values[0], eta_p.values[1:])


def _unit_block_signs(phi_p: AParameter, tail: tuple[int, ...]) -> list[tuple[int, int]]:
    """(r, s) of the unit block of each of mu_1, ..., mu_n, in order.

    tail holds the character's values on e'_1, ..., e'_n; the value on
    e'_0 never enters a unit block. eta'(e'_{j+1}) (j from 0) is
    compared with (-1)^j before slot i0 and with (-1)^(j + m - n) after it:
    a sign that flips once per entry, and once more at slot i0 when m - n
    is odd.
    """
    skip, flip_at_i0 = phi_p.i0 - 1, (phi_p.m - phi_p.n) % 2
    out = []
    sign = PLUS
    for j, v in enumerate(tail):
        if j == skip and flip_at_i0:
            sign = -sign
        out.append((1, 0) if v == sign else (0, 1))
        sign = -sign
    return out


def eta_prime_sign_ok(phi_p: AParameter, eta_p: SignCharacter, target: Signature) -> bool:
    """The nonvanishing sign gate, evaluated two independent ways.

    Closed form: eta'(e'_0) must equal (-1)^(r_i0 (i0-1) + s_i0 i0 +
    (m-n)(m-n-1)/2) where (r_i0, s_i0) is the balance left for the big
    block. Product form: the product of all n + 1 values must equal
    (-1)^((r-s)(r-s-1)/2). The two are provably equivalent; disagreement
    raises InternalLemmaMismatch.
    """
    if target.n != phi_p.m:
        raise PreconditionViolation(f"target size {target.n} != parameter size {phi_p.m}")
    _validate_a_character(phi_p, eta_p)
    units = _SigmaUnits(phi_p, eta_p.values[1:])
    return units.sign_ok(eta_p.values[0], target, *units.balance(target))


def sigma_from_eta_prime(
    phi_p: AParameter, eta_p: SignCharacter, target: Signature
) -> AqLambdaData | None:
    """The A_q(lam') member cut out by eta' on the target form, or None.

    None means the character kills this form: a unit block count went
    negative or the sign gate failed. The character is validated and
    its unit block signs computed once; both forms of the sign gate are
    still evaluated and compared, as in eta_prime_sign_ok.
    """
    if target.n != phi_p.m:
        raise PreconditionViolation(f"target size {target.n} != parameter size {phi_p.m}")
    _validate_a_character(phi_p, eta_p)
    return _SigmaUnits(phi_p, eta_p.values[1:]).at(eta_p.values[0], target)


class _SigmaUnits:
    """sigma_from_eta_prime() for one parameter and one tail, split at the size and the form.

    The unit block signs and the unit blocks depend only on phi' and on
    the character's values on e'_1, ..., e'_n (the tail, of length n),
    so they are computed once, the blocks when a first form survives
    the gate; the blocks, the seams between them and their signature
    sums are checked then, once. phi' changes with the size m only in m
    itself, and the unit signs only with the parity of m - n, so the
    object serves every size of one parity: it holds phi' at the size of
    the last target and, for a size step d, which must be even, moves
    phi' to the new size without validating it again
    (AParameter._resized) and moves the doubled unit block values before
    i0 by -d and those after by +d. Per form, at() takes e'_0's value as an int and
    one target form, checks the tie rule, takes the big block's balance,
    runs both forms of the sign gate, adds the i0 block and checks that
    block, the sums and its two seams.
    """

    __slots__ = ("phi_p", "tail", "tail_product", "units", "r_units", "s_units", "_blocks")

    def __init__(self, phi_p: AParameter, tail: tuple[int, ...]) -> None:
        units = _unit_block_signs(phi_p, tail)
        self.phi_p = phi_p
        self.tail = tail
        self.tail_product = math.prod(tail)
        self.units = units
        self.r_units = sum(r for r, _ in units)
        self.s_units = phi_p.n - self.r_units
        self._blocks: tuple[tuple[Triple, ...], tuple[Triple, ...], int, int] | None = None

    def _unit_blocks(self) -> tuple[tuple[Triple, ...], tuple[Triple, ...], int, int]:
        """The checked unit blocks before and after slot i0, and their p and q sums.

        Blocks are (p, q, lam_tw) triples, valued as the module docstring says.
        """
        phi_p = self.phi_p
        skip, lead, shift = phi_p.i0 - 1, phi_p.m - phi_p.n, phi_p.m - 1
        blocks = tuple(
            (r, s, mu - shift + 2 * (j if j < skip else j + lead))
            for j, (mu, (r, s)) in enumerate(zip(phi_p.mu_tw, self.units))
        )
        units_p, units_q = _check_blocks(blocks)
        head, tail = blocks[:skip], blocks[skip:]
        _check_seams(head)
        _check_seams(tail)
        return head, tail, units_p, units_q

    def balance(self, target: Signature) -> tuple[int, int]:
        """(r_i0, s_i0): what the unit blocks leave of the target for the big block."""
        return target.p - self.r_units, target.q - self.s_units

    def _resize(self, m: int) -> None:
        """Move phi' and the unit blocks to size m."""
        phi_p = self.phi_p
        d = m - phi_p.m
        if d % 2:
            raise InternalError(f"size {m} has the wrong parity for {phi_p.to_json()}")
        self.phi_p = phi_p._resized(m)
        if self._blocks is not None:
            head, tail, units_p, units_q = self._blocks
            self._blocks = (
                tuple((r, s, v - d) for r, s, v in head),
                tuple((r, s, v + d) for r, s, v in tail),
                units_p,
                units_q,
            )

    def sign_ok(self, e0: int, target: Signature, r_i0: int, s_i0: int) -> bool:
        """Both forms of the sign gate for eta'(e'_0) = e0 on one form, compared.

        The balance (r_i0, s_i0) feeds the closed form only; the product
        form is e0 times the tail's product.
        """
        phi_p = self.phi_p
        i0, dmn = phi_p.i0, phi_p.m - phi_p.n
        closed = _sign_pow(r_i0 * (i0 - 1) + s_i0 * i0 + (dmn * (dmn - 1) // 2))
        ok_closed = e0 == closed
        ok_product = e0 * self.tail_product == epsilon_of_signature(target.p, target.q)
        if ok_closed != ok_product:
            raise InternalLemmaMismatch(
                f"sign gate split: closed={ok_closed} product={ok_product} "
                f"for {phi_p.to_json()} {SignCharacter((e0,) + self.tail)} {target}"
            )
        return ok_closed

    def at(self, e0: int, target: Signature) -> AqLambdaData | None:
        """The member for eta'(e'_0) = e0 on one target form, or None when it is killed."""
        if target.n != self.phi_p.m:
            self._resize(target.n)
        phi_p = self.phi_p
        _check_tie(phi_p, e0, self.tail)
        r_i0, s_i0 = self.balance(target)
        if r_i0 < 0 or s_i0 < 0:
            return None
        if not self.sign_ok(e0, target, r_i0, s_i0):
            return None
        if self._blocks is None:
            self._blocks = self._unit_blocks()
        head, tail, units_p, units_q = self._blocks
        big = (r_i0, s_i0, phi_p.mu0_tw - phi_p.n + 2 * (phi_p.i0 - 1))
        return AqLambdaData._spliced(target, head, big, tail, units_p, units_q)


def packet_members(phi: LParameter) -> list[tuple[SignCharacter, Signature, HCParam]]:
    """All 2^n members of the packet, their characters in bit order.

    The order is SignCharacter.every's: eta(e_1) varies fastest, + before
    -. Deterministic for serialization.
    """
    members = _Members(phi)
    return [(eta, *members.at(eta.values)) for eta in SignCharacter.every(phi.n)]
