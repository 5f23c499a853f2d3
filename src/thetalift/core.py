"""Half-integer arithmetic, signatures, and Harish-Chandra parameters.

Everything downstream works with elements of (1/2)Z, stored as their
doubles: the value types (HCParam, ABGDSplit here, and the block and
packet types downstream) hold tuples of doubled ints in their *_tw
fields, and all arithmetic is exact integer arithmetic on them; floats
never appear. HalfInt, an immutable wrapper around twice the value, is
the type for parsing and rendering: the public accessors (entries,
p_part, alpha, ...) return HalfInt, and HalfInt arguments are accepted
by the public constructors.

A discrete series of U(p, q) is recorded by its Harish-Chandra parameter:
an n-tuple (n = p + q) of half-integers in Z + (n-1)/2, strictly
decreasing within the first p coordinates and within the last q, with no
entry repeated anywhere. HCParam validates all of that on construction.

The lift bookkeeping needs two normalization exponents m0 and n0 (the
exponents of the determinant twists on the two sides of a dual pair) and
the two member dimensions; LiftContext bundles them and enforces the
parity constraints m0 = target_dim and n0 = source_dim mod 2.

Splitting conventions: for a parameter lam of U(p, q) and a context with
exponent m0, set lam0 = lam - m0/2 coordinatewise. The lax split sorts
the p-part of lam0 into its positive prefix alpha and nonpositive suffix
beta, and the q-part into gamma (positive) and delta (nonpositive). The
strict split first deletes a centered chain ((k-1)/2, (k-3)/2, ..., -(k-1)/2)
from whichever part contains it, then requires every remaining entry to
be nonzero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import (
    ChainNotPresent,
    NotDominant,
    ParityMismatch,
    PreconditionViolation,
    RepeatedEntry,
    UnclassifiableZero,
    WrongParityClass,
)

_HALF_RE = re.compile(r"^([+-]?\d+)(/2)?$")


class HalfInt:
    """An element of (1/2)Z stored exactly as its double.

    HalfInt(k) is the integer k; HalfInt.halves(t) is t/2. Comparison
    and addition mix freely with int. Multiplication is by int only;
    there is no division, since nothing downstream needs it.

    >>> HalfInt.parse("-3/2") + 2
    1/2
    >>> str(HalfInt(2)), str(HalfInt.halves(5))
    ('2', '5/2')
    """

    __slots__ = ("twice",)

    twice: int

    def __init__(self, value: int = 0):
        if isinstance(value, HalfInt):
            object.__setattr__(self, "twice", value.twice)
        elif isinstance(value, int):
            object.__setattr__(self, "twice", 2 * value)
        else:
            raise TypeError(f"HalfInt() takes an int, not {type(value).__name__}")

    @classmethod
    def halves(cls, twice: int) -> "HalfInt":
        """The half-integer twice/2."""
        if not isinstance(twice, int):
            raise TypeError("halves() takes an int")
        out = object.__new__(cls)
        object.__setattr__(out, "twice", twice)
        return out

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse 'a' or 'a/2' with a odd in the latter (lowest terms)."""
        m = _HALF_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a half-integer literal: {text!r}")
        num = int(m.group(1))
        if m.group(2):
            if num % 2 == 0:
                raise ValueError(f"not in lowest terms: {text!r}")
            return cls.halves(num)
        return cls(num)

    # Attribute assignment is blocked to keep instances hashable-safe.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HalfInt is immutable")

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    @staticmethod
    def _twice_of(other: object) -> int | None:
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return None

    def __add__(self, other: object) -> "HalfInt":
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return HalfInt.halves(self.twice + t)

    __radd__ = __add__

    def __sub__(self, other: object) -> "HalfInt":
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return HalfInt.halves(self.twice - t)

    def __rsub__(self, other: object) -> "HalfInt":
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return HalfInt.halves(t - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt.halves(-self.twice)

    def __mul__(self, other: object) -> "HalfInt":
        if not isinstance(other, int):
            return NotImplemented
        return HalfInt.halves(self.twice * other)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice == t

    def __lt__(self, other: object) -> bool:
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice < t

    def __le__(self, other: object) -> bool:
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice <= t

    def __gt__(self, other: object) -> bool:
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice > t

    def __ge__(self, other: object) -> bool:
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice >= t

    def __hash__(self) -> int:
        # Integral values hash like the int they equal.
        if self.twice % 2 == 0:
            return hash(self.twice // 2)
        return hash((self.twice, "half"))

    def __str__(self) -> str:
        return half_text(self.twice)

    __repr__ = __str__


def half_text(twice: int) -> str:
    """The canonical text of twice/2, as str(HalfInt) renders it: '3', '-7/2'."""
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


def half(twice: int) -> HalfInt:
    """Shorthand constructor: half(t) == t/2."""
    return HalfInt.halves(twice)


def parse_half_list(text: str) -> tuple[HalfInt, ...]:
    """Parse a comma- or space-separated list of half-integer literals."""
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    return tuple(HalfInt.parse(p) for p in parts)


@dataclass(frozen=True, slots=True)
class Signature:
    """The signature (p, q) of a unitary group U(p, q)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature entries must be nonnegative: ({self.p}, {self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    def swapped(self) -> "Signature":
        return Signature(self.q, self.p)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def _check_strictly_decreasing(part: tuple[int, ...], label: str) -> None:
    for a, b in zip(part, part[1:]):
        if a <= b:
            raise NotDominant(
                f"{label} must strictly decrease: {half_text(a)} then {half_text(b)}"
            )


@dataclass(frozen=True, slots=True, init=False)
class HCParam:
    """Harish-Chandra parameter of a discrete series of U(p, q).

    entries_tw holds the doubled entries, the p-part followed by the
    q-part; entries, p_part and q_part render them as HalfInt. Validity:
    every entry lies in Z + (n-1)/2, each part strictly decreases, and no
    value repeats across the whole tuple.

    HCParam(sig, entries) takes HalfInt entries and from_twices(sig, tw)
    the doubled ints; both validate through __post_init__.
    """

    sig: Signature
    entries_tw: tuple[int, ...]

    def __init__(self, sig: Signature, entries: Iterable[HalfInt]) -> None:
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "entries_tw", tuple(e.twice for e in entries))
        self.__post_init__()

    @classmethod
    def from_twices(cls, sig: Signature, entries_tw: tuple[int, ...]) -> "HCParam":
        """The parameter with entries entries_tw[i]/2."""
        out = object.__new__(cls)
        object.__setattr__(out, "sig", sig)
        object.__setattr__(out, "entries_tw", entries_tw)
        out.__post_init__()
        return out

    def __post_init__(self) -> None:
        tw = self.entries_tw
        n = self.sig.n
        if len(tw) != n:
            raise ValueError(f"expected {n} entries, got {len(tw)}")
        want = (n - 1) % 2
        for t in tw:
            if t % 2 != want:
                raise WrongParityClass(f"entry {half_text(t)} is not in Z + ({n}-1)/2")
        p = self.sig.p
        _check_strictly_decreasing(tw[:p], "p-part")
        _check_strictly_decreasing(tw[p:], "q-part")
        if len(set(tw)) != n:
            seen: set[int] = set()
            for t in tw:
                if t in seen:
                    raise RepeatedEntry(f"entry {half_text(t)} occurs twice")
                seen.add(t)

    @property
    def p_tw(self) -> tuple[int, ...]:
        return self.entries_tw[: self.sig.p]

    @property
    def q_tw(self) -> tuple[int, ...]:
        return self.entries_tw[self.sig.p :]

    @property
    def entries(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt.halves(t) for t in self.entries_tw)

    @property
    def p_part(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt.halves(t) for t in self.p_tw)

    @property
    def q_part(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt.halves(t) for t in self.q_tw)

    @property
    def n(self) -> int:
        return self.sig.n

    def __str__(self) -> str:
        left = " ".join(half_text(t) for t in self.p_tw)
        right = " ".join(half_text(t) for t in self.q_tw)
        return f"({left} | {right})"

    @classmethod
    def parse(cls, text: str) -> "HCParam":
        """Parse '1 0 | 2' style notation (p-part, bar, q-part)."""
        if "|" not in text:
            raise ValueError("expected 'p-part | q-part'")
        left, right = text.split("|", 1)
        p_part = parse_half_list(left) if left.strip() else ()
        q_part = parse_half_list(right) if right.strip() else ()
        return cls(Signature(len(p_part), len(q_part)), p_part + q_part)

    def to_json(self) -> dict:
        return {
            "p": self.sig.p,
            "q": self.sig.q,
            "p_part": [half_text(t) for t in self.p_tw],
            "q_part": [half_text(t) for t in self.q_tw],
        }


@dataclass(frozen=True, slots=True)
class LiftContext:
    """Normalization data for one direction of a dual-pair lift.

    m0 is the exponent of the determinant twist attached to the target
    (size-m) member, n0 the one attached to the source (size-n) member.
    Splits of a source parameter subtract m0/2; lifted parameters add
    n0/2. The reverse direction swaps the roles wholesale.
    """

    m0: int
    n0: int
    source_dim: int
    target_dim: int

    def __post_init__(self) -> None:
        if self.source_dim < 0 or self.target_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        if (self.m0 - self.target_dim) % 2 != 0:
            raise ParityMismatch(
                f"m0={self.m0} must match target_dim={self.target_dim} mod 2"
            )
        if (self.n0 - self.source_dim) % 2 != 0:
            raise ParityMismatch(
                f"n0={self.n0} must match source_dim={self.source_dim} mod 2"
            )

    @classmethod
    def minimal(cls, source_dim: int, target_dim: int) -> "LiftContext":
        """The context with the least nonnegative exponents."""
        return cls(target_dim % 2, source_dim % 2, source_dim, target_dim)

    def reversed(self) -> "LiftContext":
        """The context seen from the other member of the pair."""
        return LiftContext(
            m0=self.n0,
            n0=self.m0,
            source_dim=self.target_dim,
            target_dim=self.source_dim,
        )


LAX = "lax"
STRICT = "strict"

SIDE_P = "P"
SIDE_Q = "Q"
SIDE_NONE = "NONE"


@dataclass(frozen=True, slots=True, init=False)
class ABGDSplit:
    """Positive/nonpositive split of lam - m0/2, with an optional chain.

    alpha and beta partition the (chain-stripped) p-part of lam0 into
    positive and nonpositive runs, gamma and delta the q-part; all four
    keep the ambient descending order and are stored doubled in the *_tw
    fields. x, y, z, w are their lengths and chain_k / chain_side record
    the removed centered chain, if any.
    """

    alpha_tw: tuple[int, ...]
    beta_tw: tuple[int, ...]
    gamma_tw: tuple[int, ...]
    delta_tw: tuple[int, ...]
    chain_k: int
    chain_side: str

    def __init__(
        self,
        alpha: Iterable[HalfInt],
        beta: Iterable[HalfInt],
        gamma: Iterable[HalfInt],
        delta: Iterable[HalfInt],
        chain_k: int = 0,
        chain_side: str = SIDE_NONE,
    ) -> None:
        object.__setattr__(self, "alpha_tw", tuple(v.twice for v in alpha))
        object.__setattr__(self, "beta_tw", tuple(v.twice for v in beta))
        object.__setattr__(self, "gamma_tw", tuple(v.twice for v in gamma))
        object.__setattr__(self, "delta_tw", tuple(v.twice for v in delta))
        object.__setattr__(self, "chain_k", chain_k)
        object.__setattr__(self, "chain_side", chain_side)
        self.__post_init__()

    @classmethod
    def from_twices(
        cls,
        alpha_tw: tuple[int, ...],
        beta_tw: tuple[int, ...],
        gamma_tw: tuple[int, ...],
        delta_tw: tuple[int, ...],
        chain_k: int = 0,
        chain_side: str = SIDE_NONE,
    ) -> "ABGDSplit":
        """The split with doubled runs."""
        out = object.__new__(cls)
        object.__setattr__(out, "alpha_tw", alpha_tw)
        object.__setattr__(out, "beta_tw", beta_tw)
        object.__setattr__(out, "gamma_tw", gamma_tw)
        object.__setattr__(out, "delta_tw", delta_tw)
        object.__setattr__(out, "chain_k", chain_k)
        object.__setattr__(out, "chain_side", chain_side)
        out.__post_init__()
        return out

    def __post_init__(self) -> None:
        if self.chain_side not in (SIDE_P, SIDE_Q, SIDE_NONE):
            raise ValueError(f"bad chain side {self.chain_side!r}")
        if (self.chain_k == 0) != (self.chain_side == SIDE_NONE):
            raise ValueError("chain_k and chain_side must be set together")

    @property
    def alpha(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt.halves(t) for t in self.alpha_tw)

    @property
    def beta(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt.halves(t) for t in self.beta_tw)

    @property
    def gamma(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt.halves(t) for t in self.gamma_tw)

    @property
    def delta(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt.halves(t) for t in self.delta_tw)

    @property
    def x(self) -> int:
        return len(self.alpha_tw)

    @property
    def y(self) -> int:
        return len(self.beta_tw)

    @property
    def z(self) -> int:
        return len(self.gamma_tw)

    @property
    def w(self) -> int:
        return len(self.delta_tw)


def _chain_twices(k: int) -> tuple[int, ...]:
    """Doubled values of the centered chain of length k: k-1, k-3, ..., 1-k."""
    return tuple(k - 1 - 2 * i for i in range(k))


def _split_part(part_twices: tuple[int, ...], strict: bool, label: str):
    """Positive prefix / nonpositive suffix of one descending part."""
    pos = tuple(t for t in part_twices if t > 0)
    rest = tuple(t for t in part_twices if t <= 0)
    if strict and 0 in rest:
        raise UnclassifiableZero(f"zero in {label} outside the removed chain")
    return pos, rest


@lru_cache(maxsize=None)
def _split_cached(lam: HCParam, m0: int, strict: bool, chain_k: int) -> ABGDSplit:
    p_tw = tuple(t - m0 for t in lam.p_tw)
    q_tw = tuple(t - m0 for t in lam.q_tw)
    side = SIDE_NONE
    if chain_k:
        if chain_k < 0:
            raise PreconditionViolation(f"chain length must be positive, got {chain_k}")
        chain = set(_chain_twices(chain_k))
        if chain <= set(p_tw):
            p_tw = tuple(t for t in p_tw if t not in chain)
            side = SIDE_P
        elif chain <= set(q_tw):
            q_tw = tuple(t for t in q_tw if t not in chain)
            side = SIDE_Q
        else:
            raise ChainNotPresent(
                f"no centered chain of length {chain_k} inside either part of {lam} - {m0}/2"
            )
    alpha, beta = _split_part(p_tw, strict, "p-part")
    gamma, delta = _split_part(q_tw, strict, "q-part")
    return ABGDSplit.from_twices(
        alpha, beta, gamma, delta, chain_k if side != SIDE_NONE else 0, side
    )


def split_abgd(lam: HCParam, ctx: LiftContext, mode: str = LAX, chain_k: int = 0) -> ABGDSplit:
    """Split lam - m0/2 into alpha/beta/gamma/delta.

    mode is LAX (zeros land in beta or delta) or STRICT (a chain of
    length chain_k is removed first and any remaining zero raises
    UnclassifiableZero). chain_k must be 0 in lax mode.
    """
    if lam.sig.n != ctx.source_dim:
        raise PreconditionViolation(
            f"parameter has {lam.sig.n} entries but context source_dim={ctx.source_dim}"
        )
    if mode == LAX:
        if chain_k:
            raise PreconditionViolation("lax split takes no chain")
        return _split_cached(lam, ctx.m0, False, 0)
    if mode == STRICT:
        return _split_cached(lam, ctx.m0, True, chain_k)
    raise ValueError(f"unknown split mode {mode!r}")


def conjugate_dual(lam: HCParam, ctx: LiftContext) -> HCParam:
    """The parameter with split data (-beta, -alpha, -delta, -gamma).

    Concretely: negate and reverse each part of lam, then add m0 back to
    every entry. This is an involution and fixes every invariant except
    for swapping the roles of the two parts of the splits.
    """
    return _conjugate_dual_m0(lam, ctx.m0)


@lru_cache(maxsize=None)
def _conjugate_dual_m0(lam: HCParam, m0: int) -> HCParam:
    tw_m0 = 2 * m0
    p_new = tuple(tw_m0 - t for t in reversed(lam.p_tw))
    q_new = tuple(tw_m0 - t for t in reversed(lam.q_tw))
    return HCParam.from_twices(lam.sig, p_new + q_new)


def make_regular_deformation(lam: HCParam, ctx: LiftContext, t: int) -> HCParam:
    """Push the split of lam apart by an integer t > 0.

    Adds t to every alpha and gamma position (the positive prefixes of
    lam - m0/2) and subtracts t from every beta and delta position. The
    result is again a valid parameter with the same split shape and the
    same packet sign character.
    """
    if isinstance(t, HalfInt):
        t = t.as_int()
    if not isinstance(t, int) or t < 1:
        raise PreconditionViolation(f"deformation step must be a positive integer, got {t}")
    sp = split_abgd(lam, ctx, LAX)
    step = 2 * t
    p_tw = tuple(v + step if i < sp.x else v - step for i, v in enumerate(lam.p_tw))
    q_tw = tuple(v + step if j < sp.z else v - step for j, v in enumerate(lam.q_tw))
    return HCParam.from_twices(lam.sig, p_tw + q_tw)
