"""Half-integers as doubled ints, signatures, and Harish-Chandra parameters.

Everything downstream works with elements of (1/2)Z, stored as their
doubles: the value types (HCParam, ABGDSplit here, and the block and
packet types downstream) hold tuples of doubled ints in their *_tw
fields, and all arithmetic is exact integer arithmetic on them; floats
never appear. The value types are plain slotted classes, each with its
constructor written out; _Value and _Frozen here give them equality,
repr and, when frozen, the hash and immutability, so importing the
package loads no dataclasses machinery. Every value type but the
suites' SuiteSummary counter is a _Frozen, HalfInt included. HalfInt,
which holds twice the value, is the public type for parsing and
rendering only, with no arithmetic or ordering of its own. One parser,
_parse_twice, reads a literal ('3', '-7/2', ASCII digits only) straight
to its doubled int; HalfInt.parse and parse_half_list wrap it, and the
CLI calls it directly, so a CLI query builds no HalfInt. HCParam and
LParameter accept HalfInt values besides their from_twices
constructors, and raise TypeError for any other entry, and
HCParam.entries renders back to it. Every other value type has one
constructor, over its doubled ints. The validating constructors that
take ints read them through _ints, which stores a tuple and raises
TypeError, naming the constructor, for anything but an int, so a float
never reaches an answer.

A discrete series of U(p, q) is recorded by its Harish-Chandra parameter:
an n-tuple (n = p + q) of half-integers in Z + (n-1)/2, strictly
decreasing within the first p coordinates and within the last q, with no
entry repeated anywhere. HCParam validates all of that on construction.

The lift bookkeeping needs two normalization exponents m0 and n0 (the
exponents of the determinant twists on the two sides of a dual pair) and
the two member dimensions; LiftContext bundles them and enforces the
parity constraints m0 = target_dim and n0 = source_dim mod 2. Its
_check_sizes is the one check, for every public function that takes a
context, that a parameter's size and a target's are the context's.

Splitting conventions: for a parameter lam of U(p, q) and a context with
exponent m0, set lam0 = lam - m0/2 coordinatewise. The lax split sorts
the p-part of lam0 into its positive prefix alpha and nonpositive suffix
beta, and the q-part into gamma (positive) and delta (nonpositive). The
strict split first deletes a centered chain ((k-1)/2, (k-3)/2, ..., -(k-1)/2)
from whichever part contains it, then requires every remaining entry to
be nonzero. ABGDSplit holds the four runs and nothing else. One private
function, _split(lam, m0, strict, chain_k), computes every split:
split_abgd() checks its context and calls it, and the other modules call
it on the exponent alone. Splits and conjugate duals are recomputed on
every call, with no process-wide cache; callers that reuse one across
many targets keep it themselves.
"""

from __future__ import annotations

import re
from operator import attrgetter
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

# ASCII digits only: \d and int() alone would also read '٣' or '３' as 3.
_HALF_RE = re.compile(r"([+-]?\d+)(/2)?", re.ASCII)
_LIST_SEP = re.compile(r"\s*,\s*|\s+")


class _Value:
    """Base of the value types: fields in __slots__ order, compared and shown.

    Equality compares the fields of two values of the same class (any
    other class gets NotImplemented), and repr shows Name(field=value,
    ...). A _Value is mutable and unhashable, and its constructor
    assigns its fields as usual; only the suites' SuiteSummary counter
    is one. Every other value type is a _Frozen, which adds the hash of
    the fields' tuple and refuses assignment and deletion. Each type
    writes its own __init__.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        # The fields read in C, as a tuple, or the bare value of a single
        # field. attrgetter is no descriptor, so self._key is the getter.
        if cls.__slots__:
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"


class _Frozen(_Value):
    """A _Value that hashes and refuses assignment and deletion.

    Since assignment is refused, a constructor stores each field through
    the slot's own setter: _setters holds the C-level __set__ of each
    slot's member descriptor, in __slots__ order, bound once per class.
    The defining module unpacks them into names right after the class,
    _set_<field>, so that storing a field is one C call, without the
    name lookup that object.__setattr__ makes each time. pickle and copy
    restore the fields through __setstate__. A subclass may override
    equality and the hash, as HalfInt does to equal the int of its value.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __hash__(self) -> int:
        key = self._key(self)
        return hash(key if len(self.__slots__) > 1 else (key,))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # pickle and copy restore the slots here, as assignment is refused.
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class HalfInt(_Frozen):
    """An element of (1/2)Z stored exactly as its double.

    HalfInt(k) is the integer k; HalfInt.halves(t) is t/2. It parses,
    renders, compares equal to the int of the same value and hashes like
    it; it has no arithmetic or ordering, since all computation runs on
    the doubled ints in .twice. Both constructors test the exact type,
    as _ints does, so a bool is refused with the same TypeError as a
    float.

    >>> HalfInt.parse("-3/2").twice
    -3
    >>> str(HalfInt(2)), str(HalfInt.halves(5))
    ('2', '5/2')
    """

    __slots__ = ("twice",)

    def __init__(self, value: int = 0):
        if type(value) is not int:
            raise TypeError(f"HalfInt() takes an int, not {type(value).__name__}")
        _set_twice(self, 2 * value)

    @classmethod
    def halves(cls, twice: int) -> "HalfInt":
        """The half-integer twice/2."""
        if type(twice) is not int:
            raise TypeError("halves() takes an int")
        out = object.__new__(cls)
        _set_twice(out, twice)
        return out

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse 'a' or 'a/2' with a odd in the latter (lowest terms)."""
        return cls.halves(_parse_twice(text))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __hash__(self) -> int:
        # Integral values hash like the int they equal.
        if self.twice % 2 == 0:
            return hash(self.twice // 2)
        return hash((self.twice, "half"))

    def __str__(self) -> str:
        return half_text(self.twice)

    __repr__ = __str__


(_set_twice,) = HalfInt._setters


def half_text(twice: int) -> str:
    """The canonical text of twice/2, as str(HalfInt) renders it: '3', '-7/2'."""
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


def half(twice: int) -> HalfInt:
    """Shorthand constructor: half(t) == t/2."""
    return HalfInt.halves(twice)


def _halfint_twices(entries: Iterable[HalfInt], owner: str) -> tuple[int, ...]:
    """The doubled ints of the HalfInt entries given to owner's constructor."""
    entries = tuple(entries)
    for e in entries:
        if not isinstance(e, HalfInt):
            raise TypeError(
                f"{owner}() takes HalfInt entries, not {type(e).__name__}; "
                f"{owner}.from_twices takes doubled ints"
            )
    return tuple(e.twice for e in entries)


def _ints(values: Iterable[int], owner: str) -> tuple[int, ...]:
    """The ints given to owner's constructor, as a tuple; TypeError for any other value.

    The test is on the exact type, so a bool, which is an int subclass
    that renders as True or False, is refused as a float is.
    """
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{owner}() takes ints, not {type(v).__name__}")
    return values


def _list_entries(text: str) -> list[str]:
    """The entries of a comma- or space-separated list; '' has none.

    A comma may have spaces around it, but an entry may not be empty: a
    leading, trailing or doubled comma raises ValueError.
    """
    text = text.strip()
    if not text:
        return []
    entries = _LIST_SEP.split(text)
    if "" in entries:
        raise ValueError(f"empty entry in the list {text!r}")
    return entries


def _parse_twice(text: str) -> int:
    """Twice the value of the literal 'a' or 'a/2', a odd in the latter (lowest terms).

    The one parser of half-integer text: HalfInt.parse and
    parse_half_list wrap it, and the CLI calls it and _parse_twices
    directly, so a query holds doubled ints from its flags on.
    """
    m = _HALF_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not a half-integer literal: {text!r}")
    num = int(m.group(1))
    if not m.group(2):
        return 2 * num
    if num % 2 == 0:
        raise ValueError(f"not in lowest terms: {text!r}")
    return num


def _parse_twices(text: str) -> tuple[int, ...]:
    """The doubled values of a comma- or space-separated list of half-integer literals."""
    return tuple([_parse_twice(e) for e in _list_entries(text)])


def parse_half_list(text: str) -> tuple[HalfInt, ...]:
    """Parse a comma- or space-separated list of half-integer literals."""
    return tuple([HalfInt.halves(t) for t in _parse_twices(text)])


class Signature(_Frozen):
    """The signature (p, q) of a unitary group U(p, q)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        _ints((p, q), "Signature")
        _set_p(self, p)
        _set_q(self, q)
        if p < 0 or q < 0:
            raise ValueError(f"signature entries must be nonnegative: ({p}, {q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    def swapped(self) -> "Signature":
        return Signature(self.q, self.p)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


_set_p, _set_q = Signature._setters


def _parts_text(p_tw: tuple[int, ...], q_tw: tuple[int, ...]) -> str:
    """Two doubled parts as HCParam renders them: '(3/2 1/2 | -1/2)'."""
    left = " ".join(half_text(t) for t in p_tw)
    right = " ".join(half_text(t) for t in q_tw)
    return f"({left} | {right})"


def _check_class(values: tuple[int, ...], size: int, label: str = "") -> None:
    """Raise WrongParityClass unless every doubled value lies in Z + (size-1)/2.

    The one class test of HCParam, LParameter and AParameter; label
    prefixes the value in the message.
    """
    want = (size - 1) % 2
    for t in values:
        if t % 2 != want:
            raise WrongParityClass(f"{label}{half_text(t)} is not in Z + ({size}-1)/2")


def _check_strictly_decreasing(part: tuple[int, ...], label: str) -> None:
    for a, b in zip(part, part[1:]):
        if a <= b:
            raise NotDominant(
                f"{label} must strictly decrease: {half_text(a)} then {half_text(b)}"
            )


class HCParam(_Frozen):
    """Harish-Chandra parameter of a discrete series of U(p, q).

    entries_tw holds the doubled entries, the p-part followed by the
    q-part, and p_tw and q_tw slice it; entries renders it as HalfInt.
    Validity: every entry lies in Z + (n-1)/2, each part strictly
    decreases, and no value repeats across the whole tuple.

    HCParam(sig, entries) takes HalfInt entries and from_twices(sig, tw)
    the doubled ints; both validate through __post_init__, the one hook
    that perfbench/tracing.py wraps to count constructions. They guard
    input and claimed results: the CLI's parameters, and the results of
    lifting._lift_down and aq_to_discrete_series. A third route,
    _from_checked(sig, tw), stores the fields and validates nothing, for
    a tuple of doubled ints that is valid by construction:
    - packets._Members, each packet member: the entries of a validated
      LParameter, each part keeping its order;
    - suites.iter_params, each enumerated parameter: distinct values of
      the right parity, taken from a descending universe in order;
    - _deformation, the deformation lam+ of a valid lam: it moves the
      entries above m0/2 up and the others down by the same even step,
      so each part keeps its order and no two entries meet;
    - _conjugate_dual_m0, the conjugate dual of a valid lam: each part
      negated and reversed around m0, which keeps order and parity.
    It runs no __post_init__, so perfbench/tracing.py does not count
    what it builds.
    """

    __slots__ = ("sig", "entries_tw")

    def __init__(self, sig: Signature, entries: Iterable[HalfInt]) -> None:
        _set_sig(self, sig)
        _set_entries_tw(self, _halfint_twices(entries, "HCParam"))
        self.__post_init__()

    @classmethod
    def from_twices(cls, sig: Signature, entries_tw: tuple[int, ...]) -> "HCParam":
        """The parameter with entries entries_tw[i]/2."""
        out = object.__new__(cls)
        _set_sig(out, sig)
        _set_entries_tw(out, _ints(entries_tw, "HCParam.from_twices"))
        out.__post_init__()
        return out

    @classmethod
    def _from_checked(cls, sig: Signature, entries_tw: tuple[int, ...]) -> "HCParam":
        """The parameter for doubled entries that the caller has shown valid for sig."""
        out = object.__new__(cls)
        _set_sig(out, sig)
        _set_entries_tw(out, entries_tw)
        return out

    def __post_init__(self) -> None:
        tw = self.entries_tw
        n = self.sig.n
        if len(tw) != n:
            raise ValueError(f"expected {n} entries, got {len(tw)}")
        _check_class(tw, n, "entry ")
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
    def n(self) -> int:
        return self.sig.n

    def __str__(self) -> str:
        return _parts_text(self.p_tw, self.q_tw)

    @classmethod
    def parse(cls, text: str) -> "HCParam":
        """Parse '1 0 | 2' style notation (p-part, bar, q-part).

        One pair of surrounding parentheses is accepted, so str() output
        parses back to an equal parameter.
        """
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
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


_set_sig, _set_entries_tw = HCParam._setters


class LiftContext(_Frozen):
    """Normalization data for one direction of a dual-pair lift.

    m0 is the exponent of the determinant twist attached to the target
    (size-m) member, n0 the one attached to the source (size-n) member.
    Splits of a source parameter subtract m0/2; lifted parameters add
    n0/2. The reverse direction swaps the roles wholesale.
    """

    __slots__ = ("m0", "n0", "source_dim", "target_dim")

    def __init__(self, m0: int, n0: int, source_dim: int, target_dim: int) -> None:
        _ints((m0, n0, source_dim, target_dim), "LiftContext")
        _set_m0(self, m0)
        _set_n0(self, n0)
        _set_source_dim(self, source_dim)
        _set_target_dim(self, target_dim)
        if source_dim < 0 or target_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        if (m0 - target_dim) % 2 != 0:
            raise ParityMismatch(f"m0={m0} must match target_dim={target_dim} mod 2")
        if (n0 - source_dim) % 2 != 0:
            raise ParityMismatch(f"n0={n0} must match source_dim={source_dim} mod 2")

    @classmethod
    def minimal(cls, source_dim: int, target_dim: int) -> "LiftContext":
        """The context with the least nonnegative exponents."""
        return cls(target_dim % 2, source_dim % 2, source_dim, target_dim)

    def _check_sizes(self, source_n: int, target: Signature | None = None) -> None:
        """Raise PreconditionViolation unless source_n, and target's size if given, fit."""
        n, m = self.source_dim, self.target_dim
        if source_n != n:
            raise PreconditionViolation(f"source size {source_n} != context source_dim {n}")
        if target is not None and target.n != m:
            raise PreconditionViolation(f"target size {target.n} != context target_dim {m}")

    def reversed(self) -> "LiftContext":
        """The context seen from the other member of the pair."""
        return LiftContext(
            m0=self.n0,
            n0=self.m0,
            source_dim=self.target_dim,
            target_dim=self.source_dim,
        )


_set_m0, _set_n0, _set_source_dim, _set_target_dim = LiftContext._setters


LAX = "lax"
STRICT = "strict"


class ABGDSplit(_Frozen):
    """Positive/nonpositive split of lam - m0/2, with an optional chain.

    alpha_tw and beta_tw partition the (chain-stripped) p-part of lam0,
    doubled, into positive and nonpositive runs, gamma_tw and delta_tw
    the q-part; all four keep the ambient descending order. x, y, z, w
    are their lengths.
    """

    __slots__ = ("alpha_tw", "beta_tw", "gamma_tw", "delta_tw")

    def __init__(
        self,
        alpha_tw: tuple[int, ...],
        beta_tw: tuple[int, ...],
        gamma_tw: tuple[int, ...],
        delta_tw: tuple[int, ...],
    ) -> None:
        _set_alpha_tw(self, tuple(alpha_tw))
        _set_beta_tw(self, tuple(beta_tw))
        _set_gamma_tw(self, tuple(gamma_tw))
        _set_delta_tw(self, tuple(delta_tw))

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


_set_alpha_tw, _set_beta_tw, _set_gamma_tw, _set_delta_tw = ABGDSplit._setters


def _split_part(part_twices: tuple[int, ...], strict: bool, label: str):
    """Positive prefix / nonpositive suffix of one descending part."""
    cut = 0
    for t in part_twices:
        if t <= 0:
            break
        cut += 1
    rest = part_twices[cut:]
    # The part descends, so a zero can only head the nonpositive suffix.
    if strict and rest and rest[0] == 0:
        raise UnclassifiableZero(f"zero in {label} outside the removed chain")
    return part_twices[:cut], rest


def _split(lam: HCParam, m0: int, strict: bool, chain_k: int) -> ABGDSplit:
    """split_abgd() on the exponent alone, without the context checks.

    The centered chain of length chain_k, doubled k-1, k-3, ..., 1-k,
    is removed from whichever part holds all of it (none when chain_k
    is 0).
    """
    p_tw = tuple([t - m0 for t in lam.p_tw])
    q_tw = tuple([t - m0 for t in lam.q_tw])
    if chain_k:
        if chain_k < 0:
            raise PreconditionViolation(f"chain length must be positive, got {chain_k}")
        chain = set(range(1 - chain_k, chain_k, 2))
        if chain <= set(p_tw):
            p_tw = tuple(t for t in p_tw if t not in chain)
        elif chain <= set(q_tw):
            q_tw = tuple(t for t in q_tw if t not in chain)
        else:
            raise ChainNotPresent(
                f"no centered chain of length {chain_k} inside either part of "
                f"lam - m0/2 = {_parts_text(p_tw, q_tw)}"
            )
    alpha, beta = _split_part(p_tw, strict, "p-part")
    gamma, delta = _split_part(q_tw, strict, "q-part")
    return ABGDSplit(alpha, beta, gamma, delta)


def split_abgd(lam: HCParam, ctx: LiftContext, mode: str = LAX, chain_k: int = 0) -> ABGDSplit:
    """Split lam - m0/2 into alpha/beta/gamma/delta.

    mode is LAX (zeros land in beta or delta) or STRICT (a chain of
    length chain_k is removed first and any remaining zero raises
    UnclassifiableZero). chain_k must be 0 in lax mode.
    """
    ctx._check_sizes(lam.sig.n)
    if mode == LAX:
        if chain_k:
            raise PreconditionViolation("lax split takes no chain")
        return _split(lam, ctx.m0, False, 0)
    if mode == STRICT:
        return _split(lam, ctx.m0, True, chain_k)
    raise ValueError(f"unknown split mode {mode!r}")


def conjugate_dual(lam: HCParam, ctx: LiftContext) -> HCParam:
    """The parameter with split data (-beta, -alpha, -delta, -gamma).

    Concretely: negate and reverse each part of lam, then add m0 back to
    every entry. This is an involution and fixes every invariant except
    for swapping the roles of the two parts of the splits.
    """
    return _conjugate_dual_m0(lam, ctx.m0)


def _conjugate_dual_m0(lam: HCParam, m0: int) -> HCParam:
    """conjugate_dual() on the exponent alone; the dual of a valid lam is valid, unchecked."""
    tw_m0 = 2 * m0
    p_new = tuple([tw_m0 - t for t in reversed(lam.p_tw)])
    q_new = tuple([tw_m0 - t for t in reversed(lam.q_tw)])
    return HCParam._from_checked(lam.sig, p_new + q_new)


def make_regular_deformation(lam: HCParam, ctx: LiftContext, t: int) -> HCParam:
    """Push the split of lam apart by an integer t > 0.

    Adds t to every alpha and gamma position (the positive prefixes of
    lam - m0/2) and subtracts t from every beta and delta position. The
    result is again a valid parameter with the same split shape and the
    same packet sign character.
    """
    _check_step(t)
    sp = split_abgd(lam, ctx, LAX)
    return _deformation(lam, sp.x, sp.z, t)


def _check_step(t: int) -> None:
    """Raise PreconditionViolation unless the deformation step t is an int of at least 1.

    The test is on the exact type, as _ints makes it, so a bool is refused.
    """
    if type(t) is not int or t < 1:
        raise PreconditionViolation(f"deformation step must be a positive integer, got {t}")


def _deformation(lam: HCParam, x: int, z: int, t: int) -> HCParam:
    """make_regular_deformation() given the lax split's prefix lengths x and z, t unchecked.

    The result is stored unvalidated: for those x and z and any t > 0
    it is valid whenever lam is (see HCParam).
    """
    step = 2 * t
    p_tw, q_tw = lam.p_tw, lam.q_tw
    return HCParam._from_checked(
        lam.sig,
        tuple([v + step for v in p_tw[:x]] + [v - step for v in p_tw[x:]]
              + [v + step for v in q_tw[:z]] + [v - step for v in q_tw[z:]]),
    )
