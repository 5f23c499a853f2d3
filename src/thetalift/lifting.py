"""The lift itself: down to smaller groups, up to weakly fair induction data.

A lift target at most as large as the source receives a discrete series,
and lift_down produces its parameter by deleting a centered chain and
reassembling the strict split. A strictly larger target receives a
cohomologically induced module A_q(lam') attached to a theta-stable
parabolic with one-dimensional Levi blocks plus one interval block; the
result is recorded as AqLambdaData, an ordered list of (p_i, q_i, lam_i)
with integer lam_i, always in the weakly fair range.

aq_to_discrete_series resolves an AqLambdaData whose blocks are all
compact and in the good range back into the discrete series parameter it
induces to, choosing the dominant chamber from the expanded coordinate
string; a tie between coordinates on opposite compact factors leaves the
chamber undetermined and raises ChamberAmbiguous.

Both builders place each value by its rank, taken from one sort. In
lift_up (values doubled), the positive split values alpha and gamma
merge in descending order into (1,0) blocks for alpha and (0,1) blocks
for gamma, and the k-th largest (k from 1) gets tw - (m+1) + 2k + n0;
the nonpositive values delta and beta merge into (1,0) blocks for delta
and (0,1) blocks for beta, and a value with j merged values below it
gets tw + (m-1) - 2j + n0. The split values are distinct, so the ranks
are unique. In aq_to_discrete_series the coordinates sort by value,
then by side, then by position, and the one at rank k (from 0) of mm
adds rho = mm - 1 - 2k, its count of coordinates after minus before.

The public lift functions check their preconditions and decide
occurrence themselves. Callers that have already decided that the lift
is nonzero use the unchecked private halves, so occurrence is decided
once per case: _lift_down, and _LiftUp. Within one Witt tower (one
parameter and one exponent pair m0, n0) the unit blocks of lift_up are
the same at every target size m: only their doubled values move, the
head by -m and the tail by +m. So a caller that lifts one parameter to many
sizes builds one _LiftUp, which follows the size, and adds the interval
block per form with at().

AqLambdaData holds its blocks as doubled (p, q, lam_tw) int triples and
is always checked: each block has a nonempty signature and an integer
value, the block signatures sum to the target, and every seam (pair of
consecutive blocks) is in the weakly fair range. Its public constructor,
AqLambdaData(target, triples), runs all of these. The two builders run
each where its result can change. _LiftUp.__init__ checks
the unit blocks, the seams among the head blocks and among the tail
blocks, and sums their signatures, once per parameter: every size of a
tower has m = m0 (mod 2), so the shift keeps each value's parity and
each seam's difference. When the size is m = n there is no interval
block, and the one head/tail seam, which does move with m, is checked
once for that size. _LiftUp.at() checks per form only the interval
block, the sums and the two seams next to the interval block. Path B
does the same: packets._sigma_units checks the unit blocks of one tail
once per object, which serves every size of one parity,
packets._sigma_units_by_tail checks them once per apacket query, and
packets._SigmaUnits.at checks the big block per form. The checkers live
here, with the type whose invariants they are; _check_unit_blocks is the
one unit-block checker, which _LiftUp.__init__ and both path-B builders
call.
"""

from __future__ import annotations

from typing import Iterable

from .core import HCParam, HalfInt, LiftContext, STRICT, Signature, _Frozen, half_text, split_abgd
from .errors import (
    ChamberAmbiguous,
    InternalError,
    InternalWeaklyFairViolation,
    NotCompactLevi,
    NotGoodRange,
    PreconditionViolation,
    SignatureMismatch,
)
from .nonvanishing import TowerPosition, occurs


Triple = tuple[int, int, int]


def _check_block(p: int, q: int, lam_tw: int) -> None:
    """Raise ValueError unless (p, q) is a nonempty signature and lam_tw/2 an integer."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError(f"bad block signature ({p}, {q})")
    if lam_tw % 2:
        raise ValueError(f"block value {half_text(lam_tw)} must be an integer")


def _check_blocks(triples: tuple[Triple, ...]) -> tuple[int, int]:
    """Check every triple as _check_block does; return the sums of p and of q."""
    sum_p = sum_q = 0
    for p, q, lam_tw in triples:
        if p < 0 or q < 0 or p + q < 1 or lam_tw % 2:
            _check_block(p, q, lam_tw)
        sum_p += p
        sum_q += q
    return sum_p, sum_q


def _check_seams(triples: tuple[Triple, ...]) -> None:
    """Raise InternalWeaklyFairViolation at the first seam outside the weakly fair range."""
    for a, b in zip(triples, triples[1:]):
        if a[2] - b[2] < -(a[0] + a[1] + b[0] + b[1]):
            raise InternalWeaklyFairViolation(
                f"blocks ({a[0]}, {a[1]}, {half_text(a[2])}) then "
                f"({b[0]}, {b[1]}, {half_text(b[2])}) leave the weakly fair range"
            )


def _check_unit_blocks(head: tuple[Triple, ...], tail: tuple[Triple, ...]) -> tuple[int, int]:
    """Check the unit blocks head + tail and the seams within each; return the p and q sums.

    The one unit-block checker of both routes: _LiftUp's head and tail,
    and path B's unit blocks before and after slot i0.
    """
    sums = _check_blocks(head + tail)
    _check_seams(head)
    _check_seams(tail)
    return sums


def _check_sums(target: Signature, p: int, q: int) -> None:
    """Raise SignatureMismatch unless the block signatures sum to (p, q) = target."""
    if p != target.p or q != target.q:
        raise SignatureMismatch("block signatures do not sum to the target")


class AqLambdaData(_Frozen):
    """Ordered Levi blocks of a weakly fair A_q(lam') on U(target).

    Block signatures sum to the target and consecutive values satisfy
    lam_i - lam_{i+1} >= -(size_i + size_{i+1})/2, the weakly fair
    bound; violating it here means a construction bug upstream.

    triples holds the blocks as doubled (p_i, q_i, lam_tw) int triples,
    lam_tw = 2 lam_i. Equality and hashing compare the triples alone,
    which fix the target through the sum check.

    AqLambdaData(target, triples) checks that every entry is an int and
    not a bool (TypeError), every block (ValueError), the sums and every
    seam. The builders check their unit blocks and the seams among them
    once, all through _check_unit_blocks: _LiftUp per parameter,
    packets._sigma_units per path-B object and
    packets._sigma_units_by_tail per apacket query. Then _LiftUp.at
    and packets._SigmaUnits.at build each form with _spliced, which
    checks the interval or big block, the sums and the two seams next to
    that block.
    """

    __slots__ = ("target", "triples")

    def __init__(self, target: Signature, triples: Iterable[Triple]) -> None:
        triples = tuple((p, q, lam_tw) for p, q, lam_tw in triples)
        if not all(type(v) is int for block in triples for v in block):
            raise TypeError(f"block entries must be ints: {triples}")
        _check_sums(target, *_check_blocks(triples))
        _check_seams(triples)
        _set_target(self, target)
        _set_triples(self, triples)

    @classmethod
    def _from_checked(cls, target: Signature, triples: tuple[Triple, ...]) -> "AqLambdaData":
        """The data for triples whose blocks, sums and seams the caller has checked."""
        out = object.__new__(cls)
        _set_target(out, target)
        _set_triples(out, triples)
        return out

    @classmethod
    def _spliced(
        cls,
        target: Signature,
        head: tuple[Triple, ...],
        block: Triple,
        tail: tuple[Triple, ...],
        units_p: int,
        units_q: int,
    ) -> "AqLambdaData":
        """The data head + (block,) + tail, checking only what block adds.

        The caller has checked the blocks of head and tail and the seams
        within each, and passes their signature sums. This checks block,
        the sums and the seams on either side of block. Each test is
        inlined and, when it fails, hands over to the checker above that
        raises, so the exceptions and messages are the constructor's.
        """
        p, q, lam_tw = block
        if p < 0 or q < 0 or p + q < 1 or lam_tw % 2:
            _check_block(p, q, lam_tw)
        if units_p + p != target.p or units_q + q != target.q:
            _check_sums(target, units_p + p, units_q + q)
        size = p + q
        if head:
            a = head[-1]
            if a[2] - lam_tw < -(a[0] + a[1] + size):
                _check_seams((a, block))
        if tail:
            b = tail[0]
            if lam_tw - b[2] < -(size + b[0] + b[1]):
                _check_seams((block, b))
        return cls._from_checked(target, head + (block,) + tail)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AqLambdaData:
            return NotImplemented
        return self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    @property
    def in_good_range(self) -> bool:
        t = self.triples
        return all(a[2] - b[2] > -2 for a, b in zip(t, t[1:]))

    def to_json(self) -> list[dict]:
        return [{"p": p, "q": q, "lambda": half_text(tw)} for p, q, tw in self.triples]


_set_target, _set_triples = AqLambdaData._setters


VANISHES = "vanishes"
DISCRETE_SERIES = "discrete_series"
AQ_WEAKLY_FAIR = "aq_weakly_fair"


class LiftResult(_Frozen):
    """Outcome of a lift: zero, a discrete series, or an A_q(lam').

    position, when set, is where the occurrence decision placed the
    target in its tower; lift() sets it on a vanishing result, so the
    answer says which condition failed.
    """

    __slots__ = ("kind", "param", "aq", "position")

    def __init__(
        self,
        kind: str,
        param: HCParam | None = None,
        aq: AqLambdaData | None = None,
        position: TowerPosition | None = None,
    ) -> None:
        _set_kind(self, kind)
        _set_param(self, param)
        _set_aq(self, aq)
        _set_position(self, position)

    @classmethod
    def vanishes(cls, position: TowerPosition | None = None) -> "LiftResult":
        return cls(VANISHES, position=position)

    @classmethod
    def discrete_series(cls, param: HCParam) -> "LiftResult":
        return cls(DISCRETE_SERIES, param=param)

    @classmethod
    def weakly_fair(cls, aq: AqLambdaData) -> "LiftResult":
        return cls(AQ_WEAKLY_FAIR, aq=aq)

    @property
    def nonzero(self) -> bool:
        return self.kind != VANISHES

    def to_json(self) -> dict:
        if self.kind == VANISHES:
            if self.position is None:
                return {"status": "vanishes"}
            return {"status": "vanishes", "position": self.position.to_json()}
        if self.kind == DISCRETE_SERIES:
            if self.param is None:
                raise InternalError("discrete series lift result without a parameter")
            return {"status": "nonzero", "kind": self.kind, "param": self.param.to_json()}
        if self.aq is None:
            raise InternalError(f"{self.kind} lift result without block data")
        return {"status": "nonzero", "kind": self.kind, "blocks": self.aq.to_json()}


_set_kind, _set_param, _set_aq, _set_position = LiftResult._setters


def _refuse_vanishing(lam: HCParam, m0: int, target: Signature) -> None:
    """Raise PreconditionViolation, naming the failed condition, unless the lift occurs.

    The one refusal of lift_up, lift_down and verify_globalization.
    """
    nonzero, pos = occurs(lam, m0, target)
    if not nonzero:
        raise PreconditionViolation(f"lift of {lam} to {target} vanishes: {pos.reason}")


def lift_up(lam: HCParam, ctx: LiftContext, target: Signature) -> AqLambdaData:
    """Lift to a target at least as large: weakly fair A_q(lam') data.

    Blocks come out in strictly descending order of the expanded
    dominance string: the merged positive split values, then one
    interval block of size m - n (omitted when m = n), then the merged
    nonpositive split values. Requires occurs() to be nonzero.
    """
    ctx._check_sizes(lam.sig.n, target)
    n, m = ctx.source_dim, ctx.target_dim
    if m < n:
        raise PreconditionViolation(f"lift_up needs target at least as large, got m={m} < n={n}")
    _refuse_vanishing(lam, ctx.m0, target)
    return _LiftUp(lam, ctx).at(target)


class _LiftUp:
    """lift_up() for one parameter and exponent pair, split at the size and the form.

    The unit blocks depend only on the lax split and on (m, n0), and m
    only shifts their values, so they are built and checked once per
    parameter, with the seams between them and their signature sums.
    The object holds them at one size m, the size of the last target,
    and moves them when a target of another size comes: the doubled head
    values by -d and the tail values by +d for a size step d, which must
    be even. at() checks that the split fits one target form, adds the
    interval block and checks that block, the sums and its two seams.
    """

    __slots__ = ("lam", "m0", "n", "shape", "units_p", "units_q", "interval_tw", "m", "head", "tail")

    def __init__(self, lam: HCParam, ctx: LiftContext) -> None:
        n, m = ctx.source_dim, ctx.target_dim
        sp = split_abgd(lam, ctx)
        alpha, beta, gamma, delta = sp.alpha_tw, sp.beta_tw, sp.gamma_tw, sp.delta_tw
        x, y, z, w = len(alpha), len(beta), len(gamma), len(delta)
        n0 = ctx.n0

        # The rank rules of the module docstring: k counts the positive
        # values from the top (from 1), j the nonpositive ones from the bottom.
        pos = sorted([(a, 1, 0) for a in alpha] + [(g, 0, 1) for g in gamma], reverse=True)
        neg = sorted([(d, 1, 0) for d in delta] + [(b, 0, 1) for b in beta])

        self.lam = lam
        self.m0 = ctx.m0
        self.n = n
        self.shape = (x, y, z, w)
        head = tuple((p, q, tw - (m + 1) + 2 * k + n0) for k, (tw, p, q) in enumerate(pos, 1))
        tail = tuple((p, q, tw + (m - 1) - 2 * j + n0) for j, (tw, p, q) in enumerate(neg))[::-1]
        self.units_p, self.units_q = _check_unit_blocks(head, tail)
        # The interval block of size m - n sits between head and tail when m > n.
        self.interval_tw = 2 * (x + z) - n + n0
        self.m, self.head, self.tail = m, head, tail
        if m == n:
            _check_seams(head[-1:] + tail[:1])

    def _resize(self, m: int) -> None:
        """Move the unit blocks to size m; check the head/tail seam if m = n."""
        d = m - self.m
        if d % 2:
            raise InternalError(
                f"size {m} is outside the tower of {self.lam} at m0={self.m0}"
            )
        self.head = tuple((p, q, tw - d) for p, q, tw in self.head)
        self.tail = tuple((p, q, tw + d) for p, q, tw in self.tail)
        self.m = m
        if m == self.n:
            _check_seams(self.head[-1:] + self.tail[:1])

    def at(self, target: Signature) -> AqLambdaData:
        """The lift to one form of any size of the tower."""
        if target.n != self.m:
            self._resize(target.n)
        x, y, z, w = self.shape
        r, s = target.p, target.q
        if x + w > r or z + y > s:
            raise InternalError(
                f"split ({x},{y},{z},{w}) of {self.lam} at m0={self.m0} does not fit the "
                f"nonzero lift target {target}"
            )
        if self.m == self.n:
            _check_sums(target, self.units_p, self.units_q)
            return AqLambdaData._from_checked(target, self.head + self.tail)
        interval = (r - x - w, s - z - y, self.interval_tw)
        return AqLambdaData._spliced(
            target, self.head, interval, self.tail, self.units_p, self.units_q
        )


def lift_down(lam: HCParam, ctx: LiftContext, target: Signature) -> HCParam:
    """Lift to a target at most as large: a discrete series parameter.

    Deletes the centered chain of length n - m from the strict split and
    reassembles (alpha, delta | gamma, beta) + n0/2 on the target
    signature, which must equal (x + w, z + y).
    """
    ctx._check_sizes(lam.sig.n, target)
    n, m = ctx.source_dim, ctx.target_dim
    if m > n:
        raise PreconditionViolation(f"lift_down needs target at most as large, got m={m} > n={n}")
    _refuse_vanishing(lam, ctx.m0, target)
    return _lift_down(lam, ctx, target)


def _lift_down(lam: HCParam, ctx: LiftContext, target: Signature) -> HCParam:
    """lift_down() without its checks, for a lift already known to be nonzero."""
    sp = split_abgd(lam, ctx, STRICT, chain_k=ctx.source_dim - ctx.target_dim)
    if (sp.x + sp.w, sp.z + sp.y) != (target.p, target.q):
        raise SignatureMismatch(
            f"target {target} differs from the split signature "
            f"({sp.x + sp.w},{sp.z + sp.y})"
        )
    n0 = ctx.n0
    p_part = tuple(v + n0 for v in sp.alpha_tw + sp.delta_tw)
    q_part = tuple(v + n0 for v in sp.gamma_tw + sp.beta_tw)
    return HCParam.from_twices(target, p_part + q_part)


def lift(lam: HCParam, ctx: LiftContext, target: Signature) -> LiftResult:
    """Full decision: vanishes (with its tower position), discrete series, or weakly fair A_q."""
    ctx._check_sizes(lam.sig.n, target)
    nonzero, pos = occurs(lam, ctx.m0, target)
    if not nonzero:
        return LiftResult.vanishes(pos)
    if ctx.target_dim <= ctx.source_dim:
        return LiftResult.discrete_series(_lift_down(lam, ctx, target))
    return LiftResult.weakly_fair(_LiftUp(lam, ctx).at(target))


def aq_infinitesimal_character(aq: AqLambdaData) -> tuple[HalfInt, ...]:
    """Infinitesimal character as a descending multiset of half-integers.

    Expand each block value to size_i copies, then add the usual rho of
    the target group componentwise.
    """
    return tuple(HalfInt.halves(t) for t in _aq_infinitesimal_twices(aq))


def _aq_infinitesimal_twices(aq: AqLambdaData) -> tuple[int, ...]:
    """aq_infinitesimal_character(), doubled."""
    m = aq.target.n
    vals: list[int] = []
    for p, q, lam_tw in aq.triples:
        vals.extend([lam_tw] * (p + q))
    if len(vals) != m:
        raise InternalError(
            f"blocks {aq.to_json()} expand to {len(vals)} values, target {aq.target} has {m}"
        )
    out = [v + (m - 1 - 2 * i) for i, v in enumerate(vals)]
    return tuple(sorted(out, reverse=True))


def aq_to_discrete_series(aq: AqLambdaData) -> HCParam:
    """Resolve compact-block, good-range A_q(lam') data to its parameter.

    Every block must have p_i = 0 or q_i = 0 (NotCompactLevi) and the
    values must be in the good range (NotGoodRange). The coordinates of
    the expanded value string are ordered by value, same-side ties by
    position; a cross-side tie raises ChamberAmbiguous. Adding the
    half-sum of the resulting positive system yields the parameter.
    """
    triples = aq.triples
    for p, q, _ in triples:
        if p and q:
            raise NotCompactLevi(f"block ({p},{q}) is not compact")
    for a, b in zip(triples, triples[1:]):
        if a[2] - b[2] <= -2:
            raise NotGoodRange(
                f"values {half_text(a[2])} then {half_text(b[2])} are outside the good range"
            )

    # Expanded coordinates, p-side first, ranked by value and then index,
    # so equal values sit next to each other.
    p_coords: list[int] = []
    q_coords: list[int] = []
    for p, q, lam_tw in triples:
        if p:
            p_coords.extend([lam_tw] * p)
        else:
            q_coords.extend([lam_tw] * q)
    coords = p_coords + q_coords
    p, mm = len(p_coords), len(coords)
    order = sorted(range(mm), key=lambda u: (-coords[u], u))
    for u, v in zip(order, order[1:]):
        if coords[u] == coords[v] and u < p <= v:
            raise ChamberAmbiguous(f"value {half_text(coords[u])} repeats across both factors")

    # rho at rank k is (coordinates after) - (coordinates before) = mm - 1 - 2k.
    entries = [0] * mm
    for k, u in enumerate(order):
        entries[u] = coords[u] + mm - 1 - 2 * k
    # Construction guarantees a valid dominant parameter here; HCParam
    # validation is the safety net.
    return HCParam.from_twices(Signature(p, mm - p), tuple(entries))
