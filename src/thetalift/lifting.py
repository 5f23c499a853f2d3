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

The public lift functions check their preconditions and decide
occurrence themselves. lift_up and lift_down have unchecked private
cores (_lift_up, _lift_down) for callers that have already decided that
the lift is nonzero, so occurrence is decided once per case. _LiftUp
splits _lift_up at the target form: its unit blocks depend only on the
parameter and the target size, so a caller that lifts one parameter to
every form of one size builds them once and adds the interval block
per form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import HCParam, HalfInt, LiftContext, STRICT, Signature, half_text, split_abgd
from .errors import (
    ChamberAmbiguous,
    InternalError,
    InternalWeaklyFairViolation,
    NotCompactLevi,
    NotGoodRange,
    PreconditionViolation,
    SignatureMismatch,
)
from .nonvanishing import occurs


@dataclass(frozen=True, slots=True, init=False)
class AqBlock:
    """One Levi block U(p_i, q_i) with its integer character value.

    lam_tw stores the value doubled; lam_i renders it as HalfInt.
    AqBlock(p_i, q_i, lam_i) takes a HalfInt or int value and
    from_twices(p_i, q_i, lam_tw) the doubled int.
    """

    p_i: int
    q_i: int
    lam_tw: int

    def __init__(self, p_i: int, q_i: int, lam_i: HalfInt | int) -> None:
        object.__setattr__(self, "p_i", p_i)
        object.__setattr__(self, "q_i", q_i)
        object.__setattr__(self, "lam_tw", HalfInt(lam_i).twice)
        self.__post_init__()

    @classmethod
    def from_twices(cls, p_i: int, q_i: int, lam_tw: int) -> "AqBlock":
        """The block with value lam_tw/2."""
        out = object.__new__(cls)
        object.__setattr__(out, "p_i", p_i)
        object.__setattr__(out, "q_i", q_i)
        object.__setattr__(out, "lam_tw", lam_tw)
        out.__post_init__()
        return out

    def __post_init__(self) -> None:
        if self.p_i < 0 or self.q_i < 0 or self.p_i + self.q_i < 1:
            raise ValueError(f"bad block signature ({self.p_i}, {self.q_i})")
        if self.lam_tw % 2:
            raise ValueError(f"block value {half_text(self.lam_tw)} must be an integer")

    @property
    def lam_i(self) -> HalfInt:
        return HalfInt.halves(self.lam_tw)

    @property
    def size(self) -> int:
        return self.p_i + self.q_i

    def to_json(self) -> dict:
        return {"p": self.p_i, "q": self.q_i, "lambda": half_text(self.lam_tw)}


@dataclass(frozen=True, slots=True)
class AqLambdaData:
    """Ordered Levi blocks of a weakly fair A_q(lam') on U(target).

    Block signatures sum to the target and consecutive values satisfy
    lam_i - lam_{i+1} >= -(size_i + size_{i+1})/2, the weakly fair
    bound; violating it here means a construction bug upstream.
    """

    target: Signature
    blocks: tuple[AqBlock, ...]

    def __post_init__(self) -> None:
        if sum(b.p_i for b in self.blocks) != self.target.p or sum(
            b.q_i for b in self.blocks
        ) != self.target.q:
            raise SignatureMismatch("block signatures do not sum to the target")
        for a, b in zip(self.blocks, self.blocks[1:]):
            if a.lam_tw - b.lam_tw < -(a.size + b.size):
                raise InternalWeaklyFairViolation(
                    f"blocks {a} then {b} leave the weakly fair range"
                )

    @property
    def in_good_range(self) -> bool:
        return all(
            a.lam_tw - b.lam_tw > -2 for a, b in zip(self.blocks, self.blocks[1:])
        )

    def to_json(self) -> list[dict]:
        return [b.to_json() for b in self.blocks]


VANISHES = "vanishes"
DISCRETE_SERIES = "discrete_series"
AQ_WEAKLY_FAIR = "aq_weakly_fair"


@dataclass(frozen=True, slots=True)
class LiftResult:
    """Outcome of a lift: zero, a discrete series, or an A_q(lam')."""

    kind: str
    param: HCParam | None = None
    aq: AqLambdaData | None = None

    @classmethod
    def vanishes(cls) -> "LiftResult":
        return cls(VANISHES)

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
            return {"status": "vanishes"}
        if self.kind == DISCRETE_SERIES:
            assert self.param is not None
            return {"status": "nonzero", "kind": self.kind, "param": self.param.to_json()}
        assert self.aq is not None
        return {"status": "nonzero", "kind": self.kind, "blocks": self.aq.to_json()}


def _require_dims(lam: HCParam, ctx: LiftContext, target: Signature) -> None:
    if lam.sig.n != ctx.source_dim:
        raise PreconditionViolation(
            f"parameter size {lam.sig.n} != context source_dim {ctx.source_dim}"
        )
    if target.n != ctx.target_dim:
        raise PreconditionViolation(
            f"target size {target.n} != context target_dim {ctx.target_dim}"
        )


def lift_up(lam: HCParam, ctx: LiftContext, target: Signature) -> AqLambdaData:
    """Lift to a target at least as large: weakly fair A_q(lam') data.

    Blocks come out in strictly descending order of the expanded
    dominance string: the merged positive split values, then one
    interval block of size m - n (omitted when m = n), then the merged
    nonpositive split values. Requires occurs() to be nonzero.
    """
    _require_dims(lam, ctx, target)
    n, m = ctx.source_dim, ctx.target_dim
    if m < n:
        raise PreconditionViolation(f"lift_up needs target at least as large, got m={m} < n={n}")
    nonzero, pos = occurs(lam, ctx.m0, target)
    if not nonzero:
        raise PreconditionViolation(f"lift of {lam} to {target} vanishes: {pos.reason}")
    return _lift_up(lam, ctx, target)


def _lift_up(lam: HCParam, ctx: LiftContext, target: Signature) -> AqLambdaData:
    """lift_up() without its checks, for a lift already known to be nonzero."""
    return _LiftUp(lam, ctx).at(target)


class _LiftUp:
    """lift_up() for one parameter and one target size, split at the form.

    The unit blocks depend only on the lax split and on (m, n0), so they
    are built once; at() adds the interval block for one target form,
    checks that the split fits it, and validates the result.
    """

    __slots__ = ("lam", "m0", "shape", "head", "tail", "interval_tw")

    def __init__(self, lam: HCParam, ctx: LiftContext) -> None:
        n, m = ctx.source_dim, ctx.target_dim
        sp = split_abgd(lam, ctx)
        alpha, beta, gamma, delta = sp.alpha_tw, sp.beta_tw, sp.gamma_tw, sp.delta_tw
        x, y, z, w = len(alpha), len(beta), len(gamma), len(delta)
        n0 = ctx.n0
        block = AqBlock.from_twices

        # Positive side: alpha entries become (1,0) blocks, gamma entries
        # (0,1) blocks, interleaved by descending split value.
        head: list[AqBlock] = []
        merged_pos = sorted(
            [(a, "a", i + 1) for i, a in enumerate(alpha)]
            + [(g, "g", k + 1) for k, g in enumerate(gamma)],
            key=lambda v: -v[0],
        )
        for tw, tag, idx in merged_pos:
            if tag == "a":
                cross = sum(1 for g in gamma if g > tw)
                val = tw - (m + 1) + 2 * idx + 2 * cross + n0
                head.append(block(1, 0, val))
            else:
                cross = sum(1 for a in alpha if a > tw)
                val = tw - (m + 1) + 2 * idx + 2 * cross + n0
                head.append(block(0, 1, val))

        tail: list[AqBlock] = []
        merged_neg = sorted(
            [(d, "d", l + 1) for l, d in enumerate(delta)]
            + [(b, "b", j + 1) for j, b in enumerate(beta)],
            key=lambda v: -v[0],
        )
        for tw, tag, idx in merged_neg:
            if tag == "d":
                cross = sum(1 for b in beta if b < tw)
                val = tw + (m - 1) + 2 * idx - 2 * w - 2 * cross + n0
                tail.append(block(1, 0, val))
            else:
                cross = sum(1 for d in delta if d < tw)
                val = tw + (m - 1) + 2 * idx - 2 * y - 2 * cross + n0
                tail.append(block(0, 1, val))

        self.lam = lam
        self.m0 = ctx.m0
        self.shape = (x, y, z, w)
        self.head = tuple(head)
        self.tail = tuple(tail)
        # The interval block of size m - n, omitted when m = n.
        self.interval_tw = 2 * (x + z) - n + n0 if m > n else None

    def at(self, target: Signature) -> AqLambdaData:
        """The lift to one form of the target size."""
        x, y, z, w = self.shape
        r, s = target.p, target.q
        if x + w > r or z + y > s:
            raise InternalError(
                f"split ({x},{y},{z},{w}) of {self.lam} at m0={self.m0} does not fit the "
                f"nonzero lift target {target}"
            )
        if self.interval_tw is None:
            return AqLambdaData(target, self.head + self.tail)
        interval = AqBlock.from_twices(r - x - w, s - z - y, self.interval_tw)
        return AqLambdaData(target, self.head + (interval,) + self.tail)


def lift_down(lam: HCParam, ctx: LiftContext, target: Signature) -> HCParam:
    """Lift to a target at most as large: a discrete series parameter.

    Deletes the centered chain of length n - m from the strict split and
    reassembles (alpha, delta | gamma, beta) + n0/2 on the target
    signature, which must equal (x + w, z + y).
    """
    _require_dims(lam, ctx, target)
    n, m = ctx.source_dim, ctx.target_dim
    if m > n:
        raise PreconditionViolation(f"lift_down needs target at most as large, got m={m} > n={n}")
    nonzero, pos = occurs(lam, ctx.m0, target)
    if not nonzero:
        raise PreconditionViolation(f"lift of {lam} to {target} vanishes: {pos.reason}")
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
    """Full decision: vanishes, discrete series, or weakly fair A_q."""
    _require_dims(lam, ctx, target)
    nonzero, _pos = occurs(lam, ctx.m0, target)
    if not nonzero:
        return LiftResult.vanishes()
    if ctx.target_dim <= ctx.source_dim:
        return LiftResult.discrete_series(_lift_down(lam, ctx, target))
    return LiftResult.weakly_fair(_lift_up(lam, ctx, target))


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
    for b in aq.blocks:
        vals.extend([b.lam_tw] * b.size)
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
    for b in aq.blocks:
        if b.p_i and b.q_i:
            raise NotCompactLevi(f"block ({b.p_i},{b.q_i}) is not compact")
    for a, b in zip(aq.blocks, aq.blocks[1:]):
        if a.lam_tw - b.lam_tw <= -2:
            raise NotGoodRange(
                f"values {half_text(a.lam_tw)} then {half_text(b.lam_tw)} "
                "are outside the good range"
            )

    # Expanded coordinates: (value, side, position), p-side first.
    p_coords: list[int] = []
    q_coords: list[int] = []
    for b in aq.blocks:
        if b.p_i:
            p_coords.extend([b.lam_tw] * b.p_i)
        else:
            q_coords.extend([b.lam_tw] * b.q_i)
    coords = [(v, 0, i) for i, v in enumerate(p_coords)] + [
        (v, 1, i) for i, v in enumerate(q_coords)
    ]

    mm = len(coords)
    rho_tw = [0] * mm
    for u in range(mm):
        vu, su, iu = coords[u]
        for v in range(u + 1, mm):
            vv, sv, iv = coords[v]
            if vu == vv:
                if su != sv:
                    raise ChamberAmbiguous(
                        f"value {half_text(vu)} repeats across both factors"
                    )
                first_u = iu < iv  # same side: earlier position dominates
            else:
                first_u = vu > vv
            if first_u:
                rho_tw[u] += 1
                rho_tw[v] -= 1
            else:
                rho_tw[u] -= 1
                rho_tw[v] += 1

    entries = tuple(coords[u][0] + rho_tw[u] for u in range(mm))
    # Construction guarantees a valid dominant parameter here; HCParam
    # validation is the safety net.
    return HCParam.from_twices(Signature(len(p_coords), len(q_coords)), entries)
