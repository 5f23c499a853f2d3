"""Nonvanishing invariants and the occurrence decision for theta lifts.

For a parameter lam of U(p, q) and an exponent m0, the shifted tuple
lam0 = lam - m0/2 determines everything here. Write k0 = 0 when the
target dimension has the same parity as n = p + q and k0 = -1 otherwise.

k_lambda is the largest k >= 1 with k = k0 (mod 2) whose centered chain
(k-1)/2, ..., -(k-1)/2 sits inside a single part of lam0; if no such k
exists it is k0 itself. r_lambda and s_lambda are x + w and z + y of the
strict split with that chain removed: the signature of the first lift in
the relevant Witt tower.

X is the signed multiset of all entries of lam0, an entry from the
p-part carrying +1 and one from the q-part carrying -1. X_inf is the
stable residue of X under simultaneous deletion of adjacent cancelling
pairs: scan the surviving values in descending order and delete every
pair (xi_i, +1), (xi_{i+1}, -1) that is adjacent in the current order
with xi_i in alpha and xi_{i+1} in gamma, or xi_i in beta and xi_{i+1}
in delta (membership in the original strict split; chain values are
never deleted but do block adjacency). Iterate until nothing cancels.

c_count(inv, sign, t) counts the signed values of X_inf that land in the
window [0, t) after the affine shift xi -> (k_lambda - 1)/2 + sign * xi;
it vanishes for t <= 0. These counts, together with the coordinates
(l, t) of a target signature along the tower, decide occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    ABGDSplit,
    HCParam,
    HalfInt,
    Signature,
    _conjugate_dual_m0,
    _split_cached,
)
from .errors import InternalError, ParityMismatch, PreconditionViolation


@dataclass(frozen=True, slots=True)
class NVInvariants:
    """Tower invariants of one parameter at one exponent m0.

    X and X_inf are tuples of (value, sign) pairs in descending value
    order; sign is +1 or -1. X_tw and X_inf_tw store the doubled values,
    and X and X_inf render them as HalfInt.
    """

    k0: int
    k_lambda: int
    r_lambda: int
    s_lambda: int
    X_tw: tuple[tuple[int, int], ...]
    X_inf_tw: tuple[tuple[int, int], ...]
    split: ABGDSplit

    @property
    def X(self) -> tuple[tuple[HalfInt, int], ...]:
        return tuple((HalfInt.halves(t), s) for t, s in self.X_tw)

    @property
    def X_inf(self) -> tuple[tuple[HalfInt, int], ...]:
        return tuple((HalfInt.halves(t), s) for t, s in self.X_inf_tw)


@dataclass(frozen=True, slots=True)
class TowerPosition:
    """Coordinates of a target signature relative to the first lift.

    l counts the steps along the tower, t the extra full hyperbolic
    planes on top; swapped records whether the decision was made on the
    conjugate-dual parameter with the target transposed. reason is None
    when the lift occurs and names the failing condition otherwise.
    """

    l: int
    t: int
    swapped: bool
    reason: str | None = None


def _largest_chain(part_twices: frozenset[int], k0: int) -> int:
    """Largest k >= 1, k = k0 (mod 2), with the full chain inside the part."""
    k_best = 0
    k = 1 if k0 % 2 else 2
    while True:
        chain = range(k - 1, -k, -2)
        if all(t in part_twices for t in chain):
            k_best = k
            k += 2
        else:
            return k_best


@lru_cache(maxsize=None)
def invariants(lam: HCParam, m0: int, k0: int) -> NVInvariants:
    """All tower invariants of lam at exponent m0 and parity class k0.

    k0 must be 0 or -1 and satisfy m0 = n + k0 (mod 2), n the size of
    lam; otherwise ParityMismatch.
    """
    if k0 not in (0, -1):
        raise PreconditionViolation(f"k0 must be 0 or -1, got {k0}")
    n = lam.sig.n
    if (m0 - n - k0) % 2:
        raise ParityMismatch(f"m0={m0} inconsistent with n={n} and k0={k0}")

    p_tw = tuple(t - m0 for t in lam.p_tw)
    q_tw = tuple(t - m0 for t in lam.q_tw)

    k_p = _largest_chain(frozenset(p_tw), k0)
    k_q = _largest_chain(frozenset(q_tw), k0)
    # Entries are globally distinct, so at most one part holds a chain.
    if k_p and k_q:
        raise InternalError(f"chain found in both parts of {lam} - {m0}/2")
    k_lam = max(k_p, k_q) or k0

    chain_k = k_lam if k_lam >= 1 else 0
    sp = _split_cached(lam, m0, True, chain_k)
    r_lam = sp.x + sp.w
    s_lam = sp.z + sp.y

    X = tuple(
        sorted([(t, +1) for t in p_tw] + [(t, -1) for t in q_tw], key=lambda v: -v[0])
    )

    # Classify each doubled value for the cancellation rule. Chain values
    # stay unlabeled: they never cancel but still occupy their slot.
    cls: dict[int, str] = {}
    for grp, name in (
        (sp.alpha_tw, "a"), (sp.beta_tw, "b"), (sp.gamma_tw, "g"), (sp.delta_tw, "d")
    ):
        for t in grp:
            cls[t] = name
    work = list(X)
    while True:
        dead: set[int] = set()
        for i in range(len(work) - 1):
            if i in dead or i + 1 in dead:
                continue
            c1 = cls.get(work[i][0])
            c2 = cls.get(work[i + 1][0])
            if (c1 == "a" and c2 == "g") or (c1 == "b" and c2 == "d"):
                dead.add(i)
                dead.add(i + 1)
        if not dead:
            break
        work = [wv for i, wv in enumerate(work) if i not in dead]

    return NVInvariants(
        k0=k0,
        k_lambda=k_lam,
        r_lambda=r_lam,
        s_lambda=s_lam,
        X_tw=X,
        X_inf_tw=tuple(work),
        split=sp,
    )


def c_count(inv: NVInvariants, sign: int, t: int) -> int:
    """Number of sign-marked members of X_inf in the window of width t."""
    if sign not in (+1, -1):
        raise PreconditionViolation(f"sign must be +1 or -1, got {sign}")
    if t <= 0:
        return 0
    shift = inv.k_lambda - 1  # doubled value of (k_lambda - 1)/2
    total = 0
    for xi, s in inv.X_inf_tw:
        if s != sign:
            continue
        v = shift + sign * xi
        if 0 <= v < 2 * t:
            total += 1
    return total


def _k0_for(n: int, m: int) -> int:
    return 0 if (m - n) % 2 == 0 else -1


def occurs(lam: HCParam, m0: int, target: Signature) -> tuple[bool, TowerPosition]:
    """Decide whether the lift of lam to U(target) is nonzero.

    Returns (nonzero, position); position always carries the tower
    coordinates, with reason set when the answer is False. m0 must have
    the parity of target's dimension.
    """
    m = target.n
    if (m0 - m) % 2:
        raise ParityMismatch(f"m0={m0} must match target dimension {m} mod 2")
    k0 = _k0_for(lam.sig.n, m)
    inv = invariants(lam, m0, k0)

    swapped = False
    r, s = target.p, target.q
    if r - inv.r_lambda < s - inv.s_lambda:
        inv = invariants(_conjugate_dual_m0(lam, m0), m0, k0)
        r, s = s, r
        swapped = True

    l = s - inv.s_lambda
    d = r - inv.r_lambda - l
    if inv.k_lambda == -1:
        if d % 2 != 1:
            raise InternalError(
                f"step count parity broke for the odd tower of {lam} at m0={m0}, target {target}"
            )
        t = (d - 1) // 2
    else:
        if d % 2 != 0:
            raise InternalError(
                f"step count parity broke for the even tower of {lam} at m0={m0}, target {target}"
            )
        t = d // 2

    def no(reason: str) -> tuple[bool, TowerPosition]:
        return False, TowerPosition(l, t, swapped, reason)

    if l < 0:
        return no("below the first occurrence in its tower")
    if t < 0:
        return no("negative plane count")
    if t == 0:
        return True, TowerPosition(l, t, swapped)
    if l < max(inv.k_lambda, 0):
        return no("step count below the chain length")
    if c_count(inv, +1, l + t) > l:
        return no("positive window count exceeds the step count")
    if c_count(inv, -1, l + t) > l:
        return no("negative window count exceeds the step count")
    return True, TowerPosition(l, t, swapped)


def li_sufficient(lam: HCParam, m0: int, target: Signature) -> bool:
    """Sufficient (not necessary) nonvanishing test in the stable range.

    True when m >= n, the lax split fits inside the target (x + w <= r,
    z + y <= s), and every split value clears (m - n + 1)/2 in absolute
    value. Implies occurs() with both window counts zero.
    """
    m = target.n
    n = lam.sig.n
    if (m0 - m) % 2:
        raise ParityMismatch(f"m0={m0} must match target dimension {m} mod 2")
    if m < n:
        return False
    sp = _split_cached(lam, m0, False, 0)
    if sp.x + sp.w > target.p or sp.z + sp.y > target.q:
        return False
    bound = m - n + 1  # doubled value of (m - n + 1)/2
    if sp.alpha_tw and sp.alpha_tw[-1] < bound:
        return False
    if sp.beta_tw and -sp.beta_tw[0] < bound:
        return False
    if sp.gamma_tw and sp.gamma_tw[-1] < bound:
        return False
    if sp.delta_tw and -sp.delta_tw[0] < bound:
        return False
    return True


def first_occurrence(lam: HCParam, m0: int, k0: int) -> Signature:
    """Signature of the first nonzero lift in the k0 tower family."""
    inv = invariants(lam, m0, k0)
    return Signature(inv.r_lambda, inv.s_lambda)


def invariants_for_target(lam: HCParam, m0: int, target: Signature) -> NVInvariants:
    """invariants() with k0 inferred from the target dimension."""
    return invariants(lam, m0, _k0_for(lam.sig.n, target.n))
