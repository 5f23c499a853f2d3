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

Nothing here is memoized. occurs() computes the invariants on every
call; a caller deciding many targets of one parameter holds a _Tower,
which computes the parameter's invariants once and the conjugate dual's
only when a target first needs the swapped orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def to_json(self) -> dict:
        return {"l": self.l, "t": self.t, "swapped": self.swapped, "reason": self.reason}


def _largest_chain(part_twices: tuple[int, ...], k0: int) -> int:
    """Largest k >= 1, k = k0 (mod 2), with the full chain inside the part.

    The chain of length k + 2 is the chain of length k plus its two new
    ends +-(k+1)/2, so lengths are tried upward, one pair of ends each.
    """
    k = 1 if k0 % 2 else 2
    while k - 1 in part_twices and 1 - k in part_twices:
        k += 2
    return max(k - 2, 0)


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

    p_tw = tuple([t - m0 for t in lam.p_tw])
    q_tw = tuple([t - m0 for t in lam.q_tw])

    k_p = _largest_chain(p_tw, k0)
    k_q = _largest_chain(q_tw, k0)
    # Entries are globally distinct, so at most one part holds a chain.
    if k_p and k_q:
        raise InternalError(f"chain found in both parts of {lam} - {m0}/2")
    k_lam = max(k_p, k_q) or k0

    chain_k = k_lam if k_lam >= 1 else 0
    sp = _split_cached(lam, m0, True, chain_k)
    r_lam = sp.x + sp.w
    s_lam = sp.z + sp.y

    # Entries are distinct, so the pairs sort by value alone.
    X = tuple(sorted([(t, +1) for t in p_tw] + [(t, -1) for t in q_tw], reverse=True))

    # Classify each doubled value for the cancellation rule. Chain values
    # stay unlabeled: they never cancel but still occupy their slot.
    cls: dict[int, str] = {}
    for grp, name in (
        (sp.alpha_tw, "a"), (sp.beta_tw, "b"), (sp.gamma_tw, "g"), (sp.delta_tw, "d")
    ):
        for t in grp:
            cls[t] = name
    # The deletions alpha-gamma and beta-delta never overlap (no class is
    # both a left and a right end), so the fixpoint is unique and one
    # stack pass reaches it: cancel each value against the survivor
    # directly above it.
    stack: list[tuple[tuple[int, int], str | None]] = []
    for v in X:
        c = cls.get(v[0])
        if stack and (c == "g" and stack[-1][1] == "a" or c == "d" and stack[-1][1] == "b"):
            stack.pop()
        else:
            stack.append((v, c))

    X_inf = tuple([v for v, _c in stack])
    return NVInvariants(k0, k_lam, r_lam, s_lam, X, X_inf, sp)


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


class _Tower:
    """The tower of one parameter at one exponent m0.

    Holds the parameter's invariants and, once a target first needs the
    swapped orientation, the conjugate dual's invariants, so deciding
    many targets of one parameter computes each at most once. A caller
    that already has the dual's invariants passes them in. occurs()
    builds one tower per call; the suites build one per parameter.
    """

    __slots__ = ("lam", "m0", "inv", "_dual_inv")

    def __init__(
        self, lam: HCParam, m0: int, inv: NVInvariants, dual_inv: NVInvariants | None = None
    ) -> None:
        self.lam = lam
        self.m0 = m0
        self.inv = inv
        self._dual_inv = dual_inv

    @property
    def dual_inv(self) -> NVInvariants:
        """Invariants of the conjugate dual, the swapped orientation."""
        if self._dual_inv is None:
            dual = _conjugate_dual_m0(self.lam, self.m0)
            self._dual_inv = invariants(dual, self.m0, self.inv.k0)
        return self._dual_inv

    def oriented(self, pos: TowerPosition) -> NVInvariants:
        """The invariants that decided the position: own or dual."""
        return self.dual_inv if pos.swapped else self.inv

    def position(self, target: Signature) -> tuple[bool, TowerPosition]:
        """occurs() for one target of the tower's parity class."""
        inv = self.inv
        swapped = False
        r, s = target.p, target.q
        if r - inv.r_lambda < s - inv.s_lambda:
            inv = self.dual_inv
            r, s = s, r
            swapped = True

        l = s - inv.s_lambda
        d = r - inv.r_lambda - l
        odd = inv.k_lambda == -1
        if d % 2 != odd:
            raise InternalError(
                f"step count parity broke for the {'odd' if odd else 'even'} tower of "
                f"{self.lam} at m0={self.m0}, target {target}"
            )
        t = (d - odd) // 2

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


def occurs(lam: HCParam, m0: int, target: Signature) -> tuple[bool, TowerPosition]:
    """Decide whether the lift of lam to U(target) is nonzero.

    Returns (nonzero, position); position always carries the tower
    coordinates, with reason set when the answer is False. m0 must have
    the parity of target's dimension.
    """
    m = target.n
    if (m0 - m) % 2:
        raise ParityMismatch(f"m0={m0} must match target dimension {m} mod 2")
    return _Tower(lam, m0, invariants(lam, m0, _k0_for(lam.sig.n, m))).position(target)


def li_sufficient(lam: HCParam, m0: int, target: Signature) -> bool:
    """Sufficient (not necessary) nonvanishing test in the stable range.

    True when m >= n, the lax split fits inside the target (x + w <= r,
    z + y <= s), and every split value clears (m - n + 1)/2 in absolute
    value. Implies occurs() with both window counts zero.
    """
    m = target.n
    if (m0 - m) % 2:
        raise ParityMismatch(f"m0={m0} must match target dimension {m} mod 2")
    return _li_fits(_split_cached(lam, m0, False, 0), lam.sig.n, target)


def _li_fits(sp: ABGDSplit, n: int, target: Signature) -> bool:
    """li_sufficient() on the lax split of a size-n parameter, unchecked."""
    m = target.n
    if m < n:
        return False
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
