"""Exhaustive verification suites over bounded parameter grids.

Every identity the package relies on is re-checked here by brute
enumeration: the two independent routes to a lift, the round trip
through a smaller group, duality and persistence of nonvanishing, the
sufficiency bound, the equivalence of the two sign-gate formulas, the
packet bijections, the globalization shadow, and the K-type round trip.

Suites are generators yielding (ok, tag, record) triples; record is
None unless emit is set or the case failed, so the acceptance tests can
consume millions of cases without building JSON. Enumeration order is
fixed: sizes ascend, the even-distance family precedes the odd one,
entry sets run in lexicographic order over the descending value
universe, and part assignments count up in binary. Deterministic
output follows from deterministic iteration.

tally() is the one loop that counts a case stream's cases, failures and
tags. run_suite() feeds it a suite from the SUITES registry at given
bounds; the acceptance gate feeds it suite_ktypes directly, whose
(max_run, height) grid is not an EnumerationBounds window and so stays
out of the registry.

No suite relies on a cache. The enumeration suites loop parameter,
then target size m, then target form (r, s), and do each piece of work
at the loop level it depends on:
- per run, the table of target signatures, each built once;
- per parameter, the tower invariants, in a tower object that decides
  occurrence for all of its targets, once per case, as a plain tuple;
  and, at its first nonzero target, path A (_LiftUp) and path B
  (_Transfer, _SigmaUnits), whose unit blocks follow the size;
- per size, at its first nonzero target, the globalization shadow's
  deformation with its character, its lax split and its path B unit
  blocks, since the deformation step grows with m;
- per form, the interval or big block, the e'_0 sign and the checks.
So a vanishing case costs only its decision. That state is dropped
when the loop moves on, so memory stays flat however large the window.
Each suite calls the unchecked private halves (_LiftUp, _Transfer,
_SigmaUnits, _Globalization) rather than the public functions, which
would decide occurrence again and rebuild the shared parts per call;
the two derivation routes stay separate objects, each the other's
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .core import (
    HCParam,
    HalfInt,
    LiftContext,
    Signature,
    _conjugate_dual_m0,
    _split_cached,
    half_text,
)
from .errors import (
    ChamberAmbiguous,
    InternalError,
    MalformedCharacter,
    NotCompactLevi,
    NotGoodRange,
)
from .ktypes import KType, _extract_pattern, _half_shift, correspond_ktype
from .lifting import (
    LiftResult,
    _aq_infinitesimal_twices,
    _lift_down,
    _LiftUp,
    aq_to_discrete_series,
    lift_up,
)
from .nonvanishing import TowerPosition, _li_fits, _Tower, c_count, invariants
from .packets import (
    AParameter,
    LParameter,
    SignCharacter,
    _SigmaUnits,
    eta_from_pi,
    eta_prime_sign_ok,
    pi_from_eta,
)
from .transfer import _Globalization, _Transfer

Case = tuple[bool, str, dict | None]


@dataclass(frozen=True, slots=True)
class EnumerationBounds:
    """Finite enumeration window: sizes, tower distance, entry height."""

    max_n: int
    max_m_minus_n: int
    height: HalfInt

    def __post_init__(self) -> None:
        if self.max_n < 1 or self.max_m_minus_n < 1 or self.height.twice < 1:
            raise ValueError("bounds must be positive")


def _value_universe(height_twice: int, parity: int) -> list[int]:
    """Doubled values t with |t| <= height_twice and t = parity (mod 2), descending."""
    return [t for t in range(height_twice, -height_twice - 1, -1) if t % 2 == parity]


def iter_params(bounds: EnumerationBounds) -> Iterator[tuple[HCParam, int, int, int]]:
    """All valid parameters in the window: (lam, k0, m0, n0).

    Both tower families are enumerated: k0 = 0 (targets of the same
    parity as n) with minimal m0 = n mod 2, and k0 = -1 with the other
    parity. The height bound applies to the shifted entries lam - m0/2.
    """
    for n in range(1, bounds.max_n + 1):
        n0 = n % 2
        for k0 in (0, -1):
            m0 = (n + k0) % 2
            universe = _value_universe(bounds.height.twice, (k0 - 1) % 2)
            for combo in itertools.combinations(universe, n):
                for mask in range(1 << n):
                    p_tw = [combo[i] for i in range(n) if not (mask >> i) & 1]
                    q_tw = [combo[i] for i in range(n) if (mask >> i) & 1]
                    lam = HCParam.from_twices(
                        Signature(len(p_tw), len(q_tw)),
                        tuple(t + m0 for t in p_tw + q_tw),
                    )
                    yield lam, k0, m0, n0


def _up_sizes(n: int, m0: int, max_dm: int) -> list[int]:
    """Target sizes above n of the parity of m0, ascending."""
    return [m for m in range(n + 1, n + max_dm + 1) if (m - m0) % 2 == 0]


def _down_sizes(n: int, m0: int) -> list[int]:
    """Target sizes below n of the parity of m0, descending."""
    return [m for m in range(n - 1, -1, -1) if (m - m0) % 2 == 0]


def _forms_table(bounds: EnumerationBounds) -> list[tuple[Signature, ...]]:
    """Every signature of each size a run reaches; entry m is (0, m), ..., (m, 0).

    Sizes go up to two above the largest up target, the step that
    persistence takes. Each suite run builds one and drops it at its end.
    """
    top = bounds.max_n + bounds.max_m_minus_n + 2
    return [tuple(Signature(r, m - r) for r in range(m + 1)) for m in range(top + 1)]


def _up_targets(forms: list, n: int, m0: int, max_dm: int) -> Iterator[Signature]:
    for m in _up_sizes(n, m0, max_dm):
        yield from forms[m]


def _down_targets(forms: list, n: int, m0: int) -> Iterator[Signature]:
    for m in _down_sizes(n, m0):
        yield from forms[m]


def _ctx(lam: HCParam, m0: int, n0: int, m: int) -> LiftContext:
    return LiftContext(m0=m0, n0=n0, source_dim=lam.sig.n, target_dim=m)


def _sig_json(sig: Signature) -> list[int]:
    return [sig.p, sig.q]


def suite_two_path(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """Lift route versus packet-transfer route, block for block."""
    forms = _forms_table(bounds)
    for lam, k0, m0, n0 in iter_params(bounds):
        tower = _Tower(lam, m0, invariants(lam, m0, k0))
        up = None
        for m in _up_sizes(lam.sig.n, m0, bounds.max_m_minus_n):
            for target in forms[m]:
                if tower.decide(target)[3] is not None:
                    yield True, "vanishing", None
                    continue
                if up is None:
                    ctx = _ctx(lam, m0, n0, m)
                    up, transfer = _LiftUp(lam, ctx), _Transfer(lam, ctx)
                    sigma = _SigmaUnits(transfer.phi_p, transfer.tail)
                path_a = up.at(target)
                path_b = sigma.at(transfer.e0_at(target), target)
                equal = path_b is not None and path_a == path_b
                record = None
                if emit or not equal:
                    record = {
                        "suite": "two_path",
                        "lambda": lam.to_json(),
                        "m0": m0,
                        "n0": n0,
                        "target": _sig_json(target),
                        "path_a": path_a.to_json(),
                        "path_b": path_b.to_json() if path_b is not None else None,
                        "equal": equal,
                    }
                yield equal, "nonzero", record


def suite_round_trip(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """Lift down, lift back up, compare characters and parameters."""
    forms = _forms_table(bounds)
    for lam, k0, m0, n0 in iter_params(bounds):
        tower = _Tower(lam, m0, invariants(lam, m0, k0))
        for target in _down_targets(forms, lam.sig.n, m0):
            if tower.decide(target)[3] is not None:
                yield True, "vanishing", None
                continue
            ctx = _ctx(lam, m0, n0, target.n)
            sigma = _lift_down(lam, ctx, target)
            # The reverse lift's occurrence is part of what is checked,
            # so it goes through the public, checking lift_up.
            back = lift_up(sigma, ctx.reversed(), lam.sig)
            want = tuple(sorted(lam.entries_tw, reverse=True))
            got = _aq_infinitesimal_twices(back)
            inf_ok = want == got
            ds_status = "match"
            ds_ok = True
            try:
                resolved = aq_to_discrete_series(back)
                ds_ok = resolved == lam
                if not ds_ok:
                    ds_status = "wrong_parameter"
            except ChamberAmbiguous:
                ds_status = "chamber_ambiguous"
            except NotCompactLevi:
                ds_status = "not_compact"
            except NotGoodRange:
                ds_status = "not_good_range"
            ok = inf_ok and ds_ok
            record = None
            if emit or not ok:
                record = {
                    "suite": "round_trip",
                    "lambda": lam.to_json(),
                    "m0": m0,
                    "target": _sig_json(target),
                    "sigma": sigma.to_json(),
                    "inf_char_ok": inf_ok,
                    "ds_status": ds_status,
                }
            yield ok, ds_status, record


def suite_duality(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """Conjugate-dual invariants and occurrence symmetry."""
    forms = _forms_table(bounds)
    for lam, k0, m0, _n0 in iter_params(bounds):
        n = lam.sig.n
        dual = _conjugate_dual_m0(lam, m0)
        involution_ok = _conjugate_dual_m0(dual, m0) == lam
        inv = invariants(lam, m0, k0)
        inv_d = invariants(dual, m0, k0)
        # dual is lam's conjugate dual, and lam is dual's whenever the
        # involution holds, so each tower takes the other's invariants.
        tower = _Tower(lam, m0, inv, inv_d)
        tower_d = _Tower(dual, m0, inv_d, inv if involution_ok else None)
        k_ok = inv_d.k_lambda == inv.k_lambda
        rs_ok = (inv_d.r_lambda, inv_d.s_lambda) == (inv.s_lambda, inv.r_lambda)
        occ_ok = True
        for target in _up_targets(forms, n, m0, bounds.max_m_minus_n):
            # forms[m][q] is the transposed target (q, p).
            a = tower.decide(target)[3] is None
            b = tower_d.decide(forms[target.n][target.q])[3] is None
            if a != b:
                occ_ok = False
                break
        ok = involution_ok and k_ok and rs_ok and occ_ok
        record = None
        if emit or not ok:
            record = {
                "suite": "duality",
                "lambda": lam.to_json(),
                "m0": m0,
                "dual": dual.to_json(),
                "involution_ok": involution_ok,
                "k_ok": k_ok,
                "rs_swap_ok": rs_ok,
                "occurs_match": occ_ok,
            }
        yield ok, "checked", record


def suite_persistence(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """Nonvanishing persists one step up the tower."""
    forms = _forms_table(bounds)
    for lam, k0, m0, _n0 in iter_params(bounds):
        tower = _Tower(lam, m0, invariants(lam, m0, k0))
        for target in _up_targets(forms, lam.sig.n, m0, bounds.max_m_minus_n):
            if tower.decide(target)[3] is not None:
                yield True, "vanishing", None
                continue
            # forms[m + 2][p + 1] is the target one step up, (p + 1, q + 1).
            up = tower.decide(forms[target.n + 2][target.p + 1])[3] is None
            record = None
            if emit or not up:
                record = {
                    "suite": "persistence",
                    "lambda": lam.to_json(),
                    "m0": m0,
                    "target": _sig_json(target),
                    "ok": up,
                }
            yield up, "nonzero", record


def suite_li(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """The sufficiency bound implies occurrence with empty windows."""
    forms = _forms_table(bounds)
    for lam, k0, m0, _n0 in iter_params(bounds):
        n = lam.sig.n
        split = _split_cached(lam, m0, False, 0)
        tower = None
        for target in _up_targets(forms, n, m0, bounds.max_m_minus_n):
            if not _li_fits(split, n, target):
                yield True, "not_sufficient", None
                continue
            # The invariants are computed only once a target is sufficient.
            if tower is None:
                tower = _Tower(lam, m0, invariants(lam, m0, k0))
            l, t, swapped, reason = tower.decide(target)
            nonzero = reason is None
            inv = tower.dual_inv if swapped else tower.inv
            window = l + t
            counts_zero = (
                c_count(inv, +1, window) == 0 and c_count(inv, -1, window) == 0
            )
            ok = nonzero and counts_zero
            record = None
            if emit or not ok:
                record = {
                    "suite": "li",
                    "lambda": lam.to_json(),
                    "m0": m0,
                    "target": _sig_json(target),
                    "occurs": nonzero,
                    "counts_zero": counts_zero,
                }
            yield ok, "sufficient", record


def suite_eta_prime(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """Closed form versus product form of the sign gate, exhaustively.

    The gate depends on the parameter only through (n, m, i0) and the
    tie flag, so the full character-by-target verdict table is computed
    once per class and reused; every enumerated parameter is still
    checked against its class verdict.
    """
    class_ok: dict[tuple[int, int, int, bool], tuple[int, int]] = {}
    H = bounds.height.twice
    for n in range(1, bounds.max_n + 1):
        for dm in range(1, bounds.max_m_minus_n + 1):
            m = n + dm
            mu_univ = _value_universe(H, (m - 1) % 2)
            mu0_univ = _value_universe(H, n % 2)
            for mus in itertools.combinations(mu_univ, n):
                for mu0 in mu0_univ:
                    phi_p = AParameter.from_twices(mus, mu0, m)
                    key = (n, m, phi_p.i0, phi_p.tie_at_i0)
                    if key not in class_ok:
                        checked = 0
                        skipped = 0
                        for eta_p in SignCharacter.every(n + 1):
                            if phi_p.tie_at_i0 and eta_p.values[0] != eta_p.values[phi_p.i0]:
                                # The coupled constraint must reject these.
                                try:
                                    eta_prime_sign_ok(phi_p, eta_p, Signature(m, 0))
                                except MalformedCharacter:
                                    skipped += 1
                                    continue
                                raise InternalError(
                                    f"tie constraint not enforced at (n, m, i0) = "
                                    f"({n}, {m}, {phi_p.i0}) for character {eta_p}"
                                )
                            for r in range(m + 1):
                                # Raises InternalLemmaMismatch on any split.
                                eta_prime_sign_ok(phi_p, eta_p, Signature(r, m - r))
                                checked += 1
                        class_ok[key] = (checked, skipped)
                    checked, skipped = class_ok[key]
                    record = None
                    if emit:
                        record = {
                            "suite": "eta_prime",
                            "mu": [half_text(t) for t in mus],
                            "mu0": half_text(mu0),
                            "m": m,
                            "i0": phi_p.i0,
                            "checks": checked,
                            "tie_skipped": skipped,
                            "ok": True,
                        }
                    yield True, "checked", record


def suite_packets(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """pi_from_eta and eta_from_pi are mutually inverse, all characters."""
    for n in range(1, bounds.max_n + 1):
        universe = _value_universe(bounds.height.twice, (n - 1) % 2)
        for combo in itertools.combinations(universe, n):
            phi = LParameter.from_twices(combo)
            all_ok = True
            for eta in SignCharacter.every(n):
                sig, lam = pi_from_eta(phi, eta)
                phi_back, eta_back = eta_from_pi(lam)
                if phi_back != phi or eta_back != eta or sig != lam.sig:
                    all_ok = False
                    break
            record = None
            if emit or not all_ok:
                record = {
                    "suite": "packets",
                    "kappa": [half_text(t) for t in combo],
                    "members": 1 << n,
                    "ok": all_ok,
                }
            yield all_ok, "checked", record


def suite_globalization(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """Deformation shadow holds at every nonzero lift in the window."""
    forms = _forms_table(bounds)
    for lam, k0, m0, n0 in iter_params(bounds):
        n = lam.sig.n
        tower = _Tower(lam, m0, invariants(lam, m0, k0))
        path_a = None
        for m in _up_sizes(n, m0, bounds.max_m_minus_n):
            shadow = None
            for target in forms[m]:
                if tower.decide(target)[3] is not None:
                    yield True, "vanishing", None
                    continue
                if shadow is None:
                    ctx = _ctx(lam, m0, n0, m)
                    if path_a is None:
                        path_a, source = _LiftUp(lam, ctx), eta_from_pi(lam)
                    t = (m - n) // 2 + 2  # ceil((m-n+1)/2) + 1
                    shadow = _Globalization(lam, ctx, t, path_a, source)
                report = shadow.at(target)
                record = None
                if emit or not report.passed:
                    record = {
                        "suite": "globalization",
                        "lambda": lam.to_json(),
                        "m0": m0,
                        "target": _sig_json(target),
                        "t": report.t,
                        "report": report.to_json(),
                    }
                yield report.passed, "nonzero", record


def _weight_runs(length: int, height: int, positive: bool) -> list[tuple[int, ...]]:
    values = range(height, 0, -1) if positive else range(-1, -height - 1, -1)
    return [
        tuple(run)
        for run in itertools.combinations_with_replacement(values, length)
    ]


def suite_ktypes(emit: bool = True, max_run: int = 2, height: int = 3) -> Iterator[Case]:
    """K-type correspondence round trip, injectivity, r - s dependence."""
    runs_pos = {k: _weight_runs(k, height, True) for k in range(max_run + 1)}
    runs_neg = {k: _weight_runs(k, height, False) for k in range(max_run + 1)}
    # Injectivity bookkeeping spans all weights sharing one (p,q,r,s).
    seen: dict[tuple, dict[tuple, KType]] = {}
    for x, y, z, w in itertools.product(range(max_run + 1), repeat=4):
        for a in runs_pos[x]:
            for b in runs_neg[y]:
                for c in runs_pos[z]:
                    for d in runs_neg[w]:
                        for pad_p, pad_q in itertools.product((0, 1), repeat=2):
                            p, q = x + y + pad_p, z + w + pad_q
                            if p + q == 0:
                                continue
                            for er, es in itertools.product((0, 1), repeat=2):
                                r, s = x + w + er, z + y + es
                                if r + s == 0:
                                    continue
                                group = seen.setdefault((p, q, r, s), {})
                                yield from _ktype_case(
                                    a, b, c, d, p, q, r, s, group, emit
                                )


def _ktype_case(a, b, c, d, p, q, r, s, seen, emit) -> Iterator[Case]:
    m0, n0 = (r + s) % 2, (p + q) % 2
    sh_a = (r - s + m0) // 2
    sh_b = (s - r + m0) // 2
    mu = KType(
        Signature(p, q),
        tuple(v + sh_a for v in a) + (sh_a,) * (p - len(a) - len(b)) + tuple(v + sh_a for v in b),
        tuple(v + sh_b for v in c) + (sh_b,) * (q - len(c) - len(d)) + tuple(v + sh_b for v in d),
    )
    ctx = LiftContext(m0, n0, p + q, r + s)
    target = Signature(r, s)
    mu_prime = correspond_ktype(mu, ctx, target)
    if mu_prime is None:
        yield False, "missing", {
            "suite": "ktypes",
            "mu": mu.to_json(),
            "target": _sig_json(target),
            "ok": False,
            "why": "expected a partner inside capacity",
        }
        return
    back = correspond_ktype(mu_prime, ctx.reversed(), Signature(p, q))
    round_ok = back == mu

    # Injectivity within this (p,q,r,s) group: one partner per weight.
    inj_key = (mu_prime.a_weights, mu_prime.b_weights)
    prior = seen.get(inj_key)
    inj_ok = prior is None or prior == mu
    seen[inj_key] = mu

    # Same pattern, target pushed up the tower: partner differs only in
    # zero padding (the r - s dependence).
    ctx2 = LiftContext(m0, n0, p + q, r + s + 2)
    mu2 = correspond_ktype(mu, ctx2, Signature(r + 1, s + 1))
    sh_p, sh_q = _half_shift(p - q, n0), _half_shift(q - p, n0)
    pad_ok = mu2 is not None and (
        _extract_pattern(mu2, sh_p, sh_q) == _extract_pattern(mu_prime, sh_p, sh_q)
    )

    ok = round_ok and inj_ok and pad_ok
    record = None
    if emit or not ok:
        record = {
            "suite": "ktypes",
            "mu": mu.to_json(),
            "target": _sig_json(target),
            "mu_prime": mu_prime.to_json(),
            "round_trip_ok": round_ok,
            "injective_ok": inj_ok,
            "padding_ok": pad_ok,
        }
    yield ok, "checked", record


SUITES: dict[str, Callable[..., Iterator[Case]]] = {
    "two_path": suite_two_path,
    "round_trip": suite_round_trip,
    "duality": suite_duality,
    "persistence": suite_persistence,
    "li": suite_li,
    "eta_prime": suite_eta_prime,
    "packets": suite_packets,
    "globalization": suite_globalization,
}


@dataclass
class SuiteSummary:
    """Counts from one suite run."""

    name: str
    cases: int = 0
    failures: int = 0
    tags: dict[str, int] = field(default_factory=dict)


def run_suite(
    name: str,
    bounds: EnumerationBounds,
    emit: bool = False,
    sink: Callable[[dict], None] | None = None,
) -> SuiteSummary:
    """Drive one registered suite at the given bounds, counting cases and failures."""
    return tally(name, SUITES[name](bounds, emit), sink)


def tally(
    name: str, cases: Iterable[Case], sink: Callable[[dict], None] | None = None
) -> SuiteSummary:
    """Count the cases, failures and tags of any case stream; pass records to sink."""
    summary = SuiteSummary(name)
    for ok, tag, record in cases:
        summary.cases += 1
        summary.tags[tag] = summary.tags.get(tag, 0) + 1
        if not ok:
            summary.failures += 1
        if sink is not None and record is not None:
            sink(record)
    return summary


def iter_enumeration(bounds: EnumerationBounds) -> Iterator[dict]:
    """Every lift decision in the window, as JSON-ready records."""
    forms = _forms_table(bounds)
    for lam, k0, m0, n0 in iter_params(bounds):
        n = lam.sig.n
        tower = _Tower(lam, m0, invariants(lam, m0, k0))
        up = None
        for m in _down_sizes(n, m0) + _up_sizes(n, m0, bounds.max_m_minus_n):
            for target in forms[m]:
                pos = tower.decide(target)
                nonzero = pos[3] is None
                if not nonzero:
                    result = LiftResult.vanishes()
                elif m < n:
                    ctx = _ctx(lam, m0, n0, m)
                    result = LiftResult.discrete_series(_lift_down(lam, ctx, target))
                else:
                    if up is None:
                        up = _LiftUp(lam, _ctx(lam, m0, n0, m))
                    result = LiftResult.weakly_fair(up.at(target))
                yield {
                    "lambda": lam.to_json(),
                    "m0": m0,
                    "n0": n0,
                    "target": _sig_json(target),
                    "occurs": nonzero,
                    "position": TowerPosition(*pos).to_json(),
                    "result": result.to_json(),
                }
