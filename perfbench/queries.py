"""Seeded stream of independent single queries, answered by the package's CLI.

Each query is a kind plus string arguments, exactly what a user would type
after `thetalift <kind>`. answer() converts the flag strings as argparse
would and runs the package's own `thetalift.cli.cmd_<kind>` with standard
output captured, so a query goes through the CLI's parsing, computation
and JSON output, skipping only argparse itself. Every `MALFORMED_EVERY`-th
query is malformed and must be rejected with an input error.

No record of real query traffic exists, so the mix is an assumption: the
kinds take turns (an equal share each), lift and occurs go up or down with
equal odds, and rank and m - n are drawn uniformly. Inputs come from a
universe far larger than any enumeration window (rank up to 8, entries up
to 31/2 in absolute value), so the package's caches almost never hit.

check() verifies one answer from its JSON text by an independent route
through the public API; it runs after all answers, outside the timed
region, so any seed is checkable.
"""

from __future__ import annotations

import argparse
import io
import json
import random
from contextlib import redirect_stdout

import thetalift as tl
from thetalift import cli

KINDS = ("lift", "occurs", "invariants", "packet", "apacket", "ktype-map")
# Coprime to len(KINDS), so the malformed queries rotate through the kinds.
MALFORMED_EVERY = 17
MAX_RANK = 8
MAX_HEIGHT_TWICE = 31
MAX_DM = 8
# Packet queries emit 2^n (packet) or 2^(n+1) (apacket) rows, so their
# rank stays lower to keep one query the size a user would ask for.
MAX_PACKET_RANK = 6
MAX_APACKET_RANK = 5
MAX_WEIGHT = 6
INPUT_ERRORS = (tl.ThetaLiftError, ValueError)
# Flags that argparse converts with type=int; "dual" is a store_true flag.
INT_FLAGS = frozenset({"p", "q", "r", "s"})


def _half_text(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _entries(rng: random.Random, n: int, parity: int) -> list[int]:
    """n distinct doubled values of the given parity, |value| <= 31/2, descending."""
    universe = [t for t in range(-MAX_HEIGHT_TWICE, MAX_HEIGHT_TWICE + 1) if t % 2 == parity]
    return sorted(rng.sample(universe, n), reverse=True)


def _shift_half(text: str) -> str:
    """The literal moved by one half, into the other parity class."""
    num, _, den = text.partition("/")
    return _half_text((int(num) if den else 2 * int(num)) + 1)


def _source(rng: random.Random, n: int) -> dict[str, str]:
    values = _entries(rng, n, (n - 1) % 2)
    p = rng.randint(0, n)
    on_p = set(rng.sample(range(n), p))
    p_part = [v for i, v in enumerate(values) if i in on_p]
    q_part = [v for i, v in enumerate(values) if i not in on_p]
    return {
        "p": str(p),
        "q": str(n - p),
        "lam": ",".join(_half_text(t) for t in p_part + q_part),
    }


def _target(rng: random.Random, m: int) -> dict[str, str]:
    r = rng.randint(0, m)
    return {"r": str(r), "s": str(m - r)}


def _weights(rng: random.Random, size: int) -> str:
    values = sorted((rng.randint(-MAX_WEIGHT, MAX_WEIGHT) for _ in range(size)), reverse=True)
    return ",".join(str(v) for v in values)


def _well_formed(rng: random.Random, kind: str) -> dict[str, str]:
    if kind in ("lift", "occurs"):
        n = rng.randint(1, MAX_RANK)
        up = rng.random() < 0.5
        m = n + rng.randint(1, MAX_DM) if up else rng.randint(0, n - 1)
        return {**_source(rng, n), **_target(rng, m)}
    if kind == "invariants":
        n = rng.randint(1, MAX_RANK)
        args = _source(rng, n)
        args["dual"] = "1" if rng.random() < 0.5 else "0"
        return args
    if kind == "packet":
        n = rng.randint(1, MAX_PACKET_RANK)
        return {"kappas": ",".join(_half_text(t) for t in _entries(rng, n, (n - 1) % 2))}
    if kind == "apacket":
        n = rng.randint(1, MAX_APACKET_RANK)
        m = n + rng.randint(1, MAX_DM)
        mus = _entries(rng, n, (m - 1) % 2)
        mu0 = rng.choice([t for t in range(-MAX_HEIGHT_TWICE, MAX_HEIGHT_TWICE + 1) if t % 2 == n % 2])
        return {
            "mus": ",".join(_half_text(t) for t in mus),
            "mu0": _half_text(mu0),
            **_target(rng, m),
        }
    # ktype-map
    n = rng.randint(1, MAX_RANK)
    p = rng.randint(0, n)
    m = rng.randint(1, n + MAX_DM)
    return {
        "p": str(p),
        "q": str(n - p),
        "a": _weights(rng, p),
        "b": _weights(rng, n - p),
        **_target(rng, m),
    }


def _break(rng: random.Random, kind: str, args: dict[str, str]) -> dict[str, str]:
    """Corrupt one argument so that the query is an input error."""
    args = dict(args)
    if kind in ("lift", "occurs", "invariants"):
        entries = args["lam"].split(",")
        how = rng.randrange(5)
        if how == 0:
            args["lam"] = ",".join(entries + entries[-1:])  # one entry too many
        elif how == 1:
            args["lam"] = ",".join(["1/4"] + entries[1:])  # not a half-integer
        elif how == 2:
            args["lam"] = ",".join(["4/2"] + entries[1:])  # not in lowest terms
        elif how == 3:
            args["p"], args["q"] = "-1", str(len(entries) + 1)  # negative signature
        else:
            args["lam"] = ",".join(_shift_half(e) for e in entries)  # wrong parity class
    elif kind == "packet":
        kappas = args["kappas"].split(",")
        args["kappas"] = ",".join(kappas + kappas[:1])  # repeated, increasing value
    elif kind == "apacket":
        args["mu0"] = _shift_half(args["mu0"])  # wrong parity class
    else:
        args["a"] = args["a"] + ",0" if args["a"] else "0"  # one weight too many
    return args


def make_stream(seed: int, rep: int, count: int) -> list[tuple[str, dict[str, str], bool]]:
    """The rep-th batch of count queries for one seed: (kind, args, malformed)."""
    rng = random.Random(f"thetalift-queries/{seed}/{rep}")
    stream = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        args = _well_formed(rng, kind)
        malformed = i % MALFORMED_EVERY == MALFORMED_EVERY - 1
        if malformed:
            args = _break(rng, kind, args)
        stream.append((kind, args, malformed))
    return stream


def namespace(args: dict[str, str]) -> argparse.Namespace:
    """The flag strings converted as the CLI's argparse types convert them.

    The twist exponents take the CLI's defaults (None, derived from the
    dimensions inside the command).
    """
    ns = argparse.Namespace(m0=None, n0=None, k0=None)
    for flag, text in args.items():
        if flag in INT_FLAGS:
            setattr(ns, flag, int(text))
        elif flag == "dual":
            ns.dual = text == "1"
        else:
            setattr(ns, flag, text)
    return ns


def answer(kind: str, args: dict[str, str]):
    """One query through `thetalift.cli`: its JSONL text, or the input error raised."""
    # Looked up on each call, so that a tracer's wrapper is the one called.
    command = getattr(cli, "cmd_" + kind.replace("-", "_"))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = command(namespace(args))
    except INPUT_ERRORS as err:
        return err
    if code != 0:
        raise RuntimeError(f"cmd_{kind} returned exit code {code}")
    return out.getvalue()


def _hc(record: dict) -> tl.HCParam:
    """An HCParam back from its to_json() record."""
    entries = tl.parse_half_list(",".join(record["p_part"] + record["q_part"]))
    return tl.HCParam(tl.Signature(record["p"], record["q"]), entries)


def _source_of(args: dict[str, str]) -> tl.HCParam:
    return tl.HCParam(tl.Signature(int(args["p"]), int(args["q"])), tl.parse_half_list(args["lam"]))


def _target_of(args: dict[str, str]) -> tl.Signature:
    return tl.Signature(int(args["r"]), int(args["s"]))


def check(kind: str, args: dict[str, str], malformed: bool, outcome) -> str | None:
    """None when the outcome is right, else a one-line description."""
    if malformed:
        if isinstance(outcome, INPUT_ERRORS):
            return None
        return f"malformed {kind} query was accepted"
    if isinstance(outcome, BaseException):
        return f"{kind} query raised {type(outcome).__name__}: {outcome}"
    lines = [json.loads(line) for line in outcome.splitlines()]
    if kind != "packet" and kind != "apacket" and len(lines) != 1:
        return f"{kind} printed {len(lines)} records, not one"
    if kind == "lift":
        return _check_lift(args, lines[0])
    if kind == "occurs":
        lam, target = _source_of(args), _target_of(args)
        ctx = tl.LiftContext.minimal(lam.sig.n, target.n)
        dual, _ = tl.occurs(tl.conjugate_dual(lam, ctx), ctx.m0, target.swapped())
        if lines[0]["lambda"] != lam.to_json() or lines[0]["occurs"] is not dual:
            return "occurs disagrees with the conjugate dual on the transposed target"
        return None
    if kind == "invariants":
        record = lines[0]
        shown, m0, k0 = _hc(record["lambda"]), record["m0"], record["k0"]
        n = shown.sig.n
        ctx = tl.LiftContext(m0, n % 2, n, n if (n - m0) % 2 == 0 else n + 1)
        inv_d = tl.invariants(tl.conjugate_dual(shown, ctx), m0, k0)
        if (inv_d.k_lambda, inv_d.r_lambda, inv_d.s_lambda) != (
            record["k_lambda"], record["s_lambda"], record["r_lambda"]
        ):
            return "invariants of the conjugate dual do not swap (r, s)"
        return None
    if kind == "packet":
        phi = tl.LParameter(tl.parse_half_list(args["kappas"]))
        if len(lines) != 1 << phi.n:
            return "packet has the wrong number of members"
        for row in lines:
            lam = _hc(row["lambda"])
            eta = tl.SignCharacter.parse("".join(row["eta"]))
            if tl.eta_from_pi(lam) != (phi, eta) or (row["p"], row["q"]) != (lam.sig.p, lam.sig.q):
                return "packet member does not invert through eta_from_pi"
        return None
    if kind == "apacket":
        n = len(args["mus"].split(","))
        target = _target_of(args)
        if len(lines) != 1 << (n + 1):
            return "apacket has the wrong number of rows"
        seen = set()
        for row in lines:
            if row["status"] not in ("nonzero", "zero", "invalid_character"):
                return f"apacket row has status {row['status']!r}"
            if row["status"] != "nonzero":
                continue
            blocks = row["blocks"]
            key = json.dumps(blocks)
            if key in seen:
                return "an apacket member repeats another member"
            if (sum(b["p"] for b in blocks), sum(b["q"] for b in blocks)) != (target.p, target.q):
                return "an apacket member's blocks do not fill the target form"
            seen.add(key)
        return None
    # ktype-map
    record = lines[0]
    sig, target = tl.Signature(int(args["p"]), int(args["q"])), _target_of(args)
    mu = tl.KType(sig, *(tuple(int(v) for v in args[k].split(",") if v) for k in "ab"))
    if record["mu"] != mu.to_json():
        return "K-type echoed wrongly"
    if record["mu_prime"] is None:
        return None
    partner = tl.KType(target, tuple(record["mu_prime"]["a"]), tuple(record["mu_prime"]["b"]))
    ctx = tl.LiftContext.minimal(sig.n, target.n)
    if tl.correspond_ktype(partner, ctx.reversed(), sig) != mu:
        return "K-type partner does not round-trip"
    return None


def _check_lift(args: dict[str, str], record: dict) -> str | None:
    lam, target = _source_of(args), _target_of(args)
    ctx = tl.LiftContext.minimal(lam.sig.n, target.n)
    nonzero, _pos = tl.occurs(lam, ctx.m0, target)
    if nonzero != (record["status"] == "nonzero"):
        return "lift disagrees with occurs"
    if not nonzero:
        return None
    if ctx.target_dim > ctx.source_dim:
        phi_p, eta_p = tl.transfer_eta(lam, ctx, target)
        sigma = tl.sigma_from_eta_prime(phi_p, eta_p, target)
        if sigma is None or sigma.to_json() != record.get("blocks"):
            return "growth lift disagrees with the packet route"
        return None
    back = tl.lift_up(_hc(record["param"]), ctx.reversed(), lam.sig)
    want = sorted((e.twice for e in lam.entries), reverse=True)
    got = [e.twice for e in tl.aq_infinitesimal_character(back)]
    if want != got:
        return "lift down does not round-trip its infinitesimal character"
    return None
