"""Command-line front end: single queries, enumeration, verification.

All output is UTF-8 JSON or JSONL on standard output, one record per
line, with a fixed key order and canonical half-integer rendering, so
runs are byte-for-byte reproducible. Most records go through one shared
JSONEncoder. `packet` and `apacket` walk the characters as tuples of
values and build each member from state built once per query (the
packet's signatures and epsilons, the unit blocks shared by a pair of
rows). They put each row's text together from pieces rendered once per
query (the kappa texts, the block texts, the sign texts of a character's
tail) and write it as soon as its member is built, so their rows stream;
the bytes are those the encoder gives for the same record.

Exit codes: 0 when the query computed (vanishing included), 1 when a
verification suite found failures, 2 on input errors, 3 when an
internal-consistency check failed (a bug, not bad input), 141 (128 +
SIGPIPE) when the reader closed standard output early, as `thetalift
enumerate | head` does; that exit prints nothing. Errors print one line
on standard error, except the usage errors argparse finds itself, which
exit 2 with the usage text and an error line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .core import (
    HCParam,
    HalfInt,
    LiftContext,
    Signature,
    _conjugate_dual_m0,
    _list_entries,
    half_text,
    parse_half_list,
)
from .errors import InternalError, MalformedCharacter, ThetaLiftError
from .ktypes import KType, correspond_ktype
from .lifting import Triple, lift
from .nonvanishing import _k0_for, c_count, invariants, occurs
from .packets import (
    MINUS,
    PLUS,
    AParameter,
    LParameter,
    _characters,
    _Members,
    _SigmaUnits,
)
from .suites import EnumerationBounds, SUITES, iter_enumeration, run_suite


# Built once: json.dumps with separators= builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dump(record: dict) -> None:
    sys.stdout.write(_ENCODER.encode(record) + "\n")


# The JSON text of each sign value, as _ENCODER renders "+" and "-".
_SIGN_TEXT = {PLUS: _ENCODER.encode("+"), MINUS: _ENCODER.encode("-")}


def _parse_lambda(args: argparse.Namespace) -> HCParam:
    entries = parse_half_list(args.lam)
    return HCParam(Signature(args.p, args.q), entries)


def _context(args: argparse.Namespace, n: int, m: int) -> LiftContext:
    """The context of the exponent flags, which default to their dimensions' parity."""
    m0 = args.m0 if args.m0 is not None else m % 2
    n0 = args.n0 if args.n0 is not None else n % 2
    return LiftContext(m0, n0, n, m)


# argparse reads a value such as -1/2 as a flag unless it is attached with =.
_EQUALS_HINT = "a value that begins with a minus sign needs =, as in {}=-1/2"


def _add_source_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="ENTRIES",
                    help="comma-separated half-integers, p-part then q-part; "
                    + _EQUALS_HINT.format("--lambda"))


def _add_target_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)


def _add_exponent_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m0", type=int, default=None,
                    help="target twist exponent, default (r+s) mod 2")
    sp.add_argument("--n0", type=int, default=None,
                    help="source twist exponent, default (p+q) mod 2")


def cmd_lift(args: argparse.Namespace) -> int:
    lam = _parse_lambda(args)
    target = Signature(args.r, args.s)
    ctx = _context(args, lam.sig.n, target.n)
    result = lift(lam, ctx, target)
    _dump(result.to_json())
    return 0


def cmd_occurs(args: argparse.Namespace) -> int:
    lam = _parse_lambda(args)
    target = Signature(args.r, args.s)
    ctx = _context(args, lam.sig.n, target.n)
    nonzero, pos = occurs(lam, ctx.m0, target)
    _dump({
        "lambda": lam.to_json(),
        "m0": ctx.m0,
        "target": [target.p, target.q],
        "occurs": nonzero,
        "position": pos.to_json(),
    })
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    lam = _parse_lambda(args)
    n = lam.sig.n
    # The minimal exponent of the tower family, as suites.iter_params uses.
    m0 = args.m0 if args.m0 is not None else (n + (args.k0 or 0)) % 2
    k0 = args.k0 if args.k0 is not None else _k0_for(n, m0)
    if args.dual:
        lam = _conjugate_dual_m0(lam, m0)
    inv = invariants(lam, m0, k0)
    # X is lam - m0/2, an entry of the p-part marked + and one of the q-part -.
    X = sorted([(t - m0, "+") for t in lam.p_tw] + [(t - m0, "-") for t in lam.q_tw],
               reverse=True)
    _dump({
        "lambda": lam.to_json(),
        "m0": m0,
        "k0": k0,
        "dual": args.dual,
        "k_lambda": inv.k_lambda,
        "r_lambda": inv.r_lambda,
        "s_lambda": inv.s_lambda,
        "X": [[half_text(t), sg] for t, sg in X],
        "X_inf": [[half_text(t), "+" if sg > 0 else "-"] for t, sg in inv.X_inf_tw],
        "c_counts": [
            {"t": t, "plus": c_count(inv, +1, t), "minus": c_count(inv, -1, t)}
            for t in range(1, 11)
        ],
    })
    return 0


def cmd_packet(args: argparse.Namespace) -> int:
    kappas = parse_half_list(args.kappas)
    phi = LParameter(kappas)
    members = _Members(phi)
    kappa_text = {t: _ENCODER.encode(half_text(t)) for t in phi.kappa_tw}
    write = sys.stdout.write
    # One member at a time, each row the text _ENCODER gives for
    # {"eta": ..., "p": ..., "q": ..., "lambda": lam.to_json()}.
    for values in _characters(phi.n):
        sig, lam = members.at(values)
        p, q, tw = sig.p, sig.q, lam.entries_tw
        signs = ",".join([_SIGN_TEXT[v] for v in values])
        p_part = ",".join([kappa_text[t] for t in tw[:p]])
        q_part = ",".join([kappa_text[t] for t in tw[p:]])
        write(
            f'{{"eta":[{signs}],"p":{p},"q":{q},"lambda":'
            f'{{"p":{p},"q":{q},"p_part":[{p_part}],"q_part":[{q_part}]}}}}\n'
        )
    return 0


class _BlockTexts(dict):
    """The JSON text of each (p, q, lam_tw) block of one query, rendered on first use."""

    def __missing__(self, block: Triple) -> str:
        p, q, lam_tw = block
        text = self[block] = _ENCODER.encode({"p": p, "q": q, "lambda": half_text(lam_tw)})
        return text


def cmd_apacket(args: argparse.Namespace) -> int:
    mus = parse_half_list(args.mus)
    mu0 = HalfInt.parse(args.mu0)
    target = Signature(args.r, args.s)
    phi_p = AParameter(tuple(v.twice for v in mus), mu0.twice, target.n)
    block_text = _BlockTexts()
    write = sys.stdout.write
    # Each row is the text _ENCODER gives for {"eta": {"e0": ..., "signs":
    # [...]}, "status": ...}, with "blocks": sigma.to_json() when nonzero.
    for values in _characters(phi_p.n + 1):
        e0 = values[0]
        if e0 == PLUS:
            # e'_0 varies fastest, so each pair of rows shares the
            # values on e'_1, ..., e'_n and with them the unit blocks.
            units = _SigmaUnits(phi_p, values[1:])
            signs = ",".join([_SIGN_TEXT[v] for v in units.tail])
        head = f'{{"eta":{{"e0":{_SIGN_TEXT[e0]},"signs":[{signs}]}},"status":'
        try:
            sigma = units.at(e0, target)
        except MalformedCharacter:
            write(head + '"invalid_character"}\n')
        else:
            if sigma is None:
                write(head + '"zero"}\n')
            else:
                blocks = ",".join([block_text[b] for b in sigma.triples])
                write(f'{head}"nonzero","blocks":[{blocks}]}}\n')
    return 0


def _parse_weights(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in _list_entries(text))


def cmd_ktype_map(args: argparse.Namespace) -> int:
    sig = Signature(args.p, args.q)
    mu = KType(sig, _parse_weights(args.a), _parse_weights(args.b))
    target = Signature(args.r, args.s)
    ctx = _context(args, sig.n, target.n)
    partner = correspond_ktype(mu, ctx, target)
    _dump({
        "mu": mu.to_json(),
        "target": [target.p, target.q],
        "mu_prime": partner.to_json() if partner is not None else None,
    })
    return 0


def _bounds(args: argparse.Namespace) -> EnumerationBounds:
    return EnumerationBounds(
        max_n=args.max_n,
        max_m_minus_n=args.max_dm,
        height=HalfInt.parse(args.height),
    )


def cmd_verify(args: argparse.Namespace) -> int:
    summary = run_suite(args.suite, _bounds(args), emit=not args.quiet, sink=_dump)
    _dump({
        "suite": summary.name,
        "cases": summary.cases,
        "failures": summary.failures,
        "tags": dict(sorted(summary.tags.items())),
    })
    return 1 if summary.failures else 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    count = 0
    for record in iter_enumeration(_bounds(args)):
        count += 1
        _dump(record)
    _dump({"cases": count})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetalift",
        description="Exact theta lifts of discrete series of real unitary groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lift", help="compute one lift")
    _add_source_flags(sp)
    _add_target_flags(sp)
    _add_exponent_flags(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("occurs", help="decide nonvanishing only")
    _add_source_flags(sp)
    _add_target_flags(sp)
    _add_exponent_flags(sp)
    sp.set_defaults(func=cmd_occurs)

    sp = sub.add_parser("invariants", help="tower invariants and window counts")
    _add_source_flags(sp)
    sp.add_argument("--m0", type=int, default=None,
                    help="twist exponent, default (n+k0) mod 2, which is n mod 2 "
                    "unless --k0 is -1")
    sp.add_argument("--k0", type=int, choices=(0, -1), default=None,
                    help="tower parity, default derived from m0")
    sp.add_argument("--dual", action="store_true", help="use the conjugate-dual orientation")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("packet", help="all members of a tempered packet")
    sp.add_argument("--kappas", required=True, metavar="ENTRIES",
                    help="comma-separated half-integers, strictly decreasing; "
                    + _EQUALS_HINT.format("--kappas"))
    sp.set_defaults(func=cmd_packet)

    sp = sub.add_parser("apacket", help="all characters of a lift packet on one form")
    sp.add_argument("--mus", required=True, metavar="ENTRIES",
                    help="comma-separated half-integers, strictly decreasing; "
                    + _EQUALS_HINT.format("--mus"))
    sp.add_argument("--mu0", required=True,
                    help="one half-integer; " + _EQUALS_HINT.format("--mu0"))
    _add_target_flags(sp)
    sp.set_defaults(func=cmd_apacket)

    sp = sub.add_parser("ktype-map", help="joint-harmonics K-type partner")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", required=True, help="comma-separated integers, may be empty")
    sp.add_argument("--b", required=True, help="comma-separated integers, may be empty")
    _add_target_flags(sp)
    _add_exponent_flags(sp)
    sp.set_defaults(func=cmd_ktype_map)

    sp = sub.add_parser("verify", help="run one verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    sp.add_argument("--max-n", type=int, default=3)
    sp.add_argument("--height", default="7/2")
    sp.add_argument("--max-dm", type=int, default=4)
    sp.add_argument("--quiet", action="store_true",
                    help="summary line only, skip per-case records")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "enumerate", help="every lift decision in a window except at the size m = n"
    )
    sp.add_argument("--max-n", type=int, default=2)
    sp.add_argument("--height", default="5/2")
    sp.add_argument("--max-dm", type=int, default=4)
    sp.set_defaults(func=cmd_enumerate)

    # Before Python 3.13, argparse reads `--opt=--` as an empty list and
    # skips the option's type and choices; no option here takes a list,
    # so main() refuses one through the subcommand's own parser.
    for sp in sub.choices.values():
        sp.set_defaults(parser=sp)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(isinstance(value, list) for value in vars(args).values()):
        args.parser.error("an option's value may not be '--'")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (`thetalift enumerate | head`). Point
        # standard output at the null device so the flush at exit stays
        # quiet, and exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InternalError as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except (ThetaLiftError, ValueError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
