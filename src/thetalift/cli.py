"""Command-line front end: single queries, enumeration, verification.

All output is UTF-8 JSON or JSONL on standard output, one record per
line, with a fixed key order and canonical half-integer rendering, so
runs are byte-for-byte reproducible. `invariants`, `ktype-map`, `verify`
and `enumerate` pass their records through one shared JSONEncoder. The
single queries `lift`, `occurs`, `packet` and `apacket` skip it: they
parse their half-integer flags straight to doubled ints and render each
line from the doubled ints with three renderers, of a parameter, a block
and a tower position, which write the bytes the encoder gives for the
same to_json() record.

`packet` and `apacket` build their rows from half-members (see the
packets module): each row is one low and one high half-member of the
character's values, in `apacket` of its values on e'_1, ..., e'_n, the
pair of rows that differ only in e'_0 sharing them. Per query: the
parameter is validated, the row count estimated and refused above
2^ROW_LIMIT_LOG2 rows unless --force is given, and the low run's
2^low half-members built, at most 2^10, with the JSON text of each
piece (the signs, the p-entries and q-entries or the unit blocks before
and after slot i0). Per high half-member, built once per 2^low rows:
the same, with its text. Per row: the packet's determinant identity
or the lift packet's tie rule, sign gate, big block and its seams, all
in the packets module, and the row's text put together from the two
halves' texts and, in `apacket`, the big block's. Each row is written
as soon as it is built, so the rows stream, and at most 2^10 + 1
half-members exist at any n.

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
import re
import sys
from typing import Sequence

from .core import (
    HCParam,
    HalfInt,
    LiftContext,
    Signature,
    _conjugate_dual_m0,
    _list_entries,
    _parse_twice,
    _parse_twices,
    half_text,
)
from .errors import InternalError, MalformedCharacter, ThetaLiftError
from .ktypes import KType, correspond_ktype
from .lifting import AQ_WEAKLY_FAIR, DISCRETE_SERIES, VANISHES, LiftResult, Triple, lift
from .nonvanishing import TowerPosition, _k0_for, c_count, invariants, occurs
from .packets import (
    MINUS,
    PLUS,
    AParameter,
    LParameter,
    _Members,
    _sigma_units_by_tail,
)
from .suites import EnumerationBounds, SUITES, iter_enumeration, run_suite


# Built once: json.dumps with separators= builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dump(record: dict) -> None:
    sys.stdout.write(_ENCODER.encode(record) + "\n")


# The JSON text of each sign value, as _ENCODER renders "+" and "-".
_SIGN_TEXT = {PLUS: _ENCODER.encode("+"), MINUS: _ENCODER.encode("-")}


# The renderers below write the text _ENCODER gives for a to_json()
# record, from the doubled ints. A half text such as "-7/2" holds no
# character that JSON escapes, so it is quoted as it is.
def _quoted(twice: int) -> str:
    """The JSON text of half_text(twice): '"-7/2"'."""
    return f'"{half_text(twice)}"'


def _param_text(lam: HCParam) -> str:
    """The JSON text of lam.to_json()."""
    p, q, tw = lam.sig.p, lam.sig.q, lam.entries_tw
    p_part = ",".join([_quoted(t) for t in tw[:p]])
    q_part = ",".join([_quoted(t) for t in tw[p:]])
    return f'{{"p":{p},"q":{q},"p_part":[{p_part}],"q_part":[{q_part}]}}'


def _block_text(p: int, q: int, lam_tw: int) -> str:
    """The JSON text of one block of AqLambdaData.to_json()."""
    return f'{{"p":{p},"q":{q},"lambda":"{half_text(lam_tw)}"}}'


def _position_text(pos: TowerPosition) -> str:
    """The JSON text of pos.to_json(); the reason is a free string, so it is encoded."""
    reason = "null" if pos.reason is None else _ENCODER.encode(pos.reason)
    swapped = "true" if pos.swapped else "false"
    return f'{{"l":{pos.l},"t":{pos.t},"swapped":{swapped},"reason":{reason}}}'


def _lift_text(result: LiftResult) -> str:
    """The JSON text of result.to_json().

    A result of a shape lift() never builds goes through to_json() and
    the encoder, so one without its parameter or blocks still raises
    InternalError.
    """
    kind = result.kind
    if kind == VANISHES and result.position is not None:
        return f'{{"status":"vanishes","position":{_position_text(result.position)}}}'
    if kind == DISCRETE_SERIES and result.param is not None:
        return f'{{"status":"nonzero","kind":"{kind}","param":{_param_text(result.param)}}}'
    if kind == AQ_WEAKLY_FAIR and result.aq is not None:
        blocks = ",".join([_block_text(*b) for b in result.aq.triples])
        return f'{{"status":"nonzero","kind":"{kind}","blocks":[{blocks}]}}'
    return _ENCODER.encode(result.to_json())


def _parse_lambda(args: argparse.Namespace) -> HCParam:
    entries_tw = _parse_twices(args.lam)
    return HCParam.from_twices(Signature(args.p, args.q), entries_tw)


def _context(args: argparse.Namespace, n: int, m: int) -> LiftContext:
    """The context of the exponent flags, which default to their dimensions' parity."""
    m0 = args.m0 if args.m0 is not None else m % 2
    n0 = args.n0 if args.n0 is not None else n % 2
    return LiftContext(m0, n0, n, m)


# argparse reads a value such as -1/2 as a flag unless it is attached with =.
_EQUALS_HINT = "a value that begins with a minus sign needs =, as in {}=-1/2"

# ASCII digits only: int() alone would also read '٣' as 3 and '1_0' as 10.
_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)


def _int_flag(text: str) -> int:
    """argparse's type= for every integer flag: an integer literal in ASCII digits."""
    if not _INT_RE.fullmatch(text.strip()):
        # type=int's message, so every bad integer gets the same usage error.
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_source_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=_int_flag, required=True)
    sp.add_argument("--q", type=_int_flag, required=True)
    sp.add_argument("--lambda", dest="lam", required=True, metavar="ENTRIES",
                    help="comma-separated half-integers, p-part then q-part; "
                    + _EQUALS_HINT.format("--lambda"))


def _add_target_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=_int_flag, required=True)
    sp.add_argument("--s", type=_int_flag, required=True)


def _add_exponent_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m0", type=_int_flag, default=None,
                    help="target twist exponent, default (r+s) mod 2")
    sp.add_argument("--n0", type=_int_flag, default=None,
                    help="source twist exponent, default (p+q) mod 2")


def cmd_lift(args: argparse.Namespace) -> int:
    lam = _parse_lambda(args)
    target = Signature(args.r, args.s)
    ctx = _context(args, lam.sig.n, target.n)
    sys.stdout.write(_lift_text(lift(lam, ctx, target)) + "\n")
    return 0


def cmd_occurs(args: argparse.Namespace) -> int:
    lam = _parse_lambda(args)
    target = Signature(args.r, args.s)
    ctx = _context(args, lam.sig.n, target.n)
    nonzero, pos = occurs(lam, ctx.m0, target)
    # The text _ENCODER gives for {"lambda": lam.to_json(), "m0": ...,
    # "target": [r, s], "occurs": ..., "position": pos.to_json()}.
    sys.stdout.write(
        f'{{"lambda":{_param_text(lam)},"m0":{ctx.m0},"target":[{target.p},{target.q}],'
        f'"occurs":{"true" if nonzero else "false"},"position":{_position_text(pos)}}}\n'
    )
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


# `packet` prints 2^n rows and `apacket` 2^(n+1). Above 2^ROW_LIMIT_LOG2
# rows, packet n > 20 and apacket n > 19, a query is refused unless it
# passes --force.
ROW_LIMIT_LOG2 = 20


def _rows_log2(command: str, n: int) -> int:
    """The base-2 logarithm of the rows `command` prints for a parameter of n values."""
    return n + 1 if command == "apacket" else n


def _check_row_budget(args: argparse.Namespace, command: str, n: int) -> None:
    """Refuse a query of more than 2^ROW_LIMIT_LOG2 rows unless it passes --force."""
    rows = _rows_log2(command, n)
    if rows > ROW_LIMIT_LOG2 and not getattr(args, "force", False):
        raise ValueError(
            f"{command} of rank {n} has 2^{rows} rows, above the limit "
            f"2^{ROW_LIMIT_LOG2}; pass --force"
        )


# The JSON text of each sign value followed by a comma. A half-member's
# texts end with a comma, so the texts of a low and a high half join by
# concatenation, less the last character.
_SIGN_COMMA = {v: text + "," for v, text in _SIGN_TEXT.items()}


def cmd_packet(args: argparse.Namespace) -> int:
    phi = LParameter.from_twices(_parse_twices(args.kappas))
    _check_row_budget(args, "packet", phi.n)
    kappa_comma = {t: _quoted(t) + "," for t in phi.kappa_tw}.__getitem__

    def render(part):
        """The signs, the p-entries and the q-entries of a half-member."""
        return (
            "".join([_SIGN_COMMA[v] for v in part.values]),
            "".join(map(kappa_comma, part.before)),
            "".join(map(kappa_comma, part.after)),
        )

    write = sys.stdout.write
    # One member at a time, each row the text _ENCODER gives for
    # {"eta": ..., "p": ..., "q": ..., "lambda": lam.to_json()}.
    for low, high, sig in _Members(phi).pairs(render):
        (low_signs, low_p, low_q), (high_signs, high_p, high_q) = low.text, high.text
        form = f'"p":{sig.p},"q":{sig.q}'
        write(
            f'{{"eta":[{(low_signs + high_signs)[:-1]}],{form},"lambda":{{{form},'
            f'"p_part":[{(low_p + high_p)[:-1]}],"q_part":[{(low_q + high_q)[:-1]}]}}}}\n'
        )
    return 0


class _BlockTexts(dict):
    """The JSON text of each (p, q, lam_tw) block of one query, rendered on first use."""

    def __missing__(self, block: Triple) -> str:
        text = self[block] = _block_text(*block)
        return text


def cmd_apacket(args: argparse.Namespace) -> int:
    mu_tw = _parse_twices(args.mus)
    mu0_tw = _parse_twice(args.mu0)
    target = Signature(args.r, args.s)
    phi_p = AParameter(mu_tw, mu0_tw, target.n)
    _check_row_budget(args, "apacket", phi_p.n)
    block_text = _BlockTexts()

    def render(part):
        """The signs, the blocks before slot i0 and the blocks after it of a half-member.

        The blocks after i0 each take their comma first, since the big
        block at i0 comes before them.
        """
        return (
            "".join([_SIGN_COMMA[v] for v in part.values]),
            "".join([block_text[b] + "," for b in part.before]),
            "".join(["," + block_text[b] for b in part.after]),
        )

    big_at = phi_p.i0 - 1
    write = sys.stdout.write
    # Each row is the text _ENCODER gives for {"eta": {"e0": ..., "signs":
    # [...]}, "status": ...}, with "blocks": sigma.to_json() when nonzero.
    # e'_0 varies fastest, so each pair of rows shares one tail.
    for low, high, units in _sigma_units_by_tail(phi_p, render):
        (low_signs, low_head, low_tail), (high_signs, high_head, high_tail) = low.text, high.text
        signs = (low_signs + high_signs)[:-1]
        before, after = low_head + high_head, low_tail + high_tail
        for e0 in (PLUS, MINUS):
            head = f'{{"eta":{{"e0":{_SIGN_TEXT[e0]},"signs":[{signs}]}},"status":'
            try:
                sigma = units.at(e0, target)
            except MalformedCharacter:
                write(head + '"invalid_character"}\n')
            else:
                if sigma is None:
                    write(head + '"zero"}\n')
                else:
                    big = block_text[sigma.triples[big_at]]
                    write(f'{head}"nonzero","blocks":[{before}{big}{after}]}}\n')
    return 0


def _parse_weights(text: str) -> tuple[int, ...]:
    entries = _list_entries(text)
    for v in entries:
        if not _INT_RE.fullmatch(v):
            raise ValueError(f"not an integer literal: {v!r}")
    return tuple([int(v) for v in entries])


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
    sp.add_argument("--m0", type=_int_flag, default=None,
                    help="twist exponent, default (n+k0) mod 2, which is n mod 2 "
                    "unless --k0 is -1")
    sp.add_argument("--k0", type=_int_flag, choices=(0, -1), default=None,
                    help="tower parity, default derived from m0")
    sp.add_argument("--dual", action="store_true", help="use the conjugate-dual orientation")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("packet", help="all members of a tempered packet")
    sp.add_argument("--kappas", required=True, metavar="ENTRIES",
                    help="comma-separated half-integers, strictly decreasing; "
                    + _EQUALS_HINT.format("--kappas"))
    sp.add_argument("--force", action="store_true",
                    help=f"print the 2^n rows even above the limit of 2^{ROW_LIMIT_LOG2} "
                    f"(n > {ROW_LIMIT_LOG2}), where the query otherwise exits 2")
    sp.set_defaults(func=cmd_packet)

    sp = sub.add_parser("apacket", help="all characters of a lift packet on one form")
    sp.add_argument("--mus", required=True, metavar="ENTRIES",
                    help="comma-separated half-integers, strictly decreasing; "
                    + _EQUALS_HINT.format("--mus"))
    sp.add_argument("--mu0", required=True,
                    help="one half-integer; " + _EQUALS_HINT.format("--mu0"))
    _add_target_flags(sp)
    sp.add_argument("--force", action="store_true",
                    help=f"print the 2^(n+1) rows even above the limit of "
                    f"2^{ROW_LIMIT_LOG2} (n > {ROW_LIMIT_LOG2 - 1}), where the query "
                    "otherwise exits 2")
    sp.set_defaults(func=cmd_apacket)

    sp = sub.add_parser("ktype-map", help="joint-harmonics K-type partner")
    sp.add_argument("--p", type=_int_flag, required=True)
    sp.add_argument("--q", type=_int_flag, required=True)
    sp.add_argument("--a", required=True, help="comma-separated integers, may be empty")
    sp.add_argument("--b", required=True, help="comma-separated integers, may be empty")
    _add_target_flags(sp)
    _add_exponent_flags(sp)
    sp.set_defaults(func=cmd_ktype_map)

    sp = sub.add_parser("verify", help="run one verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    sp.add_argument("--max-n", type=_int_flag, default=3)
    sp.add_argument("--height", default="7/2")
    sp.add_argument("--max-dm", type=_int_flag, default=4)
    sp.add_argument("--quiet", action="store_true",
                    help="skip the records of passing cases; each failing case "
                         "still prints its record before the summary line")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "enumerate", help="every lift decision in a window except at the size m = n"
    )
    sp.add_argument("--max-n", type=_int_flag, default=2)
    sp.add_argument("--height", default="5/2")
    sp.add_argument("--max-dm", type=_int_flag, default=4)
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
