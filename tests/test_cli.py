"""End-to-end tests for the command-line front end.

Most tests drive cli.main(argv) directly and read captured stdout, so the
assertions cover argument parsing, JSON rendering, and exit codes in one
pass; the packet grids and row properties call the cmd_* functions
themselves. The closed-pipe test runs the CLI as a child process, since
only a real pipe can close early; the packet streaming test stands in a
stdout whose second write fails.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetalift
from thetalift import SUITES, InternalLemmaMismatch, cli, packets
from thetalift.core import half_text


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def out_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def _stdout_of(command, args):
    """What one cmd_* function writes, for tests that cannot use capsys."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert command(args) == 0
    return out.getvalue()


def _lowest_free_fd():
    probe = os.open(os.devnull, os.O_RDONLY)
    os.close(probe)
    return probe


def _draw_doubled(data, n, parity):
    """n distinct doubled values of one parity, |value| <= 31/2, descending."""
    universe = [t for t in range(-31, 32) if t % 2 == parity]
    values = data.draw(st.lists(st.sampled_from(universe), min_size=n, max_size=n, unique=True))
    return tuple(sorted(values, reverse=True))


def _encoded(record):
    """The line the CLI prints for record through its shared encoder."""
    return cli._ENCODER.encode(record) + "\n"


def _packet_text(kappa_tw):
    """What `packet` prints, from the public objects: one record per character."""
    phi = thetalift.LParameter.from_twices(kappa_tw)
    lines = []
    for eta in thetalift.SignCharacter.every(phi.n):
        sig, lam = thetalift.pi_from_eta(phi, eta)
        record = {"eta": eta.as_strings(), "p": sig.p, "q": sig.q, "lambda": lam.to_json()}
        lines.append(_encoded(record))
    return "".join(lines)


def _apacket_text(mu_tw, mu0_tw, m, r, statuses=None):
    """What `apacket` prints, from the public objects; counts each row's status in statuses."""
    phi_p = thetalift.AParameter(mu_tw, mu0_tw, m)
    target = thetalift.Signature(r, m - r)
    lines = []
    for eta_p in thetalift.SignCharacter.every(phi_p.n + 1):
        signs = eta_p.as_strings()
        record = {"eta": {"e0": signs[0], "signs": signs[1:]}}
        try:
            sigma = thetalift.sigma_from_eta_prime(phi_p, eta_p, target)
        except thetalift.MalformedCharacter:
            record["status"] = "invalid_character"
        else:
            if sigma is None:
                record["status"] = "zero"
            else:
                record["status"] = "nonzero"
                record["blocks"] = sigma.to_json()
        if statuses is not None:
            statuses[record["status"]] += 1
        lines.append(_encoded(record))
    return "".join(lines)


class TestLift:
    def test_scalar_growth_case(self, capsys):
        rc, out, err = run_cli(
            capsys, "lift", "--p", "1", "--q", "0", "--lambda", "2",
            "--r", "2", "--s", "1", "--m0", "1", "--n0", "1",
        )
        assert rc == 0
        assert err == ""
        (row,) = out_lines(out)
        assert row == {
            "status": "nonzero",
            "kind": "aq_weakly_fair",
            "blocks": [
                {"p": 1, "q": 0, "lambda": "1"},
                {"p": 1, "q": 1, "lambda": "1"},
            ],
        }

    def test_vanishing_is_exit_zero(self, capsys):
        rc, out, err = run_cli(
            capsys, "lift", "--p", "1", "--q", "1", "--lambda", "1/2,-1/2",
            "--r", "4", "--s", "0",
        )
        assert rc == 0
        assert err == ""
        (row,) = out_lines(out)
        assert row == {
            "status": "vanishes",
            "position": {
                "l": 0,
                "t": 1,
                "swapped": False,
                "reason": "positive window count exceeds the step count",
            },
        }

    def test_repeated_entry_is_exit_two(self, capsys):
        rc, out, err = run_cli(
            capsys, "lift", "--p", "1", "--q", "1", "--lambda", "1/2,1/2",
            "--r", "2", "--s", "0",
        )
        assert rc == 2
        assert out == ""
        assert "RepeatedEntry" in err

    def test_malformed_half_integer_is_exit_two(self, capsys):
        rc, _out, err = run_cli(
            capsys, "lift", "--p", "1", "--q", "0", "--lambda", "2/3",
            "--r", "2", "--s", "1",
        )
        assert rc == 2
        assert "error:" in err

    def test_internal_error_is_exit_three(self, capsys, monkeypatch):
        def broken_lift(*_args):
            raise InternalLemmaMismatch("two derivations disagreed")

        monkeypatch.setattr(cli, "lift", broken_lift)
        rc, out, err = run_cli(
            capsys, "lift", "--p", "1", "--q", "0", "--lambda", "2",
            "--r", "2", "--s", "1",
        )
        assert rc == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "InternalLemmaMismatch" in err
        # Bad input still exits 2 while lift is broken.
        rc, out, err = run_cli(
            capsys, "lift", "--p", "1", "--q", "1", "--lambda", "1/2,1/2",
            "--r", "2", "--s", "0",
        )
        assert rc == 2
        assert "RepeatedEntry" in err

    def test_exponents_default_to_dimension_parity(self, capsys):
        # (r+s) odd and (p+q) odd give m0 = n0 = 1, same as the
        # explicit flags in the scalar growth case.
        rc, out, _err = run_cli(
            capsys, "lift", "--p", "1", "--q", "0", "--lambda", "2",
            "--r", "2", "--s", "1",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["kind"] == "aq_weakly_fair"
        assert [b["lambda"] for b in row["blocks"]] == ["1", "1"]


class TestOccursAndInvariants:
    def test_occurs_fields(self, capsys):
        rc, out, _err = run_cli(
            capsys, "occurs", "--p", "1", "--q", "1", "--lambda", "1/2,-1/2",
            "--r", "2", "--s", "0",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["occurs"] is True
        assert row["m0"] == 0
        assert row["target"] == [2, 0]
        assert row["position"] == {"l": 0, "t": 0, "swapped": False, "reason": None}

    def test_occurs_checks_the_source_exponent(self, capsys):
        # occurs builds the lift's context, so it refuses what lift refuses.
        rc, out, err = run_cli(
            capsys, "occurs", "--p", "1", "--q", "0", "--lambda", "2",
            "--r", "2", "--s", "1", "--n0", "0",
        )
        assert (rc, out) == (2, "")
        assert err == "error: ParityMismatch: n0=0 must match source_dim=1 mod 2\n"

    def test_occurs_reports_reason_when_vanishing(self, capsys):
        rc, out, _err = run_cli(
            capsys, "occurs", "--p", "1", "--q", "1", "--lambda", "1/2,-1/2",
            "--r", "4", "--s", "0",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["occurs"] is False
        assert "exceeds the step count" in row["position"]["reason"]

    def test_invariants_table(self, capsys):
        rc, out, _err = run_cli(
            capsys, "invariants", "--p", "1", "--q", "1", "--lambda", "1/2,-1/2",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["m0"] == 0
        assert row["k0"] == 0
        assert row["k_lambda"] == 0
        assert (row["r_lambda"], row["s_lambda"]) == (2, 0)
        assert row["X"] == [["1/2", "+"], ["-1/2", "-"]]
        assert row["X_inf"] == row["X"]
        assert [c["t"] for c in row["c_counts"]] == list(range(1, 11))
        assert all(c["plus"] == 1 and c["minus"] == 1 for c in row["c_counts"])

    def test_invariants_dual_swaps_the_signature_pair(self, capsys):
        rc, out, _err = run_cli(
            capsys, "invariants", "--p", "1", "--q", "1", "--lambda", "1/2,-1/2",
            "--dual",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["dual"] is True
        assert (row["r_lambda"], row["s_lambda"]) == (0, 2)

    @pytest.mark.parametrize("n, lam", [(1, "1"), (2, "3/2,1/2"), (3, "2,1,0")])
    def test_invariants_k0_alone_picks_the_minimal_exponent(self, capsys, n, lam):
        # With --k0 and no --m0, m0 is (n + k0) mod 2, the exponent
        # suites.iter_params enumerates for that tower family.
        source = ["--p", str(n), "--q", "0", "--lambda", lam]
        for k0 in (0, -1):
            rc, out, err = run_cli(capsys, "invariants", *source, "--k0", str(k0))
            assert (rc, err) == (0, "")
            (row,) = out_lines(out)
            assert (row["m0"], row["k0"]) == ((n + k0) % 2, k0)
            rc, explicit, _err = run_cli(
                capsys, "invariants", *source, "--k0", str(k0), "--m0", str(row["m0"]),
            )
            assert (rc, explicit) == (0, out)


class TestPackets:
    def test_rank_two_packet_covers_all_signatures(self, capsys):
        rc, out, _err = run_cli(capsys, "packet", "--kappas", "1/2,-1/2")
        assert rc == 0
        rows = out_lines(out)
        assert len(rows) == 4
        assert sorted((r["p"], r["q"]) for r in rows) == [(0, 2), (1, 1), (1, 1), (2, 0)]
        first = rows[0]
        assert first["eta"] == ["+", "+"]
        assert first["lambda"]["p_part"] == ["1/2"]
        assert first["lambda"]["q_part"] == ["-1/2"]

    def test_rank_one_packet_has_two_rows(self, capsys):
        rc, out, _err = run_cli(capsys, "packet", "--kappas", "3")
        assert rc == 0
        assert len(out_lines(out)) == 2

    @pytest.mark.parametrize("kappas", ["1/2,,-1/2", ",1/2,-1/2", "1/2,-1/2,"])
    def test_empty_kappa_entry_is_exit_two(self, capsys, kappas):
        rc, out, err = run_cli(capsys, "packet", f"--kappas={kappas}")
        assert (rc, out) == (2, "")
        assert "empty entry" in err

    def test_spaced_kappas_are_the_comma_list(self, capsys):
        want = run_cli(capsys, "packet", "--kappas=1/2,-1/2")
        assert run_cli(capsys, "packet", "--kappas=1/2, -1/2") == want
        assert run_cli(capsys, "packet", "--kappas=1/2 -1/2") == want

    def test_duplicate_kappa_is_exit_two(self, capsys):
        rc, _out, err = run_cli(capsys, "packet", "--kappas", "1/2,1/2")
        assert rc == 2
        assert "error:" in err

    def test_apacket_tie_marks_uncoupled_characters_invalid(self, capsys):
        rc, out, _err = run_cli(
            capsys, "apacket", "--mus", "1/2", "--mu0", "1/2", "--r", "1", "--s", "1",
        )
        assert rc == 0
        rows = out_lines(out)
        assert [r["status"] for r in rows] == [
            "nonzero", "invalid_character", "invalid_character", "nonzero",
        ]
        assert rows[0]["eta"] == {"e0": "+", "signs": ["+"]}
        assert rows[0]["blocks"] == [
            {"p": 1, "q": 0, "lambda": "0"},
            {"p": 0, "q": 1, "lambda": "1"},
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_packet_rows_match_the_public_objects(self, data):
        # The ranks and heights of the benchmark's packet queries.
        n = data.draw(st.integers(1, 6))
        kappa_tw = _draw_doubled(data, n, (n - 1) % 2)
        kappas = ",".join(half_text(t) for t in kappa_tw)
        assert _stdout_of(cli.cmd_packet, argparse.Namespace(kappas=kappas)) == _packet_text(kappa_tw)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_apacket_rows_match_the_public_objects(self, data):
        # The ranks, sizes and heights of the benchmark's apacket queries.
        n = data.draw(st.integers(1, 5))
        m = n + data.draw(st.integers(1, 8))
        mu_tw = _draw_doubled(data, n, (m - 1) % 2)
        (mu0_tw,) = _draw_doubled(data, 1, n % 2)
        r = data.draw(st.integers(0, m))
        args = argparse.Namespace(
            mus=",".join(half_text(t) for t in mu_tw), mu0=half_text(mu0_tw), r=r, s=m - r,
        )
        assert _stdout_of(cli.cmd_apacket, args) == _apacket_text(mu_tw, mu0_tw, m, r)

    def test_apacket_counts_zero_rows(self, capsys):
        # Capacity (0,3) kills every character with a unit block on
        # the first side.
        rc, out, _err = run_cli(
            capsys, "apacket", "--mus", "2", "--mu0", "1/2", "--r", "0", "--s", "3",
        )
        assert rc == 0
        rows = out_lines(out)
        assert len(rows) == 4
        assert {r["status"] for r in rows} <= {"zero", "nonzero"}
        assert any(r["status"] == "zero" for r in rows)

    def test_packet_rows_check_the_determinant_identity(self, capsys, monkeypatch):
        real = packets.epsilon_of_signature
        monkeypatch.setattr(packets, "epsilon_of_signature", lambda p, q: -real(p, q))
        rc, out, err = run_cli(capsys, "packet", "--kappas=2,0,-1")
        assert (rc, out) == (3, "")
        assert err.startswith("internal error: InternalError: determinant identity failed ")
        assert err.count("\n") == 1

    def test_apacket_rows_compare_both_forms_of_the_sign_gate(self, capsys, monkeypatch):
        real = packets.epsilon_of_signature
        monkeypatch.setattr(packets, "epsilon_of_signature", lambda p, q: -real(p, q))
        rc, _out, err = run_cli(
            capsys, "apacket", "--mus=3/2,1/2,-5/2", "--mu0=1/2", "--r", "2", "--s", "2",
        )
        assert rc == 3
        assert err.startswith("internal error: InternalLemmaMismatch: sign gate split: ")
        assert err.count("\n") == 1

    def test_packet_streams_one_member_at_a_time(self, capsys, monkeypatch, tmp_path):
        # A reader that closes the pipe after the first row: the second
        # write fails, and by then only the 16 low half-members of the
        # first four positions and at most two high half-members of the
        # last four exist, not the 256 members.
        built = collections.Counter()
        real = packets._Members._half

        def counting(members, start, values):
            built[start] += 1
            return real(members, start, values)

        class ClosesAfterOneRow:
            def __init__(self, fd):
                self.fd, self.writes = fd, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise BrokenPipeError
                return len(text)

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(packets._Members, "_half", counting)
            monkeypatch.setattr(sys, "stdout", ClosesAfterOneRow(fd))
            # A new descriptor takes the lowest free number, so the two
            # probes differ only if main leaves a descriptor open.
            free_before = _lowest_free_fd()
            rc = cli.main(["packet", "--kappas=7/2,5/2,3/2,1/2,-1/2,-3/2,-5/2,-7/2"])
            free_after = _lowest_free_fd()
        finally:
            os.close(fd)
        assert rc == 141
        assert set(built) == {0, 4}
        assert built[0] == 16 and 1 <= built[4] <= 2
        assert capsys.readouterr().err == ""
        assert free_after == free_before

    def test_rows_do_not_depend_on_the_low_run_cap(self, capsys, monkeypatch):
        # With the cap at 2, a character of n = 6 positions splits 2 + 4
        # instead of 3 + 3, and one of 5 splits 2 + 3 instead of 3 + 2:
        # the bytes are the same.
        argvs = (
            ("packet", "--kappas=11/2,7/2,3/2,-1/2,-9/2,-25/2"),
            ("apacket", "--mus=9,5,2,-4,-7", "--mu0=3/2", "--r=4", "--s=5"),
            ("apacket", "--mus=19/2,5/2,3/2,-7/2,-15/2,-17/2", "--mu0=-2", "--r=4", "--s=4"),
        )
        want = [run_cli(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(packets, "_LOW_RUN_CAP", 2)
        assert [packets._low_run(n) for n in (5, 6)] == [2, 2]
        assert [run_cli(capsys, *argv) for argv in argvs] == want
        assert [(rc, err) for rc, _out, err in want] == [(0, "")] * 3

    def test_apacket_checks_the_unit_block_seams_once_per_query(self, capsys, monkeypatch):
        # With mu's order check off, mu = (3, 4, 0) reaches the unit
        # blocks, and the two blocks before i0 = 3 climb.
        monkeypatch.setattr(packets, "_check_decreasing_distinct", lambda values, label: None)
        rc, out, err = run_cli(capsys, "apacket", "--mus=3,4,0", "--mu0=1/2", "--r=2", "--s=3")
        assert (rc, out) == (3, "")
        assert err.startswith("internal error: InternalWeaklyFairViolation: blocks ")
        assert err.count("\n") == 1

    def test_row_counts_are_estimated_from_the_rank(self):
        assert [cli._rows_log2("packet", n) for n in (1, 20, 21, 30)] == [1, 20, 21, 30]
        assert [cli._rows_log2("apacket", n) for n in (0, 19, 20)] == [1, 20, 21]
        plain, forced = argparse.Namespace(force=False), argparse.Namespace(force=True)
        for command, n in (("packet", 20), ("apacket", 19)):
            cli._check_row_budget(plain, command, n)
            # A namespace without the flag, as a caller of cmd_* may pass, is not forced.
            cli._check_row_budget(argparse.Namespace(), command, n)
        for command, n in (("packet", 21), ("packet", 30), ("apacket", 20)):
            rows = cli._rows_log2(command, n)
            want = (
                rf"^{command} of rank {n} has 2\^{rows} rows, above the limit 2\^20; "
                rf"pass --force$"
            )
            with pytest.raises(ValueError, match=want):
                cli._check_row_budget(plain, command, n)
            with pytest.raises(ValueError, match=want):
                cli._check_row_budget(argparse.Namespace(), command, n)
            cli._check_row_budget(forced, command, n)

    def test_oversized_packets_are_refused_before_any_member(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a half-member was built")

        monkeypatch.setattr(packets, "_Half", refuse)
        kappas = ",".join(half_text(t) for t in range(59, 0, -2))
        rc, out, err = run_cli(capsys, "packet", f"--kappas={kappas}")
        assert (rc, out) == (2, "")
        assert err == (
            "error: ValueError: packet of rank 30 has 2^30 rows, above the limit 2^20; "
            "pass --force\n"
        )
        mus = ",".join(str(k) for k in range(20, 0, -1))
        rc, out, err = run_cli(capsys, "apacket", f"--mus={mus}", "--mu0=0", "--r=11", "--s=10")
        assert (rc, out) == (2, "")
        assert err == (
            "error: ValueError: apacket of rank 20 has 2^21 rows, above the limit 2^20; "
            "pass --force\n"
        )

    def test_force_leaves_a_small_packet_as_it_is(self, capsys):
        for argv in (
            ("packet", "--kappas=3/2,1/2,-5/2"),
            ("apacket", "--mus=3/2,1/2,-5/2", "--mu0=1/2", "--r=2", "--s=2"),
        ):
            assert run_cli(capsys, *argv, "--force") == run_cli(capsys, *argv)


class TestKTypeMap:
    def test_round_trip_pair(self, capsys):
        rc, out, _err = run_cli(
            capsys, "ktype-map", "--p", "1", "--q", "1", "--a", "1", "--b", "-1",
            "--r", "2", "--s", "0",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["mu"] == {"a": [1], "b": [-1]}
        assert row["mu_prime"] == {"a": [0, 0], "b": []}

    def test_no_partner_is_null(self, capsys):
        rc, out, _err = run_cli(
            capsys, "ktype-map", "--p", "1", "--q", "1", "--a", "1", "--b", "3",
            "--r", "2", "--s", "0",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["mu_prime"] is None

    def test_empty_weight_list(self, capsys):
        rc, out, _err = run_cli(
            capsys, "ktype-map", "--p", "1", "--q", "0", "--a", "2", "--b", "",
            "--r", "2", "--s", "1",
        )
        assert rc == 0
        (row,) = out_lines(out)
        assert row["mu_prime"] == {"a": [2, 1], "b": [0]}
        assert run_cli(
            capsys, "ktype-map", "--p=0", "--q=1", "--a=", "--b=-2", "--r=1", "--s=2",
        )[0] == 0

    @pytest.mark.parametrize("a", ["1,,0", ",1,0", "1,0,"])
    def test_empty_weight_entry_is_exit_two(self, capsys, a):
        rc, out, err = run_cli(
            capsys, "ktype-map", "--p=2", "--q=0", f"--a={a}", "--b=", "--r=2", "--s=0",
        )
        assert (rc, out) == (2, "")
        assert "empty entry" in err


class TestVerify:
    def test_flagship_suite_passes_at_default_bounds(self, capsys):
        rc, out, _err = run_cli(capsys, "verify", "--suite", "two_path", "--quiet")
        assert rc == 0
        (summary,) = out_lines(out)
        assert summary["suite"] == "two_path"
        assert summary["failures"] == 0
        assert summary["cases"] > 0

    def test_per_case_records_carry_both_paths(self, capsys):
        rc, out, _err = run_cli(
            capsys, "verify", "--suite", "two_path",
            "--max-n", "1", "--height", "3/2", "--max-dm", "2",
        )
        assert rc == 0
        rows = out_lines(out)
        summary = rows[-1]
        assert summary["failures"] == 0
        cases = rows[:-1]
        assert cases, "expected per-case records before the summary"
        for case in cases:
            assert case["suite"] == "two_path"
            assert case["equal"] is True
            assert case["path_a"] == case["path_b"]

    def test_every_registered_suite_runs_clean_at_small_bounds(self, capsys):
        for suite in SUITES:
            rc, out, _err = run_cli(
                capsys, "verify", "--suite", suite, "--quiet",
                "--max-n", "2", "--height", "3/2", "--max-dm", "2",
            )
            assert rc == 0, suite
            (summary,) = out_lines(out)
            assert summary["suite"] == suite
            assert summary["failures"] == 0

    def test_unknown_suite_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestEnumerate:
    def test_summary_counts_the_records(self, capsys):
        rc, out, _err = run_cli(
            capsys, "enumerate", "--max-n", "1", "--height", "3/2", "--max-dm", "2",
        )
        assert rc == 0
        rows = out_lines(out)
        assert rows[-1] == {"cases": len(rows) - 1}
        assert rows[-1]["cases"] > 0
        statuses = {r["result"]["status"] for r in rows[:-1]}
        assert statuses == {"vanishes", "nonzero"}

    def test_output_is_byte_deterministic(self, capsys):
        argv = ["enumerate", "--max-n", "1", "--height", "3/2", "--max-dm", "2"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_closed_pipe_is_exit_141_and_silent(self):
        # A reader that stops early, like `thetalift enumerate | head -1`.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(thetalift.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "thetalift.cli", "enumerate", "--max-n", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _out, err = proc.communicate(timeout=60)
        assert json.loads(first)["m0"] in (0, 1)
        assert proc.returncode == 141
        assert err == b""


# Malformed argv at the CLI boundary. Each subcommand has a small valid
# argv; a test draws one or two replacements that make it invalid and
# expects exit 2 with no traceback. Windows stay tiny (--max-n <= 2) or
# invalid, so no example starts a large enumeration.
VALID_ARGV = {
    "lift": {"--p": "1", "--q": "0", "--lambda": "2", "--r": "2", "--s": "1"},
    "occurs": {"--p": "1", "--q": "0", "--lambda": "2", "--r": "2", "--s": "1"},
    "invariants": {"--p": "1", "--q": "0", "--lambda": "2", "--k0": "0"},
    "packet": {"--kappas": "1/2,-1/2"},
    "apacket": {"--mus": "3/2,1/2", "--mu0": "0", "--r": "2", "--s": "2"},
    "ktype-map": {"--p": "1", "--q": "1", "--a": "1", "--b": "-1", "--r": "2", "--s": "2"},
    "verify": {"--suite": "two_path", "--max-n": "1", "--height": "1/2", "--max-dm": "1"},
    "enumerate": {"--max-n": "2", "--height": "1/2", "--max-dm": "1"},
}


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is_half(text):
    try:
        thetalift.HalfInt.parse(text)
    except ValueError:
        return False
    return True


def _argv(command, args):
    return [command] + [f"{flag}={value}" for flag, value in args.items()]


def _bad(flags, values):
    return st.tuples(st.sampled_from(flags), values)


not_ints = st.one_of(
    st.sampled_from(["", "x", "1.5", "1/2", "one", "0x1", "2e3"]),
    st.text(alphabet="0123456789abx./+-_ ", max_size=6).filter(lambda t: not _is_int(t)),
)
negatives = st.integers(-5, -1).map(str)
# No comma or space, so a list flag cannot split the bad literal into good ones.
not_halves = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(3, 9)),
    st.builds("{}/2".format, st.integers(-5, 5).map(lambda k: 2 * k)),
    st.builds("{}.5".format, st.integers(-5, 5)),
    st.text(alphabet="0123456789ab./+-", min_size=1, max_size=6).filter(lambda t: not _is_half(t)),
)
not_half_lists = st.one_of(not_halves, not_halves.map("1/2,{}".format))
lift_bad = (
    _bad(("--p", "--q", "--r", "--s", "--m0", "--n0"), not_ints),
    _bad(("--p", "--q", "--r", "--s"), negatives),
    _bad(("--lambda",), not_half_lists),
)
# The wrong parity class, an empty list, twist exponents of the wrong parity.
lift_wrong = [("--lambda", "3/2"), ("--lambda", ""), ("--m0", "0"), ("--n0", "0")]
window_bad = (
    _bad(("--max-n", "--max-dm"), st.one_of(not_ints, st.integers(-3, 0).map(str))),
    _bad(("--height",), st.one_of(not_halves, st.sampled_from(["0", "-1/2", "-3"]))),
)
# Replacements that each make VALID_ARGV[command] invalid, whatever else
# is replaced with it.
MALFORMED = {
    "lift": lift_bad + (st.sampled_from(lift_wrong),),
    "occurs": lift_bad + (st.sampled_from(lift_wrong),),
    "invariants": (
        _bad(("--p", "--q", "--m0", "--k0"), not_ints),
        _bad(("--p", "--q"), negatives),
        _bad(("--lambda",), not_half_lists),
        st.sampled_from([("--lambda", "5/2"), ("--lambda", ""), ("--m0", "0")]),
    ),
    "packet": (
        _bad(("--kappas",), not_half_lists),
        st.sampled_from([("--kappas", "1,0"), ("--kappas", "1/2"), ("--kappas", "")]),
    ),
    "apacket": (
        _bad(("--r", "--s"), st.one_of(not_ints, negatives)),
        _bad(("--mus",), not_half_lists),
        _bad(("--mu0",), not_halves),
        st.sampled_from([("--mu0", "1/2"), ("--mus", "2,1")]),
    ),
    "ktype-map": (
        _bad(("--p", "--q", "--r", "--s", "--m0", "--n0", "--a", "--b"), not_ints),
        _bad(("--p", "--q", "--r", "--s"), negatives),
        st.sampled_from([("--a", ""), ("--m0", "1"), ("--n0", "1")]),
    ),
    "verify": window_bad + (
        _bad(("--suite",), st.text(max_size=8).filter(lambda t: t not in SUITES)),
    ),
    "enumerate": window_bad,
}


@st.composite
def malformed_argv(draw):
    """A subcommand's valid argv with one or two replacements that break it."""
    command = draw(st.sampled_from(sorted(VALID_ARGV)))
    changes = draw(st.lists(st.one_of(MALFORMED[command]), min_size=1, max_size=2))
    return _argv(command, dict(VALID_ARGV[command], **dict(changes)))


def run_captured(argv):
    """cli.main(argv) with both streams captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class TestBoundary:
    @pytest.mark.parametrize("command", sorted(VALID_ARGV))
    def test_valid_argv_runs(self, command):
        argv = _argv(command, VALID_ARGV[command])
        rc, out, err = run_captured(argv)
        assert (rc, err) == (0, ""), argv
        assert out

    @pytest.mark.parametrize("command", sorted(VALID_ARGV))
    def test_double_dash_value_is_a_usage_error(self, command):
        # Before Python 3.13, argparse reads `--opt=--` as no value at all.
        argv = _argv(command, {flag: "--" for flag in VALID_ARGV[command]})
        rc, out, err = run_captured(argv)
        assert (rc, out) == (2, ""), (argv, err)
        assert err.splitlines()[-1].startswith(f"thetalift {command}: error: "), err

    @settings(max_examples=200, deadline=None)
    @given(malformed_argv())
    def test_malformed_argv_is_exit_two_without_traceback(self, argv):
        # An exception escaping cli.main would be a traceback; argparse's
        # own usage errors exit 2 through SystemExit with a usage line.
        rc, out, err = run_captured(argv)
        lines = err.splitlines()
        assert (rc, out) == (2, ""), (argv, err)
        assert "Traceback" not in err
        if lines[0].startswith("usage: thetalift"):
            assert lines[-1].startswith(f"thetalift {argv[0]}: error: "), err
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), err


# sha256 of standard output for `enumerate --max-n 3` and for
# `verify --suite NAME` at the default bounds. Any change to a lift, a
# record field, a key order or a number's rendering changes a digest;
# update one only for a change that is meant to alter the output.
DIGESTS = {
    "enumerate": "a656823b357ae3cf253727f18808e9419f194ad93a6f761120e1035656d2f1eb",
    "duality": "57b7768a64e862913b55a26da58594283e62305a73b17a72210f90a1a0d9f736",
    "eta_prime": "bad2fb599e46f64ee720918f2800597cfa19d016a004505c6efd1baa11dc4d8b",
    "globalization": "0b70f2e957f8b2af8329c21c6408610c1ee69c8387e1d0b7ae204ab3d0dad45c",
    "li": "6c2f0399d93667317068baeb3a722d5beefaad44f12c3d13287b2d6238bd956d",
    "packets": "85b8445819d0a6bdc097768d26d432ee9bfd8bc3523e168b52a4db121bc6828b",
    "persistence": "db4e44cc0cceaf7b0f86f23db4c99f119380789e60195b8eb890524921705bbd",
    "round_trip": "e8a3e247db2d98a850008857712558ffecf9199cad0f012d8f3ffa37f6523d31",
    "two_path": "7780cc55738a3f3e17121cff7e81ca0a7b7dd28fe82ad46d25fc1a42d9afcfdc",
}


class TestOutputDigests:
    def test_enumerate_and_every_suite_are_pinned(self):
        assert set(DIGESTS) == set(SUITES) | {"enumerate"}

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_output_is_byte_identical(self, capsys, name):
        if name == "enumerate":
            argv = ["enumerate", "--max-n", "3"]
        else:
            argv = ["verify", "--suite", name]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


def _doubled(top, parity):
    return [t for t in range(top, -top - 1, -1) if t % 2 == parity]


def test_packet_and_apacket_grids_are_pinned(capsys):
    # Every row of `packet` on a grid of kappas, and of `apacket` on a grid
    # of (mus, mu0, r, s), hashed over stdout in loop order.
    for n in range(1, 5):
        for combo in itertools.combinations(_doubled(7, (n - 1) % 2), n):
            kappas = ",".join(half_text(t) for t in combo)
            assert cli.cmd_packet(argparse.Namespace(kappas=kappas)) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1526
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d9439b79fdf56bd0ebff2ef2587fd8a6331eb87614c3a2ae8189a46c1d8fc0b2"
    )

    queries = 0
    for n in range(1, 3):
        for m in range(n + 1, n + 4):
            for combo in itertools.combinations(_doubled(5, (m - 1) % 2), n):
                mus = ",".join(half_text(t) for t in combo)
                for mu0 in _doubled(5, n % 2):
                    for r in range(m + 1):
                        args = argparse.Namespace(mus=mus, mu0=half_text(mu0), r=r, s=m - r)
                        assert cli.cmd_apacket(args) == 0
                        queries += 1
    out = capsys.readouterr().out
    statuses = collections.Counter(json.loads(line)["status"] for line in out.splitlines())
    assert queries == 1283
    assert statuses == {"zero": 5656, "nonzero": 2620, "invalid_character": 356}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a6e9dbaf17e1fd3e2fb1a8046220359555353c454ff843f3571cb2d6a3cc947b"
    )


def test_packet_and_apacket_half_splits_are_pinned(capsys):
    # Digests taken before the rows were built from half-members. packet
    # at n = 5, 6, 7 splits into runs of 3 + 2, 3 + 3 and 4 + 3 positions.
    # apacket at n = 3, 4, 5 has tails split 2 + 1, 2 + 2 and 3 + 2; mu0
    # takes every value of its parity from above mu_1 to below mu_n, so
    # i0 takes every slot 1, ..., n + 1, leaving the head or the tail
    # empty at the ends, and on m = n + 1 it ties with each mu_i.
    for n in range(5, 8):
        for combo in itertools.combinations(_doubled(n + 1, (n - 1) % 2), n):
            kappas = ",".join(half_text(t) for t in combo)
            assert cli.cmd_packet(argparse.Namespace(kappas=kappas)) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 7072
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fc4f1390fdbae6850557053d470bcac0008c18b62862c9f11496495a62ade344"
    )

    slots, ties = collections.defaultdict(set), 0
    for n in range(3, 6):
        for m in (n + 1, n + 2):
            for gap in (2, 4):
                top = gap * (n - 1) // 2
                top += (top - m + 1) % 2
                mu_tw = tuple(range(top, top - gap * n, -gap))
                for mu0 in range(mu_tw[0] + 3, mu_tw[-1] - 4, -1):
                    if mu0 % 2 != n % 2:
                        continue
                    phi_p = thetalift.AParameter(mu_tw, mu0, m)
                    slots[n].add(phi_p.i0)
                    ties += phi_p.tie_at_i0
                    for r in range(m + 1):
                        args = argparse.Namespace(
                            mus=",".join(half_text(t) for t in mu_tw),
                            mu0=half_text(mu0), r=r, s=m - r,
                        )
                        assert cli.cmd_apacket(args) == 0
    assert {n: sorted(i0s) for n, i0s in slots.items()} == {
        n: list(range(1, n + 2)) for n in range(3, 6)
    }
    assert ties == 24
    out = capsys.readouterr().out
    statuses = collections.Counter(json.loads(line)["status"] for line in out.splitlines())
    assert statuses == {"zero": 19648, "nonzero": 4400, "invalid_character": 3248}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1bcc0e5f09df191ccb03493ff76a42498fdf7268a98f93464e76f1f07382b7b8"
    )


def _seeded_doubled(rng, n, parity):
    """n distinct doubled values of one parity, |value| <= 31/2, descending."""
    universe = [t for t in range(-31, 32) if t % 2 == parity]
    return tuple(sorted(rng.sample(universe, n), reverse=True))


class TestOutputMatchesTheEncoder:
    """Each line a query prints is _ENCODER's text for the record built from to_json()."""

    def test_lift_and_occurs(self):
        rng = random.Random(24)
        seen = collections.Counter()
        for _ in range(600):
            n = rng.randint(1, 8)
            m = n + rng.randint(1, 8) if rng.random() < 0.5 else rng.randint(0, n - 1)
            p, r = rng.randint(0, n), rng.randint(0, m)
            values = _seeded_doubled(rng, n, (n - 1) % 2)
            on_p = set(rng.sample(range(n), p))
            tw = tuple(v for i, v in enumerate(values) if i in on_p) + tuple(
                v for i, v in enumerate(values) if i not in on_p
            )
            # The default exponents, or ones a full step away from them.
            m0, n0 = (None, None) if rng.random() < 0.75 else (m % 2 + 2, n % 2 - 2)
            lam = thetalift.HCParam.from_twices(thetalift.Signature(p, n - p), tw)
            target = thetalift.Signature(r, m - r)
            ctx = thetalift.LiftContext(
                m % 2 if m0 is None else m0, n % 2 if n0 is None else n0, n, m
            )
            args = argparse.Namespace(
                p=p, q=n - p, lam=",".join(half_text(t) for t in tw), r=r, s=m - r, m0=m0, n0=n0,
            )

            result = thetalift.lift(lam, ctx, target)
            assert _stdout_of(cli.cmd_lift, args) == _encoded(result.to_json()), args
            nonzero, pos = thetalift.occurs(lam, ctx.m0, target)
            record = {
                "lambda": lam.to_json(),
                "m0": ctx.m0,
                "target": [r, m - r],
                "occurs": nonzero,
                "position": pos.to_json(),
            }
            assert _stdout_of(cli.cmd_occurs, args) == _encoded(record), args
            seen[result.kind] += 1
            seen["occurs" if nonzero else "occurs vanishes"] += 1
            seen[pos.reason] += 1
            seen["swapped" if pos.swapped else "unswapped"] += 1
        assert set(seen) >= {
            "vanishes", "discrete_series", "aq_weakly_fair", "occurs", "occurs vanishes",
            "swapped", "unswapped", None, "below the first occurrence in its tower",
            "step count below the chain length",
            "positive window count exceeds the step count",
            "negative window count exceeds the step count",
        }, seen

    def test_packet_and_apacket(self):
        rng = random.Random(24)
        for _ in range(60):
            n = rng.randint(1, 6)
            kappa_tw = _seeded_doubled(rng, n, (n - 1) % 2)
            args = argparse.Namespace(kappas=",".join(half_text(t) for t in kappa_tw))
            assert _stdout_of(cli.cmd_packet, args) == _packet_text(kappa_tw), args

        statuses = collections.Counter()
        for _ in range(120):
            n = rng.randint(1, 5)
            # A one-step target with mu0 on one of the mus has a tie.
            tie = rng.random() < 0.25
            m = n + (1 if tie else rng.randint(1, 8))
            mu_tw = _seeded_doubled(rng, n, (m - 1) % 2)
            mu0_tw = rng.choice(mu_tw) if tie else _seeded_doubled(rng, 1, n % 2)[0]
            r = rng.randint(0, m)
            args = argparse.Namespace(
                mus=",".join(half_text(t) for t in mu_tw), mu0=half_text(mu0_tw), r=r, s=m - r,
            )
            want = _apacket_text(mu_tw, mu0_tw, m, r, statuses)
            assert _stdout_of(cli.cmd_apacket, args) == want, args
        assert set(statuses) == {"nonzero", "zero", "invalid_character"}, statuses


# The parser's messages, one per kind of bad literal, on every flag that
# takes half-integers: the query names the entry it refused.
LITERAL_ERRORS = [
    ("1/4", "not a half-integer literal: '1/4'"),
    ("4/2", "not in lowest terms: '4/2'"),
    ("x", "not a half-integer literal: 'x'"),
]
LITERAL_FLAGS = {
    "--lambda": ["lift", "--p=1", "--q=0", "--r=2", "--s=1"],
    "--kappas": ["packet"],
    "--mus": ["apacket", "--mu0=0", "--r=2", "--s=0"],
    "--mu0": ["apacket", "--mus=1/2", "--r=2", "--s=0"],
}


@pytest.mark.parametrize("flag", sorted(LITERAL_FLAGS))
@pytest.mark.parametrize(
    "text, message",
    LITERAL_ERRORS + [("1,,2", "empty entry in the list '1,,2'")],
    ids=["quarter", "not_lowest", "word", "empty_entry"],
)
def test_bad_literals_keep_their_messages(capsys, flag, text, message):
    if flag == "--mu0" and "," in text:
        # --mu0 takes one literal, not a list.
        message = f"not a half-integer literal: {text!r}"
    rc, out, err = run_cli(capsys, *LITERAL_FLAGS[flag], f"{flag}={text}")
    assert (rc, out, err) == (2, "", f"error: ValueError: {message}\n")


# Literals take ASCII digits only. \\d and int() alone accept any decimal
# digit, and int() underscores too, so each of these once read as a
# valid query: 3, 3/2, height 3 and the weight 10.
NON_ASCII_LITERALS = [
    (["lift", "--p=1", "--q=0", "--lambda=\u0663", "--r=2", "--s=1"],
     "not a half-integer literal: '\u0663'"),
    (["packet", "--kappas=\uff13/2,1/2"], "not a half-integer literal: '\uff13/2'"),
    (["apacket", "--mus=3/2", "--mu0=\u0661/2", "--r=2", "--s=0"],
     "not a half-integer literal: '\u0661/2'"),
    (["enumerate", "--max-n=1", "--height=\u0663"], "not a half-integer literal: '\u0663'"),
    (["ktype-map", "--p=1", "--q=0", "--a=1_0", "--b=", "--r=2", "--s=1"],
     "not an integer literal: '1_0'"),
    (["ktype-map", "--p=1", "--q=0", "--a=\u0663", "--b=", "--r=2", "--s=1"],
     "not an integer literal: '\u0663'"),
]


@pytest.mark.parametrize(
    "argv, message", NON_ASCII_LITERALS,
    ids=["lambda", "kappas", "mu0", "height", "underscore_weight", "arabic_weight"],
)
def test_literals_take_ascii_digits_only(argv, message):
    rc, out, err = run_captured(argv)
    assert (rc, out, err) == (2, "", f"error: ValueError: {message}\n")


# Every integer flag of each subcommand. int() alone reads any Unicode
# decimal digit and underscores, so `lift --p=\u0661` once ran as p = 1.
INT_FLAGS = {
    "lift": ("--p", "--q", "--r", "--s", "--m0", "--n0"),
    "occurs": ("--p", "--q", "--r", "--s", "--m0", "--n0"),
    "invariants": ("--p", "--q", "--m0", "--k0"),
    "apacket": ("--r", "--s"),
    "ktype-map": ("--p", "--q", "--r", "--s", "--m0", "--n0"),
    "verify": ("--max-n", "--max-dm"),
    "enumerate": ("--max-n", "--max-dm"),
}


def test_int_flags_lists_every_integer_flag():
    subparsers = next(a.choices for a in cli.build_parser()._actions if isinstance(a.choices, dict))
    found = {
        command: tuple(a.option_strings[0] for a in sp._actions if a.type is cli._int_flag)
        for command, sp in subparsers.items()
    }
    assert {command: flags for command, flags in found.items() if flags} == INT_FLAGS


@pytest.mark.parametrize("text", ["\u0661", "\uff13", "1_0"], ids=["arabic", "fullwidth", "underscore"])
def test_integer_flags_take_ascii_digits_only(text):
    for command, flags in INT_FLAGS.items():
        for flag in flags:
            argv = _argv(command, dict(VALID_ARGV[command], **{flag: text}))
            rc, out, err = run_captured(argv)
            assert (rc, out) == (2, ""), argv
            assert err.splitlines()[-1] == (
                f"thetalift {command}: error: argument {flag}: invalid int value: {text!r}"
            ), argv


def test_readme_examples_print_what_the_readme_shows(capsys):
    # Each `$ thetalift ...` line of README.md, run through cli.main, must
    # print the lines under it, up to a blank line or the end of the block.
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    ran = 0
    for i, line in enumerate(lines):
        if not line.startswith("$ thetalift "):
            continue
        expected = []
        for follow in lines[i + 1:]:
            if not follow or follow.startswith("```"):
                break
            expected.append(follow + "\n")
        rc, out, err = run_cli(capsys, *shlex.split(line)[2:])
        assert (rc, err, out) == (0, "", "".join(expected)), line
        ran += 1
    assert ran == 9


def test_python_m_thetalift_prints_the_readme_lift_example():
    # `python -m thetalift` runs the same command line from a checkout:
    # README's first lift example, compared byte for byte.
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("$ thetalift lift "))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(thetalift.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "thetalift", *shlex.split(lines[i])[2:]],
        capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", f"{lines[i + 1]}\n".encode())
