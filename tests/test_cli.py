"""End-to-end tests for the command-line front end.

Every test but the closed-pipe one drives cli.main(argv) directly and
reads captured stdout, so the assertions cover argument parsing, JSON
rendering, and exit codes in one pass; the closed-pipe test runs the
CLI as a child process, since only a real pipe can close early.
"""

import argparse
import collections
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import thetalift
from thetalift import SUITES, InternalLemmaMismatch, cli
from thetalift.core import half_text


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def out_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


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
        assert row == {"status": "vanishes"}

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
    assert ran == 7
