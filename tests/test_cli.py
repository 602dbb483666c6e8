"""Command line interface: exit codes, text output, and JSON reports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quandlekit import (
    FixBlockReport,
    GaloisField,
    affine_quandle,
    fix_block_report,
    galois_affine_quandle,
    read_qdl,
    shq_family,
    write_qdl,
)
from quandlekit import cli
from quandlekit.cli import main
from conftest import FIXTURES, shuffled

Q94 = str(FIXTURES / "q94.qdl")
CORRUPT = str(FIXTURES / "corrupt_idem.qdl")
TRIVIAL = str(FIXTURES / "trivial3.qdl")
EMPTY = str(FIXTURES / "empty.qdl")


class TestValidate:
    def test_valid_table(self, capsys):
        assert main(["validate", Q94]) == 0
        assert capsys.readouterr().out == "valid quandle of order 9\n"

    def test_invalid_table(self, capsys):
        assert main(["validate", CORRUPT]) == 1
        assert capsys.readouterr().out == "IdempotencyViolation at (3,)\n"

    def test_json_valid(self, capsys):
        assert main(["validate", Q94, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "schema": "quandlekit.validate/1",
            "ok": True,
            "order": 9,
            "error": None,
            "witness": [],
        }

    def test_json_invalid(self, capsys):
        assert main(["validate", CORRUPT, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["order"] is None
        assert report["error"] == "IdempotencyViolation"
        assert report["witness"] == [3]

    def test_unparseable_file(self, capsys):
        assert main(["validate", EMPTY]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file(self, capsys):
        assert main(["validate", "no/such/file.qdl"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_integer_forms(self, tmp_path, capsys):
        plus = tmp_path / "plus.qdl"
        plus.write_text("+2\n1 1\n2 2\n")
        assert main(["validate", str(plus)]) == 2
        assert "line 1" in capsys.readouterr().err
        negative = tmp_path / "negative.qdl"
        negative.write_text("2\n1 -1\n2 2\n")
        assert main(["validate", str(negative)]) == 1
        assert capsys.readouterr().out == "EntryOutOfRange at (1, 2)\n"

    def test_order_cap_from_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("QUANDLEKIT_MAX_ORDER", "8")
        for argv in (["validate", "--json", Q94], ["analyze", Q94]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: line 2: order 9 exceeds the cap 8 (QUANDLEKIT_MAX_ORDER)\n"
        monkeypatch.setenv("QUANDLEKIT_MAX_ORDER", "9")
        assert main(["validate", Q94]) == 0

    def test_order_cap_after_row_count(self, monkeypatch, tmp_path, capsys):
        # a huge header over a short body still reports the missing rows
        monkeypatch.setenv("QUANDLEKIT_MAX_ORDER", "8")
        short = tmp_path / "short.qdl"
        short.write_text(f"{2**62}\n1 1\n2 2\n")
        assert main(["validate", str(short)]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: expected {2**62} rows, file ends after 2\n"
        )


class TestAnalyze:
    def test_text_report(self, capsys):
        assert main(["analyze", Q94]) == 0
        assert capsys.readouterr().out == (
            "order: 9\n"
            "connected: yes\n"
            "latin: yes\n"
            "profile: (1, 2, 6)\n"
            "shq: ell=2 c=3 p=3 a=1\n"
        )

    def test_text_report_trivial(self, capsys):
        assert main(["analyze", TRIVIAL]) == 0
        out = capsys.readouterr().out
        assert "connected: no\n" in out
        assert "latin: no\n" in out
        assert "profile: [(1^3)]\n" in out
        assert "shq: no\n" in out

    def test_main_theorem_line(self, capsys):
        assert main(["analyze", Q94, "--verify-main-theorem"]) == 0
        assert "main theorem: PASS (4 checks)\n" in capsys.readouterr().out

    def test_main_theorem_non_shq(self, capsys):
        assert main(["analyze", TRIVIAL, "--verify-main-theorem"]) == 0
        assert "main theorem: FAIL (not an SHQ)\n" in capsys.readouterr().out

    def test_subquandle_lines(self, capsys):
        assert main(["analyze", Q94, "--subquandles"]) == 0
        out = capsys.readouterr().out
        assert "subquandles: 13 total, 3 classes\n" in out
        assert "  order 1 profile (1): 9\n" in out
        assert "  order 3 profile (1, 2): 3\n" in out
        assert "  order 9 profile (1, 2, 6): 1\n" in out

    def test_json_report(self, capsys):
        code = main(
            ["analyze", Q94, "--json", "--subquandles", "--verify-main-theorem"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "quandlekit.analyze/1"
        assert report["order"] == 9
        assert report["valid"] and report["connected"] and report["latin"]
        assert report["profile"]["connected_form"] == [1, 2, 6]
        assert report["shq"] == {"ell": 2, "c": 3, "p": 3, "a": 1}
        assert report["main_theorem"]["all_passed"] is True
        assert report["subquandles"]["count"] == 13
        assert {
            (c["order"], c["count"]) for c in report["subquandles"]["classes"]
        } == {(1, 9), (3, 3), (9, 1)}

    def test_json_deterministic(self, capsys):
        main(["analyze", Q94, "--json", "--subquandles"])
        first = capsys.readouterr().out
        main(["analyze", Q94, "--json", "--subquandles"])
        assert capsys.readouterr().out == first

    def test_out_file(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        assert main(["analyze", Q94, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(target.read_text())
        assert report["order"] == 9
        # written as bytes, not in text mode: the file is the --json text
        monkeypatch.setattr(Path, "write_text", None)
        assert main(["analyze", Q94, "--out", str(target)]) == 0
        assert target.read_bytes() == (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        assert main(["analyze", Q94, "--json"]) == 0
        assert target.read_bytes() == capsys.readouterr().out.encode()

    def test_max_order_forwarded(self, capsys):
        assert main(["analyze", Q94, "--subquandles", "--max-order", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_table_rejected(self, capsys):
        assert main(["analyze", CORRUPT]) == 1
        assert capsys.readouterr().err.startswith("error: IdempotencyViolation")

    def test_profile_computed_once_per_layer(self, capsys, monkeypatch):
        # cmd_analyze computes the profile once and hands it to the theorem
        # check; before, verify_main_theorem and classify_shq recomputed it
        from quandlekit import shq, structure

        calls = []
        real = structure.profile
        spy = lambda q: calls.append(q.n) or real(q)  # noqa: E731
        monkeypatch.setattr(structure, "profile", spy)  # cmd_analyze imports it from here
        monkeypatch.setattr(shq, "profile", spy)
        assert main(["analyze", Q94, "--verify-main-theorem", "--json"]) == 0
        out = capsys.readouterr().out
        assert calls == [9]
        # the report as it was while the profile was computed four times
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "409113e78736dfeae47ece89edcfcb89f377cec67530f80ca28bf8d0d49eb8d2"
        )

    def test_subquandles_enumerated_once(self, capsys, monkeypatch):
        # the theorem check reads the inventory that --subquandles lists,
        # mapped to canonical labels, instead of enumerating canon again
        from quandlekit import structure

        calls = []
        real = structure._closed_orbits
        spy = lambda tbl: calls.append(len(tbl)) or real(tbl)  # noqa: E731
        monkeypatch.setattr(structure, "_closed_orbits", spy)
        argv = ["analyze", Q94, "--verify-main-theorem", "--subquandles", "--json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert calls == [9]
        # the report as it was while the subsets were enumerated twice
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "47e49b64cbbfeb74384352c2a3fb73d23d8dedf2b1c1bc72f8f6886f9e5ddd44"
        )

    def test_non_shq_theorem_check_enumerates_nothing(self, capsys, tmp_path, monkeypatch):
        # past the enumeration cap, so enumerating would raise SizeLimitExceeded
        from quandlekit import structure

        calls = []
        real = structure._closed_orbits
        monkeypatch.setattr(structure, "_closed_orbits", lambda t: calls.append(1) or real(t))
        path = tmp_path / "dihedral343.qdl"
        write_qdl(affine_quandle(343, 342), path)
        assert main(["analyze", str(path), "--verify-main-theorem"]) == 0
        assert "main theorem: FAIL (not an SHQ)\n" in capsys.readouterr().out
        assert calls == []


def _gf64_over_gf4():
    field = GaloisField(2, 6)
    return galois_affine_quandle(2, 6, field.pow(field.multiplicative_generator(), 21))


class TestTheoremOutputPins:
    """sha256 of the JSON reports on seed-18 relabellings of the theorem
    benchmark's tables, pinned before the fix-block laws and the closed-set
    orbits were computed from whole-table arrays."""

    @pytest.mark.parametrize(
        "p, c, digest",
        [
            (3, 4, "41517c65b0fce95714ebe0d67c97c06b1a2111fd1047001b8ca86dc796606b29"),
            (5, 3, "15edc247ff465a233f3edcb473f57af98ac32334e31fa2431707a55456d3a482"),
            (7, 3, "aaeccccc45cc1a27275f1db33c792ba333e9d99b20952f3468c7706d3426d52f"),
            (3, 5, "b413ebc737f0d7afcad4a570fef9c20a14006739e89257f2dd0bd4073da1d9b1"),
            (11, 3, "080491f6f25d41fa36f132ddefd33d41a2865e8c49df2d155f60ef9228dff907"),
            (5, 4, "148e7d70fa2e65df3ff83117dab0edd053ae379ec8bd5ffe153a65dcf03f86f8"),
        ],
    )
    def test_family_theorem_and_fix_blocks(self, capsys, tmp_path, p, c, digest):
        from test_table_oracles import reference_fix_block_report

        q = shuffled(shq_family(p, c), 18)
        path = tmp_path / "f.qdl"
        write_qdl(q, path)
        argv = ["analyze", "--verify-main-theorem", "--subquandles", "--json",
                "--max-order", "343", str(path)]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        assert fix_block_report(q) == reference_fix_block_report(q) == FixBlockReport(c - 1, ())

    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: galois_affine_quandle(3, 3, 2),
             "20c6b346158222aab49598a5e9459463eec9b13503d6c66aead7f616e1a376f3"),
            (_gf64_over_gf4, "6a6ad2acfb2ed978d7b5ba4b99c379c6705963abba6f5892d9b1799e5ef5f868"),
        ],
        ids=["gf27", "gf64-over-gf4"],
    )
    def test_galois_inventory(self, capsys, tmp_path, make, digest):
        path = tmp_path / "g.qdl"
        write_qdl(shuffled(make(), 18), path)
        assert main(["analyze", "--subquandles", "--json", str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestConstruct:
    def test_affine(self, capsys, tmp_path):
        out = tmp_path / "q.qdl"
        code = main(["construct", "affine", "--m", "9", "--h", "2", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "profile: (1, 2, 6)\n"
        assert read_qdl(out) == affine_quandle(9, 2)

    def test_family_roundtrip_through_analyze(self, capsys, tmp_path):
        out = tmp_path / "t.qdl"
        code = main(["construct", "shq-family", "--p", "3", "--c", "4", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "profile: (1, 2, 6, 18)\n"
        assert read_qdl(out) == shq_family(3, 4)
        assert main(["analyze", str(out)]) == 0
        report = capsys.readouterr().out
        assert "profile: (1, 2, 6, 18)\n" in report
        assert "shq: ell=2 c=4 p=3 a=1\n" in report

    def test_galois(self, capsys, tmp_path):
        out = tmp_path / "g.qdl"
        code = main(
            ["construct", "galois", "--p", "2", "--a", "2", "--multiplier", "2",
             "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == "profile: (1, 3)\n"

    def test_cyclic(self, capsys, tmp_path):
        out = tmp_path / "c.qdl"
        code = main(["construct", "cyclic", "--p", "3", "--a", "2", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "profile: (1, 8)\n"
        assert read_qdl(out).n == 9

    def test_cyclic_builds_one_field(self, capsys, tmp_path, monkeypatch):
        # the multiplier's field is the table's: one modulus search
        calls = []
        find = GaloisField._find_modulus
        monkeypatch.setattr(GaloisField, "_find_modulus", lambda f: calls.append(f) or find(f))
        out = tmp_path / "c.qdl"
        assert main(["construct", "cyclic", "--p", "2", "--a", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "profile: (1, 31)\n"
        assert len(calls) == 1
        assert read_qdl(out) == galois_affine_quandle(2, 5, GaloisField(2, 5).multiplicative_generator())

    def test_bad_multiplier(self, capsys, tmp_path):
        out = tmp_path / "x.qdl"
        code = main(["construct", "affine", "--m", "4", "--h", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: 2 is not a unit modulo 4\n"
        assert not out.exists()

    def test_out_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "affine", "--m", "3", "--h", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["cyclic", "--p", "3", "--a", "4"],
             "2f50dbb4cccd1321ce9349373945b27840c80551362050f2d62974e418eaf435"),
            (["affine", "--m", "343", "--h", "3"],
             "ace7c6fd7e924e4cd2d53927da0e8280cf0d70dc2797a8c0a7df4200768eefa4"),
        ],
    )
    def test_pinned_tables(self, capsys, tmp_path, argv, digest):
        # sha256 of the files the per-cell builders wrote
        out = tmp_path / "t.qdl"
        assert main(["construct", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["cyclic", "--p", "2", "--a", "32"],
            ["cyclic", "--p", "2", "--a", "40"],
            ["galois", "--p", "2", "--a", "40", "--multiplier", "2"],
            ["shq-family", "--p", "3", "--c", "30000000"],
            ["shq-family", "--p", "1000000000000000003", "--c", "2"],
            ["galois", "--p", "1000000000000000003", "--a", "1", "--multiplier", "2"],
        ],
    )
    def test_oversized_refused_before_set_up(self, tmp_path, argv):
        out = tmp_path / "x.qdl"
        proc = subprocess.run(
            [sys.executable, "-m", "quandlekit.cli", "construct", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2
        assert "exceeds construction cap 2048" in proc.stderr
        assert not out.exists()

    def test_max_order_cap(self, capsys, tmp_path):
        out = tmp_path / "x.qdl"
        code = main(
            ["construct", "shq-family", "--p", "3", "--c", "5",
             "--max-order", "80", "--out", str(out)]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err


class TestSearch:
    def test_plain_line(self, capsys):
        assert main(["search", "--profile", "1,2"]) == 0
        assert capsys.readouterr().out == "found 1 quandles with profile 1,2\n"

    def test_dedup_line(self, capsys):
        assert main(["search", "--profile", "1,2,6", "--dedup"]) == 0
        assert capsys.readouterr().out == (
            "found 6 quandles with profile 1,2,6 in 3 isomorphism classes\n"
        )

    def test_empty_profile_result(self, capsys):
        assert main(["search", "--profile", "1,5", "--dedup"]) == 0
        assert capsys.readouterr().out == (
            "found 0 quandles with profile 1,5 in 0 isomorphism classes\n"
        )

    def test_json_manifest(self, capsys):
        assert main(["search", "--profile", "1,2,6", "--dedup", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["schema"] == "quandlekit.search/2"
        assert manifest["profile"] == [1, 2, 6]
        assert manifest["count"] == 6
        assert manifest["iso_classes"] == [[0, 1], [2, 3], [4, 5]]
        assert manifest["stats"]["nodes_expanded"] == 9

    def test_no_workers_option(self, capsys):
        # the search runs in one process; --workers is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["search", "--profile", "1,2", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_json_deterministic(self, capsys):
        main(["search", "--profile", "1,4", "--dedup", "--json"])
        first = capsys.readouterr().out
        main(["search", "--profile", "1,4", "--dedup", "--json"])
        assert capsys.readouterr().out == first

    def test_out_directory(self, capsys, tmp_path):
        outdir = tmp_path / "results"
        code = main(
            ["search", "--profile", "1,2,6", "--dedup", "--out", str(outdir)]
        )
        assert code == 0
        assert "found 6 quandles" in capsys.readouterr().out
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["manifest.json"] + [f"q{i:03d}.qdl" for i in range(6)]
        for name in names[1:]:
            assert read_qdl(outdir / name).n == 9

    def test_repeated_lengths_rejected(self, capsys):
        assert main(["search", "--profile", "1,2,2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_profile(self, capsys):
        assert main(["search", "--profile", "abc"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_cap(self, capsys):
        assert main(["search", "--profile", "1,2,6", "--max-order", "8"]) == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "admissible"])
    @pytest.mark.parametrize("text", ["1,2_0", "1,\u0662", "1,+2", "1,2 2", "1,,2"])
    def test_profile_tokens_are_ascii_decimal(self, capsys, command, text):
        # int() alone takes '2_0', '+2' and the Arabic-Indic digit two
        assert main([command, "--profile", text]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_pinned_1_2_8_manifest(self, capsys):
        # the sha256 of the search/2 report; the recursive candidate
        # enumeration gave the same profile, order, count and classes
        assert main(["search", "--profile", "1,2,8", "--dedup", "--json"]) == 0
        out = capsys.readouterr().out
        manifest = json.loads(out)
        assert manifest["count"] == 0
        assert manifest["stats"]["per_generator_unary"] == [1, 0]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ffec749c2be25151e30d513245a7b08d476d5aafa5143be7523dc2f5bc40ff78"
        )

    def test_work_bound_exits_2(self, capsys, monkeypatch):
        from quandlekit import search

        monkeypatch.setattr(search, "_WORK_BOUND", 125)  # (1,10) needs 126
        assert main(["search", "--profile", "1,10", "--dedup", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 125 backtracking nodes" in captured.err


class TestAdmissible:
    def test_ruled_out_formula(self, capsys):
        assert main(["admissible", "--profile", "1,6,12"]) == 1
        assert capsys.readouterr().out == (
            "RuledOut (FormulaMismatch: l_3 must be 42, found 12)\n"
        )

    def test_ruled_out_prime_power(self, capsys):
        assert main(["admissible", "--profile", "1,5"]) == 1
        assert "NotPrimePower" in capsys.readouterr().out

    def test_not_ruled_out(self, capsys):
        assert main(["admissible", "--profile", "1,6,42"]) == 0
        assert capsys.readouterr().out == "NotRuledOut\n"

    def test_json(self, capsys):
        assert main(["admissible", "--profile", "1,4,20", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "schema": "quandlekit.admissible/1",
            "lengths": [1, 4, 20],
            "ruled_out": False,
            "reason": None,
            "detail": "",
            "index": None,
        }

    def test_json_ruled_out_keeps_exit_code(self, capsys):
        assert main(["admissible", "--profile", "1,5", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ruled_out"] is True and report["index"] == 2

    def test_bad_shape(self, capsys):
        assert main(["admissible", "--profile", "2,4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_large_prime_refused(self, capsys):
        # l_2 + 1 = 10**18 + 3 is prime; deciding it by trial division would hang
        assert main(["admissible", "--profile", "1,1000000000000000002"]) == 2
        assert "1000000000000000003 has no factor below" in capsys.readouterr().err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "quandlekit 0.1.0\n"

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def _outcome(argv, capsys):
    """Exit code (argparse's SystemExit included), stdout and stderr of main."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestKeptParser:
    def test_matches_fresh_parser(self, monkeypatch, capsys, tmp_path):
        out = str(tmp_path / "a.qdl")
        run = [
            ["validate", Q94],
            ["search", "--dedup"],  # usage error: --profile is required
            ["validate", CORRUPT, "--json"],
            ["validate", EMPTY],  # .qdl parse error
            ["analyze", Q94, "--json", "--subquandles"],
            ["construct", "affine", "--m", "7", "--h", "3", "--out", out],
            ["construct", "affine", "--m", "4", "--h", "2", "--out", out],
            ["analyze", out, "--verify-main-theorem"],
            ["search", "--profile", "1,2,6", "--dedup"],
            ["search", "--profile", "1,2", "--workers", "2"],
            ["admissible", "--profile", "1,2,6", "--json"],
            ["admissible", "--profile", "1,6,12"],
            ["frobnicate"],
            ["--version"],
            [],
            ["validate", Q94, "--json"],
        ]
        kept = [_outcome(argv, capsys) for argv in run]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [_outcome(argv, capsys) for argv in run]
        assert kept == fresh
        assert [code for code, _, _ in kept] == [0, 2, 1, 2, 0, 0, 2, 0, 0, 2, 0, 1, 2, 0, 2, 0]

    def test_built_once(self, monkeypatch, capsys):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert main(["validate", Q94]) == 0
            assert main(["admissible", "--profile", "1,2,6"]) == 0
        finally:
            cli._parser.cache_clear()
        assert builds == [1]

    def test_handler_looked_up_at_call_time(self, monkeypatch, capsys):
        # a rebound cmd_* runs even after the parser is kept, as the
        # benchmark's traced round and these tests rely on
        assert main(["admissible", "--profile", "1,2,6"]) == 0
        seen = []

        def fake(args):
            seen.append(args.profile)
            return 7

        monkeypatch.setattr(cli, "cmd_admissible", fake)
        assert main(["admissible", "--profile", "1,2,6"]) == 7
        assert seen == ["1,2,6"]
        assert capsys.readouterr().out == "NotRuledOut\n"


class TestUndecodableFile:
    @pytest.mark.parametrize("command", [["validate"], ["analyze", "--json"]])
    def test_exit_2_without_traceback(self, tmp_path, command):
        path = tmp_path / "bad.qdl"
        path.write_bytes(b"3\n1 3 2\n3 2 1\n2 1 \xff3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "quandlekit.cli", *command, str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: line 4:")
        assert "Traceback" not in proc.stderr


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quandlekit.cli", "validate", Q94],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "valid quandle of order 9\n"

    @pytest.mark.parametrize("head, rows, out, over_mb", [
        (b"3000\n", 3000, "line 1: order 3000 exceeds the cap 2048 (QUANDLEKIT_MAX_ORDER)", 4),
        (b"3\n", 3000, "line 5: unexpected content after table", 4),
        (b"3\n1 1 1\n2 2 2\n3 3 3\n", 1, "line 5: unexpected content after table", 4),
        (b"3\n1 1 1\n2 2 2\n3 3 3\n#", 1, None, 72),
    ])
    def test_hostile_file_refused_at_bounded_memory(self, tmp_path, head, rows, out, over_mb):
        # about 18 MB of rows, 3,000 entries each, after an order above the
        # cap or after row 3 of an order-3 table; or one 18 MB row of 9
        # million entries: the rows are counted a chunk at a time and never
        # held, so the refusal peaks within a few MB of validating an order-3
        # file.  A valid file whose 18 MB line is a comment is read whole, but
        # goes to the line path, whose peak is a small multiple of the file's
        # size; the array pass would take many times it.  The peak is the
        # child's VmHWM, which starts afresh at exec; its ru_maxrss would keep
        # this process's peak from the fork.
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status for the peak RSS")
        big = tmp_path / "big.qdl"
        row = b"1 " * (9_000_000 // rows) + b"\n"
        with open(big, "wb") as f:
            f.write(head)
            for _ in range(rows):
                f.write(row)
        del row
        probe = (
            "import sys\n"
            "from quandlekit.cli import main\n"
            "rc = main(['validate', sys.argv[1]])\n"
            "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(rc, peak[0].split()[1])\n"
        )

        def validate(path):
            proc = subprocess.run(
                [sys.executable, "-c", probe, str(path)], capture_output=True, text=True,
                timeout=60,
            )
            rc, peak_kb = proc.stdout.split()[-2:]
            return int(rc), int(peak_kb) / 1024, proc.stderr

        rc, big_mb, err = validate(big)
        assert (rc, err) == ((0, "") if out is None else (2, f"error: {out}\n"))
        rc, small_mb, err = validate(TRIVIAL)
        assert (rc, err) == (0, "")
        assert big_mb < small_mb + over_mb, (big_mb, small_mb)
