import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qmgw import cache
from qmgw.cli import main
from qmgw.modular import E2, ramanujan_derive
from qmgw.rational import rat, rat_str

TESTS = Path(__file__).resolve().parent

def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def parse_json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


class TestGwCommands:
    def test_onepoint_genus_one(self, tmp_path):
        code, out = run_cli(
            ["gw", "onepoint", "--genus", "1", "--no-cache"]
        )
        assert code == 0
        (record,) = parse_json_lines(out)
        assert record["version"] == "1"
        assert record["theory"] == "gw_curve"
        assert record["payload"] == [
            {"a": 1, "b": 0, "c": 0, "coeff": "-1/24"}
        ]

    def test_onepoint_genus_zero_convention(self):
        code, out = run_cli(
            ["gw", "onepoint", "--genus", "0", "--psi", "-2", "--no-cache"]
        )
        assert code == 0
        (record,) = parse_json_lines(out)
        assert record["payload"] == [
            {"a": 0, "b": 0, "c": 0, "coeff": "1/1"}
        ]

    def test_npoint_connected(self):
        code, out = run_cli(
            [
                "gw", "npoint", "--legs", "2", "--psi", "0,0",
                "--connected", "--no-cache",
            ]
        )
        assert code == 0
        (record,) = parse_json_lines(out)
        # -(E2^2 - E4)/288
        assert record["payload"] == [
            {"a": 0, "b": 1, "c": 0, "coeff": "1/288"},
            {"a": 2, "b": 0, "c": 0, "coeff": "-1/288"},
        ]

    def test_npoint_five_legs(self):
        code, out = run_cli(
            [
                "gw", "npoint", "--legs", "5", "--psi", "0,0,0,0,0",
                "--connected", "--no-cache",
            ]
        )
        assert code == 0
        (record,) = parse_json_lines(out)
        # divisor equation: the connected (0,...,0) value is D^{N-1} C2
        expected = E2 * rat(-1, 24)
        for _ in range(4):
            expected = ramanujan_derive(expected)
        assert record["genus"] == 1
        assert record["payload"] == [
            {"a": a, "b": b, "c": c, "coeff": rat_str(v)}
            for (a, b, c), v in expected.sorted_terms()
        ]

    def test_q_expansion_attached(self):
        code, out = run_cli(
            [
                "gw", "onepoint", "--genus", "1", "--q-expand",
                "--order", "6", "--no-cache",
            ]
        )
        assert code == 0
        records = parse_json_lines(out)
        assert len(records) == 2
        series = records[1]["payload"]["coefficients"]
        assert series[0] == "-1/24" and series[1] == "1/1"

    def test_invalid_leg_spec_exit_2(self, capsys):
        code, _ = run_cli(
            ["gw", "npoint", "--legs", "2", "--psi", "0,0,0", "--no-cache"]
        )
        assert code == 2

    def test_bad_psi_power_exit_2(self):
        code, _ = run_cli(
            ["gw", "npoint", "--legs", "1", "--psi", "-5", "--no-cache"]
        )
        assert code == 2

    @pytest.mark.parametrize("psi, bad", [("0,x", "'x'"), ("0.5,1", "'0.5'")])
    def test_non_integer_psi_exit_2(self, psi, bad, capsys):
        code, out = run_cli(
            ["gw", "npoint", "--legs", "2", "--psi", psi, "--no-cache"]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: psi-power {bad} is not an integer\n"
        )

    @pytest.mark.parametrize(
        "legs, psi, position", [("2", "0,,1", 2), ("1", "0,", 2)]
    )
    def test_empty_psi_entry_exit_2(self, legs, psi, position, capsys):
        code, out = run_cli(
            ["gw", "npoint", "--legs", legs, "--psi", psi, "--no-cache"]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: psi-power entry {position} is empty\n"
        )

    @pytest.mark.parametrize(
        "genus, psi", [("5", "0"), ("1", "2"), ("0", "0"), ("0", None), ("-1", "-2")]
    )
    def test_onepoint_psi_must_match_genus_exit_2(self, genus, psi, capsys):
        argv = ["gw", "onepoint", "--genus", genus, "--no-cache"]
        if psi is not None:
            argv += ["--psi", psi]
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("genus, psi", [("3", "4"), ("0", "-1")])
    def test_onepoint_matching_psi_accepted(self, genus, psi):
        code, out = run_cli(
            ["gw", "onepoint", "--genus", genus, "--psi", psi, "--no-cache"]
        )
        assert code == 0
        (record,) = parse_json_lines(out)
        assert record["genus"] == int(genus)

    @pytest.mark.parametrize(
        "flag, value, floor",
        [("--order", "3", 4), ("--s-order", "2", 3), ("--z-order", "2", 3)],
    )
    def test_order_below_floor_exit_3(self, flag, value, floor, capsys):
        code, _ = run_cli(
            ["gw", "onepoint", "--genus", "1", flag, value, "--no-cache"]
        )
        assert code == 3
        assert f">= {floor}" in capsys.readouterr().err


class TestFjrwCommands:
    def test_invariants_table(self, tmp_path):
        code, out = run_cli(
            [
                "fjrw", "invariants", "--max", "12",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        records = parse_json_lines(out)
        by_n = {len(r["insertions"]): r["payload"] for r in records}
        assert by_n[3] == "1/108"
        assert by_n[4] == "0/1" and by_n[5] == "0/1"
        assert by_n[6] == "1/243"
        assert by_n[12] == "104/6561"

    def test_invariants_max_one(self, capsys):
        code, out = run_cli(["fjrw", "invariants", "--max", "1", "--no-cache"])
        assert code == 0, capsys.readouterr().err
        (record,) = parse_json_lines(out)
        assert record["insertions"] == ["phi"]
        assert record["payload"] == "0/1"

    def test_onepoint_genus_two(self):
        code, out = run_cli(
            [
                "fjrw", "onepoint", "--genus", "2",
                "--s-order", "4", "--no-cache",
            ]
        )
        assert code == 0
        (record,) = parse_json_lines(out)
        coeffs = record["payload"]["coefficients"]
        assert coeffs[0] == "0/1" and coeffs[1] == "1/1080"

    def test_insufficient_order_exit_3(self, capsys):
        code, _ = run_cli(
            [
                "fjrw", "onepoint", "--genus", "2",
                "--s-order", "2", "--no-cache",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "s-order must be >= 3" in err  # names the minimal order

    @pytest.mark.parametrize("b_bound", [None, "2"])
    def test_b_bound_does_not_limit_the_genus(self, b_bound):
        # the table is always the exact b_table(2g), as gw onepoint reads it
        from qmgw.cayley import cayley_frame, cayley_transform
        from qmgw.theta import onepoint_from_b

        flags = [] if b_bound is None else ["--b-bound", b_bound]
        code, out = run_cli(
            ["fjrw", "onepoint", "--genus", "8", "--no-cache"] + flags
        )
        assert code == 0
        (record,) = parse_json_lines(out)
        want = cayley_transform(onepoint_from_b(8), cayley_frame(16))
        assert record["payload"]["coefficients"] == [
            rat_str(c) for c in want.coeffs
        ]

    def test_nonpositive_genus_exit_2(self):
        code, _ = run_cli(
            ["fjrw", "onepoint", "--genus", "0", "--no-cache"]
        )
        assert code == 2

    def test_onepoint_transcript_is_pinned(self):
        # genus 1..7 in json, then genus 4 at s-order 40 in text and csv
        runs = [["--genus", str(g)] for g in range(1, 8)] + [
            ["--genus", "4", "--s-order", "40", "--format", fmt]
            for fmt in ("text", "csv")
        ]
        transcript = ""
        for argv in runs:
            code, out = run_cli(["fjrw", "onepoint", "--no-cache"] + argv)
            assert code == 0, argv
            transcript += out
        assert transcript == (TESTS / "fjrw_onepoint.txt").read_text()


class TestVerifyCommand:
    def test_single_suite_passes(self):
        code, out = run_cli(["verify", "chazy", "--no-cache"])
        assert code == 0
        assert "verify: PASS" in out
        assert "PASS  E2 satisfies the q-frame equation" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["chazy", "--s-order", "3"],
            ["prime-form", "--z-order", "3"],
            ["prime-form", "--z-order", "4"],
            ["all", "--order", "4", "--s-order", "3", "--z-order", "3"],
        ],
    )
    def test_passes_at_the_minimum_orders(self, argv):
        code, out = run_cli(["verify"] + argv + ["--no-cache"])
        assert code == 0, out
        assert out.endswith("verify: PASS\n")

    def test_unknown_suite(self, capsys):
        code, out = run_cli(["verify", "nonsense", "--no-cache"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: unknown suites: nonsense\n"

    def test_raising_suite_becomes_a_fail_row(self, monkeypatch):
        from qmgw import verify
        from qmgw.errors import InvalidSeries

        def broken(config):
            raise InvalidSeries("inexact division")

        monkeypatch.setitem(verify.SUITES, "weights", broken)
        code, out = run_cli(["verify", "all", "--no-cache"])
        assert code == 1
        assert (
            "[weights]\n  FAIL  suite ran to completion  "
            "(InvalidSeries: inexact division)\n"
        ) in out
        assert "PASS  E2 satisfies the q-frame equation" in out
        assert "PASS  one-point transport at genus 7" in out
        assert out.endswith("verify: FAIL\n")

    def test_mirror_suite_records_relation(self):
        code, out = run_cli(["verify", "mirror", "--no-cache"])
        assert code == 0
        assert "on the nose" in out

    def test_transcript_is_pinned(self):
        # an intended change to a verify line updates verify_all.txt too
        proc = subprocess.run(
            [sys.executable, "-m", "qmgw.cli", "verify", "all", "--no-cache"],
            env=dict(os.environ, PYTHONPATH=str(TESTS.parent / "src")),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (TESTS / "verify_all.txt").read_text()


class TestTables:
    def test_b_table_dump(self, tmp_path):
        code, out = run_cli(
            ["tables", "b", "--bound", "8", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert "b[1,0] = 1/120" in out
        assert list(tmp_path.glob("weierstrass-b-*.json"))

    @pytest.mark.parametrize("table", ["a", "b"])
    def test_negative_bound_exit_2(self, table, capsys):
        code, out = run_cli(["tables", table, "--bound", "-1", "--no-cache"])
        assert code == 2
        assert out == ""
        assert "error: table bound must be >= 0" in capsys.readouterr().err

    def test_b_bound_takes_the_same_floor(self, capsys):
        want = run_cli(["tables", "a", "--bound", "1", "--no-cache"])
        assert want[0] == 0
        assert run_cli(["--b-bound", "1", "tables", "a", "--no-cache"]) == want
        capsys.readouterr()
        code, out = run_cli(["--b-bound", "-1", "tables", "a", "--no-cache"])
        assert (code, out) == (2, "")
        assert "error: table bound must be >= 0" in capsys.readouterr().err

    def test_unwritable_cache_dir_keeps_result(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = ["tables", "a", "--bound", "3"]
        bypass = run_cli(args + ["--no-cache"])
        capsys.readouterr()
        assert run_cli(args + ["--cache-dir", str(blocker / "x")]) == bypass
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("table", ["a", "b"])
    def test_bound_40_dump_is_pinned(self, table):
        code, out = run_cli(["tables", table, "--bound", "40", "--no-cache"])
        assert code == 0
        assert out == (TESTS / f"tables_{table}_40.txt").read_text()

    def test_a_table_dump(self):
        code, out = run_cli(["tables", "a", "--bound", "8", "--no-cache"])
        assert code == 0
        assert "a[1,0] = -1/1" in out

    def test_eisenstein_dump(self):
        code, out = run_cli(
            [
                "tables", "eisenstein", "--k", "4", "--order", "6",
                "--no-cache", "--format", "text",
            ]
        )
        assert code == 0
        assert "240" in out


class TestDeterminismAndCache:
    def test_verify_byte_stable(self):
        _, first = run_cli(["verify", "ramanujan", "bp", "--no-cache"])
        _, second = run_cli(["verify", "ramanujan", "bp", "--no-cache"])
        assert first == second

    def test_table_byte_stable(self):
        _, first = run_cli(["tables", "a", "--bound", "10", "--no-cache"])
        _, second = run_cli(["tables", "a", "--bound", "10", "--no-cache"])
        assert first == second

    def test_cache_round_trip_bit_identical(self, tmp_path):
        args = ["fjrw", "invariants", "--max", "9", "--cache-dir", str(tmp_path)]
        _, cold = run_cli(args)
        assert list(tmp_path.glob("*.json"))
        _, warm = run_cli(args)
        _, bypass = run_cli(args + ["--no-cache"])
        assert cold == warm == bypass

    def test_corrupted_cache_recomputes(self, tmp_path):
        args = ["fjrw", "invariants", "--max", "6", "--cache-dir", str(tmp_path)]
        _, cold = run_cli(args)
        (cache_file,) = tmp_path.glob("*.json")
        cache_file.write_text("{not json")
        code, again = run_cli(args)
        assert code == 0 and again == cold

    def test_cache_names_and_checksums_pinned(self, tmp_path):
        """SHA-256 keys and checksums as ever: hashing on first use
        changes no cache byte."""
        run_cli(["tables", "b", "--bound", "14", "--cache-dir", str(tmp_path)])
        path = cache.cache_path(tmp_path, "weierstrass-b", {"bound": 14})
        assert path.name == "weierstrass-b-04bae9618c78fb8c7f200360.json"
        assert json.loads(path.read_text())["checksum"] == (
            "cced0c3517b66a8c018452c8da193003883cf89b1d1c11c1ad7adc752146a19a"
        )

    def test_version_mismatch_recomputes(self, tmp_path):
        args = ["fjrw", "invariants", "--max", "6", "--cache-dir", str(tmp_path)]
        _, cold = run_cli(args)
        (cache_file,) = tmp_path.glob("*.json")
        blob = json.loads(cache_file.read_text())
        blob["code_version"] = "0.0.0-stale"
        blob["payload"] = [[3, "9999/1"]]
        cache_file.write_text(json.dumps(blob))
        code, again = run_cli(args)
        assert code == 0 and again == cold

    def test_changed_payload_digit_recomputes(self, tmp_path):
        args = ["tables", "b", "--bound", "12", "--cache-dir", str(tmp_path)]
        _, cold = run_cli(args)
        (cache_file,) = tmp_path.glob("weierstrass-b-*.json")
        body = cache_file.read_text()
        start = body.index('"payload":')
        end = body.index("]]", start)
        i = max(j for j in range(start, end) if body[j] in "123456789")
        digit = "2" if body[i] == "1" else "1"
        cache_file.write_text(body[:i] + digit + body[i + 1 :])
        code, warm = run_cli(args)
        assert code == 0 and warm == cold
        assert cache.load(tmp_path, "weierstrass-b", {"bound": 12}) is not None

    @pytest.mark.parametrize(
        "payload", [{"m": 0}, [[0, 0]], [[0, 0, 1]], [[0, 0, "1/0"]], "1/1"]
    )
    def test_malformed_payload_recomputes(self, tmp_path, payload):
        args = ["tables", "a", "--bound", "8", "--cache-dir", str(tmp_path)]
        _, cold = run_cli(args + ["--no-cache"])
        cache.store(tmp_path, "weierstrass-a", {"bound": 8}, payload)
        code, warm = run_cli(args)
        assert code == 0 and warm == cold

    def test_source_hash_change_is_a_miss(self, tmp_path, monkeypatch):
        params = {"bound": 8}
        cache.store(tmp_path, "weierstrass-a", params, [[0, 0, "1/1"]])
        assert cache.load(tmp_path, "weierstrass-a", params) == [[0, 0, "1/1"]]
        monkeypatch.setattr(cache, "code_version", lambda: "0" * 64)
        assert cache.load(tmp_path, "weierstrass-a", params) is None

    def test_code_version_hashes_the_sources(self):
        version = cache.code_version()
        assert len(version) == 64 and version != "0.1.0"
        assert cache.code_version() is version

    @staticmethod
    def _digests(new):
        chunks = new()
        for part in (b"theta.py", b"\0", b"x" * 100_000, b"\0"):
            chunks.update(part)
        return [new().hexdigest(), new(b"abc").hexdigest(), chunks.hexdigest()]

    def test_sha256_matches_hashlib(self):
        import hashlib

        assert self._digests(cache._sha256) == self._digests(hashlib.sha256)

    def test_sha256_falls_back_to_hashlib(self, monkeypatch):
        import hashlib

        expected = self._digests(hashlib.sha256)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        cache._sha256_type.cache_clear()
        try:
            assert cache._sha256_type() is hashlib.sha256
            assert self._digests(cache._sha256) == expected
        finally:
            cache._sha256_type.cache_clear()

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CACHE_DIR", str(tmp_path / "envcache"))
        code, _ = run_cli(["fjrw", "invariants", "--max", "5"])
        assert code == 0
        assert list((tmp_path / "envcache").glob("*.json"))


class TestFormats:
    def test_csv(self):
        code, out = run_cli(
            [
                "gw", "onepoint", "--genus", "1",
                "--format", "csv", "--no-cache",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("version,theory,genus")
        assert any("E2^1*E4^0*E6^0,-1/24" in line for line in lines)

    def test_text(self):
        code, out = run_cli(
            [
                "gw", "onepoint", "--genus", "1",
                "--format", "text", "--no-cache",
            ]
        )
        assert code == 0
        assert "gw_curve genus 1" in out

    def test_rationals_never_floats(self):
        _, out = run_cli(
            ["fjrw", "invariants", "--max", "8", "--no-cache"]
        )
        for record in parse_json_lines(out):
            assert isinstance(record["payload"], str)
            assert "/" in record["payload"]


class TestConsoleEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "qmgw.cli",
                "gw", "onepoint", "--genus", "1", "--no-cache",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "-1/24" in proc.stdout


def readme_commands():
    """The `qmgw ...` lines of README's CLI block, comments dropped."""
    text = (TESTS.parent / "README.md").read_text()
    block = text.split("## CLI\n", 1)[1].split("```\n")[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("qmgw ")
    ]


class TestReadme:
    def test_cli_block_has_examples(self):
        assert len(readme_commands()) >= 10

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_cli_example_runs(self, argv):
        code, out = run_cli(argv + ["--no-cache"])
        assert code == 0, out
