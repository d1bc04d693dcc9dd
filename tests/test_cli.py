import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import zecap.cli
from zecap.model import Code

CLI = [sys.executable, "-m", "zecap.cli"]
# the child imports the zecap this process imported, installed or not
SRC = str(Path(zecap.cli.__file__).parents[1])


def run_cli(*args, env=(), **kwargs):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env={**os.environ, **dict(env), "PYTHONPATH": path},
                          **kwargs)


def record_of(proc):
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 1, f"expected one record line, got {proc.stdout!r}"
    return json.loads(lines[0])


class TestCapacityCommand:
    def test_golden(self):
        proc = run_cli("capacity", "--lengths", "1,2")
        assert proc.returncode == 0
        rec = record_of(proc)
        assert abs(rec["outputs"]["rate_bits"] - 0.69424) < 1e-4

    def test_half(self):
        rec = record_of(run_cli("capacity", "--lengths", "2,2"))
        assert abs(rec["outputs"]["rate_bits"] - 0.5) < 1e-10

    def test_tail(self):
        rec = record_of(run_cli("capacity", "--lengths", "1",
                                "--tail", "2,2"))
        assert abs(rec["outputs"]["rate_bits"] - 0.849) < 1e-3

    def test_bad_lengths_exit_2(self):
        assert run_cli("capacity", "--lengths", "1,x").returncode == 2

    def test_no_root_exit_2(self):
        assert run_cli("capacity", "--lengths", "3").returncode == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_2(self, tol):
        proc = run_cli("capacity", "--lengths", "1,2", "--tol", tol)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "finite positive" in proc.stderr


class TestExactCommand:
    def test_triangle_n2(self):
        rec = record_of(run_cli("exact", "--channel", "00-01;00-10;01-10",
                                "--n", "2"))
        assert rec["outputs"]["size"] == 3

    def test_edgeless(self):
        rec = record_of(run_cli("exact", "--channel", "", "--n", "5"))
        assert rec["outputs"]["size"] == 1

    def test_single_edge_hamming2(self):
        rec = record_of(run_cli("exact", "--channel", "00-11", "--n", "4"))
        assert rec["outputs"]["size"] == 4  # 2^(n/2), rate 1/2

    def test_alias(self):
        rec = record_of(run_cli("exact", "--channel", "F", "--n", "3"))
        assert rec["outputs"]["size"] == 5

    def test_bad_channel_exit_2(self):
        assert run_cli("exact", "--channel", "00-00", "--n", "3")\
            .returncode == 2

    def test_cap_exit_4(self):
        assert run_cli("exact", "--channel", "F", "--n", "20")\
            .returncode == 4

    def test_first_n_over_cap_exit_4(self):
        # 2^15 pair-shift walks of length 14 are over the vertex cap
        proc = run_cli("exact", "--channel", "F", "--n", "15", timeout=60)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "exceeds cap" in proc.stderr

    def test_witness_file(self, tmp_path):
        out = tmp_path / "w.txt"
        rec = record_of(run_cli("exact", "--channel", "F", "--n", "3",
                                "--out", str(out)))
        words = out.read_text().splitlines()
        assert len(words) == rec["outputs"]["size"]
        assert words == sorted(words)

    def test_deterministic_byte_identical(self):
        a = run_cli("exact", "--channel", "G", "--n", "6")
        b = run_cli("exact", "--channel", "G", "--n", "6")
        assert strip_elapsed(a.stdout) == strip_elapsed(b.stdout)

    @pytest.mark.parametrize("flag", ["--deterministic", "--no-deterministic"])
    @pytest.mark.parametrize("n", ["1", "5"])
    def test_deterministic_echoed(self, flag, n):
        rec = record_of(run_cli("exact", "--channel", "F", "--n", n, flag))
        want = flag == "--deterministic"
        assert rec["inputs"]["deterministic"] is want
        assert rec["outputs"]["deterministic"] is want


def strip_elapsed(stdout: str) -> str:
    rec = json.loads(stdout)
    rec["elapsed_ms"] = 0
    rec["outputs"].pop("elapsed_ms", None)
    return json.dumps(rec, sort_keys=True)


class TestConstructCommand:
    @pytest.mark.parametrize("family,n,count", [
        ("fibonacci", 2, 3),
        ("oddrun", 4, 6),
        ("no111", 3, 7),
        ("ministring-tribonacci", 4, 7),
        ("no-isolated-ones", 4, 4),
    ])
    def test_counts(self, family, n, count):
        rec = record_of(run_cli("construct", "--family", family,
                                "--n", str(n)))
        assert rec["outputs"]["count"] == count

    def test_unknown_family_exit_2(self):
        assert run_cli("construct", "--family", "nope", "--n", "3")\
            .returncode == 2

    @pytest.mark.parametrize("n", [40, 1000])
    def test_over_cap_exit_4(self, n):
        # refused from the exact count, before any word is built
        proc = run_cli("construct", "--family", "fibonacci", "--n", str(n),
                       timeout=60)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "exceeds cap" in proc.stderr

    def test_huge_n_exit_4(self):
        # the count before the cap check keeps a window of the recurrence
        proc = run_cli("construct", "--family", "oddrun", "--n", "100000",
                       timeout=60)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "exceeds cap" in proc.stderr

    @pytest.mark.parametrize("n", ["1000000", "1000000000"])
    @pytest.mark.parametrize("family", sorted(zecap.cli.FAMILIES))
    def test_far_over_cap_exit_4_at_once(self, family, n):
        # the counting stops at the first layer over the cap, so its
        # integers stay small at any n (the whole count at 10^6, an
        # integer of about 850 000 bits, ran past 20 s)
        proc = run_cli("construct", "--family", family, "--n", n,
                       timeout=30)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert "exceeds cap" in proc.stderr

    def test_word_file_format(self, tmp_path):
        out = tmp_path / "code.txt"
        run_cli("construct", "--family", "fibonacci", "--n", "3",
                "--out", str(out))
        text = out.read_text()
        assert text == "000\n001\n010\n100\n101\n"


# sha256 of `construct --family F --n 18 --out FILE`, from the per-word
# string writer this one-write output replaced
CONSTRUCT_18_SHA256 = {
    "fibonacci":
        "c9d8d19281f2f11231fd5dee7f8c33b88f6b6167dd051a7b201001b7967f4236",
    "ministring-tribonacci":
        "f4f1e257fcaea3e65b6b2051c08e4d1a8e80fa1fc320673443691c9243a621ce",
    "no-isolated-ones":
        "efce0d71fb19eb8833158962b668f8676f169ce084db2c70b8fc72e6bb2b1304",
    "no111":
        "56fd2a718eb18fa463d3d4480a49bcfa87ae66c04e0714ab3f16bed18653091c",
    "oddrun":
        "f08673d3960b4facdf6cfb4c99b53da5a692038be6ab3cc854932cced8b8509f",
}


class TestWordFiles:
    @pytest.mark.parametrize("family", sorted(CONSTRUCT_18_SHA256))
    def test_construct_files_at_18_are_pinned(self, family, tmp_path,
                                              capsys):
        out = tmp_path / "code.txt"
        assert zecap.cli.main(["construct", "--family", family, "--n", "18",
                               "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            CONSTRUCT_18_SHA256[family]

    def test_write_is_the_sorted_lines(self, tmp_path):
        rng = random.Random(18)
        out = tmp_path / "code.txt"
        for n in list(range(1, 21)) + [64, 65, 200]:
            size = rng.randint(1, min(300, 2**n))
            words = {format(rng.getrandbits(n), f"0{n}b")
                     for _ in range(size)}
            zecap.cli.write_word_file(str(out), Code(n, words))
            assert out.read_bytes() == \
                "".join(w + "\n" for w in sorted(words)).encode("ascii")
        zecap.cli.write_word_file(str(out), Code(4, set()))
        assert out.read_bytes() == b""

    @pytest.mark.parametrize("family", sorted(CONSTRUCT_18_SHA256))
    @pytest.mark.parametrize("n", range(8, 13))
    def test_listing_is_the_word_file(self, family, n, tmp_path, capsys):
        # without --out the record lists exactly the lines --out writes
        out = tmp_path / "code.txt"
        argv = ["construct", "--family", family, "--n", str(n)]
        assert zecap.cli.main(argv) == 0
        listed = json.loads(capsys.readouterr().out)["outputs"]["words"]
        assert zecap.cli.main(argv + ["--out", str(out)]) == 0
        assert listed == out.read_text().splitlines()

    @pytest.mark.parametrize("text, error", [
        ("0a1\n01b\n011\n", "not a binary word: '0a1'"),
        ("011\n0111\n01\n", "word '0111' has length 4, expected 3"),
        ("011\n01\n0111\n", "word '01' has length 2, expected 3"),
    ])
    def test_verify_names_the_first_bad_word_in_file_order(self, text,
                                                            error, tmp_path):
        code = tmp_path / "bad.txt"
        code.write_text(text)
        errors = set()
        for seed in ("1", "2"):
            proc = run_cli("verify", "--code", str(code), "--channel", "F",
                           env={"PYTHONHASHSEED": seed})
            assert (proc.returncode, proc.stdout) == (2, "")
            errors.add(proc.stderr)
        assert errors == {f"error: {error}\n"}


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert zecap.cli.build_parser() is zecap.cli.build_parser()
    echoed = []
    for argv in (["exact", "--channel", "F", "--n", "3",
                  "--no-deterministic"], ["exact", "--channel", "F",
                                          "--n", "3"]):
        assert zecap.cli.main(argv) == 0
        echoed.append(json.loads(capsys.readouterr().out)["inputs"])
    assert [r["deterministic"] for r in echoed] == [False, True]


class TestVerifyCommand:
    def test_pass(self, tmp_path):
        code = tmp_path / "code.txt"
        run_cli("construct", "--family", "oddrun", "--n", "3",
                "--out", str(code))
        proc = run_cli("verify", "--code", str(code),
                       "--channel", "00-01;00-11;01-11")
        assert proc.returncode == 0
        assert record_of(proc)["outputs"]["pass"] is True

    def test_fail_exit_1(self, tmp_path):
        code = tmp_path / "bad.txt"
        code.write_text("011\n110\n")
        proc = run_cli("verify", "--code", str(code), "--channel", "F")
        assert proc.returncode == 1
        rec = record_of(proc)
        assert rec["outputs"]["failures"] == [["011", "110"]]

    def test_single_word_pass(self, tmp_path):
        code = tmp_path / "one.txt"
        code.write_text("0110\n")
        assert run_cli("verify", "--code", str(code),
                       "--channel", "F").returncode == 0

    def test_repeated_word_exit_2(self, tmp_path):
        # two equal codewords are never distinguishable
        code = tmp_path / "twice.txt"
        code.write_text("0101\n0011\n0101\n")
        proc = run_cli("verify", "--code", str(code), "--channel", "F")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "'0101' repeats" in proc.stderr

    def test_missing_file_exit_2(self):
        assert run_cli("verify", "--code", "/nonexistent",
                       "--channel", "F").returncode == 2

    def test_non_ascii_file_exit_2(self, tmp_path):
        code = tmp_path / "code.txt"
        code.write_bytes("0é1\n".encode("utf-8"))
        proc = run_cli("verify", "--code", str(code), "--channel", "F")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:")

    def test_directory_as_code_exit_2(self, tmp_path):
        proc = run_cli("verify", "--code", str(tmp_path), "--channel", "F")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "fibonacci", "--n", "3"],
    ["exact", "--channel", "F", "--n", "3"],
    ["report", "--n-max", "3"],
])
def test_directory_as_out_exit_2(argv, tmp_path):
    proc = run_cli(*argv, "--out", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:")


class TestSpernerCommand:
    def test_fibonacci_n2(self):
        rec = record_of(run_cli("sperner", "--digraph", "0>1",
                                "--type", "0>0;0>1;1>0",
                                "--k", "2", "--n", "2"))
        assert rec["outputs"]["size"] == 2

    def test_n1(self):
        rec = record_of(run_cli("sperner", "--digraph", "0>1",
                                "--type", "fibonacci",
                                "--k", "2", "--n", "1"))
        assert rec["outputs"]["size"] == 1

    def test_pentagon(self):
        rec = record_of(run_cli("sperner", "--digraph", "C5sym",
                                "--type", "K5", "--k", "5", "--n", "1"))
        assert rec["outputs"]["size"] == 2
        assert rec["outputs"]["rate_bits"] == 1.0

    def test_empty_walk_set_has_no_rate(self):
        # 0>1 admits no walk of length 3, so the code is empty
        proc = run_cli("sperner", "--digraph", "fibonacci", "--type", "0>1",
                       "--k", "2", "--n", "3")
        assert proc.returncode == 0, proc.stderr
        out = record_of(proc)["outputs"]
        assert (out["size"], out["witness"], out["rate_bits"]) == (0, [], None)

    @pytest.mark.parametrize("flag", ["--deterministic", "--no-deterministic"])
    def test_deterministic_echoed(self, flag):
        rec = record_of(run_cli("sperner", "--digraph", "fibonacci",
                                "--type", "fibonacci", "--k", "2",
                                "--n", "4", flag))
        want = flag == "--deterministic"
        assert rec["inputs"]["deterministic"] is want
        assert rec["outputs"]["deterministic"] is want

    @pytest.mark.parametrize("n", [9, 20000])
    def test_over_cap_exit_4(self, n):
        # loopless K5 has 20 480 walks of length 7: refused before that
        # layer, or any adjacency, is built
        proc = run_cli("sperner", "--digraph", "K5", "--type", "K5",
                       "--k", "5", "--n", str(n), timeout=60)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "exceeds cap" in proc.stderr

    def test_huge_k_exit_4_before_allocating(self):
        # D's 10^6 x 10^6 arc matrix would take 931 GiB
        proc = run_cli("sperner", "--digraph", "0>1", "--type", "0>1",
                       "--k", "1000000", "--n", "2", timeout=60)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert "exceeds cap" in proc.stderr


class TestReportCommand:
    def test_csv_columns_and_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli("report", "--n-max", "4", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("theorem,n,lower_bound,exact,upper_bound,"
                            "analytic_rate,empirical_rate")
        assert len(lines) == 1 + 4 * 3  # 4 theorems, n = 2..4

    @pytest.mark.parametrize("n_max", [15, 10**12])
    def test_over_cap_exit_4_before_any_row(self, n_max, monkeypatch,
                                            capsys):
        # 2^15 words: refused before exact_M runs for n = 2
        def refuse(*args, **kwargs):
            raise AssertionError("exact_M called")

        monkeypatch.setattr(zecap.cli, "exact_M", refuse)
        assert zecap.cli.main(["report", "--n-max", str(n_max)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "exceeds cap" in err

    @pytest.mark.parametrize("n_max", ["1", "0", "-5"])
    def test_n_max_below_2_exit_2(self, n_max, capsys):
        # no row has n below 2, so an n_max below it is an input fault
        assert zecap.cli.main(["report", "--n-max", n_max]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sandwich_in_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        run_cli("report", "--n-max", "5", "--out", str(out))
        import csv
        with open(out) as fh:
            for row in csv.DictReader(fh):
                exact = int(row["exact"])
                assert int(row["lower_bound"]) <= exact
                if row["upper_bound"]:
                    assert exact <= int(row["upper_bound"])


@pytest.mark.parametrize("argv, code, error", [
    (["capacity", "--lengths", "1,3", "--tol", "1e-300"], 3,
     "no convergence to tol=1e-300 within 200 bisections"),
    (["capacity", "--lengths", "1", "--tail", "2"], 2,
     "tail must be start,step: '2'"),
    (["capacity", "--lengths", "1", "--tail", "2,x"], 2,
     "malformed tail: '2,x'"),
    (["sperner", "--digraph", "C5sym", "--type", "K5", "--k", "4",
      "--n", "2"], 2, "named digraph C5sym has k=5, not 4"),
    (["verify", "--channel", "F", "--code", "{empty}"], 2,
     "no words in {empty}"),
])
def test_fault_exits_with_one_error_line(argv, code, error, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    argv = [a.format(empty=empty) for a in argv]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == f"error: {error.format(empty=empty)}\n"


@pytest.mark.parametrize("argv", [
    ["capacity", "--lengths", "1,2"],
    ["exact", "--channel", "F", "--n", "4"],
    ["verify", "--channel", "01-10", "--code", "{code}"],
])
def test_pretty_adds_the_indented_record_on_stderr(argv, tmp_path):
    code = tmp_path / "code.txt"
    code.write_text("000\n001\n")
    argv = [a.format(code=code) for a in argv]
    plain, pretty = run_cli(*argv), run_cli("--pretty", *argv)
    assert pretty.returncode == plain.returncode
    assert plain.stderr == ""
    assert strip_elapsed(pretty.stdout) == strip_elapsed(plain.stdout)
    assert pretty.stderr == json.dumps(json.loads(pretty.stdout), indent=2,
                                       sort_keys=True) + "\n"


class TestRecordShape:
    def test_echoed_inputs_roundtrip(self):
        rec = record_of(run_cli("exact", "--channel", "F", "--n", "4"))
        # replaying the echoed inputs reproduces the outputs
        again = record_of(run_cli("exact",
                                  "--channel", rec["inputs"]["channel"],
                                  "--n", str(rec["inputs"]["n"])))
        assert again["outputs"]["size"] == rec["outputs"]["size"]
        assert again["outputs"]["witness"] == rec["outputs"]["witness"]

    def test_record_fields(self):
        rec = record_of(run_cli("capacity", "--lengths", "1,2"))
        assert set(rec) == {"command", "inputs", "outputs", "tool_version",
                            "elapsed_ms"}
