"""Golden CLI records: a fixed set of zecap invocations whose JSON records
must stay byte-identical (with `elapsed_ms` zeroed) across refactors.

Regenerate the golden file with `python tests/test_golden_records.py`,
which first prints each changed record's argv and its changed output keys,
old -> new; a regenerated file belongs in a commit only with every changed
record explained in CHANGES.md.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import zecap.cli

GOLDEN = Path(__file__).with_name("golden_records.jsonl")

# Word files for `verify`, built without zecap: odd 1-runs with a leading 0
# pass on G; no-11 words fail on Q, and on 00-11 with more failures than
# the report keeps.
VERIFY_FILES = {
    "oddrun-8.txt": [w for w in (format(v, "08b") for v in range(256))
                     if w[0] == "0" and all(len(r) % 2 for r in
                                            re.findall("1+", w))],
    "fibonacci-8.txt": [w for w in (format(v, "08b") for v in range(256))
                        if "11" not in w],
}


def golden_argvs() -> list[list[str]]:
    argvs = []
    for channel in ("F", "G", "L", "Q", "00-11"):
        for n in range(2, 9):
            argvs.append(["exact", "--channel", channel, "--n", str(n)])
    # the many-rounds orbit of 00-01;00-10;01-11 (bit complement and
    # reversal images) and 00-11;01-10, whose reduction keeps every vertex
    for channel in ("00-01;00-10;01-11", "00-10;01-11;10-11",
                    "00-01;00-10;10-11", "00-01;01-11;10-11", "00-11;01-10"):
        for n in range(2, 10):
            argvs.append(["exact", "--channel", channel, "--n", str(n)])
    argvs.append(["exact", "--channel", "G", "--n", "8",
                  "--no-deterministic"])
    argvs.append(["exact", "--channel", "F", "--n", "1",
                  "--no-deterministic"])
    for n in range(1, 9):
        argvs.append(["sperner", "--digraph", "0>1", "--type", "fibonacci",
                      "--k", "2", "--n", str(n)])
    argvs.append(["sperner", "--digraph", "C5sym", "--type", "K5",
                  "--k", "5", "--n", "2"])
    for digraph, k, n in (("fibonacci", 2, 4), ("0>1", 2, 6),
                          ("C5sym", 5, 2)):
        argvs.append(["sperner", "--digraph", digraph, "--type",
                      "fibonacci" if k == 2 else "K5", "--k", str(k),
                      "--n", str(n), "--no-deterministic"])
    for family in ("fibonacci", "ministring-tribonacci", "no-isolated-ones",
                   "no111", "oddrun"):
        argvs.append(["construct", "--family", family, "--n", "8"])
    argvs.append(["verify", "--code", "oddrun-8.txt", "--channel", "G"])
    argvs.append(["verify", "--code", "fibonacci-8.txt", "--channel", "Q"])
    argvs.append(["verify", "--code", "fibonacci-8.txt", "--channel",
                  "00-11"])
    for lengths, tail in (("1,2,3", None), ("1", "2,2"), ("1", "3,1"),
                          ("1,2", None)):
        argvs.append(["capacity", "--lengths", lengths]
                     + (["--tail", tail] if tail else []))
    argvs.append(["report", "--n-max", "6"])
    # benchmark size: the packed reduction spans 16 row blocks
    for channel in ("F", "G", "L", "Q"):
        argvs.append(["exact", "--channel", channel, "--n", "12"])
    # the channels with the most non-adjacent pairs and the most reduction
    # rounds, with cached witness words that go stale between rounds
    for channel in ("00-11", "01-10", "00-01;00-10;01-11"):
        for n in range(10, 13):
            argvs.append(["exact", "--channel", channel, "--n", str(n)])
    # Sperner instances that branch in the given numbering: the pentagon by
    # name and the hexagon in K6, both digraphs as arc specs
    argvs.append(["sperner", "--digraph", "C5sym", "--type", "K5",
                  "--k", "5", "--n", "3"])
    hexagon = ";".join(f"{a}>{b}" for v in range(6)
                       for a, b in ((v, (v + 1) % 6), ((v + 1) % 6, v)))
    k6 = ";".join(f"{a}>{b}" for a in range(6) for b in range(6) if a != b)
    argvs.append(["sperner", "--digraph", hexagon, "--type", k6,
                  "--k", "6", "--n", "3"])
    # the images of F and G under bit complement and word reversal, as
    # their edges map: F's complement, and G's complement, reversal and
    # both.  F's reversal is F and its "both" image its complement; G's
    # complement and reversal are one channel, and its "both" image is G,
    # each written with its edges in another order
    for channel in ("11-10;11-01;10-01", "11-10;11-00;10-00",
                    "00-10;00-11;10-11", "11-01;11-00;01-00"):
        argvs.append(["exact", "--channel", channel, "--n", "12"])
    return argvs


def golden_line(argv: list[str]) -> str:
    """One JSONL line: the argv, the exit code and the record with its
    timings zeroed.  Runs in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = zecap.cli.main(argv)
    record = json.loads(out.getvalue())
    record["elapsed_ms"] = 0
    if "elapsed_ms" in record["outputs"]:
        record["outputs"]["elapsed_ms"] = 0
    return json.dumps({"argv": argv, "exit": rc, "record": record},
                      sort_keys=True)


def write_verify_files(directory: Path) -> None:
    for name, words in VERIFY_FILES.items():
        (directory / name).write_text("".join(w + "\n" for w in words))


def test_golden_records(tmp_path, monkeypatch):
    write_verify_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = GOLDEN.read_text().splitlines()
    argvs = golden_argvs()
    assert [json.loads(line)["argv"] for line in expected] == argvs
    for argv, line in zip(argvs, expected):
        assert golden_line(argv) == line, " ".join(argv)


def changes(old_lines: list[str], new_lines: list[str]) -> list[str]:
    """For each record whose argv is in both files and whose exit code or
    outputs differ: its argv, then each changed key as old -> new."""
    before = {tuple(rec["argv"]): rec
              for rec in map(json.loads, old_lines)}
    out = []
    for rec in map(json.loads, new_lines):
        prev = before.get(tuple(rec["argv"]))
        if prev is None:
            continue
        old = {"exit": prev["exit"], **prev["record"]["outputs"]}
        new = {"exit": rec["exit"], **rec["record"]["outputs"]}
        keys = [k for k in sorted(old.keys() | new.keys())
                if old.get(k) != new.get(k)]
        if keys:
            out.append(" ".join(rec["argv"]))
            out += [f"  {k}: {old.get(k)} -> {new.get(k)}" for k in keys]
    return out


if __name__ == "__main__":
    previous = GOLDEN.read_text().splitlines() if GOLDEN.exists() else []
    with tempfile.TemporaryDirectory() as tmp:
        write_verify_files(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            lines = [golden_line(argv) for argv in golden_argvs()]
        finally:
            os.chdir(here)
    sys.stdout.write("".join(line + "\n"
                             for line in changes(previous, lines)))
    GOLDEN.write_text("".join(line + "\n" for line in lines))
    sys.stdout.write(f"wrote {len(lines)} records to {GOLDEN}\n")
