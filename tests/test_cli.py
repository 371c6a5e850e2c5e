import csv
import errno
import io
import json
import subprocess
import sys

import pytest

import gccodes.cli
from gccodes.cli import main

from vectors import CODEWORD_A, MSG_A, MSG_B, MSG_B_OTHER, RECEIVED_B, TAIL_A

CODE_FLAGS = ["--k", "16", "--ell", "4", "--c", "2", "--delta", "1"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_worked_example(tmp_path, capsys):
    src = tmp_path / "msg.txt"
    dst = tmp_path / "cw.txt"
    src.write_text(MSG_A + "\n")
    code, _, _ = run(["encode", *CODE_FLAGS, "--in", str(src), "--out", str(dst)], capsys)
    assert code == 0
    assert dst.read_text() == CODEWORD_A + "\n"
    assert dst.read_text().strip().endswith(TAIL_A)


def test_decode_success_round_trip(tmp_path, capsys):
    cw = tmp_path / "cw.txt"
    cw.write_text(CODEWORD_A + "\n")
    code, out, _ = run(["decode", *CODE_FLAGS, "--in", str(cw)], capsys)
    assert code == 0
    assert out == MSG_A + "\n"


def test_decode_failure_lists_candidates(tmp_path, capsys):
    rec = tmp_path / "rec.txt"
    rec.write_text(RECEIVED_B + "\n")
    code, out, err = run(["decode", *CODE_FLAGS, "--in", str(rec)], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "2"
    assert sorted(lines[1:]) == sorted([MSG_B, MSG_B_OTHER])
    assert "failure" in err


def test_decode_no_candidate(tmp_path, capsys):
    rec = tmp_path / "rec.txt"
    rec.write_text("01" * 15 + "0" + "\n")
    code, out, _ = run(["decode", *CODE_FLAGS, "--in", str(rec)], capsys)
    assert code == 3
    assert out == ""


def test_malformed_input_exits_one(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0101x\n")
    code, _, err = run(["encode", *CODE_FLAGS, "--in", str(bad)], capsys)
    assert code == 1 and "error" in err
    code, _, err = run(["encode", "--k", "16", "--ell", "4", "--c", "1", "--delta", "1", "--in", str(bad)], capsys)
    assert code == 1
    blank = tmp_path / "blank.txt"
    blank.write_text("\n\n\n")
    code, _, err = run(["encode", *CODE_FLAGS, "--in", str(blank)], capsys)
    assert code == 1 and err.startswith("error: "), err
    monkeypatch.setattr(sys, "stdin", io.StringIO("01é1\n"))
    code, _, err = run(["encode", *CODE_FLAGS], capsys)
    assert code == 1 and err.startswith("error: "), err
    # a CR is rejected alike from --in and from the real stdin
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes((MSG_A + "\r\n").encode())
    code, _, err = run(["encode", *CODE_FLAGS, "--in", str(crlf)], capsys)
    assert code == 1 and err.startswith("error: "), err
    with open(crlf, "rb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "gccodes", "encode", *CODE_FLAGS],
            stdin=fh,
            capture_output=True,
            text=True,
        )
    assert proc.returncode == 1 and proc.stderr.startswith("error: "), proc.stderr
    # code parameters the field or the code rejects (at k = 16, ell = 2,
    # k' + c > 2^ell): an error line, not a traceback
    for k, ell in [(16, 0), (16, 1), (16, 17), (0, 4), (-3, 4), (16, 2)]:
        flags = ["--k", str(k), "--ell", str(ell), "--c", "2", "--delta", "1"]
        code, _, err = run(["simulate", *flags, "--trials", "1"], capsys)
        assert code == 1 and err.startswith("error: "), (k, ell, err)


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(["decode", "--bogus", "1"], capsys)
    assert code == 1 and "error" in err


def test_unwritable_out_path_exits_one(tmp_path, capsys):
    src = tmp_path / "msg.txt"
    src.write_text(MSG_A + "\n")
    out = tmp_path / "missing" / "cw.txt"
    code, _, err = run(["encode", *CODE_FLAGS, "--in", str(src), "--out", str(out)], capsys)
    assert code == 1 and "error" in err


class _UnreadableStdin:
    def read(self):
        raise OSError(errno.EIO, "Input/output error")


class _ClosedPipeStdout:
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_stdin_and_stdout_errors_exit_one(tmp_path, monkeypatch, capsys):
    # a failed read of stdin or write to stdout is an I/O error like an
    # unreadable --in or unwritable --out: exit 1, never a traceback
    src = tmp_path / "msg.txt"
    src.write_text(MSG_A + "\n")
    calls = [
        ("stdin", _UnreadableStdin(), ["decode", *CODE_FLAGS]),
        ("stdout", _ClosedPipeStdout(), ["encode", *CODE_FLAGS, "--in", str(src)]),
    ]
    for stream, stub, argv in calls:
        with monkeypatch.context() as m:
            m.setattr(sys, stream, stub)
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: "), (stream, err)


def test_sync_without_trials_exits_one(capsys):
    code, _, err = run(["sync", "--file-bits", "100", "--d", "2", "--trials", "0"], capsys)
    assert code == 1 and "error" in err


def test_sync_empty_file_exits_one(capsys):
    code, _, err = run(["sync", "--file-bits", "0", "--d", "0"], capsys)
    assert code == 1 and "error" in err


def test_sync_file_too_large_to_draw_exits_one(capsys):
    # getrandbits rejects the size before allocating anything
    argv = ["sync", "--file-bits", "100000000000000000000", "--d", "2", "--trials", "1"]
    code, _, err = run([*argv, "--mode", "vt"], capsys)
    assert code == 1 and err.startswith("error: ")


def test_sync_both_modes_validates_before_any_trial(monkeypatch, capsys):
    # delta_cap 1 is valid for VT but not for GC; no VT trial may run first
    modes = []
    real = gccodes.cli.run_sync_trials

    def recorder(*args):
        modes.append(args[3])
        return real(*args)

    monkeypatch.setattr(gccodes.cli, "run_sync_trials", recorder)
    argv = ["sync", "--file-bits", "1000", "--d", "3", "--trials", "2", "--delta-cap", "1"]
    code, _, err = run([*argv, "--mode", "both"], capsys)
    assert code == 1 and "delta_cap" in err
    assert modes == []


def test_corrupt_then_decode(tmp_path, capsys):
    cw = tmp_path / "cw.txt"
    out1 = tmp_path / "corrupted.txt"
    cw.write_text(CODEWORD_A + "\n")
    code, _, err = run(
        ["corrupt", "--delta", "1", "--seed", "5", "--in", str(cw), "--out", str(out1)],
        capsys,
    )
    assert code == 0
    plan = json.loads(err.strip().splitlines()[-1])
    assert plan["kind"] == "deletions" and len(plan["positions"]) == 1
    corrupted = out1.read_text().strip()
    assert len(corrupted) == 31
    code, out, _ = run(["decode", *CODE_FLAGS, "--in", str(out1)], capsys)
    assert code in (0, 2)

    out2 = tmp_path / "again.txt"
    run(["corrupt", "--delta", "1", "--seed", "5", "--in", str(cw), "--out", str(out2)], capsys)
    assert out1.read_text() == out2.read_text()


def test_simulate_csv_schema(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run(
        [
            "simulate",
            "--k", "64", "--ell", "6", "--c", "3", "--delta", "2",
            "--trials", "40", "--seed", "3", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert row["k"] == "64" and row["scope"] == "whole" and row["trials"] == "40"
    assert float(row["rate"]) == pytest.approx(64 / 118)
    assert int(row["redundancy"]) == 54
    assert float(row["pf_hat"]) <= 1.0


def test_simulate_row_names_its_channel(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code, _, _ = run(
        [
            "simulate",
            "--k", "64", "--ell", "6", "--c", "3", "--delta", "2", "--mode", "insertions",
            "--trials", "10", "--seed", "3", "--format", "json", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert [row["kind"] for row in json.loads(out.read_text())] == ["insertions"]


def test_simulate_deterministic_modulo_walltime(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run(
            [
                "simulate",
                "--k", "64", "--ell", "6", "--c", "3", "--delta", "2",
                "--trials", "30", "--seed", "8", "--format", "json", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out.read_text())
        for row in rows:
            row.pop("wall_time_ms")
        outs.append(rows)
    assert outs[0] == outs[1]


def test_sweep_rows_sorted(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        [
            "sweep",
            "--k", "64", "--delta", "2", "--ell-grid", "8,6", "--c-grid", "4,3",
            "--trials", "25", "--seed", "2", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["ell"], r["c"]) for r in rows] == [("6", "3"), ("6", "4"), ("8", "3"), ("8", "4")]


def test_sync_emits_both_modes(tmp_path, capsys):
    out = tmp_path / "sync.csv"
    code, _, _ = run(
        [
            "sync",
            "--file-bits", "3000", "--d", "4", "--trials", "3", "--seed", "4",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["mode"] for r in rows] == ["vt", "gc"]
    assert all(r["success_rate"] == "1.0" for r in rows)


def test_round_trip_over_parameter_grid(tmp_path, capsys):
    import random

    rng = random.Random(17)
    for k, ell, c, delta in [(16, 4, 2, 1), (40, 5, 3, 2), (64, 6, 4, 3), (100, 7, 3, 2)]:
        msg = format(rng.getrandbits(k), f"0{k}b")
        src = tmp_path / "m.txt"
        mid = tmp_path / "c.txt"
        src.write_text(msg + "\n")
        flags = ["--k", str(k), "--ell", str(ell), "--c", str(c), "--delta", str(delta)]
        assert run(["encode", *flags, "--in", str(src), "--out", str(mid)], capsys)[0] == 0
        code, out, _ = run(["decode", *flags, "--in", str(mid)], capsys)
        assert code == 0
        assert out == msg + "\n"


def test_module_entry_point(tmp_path):
    src = tmp_path / "msg.txt"
    src.write_text(MSG_A + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gccodes", "encode", *CODE_FLAGS, "--in", str(src)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == CODEWORD_A + "\n"


def test_simulate_bound_past_float_range():
    # ell * (c - delta) = 1040 bits of q^(c - delta): no float overflow
    proc = subprocess.run(
        [
            sys.executable, "-m", "gccodes", "simulate",
            "--k", "16", "--ell", "16", "--c", "66", "--delta", "1", "--trials", "1",
        ],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0


def test_decode_insertion_with_long_parity_tail(tmp_path):
    # 200 parities of 12 bits make a tail of 2,400 repetition groups
    flags = ["--k", "16", "--ell", "12", "--c", "200", "--delta", "1"]
    cw = tmp_path / "cw.txt"
    src = tmp_path / "msg.txt"
    src.write_text(MSG_A + "\n")
    env_run = [sys.executable, "-m", "gccodes"]
    enc = subprocess.run(
        [*env_run, "encode", *flags, "--in", str(src), "--out", str(cw)],
        capture_output=True,
        text=True,
    )
    assert enc.returncode == 0
    bits = cw.read_text().strip()
    rec = tmp_path / "rec.txt"
    rec.write_text(bits[:1000] + "1" + bits[1000:] + "\n")
    proc = subprocess.run(
        [*env_run, "decode", *flags, "--mode", "insertions", "--in", str(rec)],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    assert proc.stdout == MSG_A + "\n"
