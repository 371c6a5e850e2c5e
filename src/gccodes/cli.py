"""Command-line front end: encode/decode, channel corruption, Monte Carlo
simulation, trade-off sweeps, and sync simulation with CSV/JSON output.

Bit files are ASCII '0'/'1' text, optionally newline-terminated. Exit
codes: 0 success, 1 malformed input, bad parameters or failed I/O, 2 decode
failure (candidate count plus candidates on stdout), 3 no decode candidate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .channel import KINDS, SCOPES, apply_edits, sample_plan
from .codec import Failure, GcParams, Success, _check_bits, gc_decode, gc_encode
from .experiments import estimate_pf, estimate_row, sweep
from .sync import MODES as SYNC_MODES
from .sync import SyncConfig, run_sync_trials, sync_row


class _Parser(argparse.ArgumentParser):
    # the 0/1/2/3 exit contract reserves 2 for decode failures, so argparse
    # errors must surface as exit 1 instead of its default 2
    def error(self, message):
        raise ValueError(message)


def _read_bits(path: str | None) -> str:
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        # newline="" keeps a CR, as POSIX stdin does, so both paths reject it
        with open(path, "r", encoding="ascii", newline="") as fh:
            text = fh.read()
    bits = text.replace("\n", "")
    _check_bits(bits, "bit file")
    if not bits:
        raise ValueError("bit file is empty")
    return bits


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _write_rows(rows: list[dict], fmt: str, path: str | None) -> None:
    if fmt == "json":
        _write_text(path, json.dumps(rows, indent=2) + "\n")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def _params(args) -> GcParams:
    return GcParams(k=args.k, ell=args.ell, c=args.c, delta=args.delta)


def _add_code_flags(p, with_mode=False):
    p.add_argument("--k", type=int, required=True, help="message length in bits")
    p.add_argument("--ell", type=int, required=True, help="chunk length in bits")
    p.add_argument("--c", type=int, required=True, help="number of MDS parity symbols")
    p.add_argument("--delta", type=int, required=True, help="design edit count")
    if with_mode:
        p.add_argument("--mode", choices=KINDS, default="deletions")


def _add_io_flags(p):
    p.add_argument("--in", dest="infile", default=None, help="input bit file (default stdin)")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_run_flags(p, trials):
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="gccodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a message bit file")
    p.set_defaults(run=_cmd_encode)
    _add_code_flags(p)
    _add_io_flags(p)

    p = sub.add_parser("decode", help="decode a received bit file")
    p.set_defaults(run=_cmd_decode)
    _add_code_flags(p, with_mode=True)
    _add_io_flags(p)

    p = sub.add_parser("corrupt", help="apply a random edit plan to a bit file")
    p.set_defaults(run=_cmd_corrupt)
    p.add_argument("--delta", type=int, required=True, help="number of edits to apply")
    p.add_argument("--mode", choices=KINDS, default="deletions")
    p.add_argument("--scope", choices=SCOPES, default="whole")
    p.add_argument("--k", type=int, default=None, help="systematic length (for --scope systematic)")
    p.add_argument("--seed", type=int, default=0)
    _add_io_flags(p)

    p = sub.add_parser("simulate", help="Monte Carlo failure-rate estimate")
    p.set_defaults(run=_cmd_simulate)
    _add_code_flags(p, with_mode=True)
    p.add_argument("--scope", choices=SCOPES, default="whole")
    _add_run_flags(p, 10000)

    p = sub.add_parser("sweep", help="failure-rate sweep over ell and c grids")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--ell-grid", required=True, help="comma-separated chunk lengths")
    p.add_argument("--c-grid", required=True, help="comma-separated parity counts")
    p.add_argument("--mode", choices=KINDS, default="deletions")
    p.add_argument("--scope", choices=SCOPES, default="whole")
    _add_run_flags(p, 10000)

    p = sub.add_parser("sync", help="two-node synchronization simulation")
    p.set_defaults(run=_cmd_sync)
    p.add_argument("--file-bits", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="number of deleted bits")
    p.add_argument("--mode", choices=(*SYNC_MODES, "both"), default="both")
    p.add_argument("--anchor-len", type=int, default=25)
    p.add_argument("--delta-cap", type=int, default=2)
    p.add_argument("--hash-len", type=int, default=32)
    _add_run_flags(p, 100)

    return parser


def _cmd_encode(args) -> int:
    bits = _read_bits(args.infile)
    codeword = gc_encode(bits, _params(args))
    _write_text(args.out, codeword + "\n")
    return 0


def _cmd_decode(args) -> int:
    bits = _read_bits(args.infile)
    outcome = gc_decode(bits, _params(args), args.mode)
    if isinstance(outcome, Success):
        _write_text(args.out, outcome.message + "\n")
        return 0
    if isinstance(outcome, Failure):
        lines = [str(len(outcome.candidates))] + sorted(outcome.candidates)
        _write_text(args.out, "\n".join(lines) + "\n")
        print("decoding failure: multiple candidate messages", file=sys.stderr)
        return 2
    print("no decode candidate", file=sys.stderr)
    return 3


def _cmd_corrupt(args) -> int:
    bits = _read_bits(args.infile)
    plan = sample_plan(
        len(bits), args.delta, args.mode, args.scope, args.seed, systematic_len=args.k
    )
    _write_text(args.out, apply_edits(bits, plan) + "\n")
    print(
        json.dumps(
            {
                "kind": plan.kind,
                "scope": plan.scope,
                "positions": list(plan.positions),
                "bits": list(plan.bits),
            }
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args) -> int:
    est = estimate_pf(
        _params(args), args.mode, args.scope, args.trials, args.seed, args.workers
    )
    _write_rows([estimate_row(est)], args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    try:
        ells = tuple(int(v) for v in args.ell_grid.split(","))
        cs = tuple(int(v) for v in args.c_grid.split(","))
    except ValueError:
        raise ValueError("grids must be comma-separated integers")
    ests = sweep(
        args.k, args.delta, ells, cs, args.trials, args.seed, args.mode, args.scope, args.workers
    )
    _write_rows([estimate_row(e) for e in ests], args.format, args.out)
    return 0


def _cmd_sync(args) -> int:
    modes = SYNC_MODES if args.mode == "both" else (args.mode,)
    # every config is validated before the first trial runs
    cfgs = [
        SyncConfig(
            mode, anchor_len=args.anchor_len, delta_cap=args.delta_cap, hash_len=args.hash_len
        )
        for mode in modes
    ]
    rows = []
    for cfg in cfgs:
        stats = run_sync_trials(
            args.file_bits, args.d, args.trials, cfg, args.seed, args.workers
        )
        rows.append(sync_row(cfg.mode, args.file_bits, args.d, stats, args.seed))
    _write_rows(rows, args.format, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (ValueError, OverflowError, OSError) as exc:
        # ValueError: bad flags, values or bit files; OverflowError: a size past
        # what the interpreter can allocate, such as --file-bits beyond a C int;
        # OSError: a failed read of --in or stdin, or write of --out or stdout
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
