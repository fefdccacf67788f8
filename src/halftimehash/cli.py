"""Command-line front end: hashing, analysis reports, property verification,
golden vectors, and a report-only throughput benchmark.

Exit codes: 0 success, 1 property/check failure, 2 usage or IO error, or
an input too large for memory.
"""

from __future__ import annotations

import argparse
import io
import mmap
import os
import stat
import statistics
import sys
import time
from collections import Counter

from . import analysis, oracle
from .hasher import _stream_words_np, hash_bytes, seed_for_input
from .params import VARIANTS, variant

_SIZE_SUFFIXES = {"K": 1, "M": 2, "G": 3, "T": 4, "P": 5, "E": 6}

#: Fill key for deterministically generated benchmark / vector inputs.
FILL_SEED = 0x243F6A8885A308D3

VECTOR_LENGTHS = (0, 1, 167 * 8, 168 * 8, 1024, 2**20 - 1, 2**20 + 1, 4 * 2**20)
VECTOR_MASTERS = (b"\x00" * 32, bytes(range(32)))


class CheckFailure(Exception):
    """A verification property or vector check failed (exit code 1)."""


def parse_size(text: str) -> int:
    text = text.strip()
    if not text:
        raise argparse.ArgumentTypeError("empty size")
    number, mult = text, 1
    if text[-1].upper() in _SIZE_SUFFIXES:
        number, mult = text[:-1], 1024 ** _SIZE_SUFFIXES[text[-1].upper()]
    try:
        value = int(number)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative size {text!r}")
    return value * mult


def fill_bytes(n: int) -> bytes:
    """Deterministic splitmix-filled input under ``FILL_SEED``, in memory."""
    words = _stream_words_np(FILL_SEED, 0, (n + 7) // 8)
    return words.astype("<u8").tobytes()[:n]


def _read_input(path: str | None):
    """The input's bytes: stdin for ``None`` or ``-``, else the named file."""
    if path is None or path == "-":
        return _read_stream(sys.stdin.buffer)
    with open(path, "rb") as fh:
        return _read_stream(fh)


def _read_stream(fh):
    """The bytes of ``fh`` from its current offset.  A regular file with
    bytes past the offset is mapped read-only and hashed in place; pipes,
    TTYs, empty files and streams without a descriptor are read."""
    try:
        fd = fh.fileno()
    except io.UnsupportedOperation:
        return fh.read()
    info = os.fstat(fd)
    if stat.S_ISREG(info.st_mode) and info.st_size > (offset := fh.tell()):
        mm = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        return memoryview(mm)[offset:] if offset else mm
    return fh.read()


def _master_from_args(args) -> bytes:
    if args.seed_hex is not None:
        raw = bytes.fromhex(args.seed_hex)
        if len(raw) != 32:
            raise ValueError("seed must be 32 bytes (64 hex chars)")
        return raw
    if args.seed_file is not None:
        with open(args.seed_file, "rb") as fh:
            raw = fh.read(33)  # bounded: /dev/zero or a pipe may never end
        if len(raw) != 32:
            raise ValueError("seed file must hold exactly 32 bytes")
        return raw
    return b"\x00" * 32


def cmd_hash(args) -> int:
    params = variant(args.variant)
    master = _master_from_args(args)
    data = _read_input(args.input)
    digest = hash_bytes(data, seed_for_input(master, params, len(data)), params)
    print(digest.hex())
    return 0


def cmd_analyze(args) -> int:
    report = analysis.entropy_report(variant(args.variant), args.length)
    if args.csv:
        print(analysis.report_csv_header())
        print(analysis.report_csv_row(report))
    else:
        print(analysis.report_table(report))
    return 0


def cmd_verify(args) -> int:
    failures = []
    for name, ok, detail in oracle.verify_properties(args.quick):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        raise CheckFailure("failed properties: " + ", ".join(failures))
    print("all properties hold")
    return 0


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    sizes = [parse_size(s) for s in args.sizes.split(",")]
    for i, size in enumerate(sizes):
        data = fill_bytes(size)
        if not i:
            # Only now: a size past memory leaves no header-only CSV.
            print("size_bytes,variant,bytes_per_second,bytes_per_cycle")
        for width in sorted(VARIANTS):
            params = variant(width)
            seed = seed_for_input(b"\x00" * 32, params, size)
            hash_bytes(data, seed, params)  # warm caches before timing
            rates = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                hash_bytes(data, seed, params)
                dt = time.perf_counter() - t0
                rates.append(size / dt if dt > 0 else float("inf"))
            # No portable cycle counter from Python: leave the column empty.
            print(f"{size},{width},{statistics.median(rates):.0f},")
    return 0


def _vector_records():
    for width in sorted(VARIANTS):
        params = variant(width)
        for master in VECTOR_MASTERS:
            for length in VECTOR_LENGTHS:
                data = fill_bytes(length)
                digest = hash_bytes(
                    data, seed_for_input(master, params, length), params
                )
                yield (
                    f"{width},{master.hex()},{length},"
                    f"splitmix:{FILL_SEED:016x},{digest.hex()}"
                )


def cmd_vectors(args) -> int:
    if args.emit:
        with open(args.emit, "w") as fh:
            for line in _vector_records():
                fh.write(line + "\n")
        return 0
    with open(args.check) as fh:
        recorded = Counter(line.strip() for line in fh if line.strip())
    expected = Counter(_vector_records())
    # Multisets: each extra copy of a record is a mismatch too.
    bad = list((recorded - expected).elements())
    missing = list((expected - recorded).elements())
    if bad or missing:
        for line in bad:
            print(f"mismatch: {line}")
        for line in missing:
            print(f"missing:  {line}")
        raise CheckFailure(f"{len(bad) + len(missing)} vector records disagree")
    print(f"{recorded.total()} vector records verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halftimehash",
        description="Almost-universal long-string hashing with verifiable parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hash", help="hash a file or stdin")
    p.add_argument("--variant", type=int, choices=sorted(VARIANTS), default=24)
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed-hex", help="64 hex chars of master seed")
    seed.add_argument("--seed-file", help="file holding the 32-byte master seed")
    p.add_argument("input", nargs="?", help="input path, or - for stdin")
    p.set_defaults(func=cmd_hash)

    p = sub.add_parser("analyze", help="entropy/seed/cost report for a length")
    p.add_argument("--variant", type=int, choices=sorted(VARIANTS), default=24)
    p.add_argument("--length", type=parse_size, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the property checks")
    p.add_argument(
        "--quick",
        action="store_true",
        help="10^4 code-distance trials instead of 10^6 and 10 NH probes instead "
        "of 100, and no EHC probe; the exhaustive searches still run",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="report-only throughput benchmark")
    p.add_argument("--sizes", default="1K,256K,1M")
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("vectors", help="emit or check the golden vector file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit", metavar="PATH")
    group.add_argument("--check", metavar="PATH")
    p.set_defaults(func=cmd_vectors)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError, argparse.ArgumentTypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
