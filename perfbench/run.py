"""halftimehash benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the current directory.  The run
times set-up (import, ``variant()``, seed expansion and a warm-up call)
several times, then issues the workload's rounds in a closed loop until
the next round would overrun ``--seconds``, checking every output, and
measures peak memory in a separate tracemalloc pass.  Workloads that cycle
through a fixed pool of inputs (short) are timed by each input's
fastest repetition, the others by medians over windows of rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` issues every
call twice, untraced and traced, for half the time, and reports per-layer
self time, calls and share of the traced wall time; the difference
between the traced and the untraced wall time is the tracing overhead.

The last line of standard output is the JSON result.  Lines before it
give each metric with its sample count, the environment and any failed
operation.  Results and span dumps are also written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One hashing thread: keep any numpy backend single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracing import ROOT, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up is timed this many times before the loop and again after it,
#: so that a slow spell of the host at one end does not set the median.
SETUP_REPEATS = 8
OUT_DIR = ".bench_out"
#: The tail percentile: p99, or with fewer than 1000 calls the highest
#: percentile that keeps TAIL_BEYOND calls beyond it.
TAIL_PERCENTILE = 99.0
TAIL_BEYOND = 10
PRINTED_ERRORS = 20
#: The traced run, which issues every call twice, uses 1/TRACE_SHARE of --seconds.
TRACE_SHARE = 2

END_TO_END = {
    "throughput_MBps": "MB/s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_mem_ratio": "ratio",
    "round_s": "s",
    "setup_s": "s",
    "success_rate": "share",
}


class SourceMissing(RuntimeError):
    pass


def import_package(root: Path):
    """Import halftimehash from ``root/src``, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "halftimehash" / "__init__.py").is_file():
        raise SourceMissing(f"no src/halftimehash under {root}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("halftimehash")
    if Path(pkg.__file__).resolve().parent != src / "halftimehash":
        raise SourceMissing(f"halftimehash imported from {pkg.__file__}, not {src}")
    return pkg


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "halftimehash" or m.startswith("halftimehash.")]:
        del sys.modules[name]


def measure_setup(root: Path, workload) -> list[float]:
    """Times of SETUP_REPEATS fresh imports plus the workload's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        t0 = perf_counter()
        pkg = import_package(root)
        mods = {m.rpartition(".")[2]: importlib.import_module(m) for m in workload.modules}
        ht = SimpleNamespace(pkg=pkg, **mods)
        workload.setup(ht)
        times.append(perf_counter() - t0)
    return times


# --- environment ----------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment(root: Path) -> dict:
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    src_hash = hashlib.sha256()
    for path in sorted((root / "src" / "halftimehash").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_revision": revision,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "hashing_threads": 1,
        "loadavg_start": _loadavg(),
    }


# --- the closed loop ------------------------------------------------------


def run_loop(workload, budget: float, tracer: Tracer | None = None):
    """Issue rounds until the next one would overrun ``budget`` seconds.

    With a tracer each operation runs twice on the same input, untraced and
    traced, in alternating order from one operation to the next, so that
    neither side always meets the warmer caches and heap.
    Returns (records, errors, attempted, rounds run); a record is
    (round, nbytes, seconds, hashes, traced, input key)."""
    records, errors = [], []
    attempted = issued = 0
    t_start = perf_counter()
    last_round = 0.0
    done = 0
    for r, ops in enumerate(workload.rounds()):
        if r and perf_counter() - t_start + last_round > budget:
            break
        r0 = perf_counter()
        for op in ops:
            arg = op.make()
            issued += 1
            passes = (False,) if tracer is None else (False, True) if issued % 2 else (True, False)
            for traced in passes:
                attempted += 1
                try:
                    t0 = perf_counter()
                    result = tracer.root(op.call, arg) if traced else op.call(arg)
                    dt = perf_counter() - t0
                except Exception as exc:  # a failed call is counted, not fatal
                    errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                records.append((r, op.nbytes, dt, op.hashes, traced, op.key))
                err = op.check(result)
                if err:
                    errors.append(f"{op.label}: {err}")
            del arg
        last_round = perf_counter() - r0
        done = r + 1
    errors += workload.finish()
    return records, errors, attempted, done


def memory_pass(workload) -> tuple[float, int, list[str]]:
    """Sum of tracemalloc peaks over the sum of input bytes; returns the
    ratio, the calls attempted and their errors."""
    peaks = nbytes = attempted = 0
    errors = []
    tracemalloc.start()
    try:
        for op in workload.memory_ops():
            arg = op.make()
            attempted += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                result = op.call(arg)
            except Exception as exc:
                errors.append(f"memory pass {op.label}: {type(exc).__name__}: {exc}")
                continue
            peaks += tracemalloc.get_traced_memory()[1] - base
            nbytes += op.nbytes
            del arg
            err = op.check(result)
            if err:
                errors.append(f"memory pass {op.label}: {err}")
    finally:
        tracemalloc.stop()
    errors += workload.finish()
    return peaks / max(nbytes, 1), attempted, errors


# --- metrics --------------------------------------------------------------


def tail_percentile(n: int) -> float | None:
    """p99, lowered until TAIL_BEYOND of ``n`` calls lie beyond it; None
    (report the slowest call) when ``n`` is too small for any."""
    if n <= TAIL_BEYOND:
        return None
    return min(TAIL_PERCENTILE, 100.0 * (1 - TAIL_BEYOND / n))


def fastest_repeats(records) -> tuple[list, int]:
    """Each repeated input's fastest call, and the fewest repetitions any
    input had.  A slow spell of the host lengthens some repetitions of an
    input, but seldom all of them."""
    best, reps = {}, Counter()
    for rec in records:
        key = rec[5]
        reps[key] += 1
        if key not in best or rec[2] < best[key][2]:
            best[key] = rec
    return list(best.values()), min(reps.values())


def timing_metrics(records, workload) -> tuple[dict, dict]:
    """End-to-end timings from the loop's records, with their sample counts.

    Throughput, calls/s and time per round are medians over windows of
    ``workload.window_rounds`` rounds; ``None`` pools the whole run into one
    window.  A workload that repeats its inputs is timed by each input's
    fastest repetition."""
    rounds_run = len({rec[0] for rec in records})
    calls_per_round = len(records) / rounds_run  # every round of a workload has as many calls
    all_calls = f"all {len(records)} calls: {len(records) / sum(rec[2] for rec in records):.6g}/s"
    window_rounds = workload.window_rounds
    sample = "calls"
    if workload.repeats_inputs:
        records, fewest = fastest_repeats(records)
        sample = f"inputs, each its fastest of at least {fewest} repetitions"
    dts = np.array([rec[2] for rec in records])
    windows: dict[int, list] = {}
    for rec in records:
        windows.setdefault(rec[0] // window_rounds if window_rounds else 0, []).append(rec)
    complete = list(windows.values())
    if window_rounds:
        # The loop stops only between rounds, so only the last window can be short.
        complete = [w for w in complete if len({rec[0] for rec in w}) == window_rounds] or complete
        window_note = f"windows of {window_rounds} rounds"
    else:
        window_note = "one window: the whole run"
    rates, call_rates, round_times = [], [], []
    for w in complete:
        hashed = [(rec[1], rec[2]) for rec in w if rec[3]]
        if hashed:
            rates.append(sum(n for n, _ in hashed) / sum(dt for _, dt in hashed) / 1e6)
        busy = sum(rec[2] for rec in w)
        call_rates.append(len(w) / busy)
        round_times.append(busy / len(w) * calls_per_round)
    n = len(dts)
    q = tail_percentile(n)
    tail = float(dts.max() if q is None else np.percentile(dts, q))
    tail_name = "max" if q is None else f"p{q:.4g}"
    metrics = {
        "throughput_MBps": statistics.median(rates),
        "calls_per_s": statistics.median(call_rates),
        "call_p50_ms": float(np.percentile(dts, 50)) * 1e3,
        "call_p99_ms": tail * 1e3,
        "round_s": statistics.median(round_times),
    }
    notes = {
        "throughput_MBps": f"median of {len(rates)}, {window_note}",
        "calls_per_s": f"median of {len(call_rates)}, {window_note}; {all_calls}",
        "call_p50_ms": f"p50 of {n} {sample}",
        "call_p99_ms": f"{tail_name} of {n} {sample}",
        "round_s": f"median of {len(round_times)}, {window_note}, {rounds_run} rounds",
    }
    return metrics, notes


def layer_metrics(tracer: Tracer, workload, wall_traced: float, wall_untraced: float) -> tuple[dict, list[str]]:
    summary = tracer.summary()
    metrics, lines = {}, []
    for span in SPANS:
        self_s, calls = summary.get(span, (0.0, 0))
        share = self_s / wall_traced
        metrics[f"{span}.self_s"] = (self_s, "s")
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.share"] = (share, "share")
        lines.append(f"{span:<34} {self_s:12.6f} s {calls:10d} calls {100 * share:7.2f} %")
    c = tracer.counts
    scale_calls = summary.get("gf16.scale", (0.0, 0))[1]
    seed_calls = summary.get("hasher.seed", (0.0, 0))[1]
    stats = workload.stats
    metrics["gf16.scale.identity_share"] = (c["gf16.scale.identity"] / scale_calls if scale_calls else 0.0, "share")
    metrics["hasher.seed.words_per_call"] = (c["hasher.seed.words"] / seed_calls if seed_calls else 0.0, "count")
    metrics["hasher.load.copied_bytes"] = (c["hasher.load.copied_bytes"], "bytes")
    metrics["nh.mults_per_byte"] = (stats["nh.mults"] / stats["nh.bytes"] if stats["nh.bytes"] else 0.0, "count/B")
    for name in ("gf16.scale.identity_share", "hasher.seed.words_per_call", "hasher.load.copied_bytes", "nh.mults_per_byte"):
        lines.append(f"{name} = {metrics[name][0]} {metrics[name][1]}")
    # Coverage: the layer spans' self times, without the root span, whose
    # self time is whatever no layer covers.  The time outside every layer
    # span must stay within the tracing overhead.
    layer_sum = sum(s for name, (s, _) in summary.items() if name != ROOT)
    overhead = wall_traced - wall_untraced
    outside = wall_traced - layer_sum
    covered = outside <= abs(overhead)
    absent = tracer.absent_spans()
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.untraced_wall_s"] = (wall_untraced, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.layer_self_sum_s"] = (layer_sum, "s")
    metrics["trace.unattributed_s"] = (summary.get(ROOT, (0.0, 0))[0], "s")
    metrics["trace.coverage_ok"] = (int(covered), "bool")
    metrics["trace.spans"] = (len(tracer.name), "count")
    metrics["trace.absent_spans"] = (len(absent), "count")
    lines.append(
        f"layer self times sum to {layer_sum:.6f} s of {wall_traced:.6f} s traced wall "
        f"({wall_untraced:.6f} s untraced): {outside:.6f} s outside every layer span, "
        f"tracing overhead {overhead:.6f} s; " + ("within the overhead" if covered else "NOT within the overhead")
    )
    if absent:
        lines.append("absent spans (wrapped name not found): " + ", ".join(absent))
        lines.append("missing names: " + ", ".join(tracer.absent))
    return metrics, lines


# --- main -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="halftimehash benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        import_package(root)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(root)
    workload = WORKLOADS[args.workload](args.seed)
    setup_times = measure_setup(root, workload)
    workload.prepare()

    tracer = Tracer() if args.trace else None
    budget = args.seconds / TRACE_SHARE if args.trace else args.seconds
    records, errors, attempted, rounds = run_loop(workload, budget, tracer)
    if not records:
        print("\n".join(f"FAILED {err}" for err in errors[:PRINTED_ERRORS]))
        print("error: every timed call failed; no metric can be measured", file=sys.stderr)
        return 1
    if tracer:
        wall_traced = sum(rec[2] for rec in records if rec[4])
        wall_untraced = sum(rec[2] for rec in records if not rec[4])
        metrics, lines = layer_metrics(tracer, workload, wall_traced, wall_untraced)
        lines.insert(0, f"{rounds} rounds, {len(records) // 2} calls traced, {len(tracer.name)} spans")
    else:
        mem_ratio, mem_attempted, mem_errors = memory_pass(workload)
        errors += mem_errors
        attempted += mem_attempted
        timing, notes = timing_metrics(records, workload)
        timing["peak_mem_ratio"] = mem_ratio
        notes["peak_mem_ratio"] = f"tracemalloc peak / input bytes over {mem_attempted} calls"
        setup_times += measure_setup(root, workload)
        timing["setup_s"] = statistics.median(setup_times)
        notes["setup_s"] = f"median of {len(setup_times)}: " + ", ".join(f"{t:.4f}" for t in setup_times)
        timing["success_rate"] = 1.0 - len(errors) / attempted
        notes["success_rate"] = f"error_rate {len(errors) / attempted} = {len(errors)} failed / {attempted} attempted"
        metrics = {name: (timing[name], unit) for name, unit in END_TO_END.items()}
        lines = [f"{rounds} rounds, {len(records)} calls"]
        lines += [f"{name} = {metrics[name][0]} {unit}  ({notes[name]})" for name, unit in END_TO_END.items()]
    env["loadavg_end"] = _loadavg()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print("environment " + json.dumps(env))
    for line in lines:
        print(line)
    for err in errors[:PRINTED_ERRORS]:
        print(f"FAILED {err}")
    if len(errors) > PRINTED_ERRORS:
        print(f"FAILED ... {len(errors) - PRINTED_ERRORS} more")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out / f"result-{stem}.json").write_text(
        json.dumps({"environment": env, "lines": lines, "errors": errors, **result}, indent=1) + "\n"
    )
    if args.trace:
        tracer.save(out / f"spans-{stem}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
