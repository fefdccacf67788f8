"""The four benchmark workloads: bulk, mid, short and verify.

Each workload is one closed-loop caller: the runner issues an operation
only after the previous one has returned.  Work is grouped into rounds.  A
round holds one call per variant (bulk: two, one per length stratum;
verify: the full ``halftimehash verify`` plus 12 scalar checks per
variant), so every round covers all four variants.

Inputs come from ``numpy.random.default_rng`` seeded with the workload
seed, never from the package, and are made outside the timed region
(``Op.make``).  Every operation's output is checked after its timer stops
(``Op.check``): against the scalar engine where that is cheap, and against
digests recorded in ``bulk_pool.json`` for the bulk inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

VARIANTS = (16, 24, 32, 40)
KiB = 1 << 10
MiB = 1 << 20

BULK_POOL_FILE = Path(__file__).with_name("bulk_pool.json")
BULK_POOL_SEED = 0x42554C4B
#: Bulk length strata.  Each is narrow, so a round's work hardly varies
#: whichever pool entry a seed draws from it.
BULK_STRATA = ((16 * MiB, 17 * MiB), (63 * MiB, 64 * MiB))

MID_LENGTHS = (64 * KiB, 2 * MiB)  # log-uniform
MID_BASE = 4 * MiB  # inputs are seeded slices of one seeded buffer
MID_SCALAR_SAMPLE = 8  # mid calls re-hashed by the scalar engine
MID_SCALAR_MAX = 128 * KiB  # ... drawn from those no longer than this

SHORT_MAX = 4 * KiB  # length + 1 is log-uniform on [1, SHORT_MAX + 1]
SHORT_POOL_ROUNDS = 128  # distinct rounds, each checked by the scalar engine
SHORT_BASE = 64 * KiB

VERIFY_SCALAR_MAX = 64 * KiB
VERIFY_SCALAR_CALLS = 12  # per variant and round, one per equal slice of [1, VERIFY_SCALAR_MAX]
VERIFY_PROPERTIES = (
    [f"matrix-valuation-{v}" for v in VARIANTS]
    + [f"code-distance-{v}" for v in VARIANTS]
    + ["nh-delta-universality-w4", "ehc-delta-universality-w4"]
)

WARM_LENGTH = 64 * KiB


def random_bytes(rng: np.random.Generator, n: int) -> bytes:
    """``n`` bytes of the generator's raw 64-bit stream, little-endian."""
    words = rng.bit_generator.random_raw((n + 7) // 8).astype("<u8")
    return words.view(np.uint8)[:n].tobytes()


@dataclass
class Op:
    """One closed-loop call.

    ``make`` builds the argument (untimed), ``call`` is the timed call and
    ``check`` returns an error message or None (untimed).  ``hashes`` marks
    calls whose ``nbytes`` count towards hashing throughput; ``key`` names
    the input of a workload that repeats its inputs.
    """

    label: str
    nbytes: int
    make: Callable[[], object]
    call: Callable[[object], object]
    check: Callable[[object], str | None]
    hashes: bool = True
    key: tuple | None = None


def _digest_mismatch(got, want_hex: str) -> str | None:
    return None if got.hex() == want_hex else f"digest {got.hex()} != {want_hex}"


class Workload:
    """Base class: ``setup`` is the timed set-up, the rest is untimed."""

    name = ""
    why = ""
    #: Rounds per window: throughput, calls/s and time per round are
    #: medians over windows.  None pools the whole run into one window.
    window_rounds: int | None = 1
    #: True when the rounds cycle through a fixed pool of inputs: each input
    #: is then timed by its fastest repetition (see ``Op.key``).
    repeats_inputs = False
    #: Package modules the workload calls, besides ``halftimehash`` itself.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.stats: Counter = Counter()  # counts reported by the traced run
        warm = np.random.default_rng([seed, 99])
        self.warm_data = random_bytes(warm, WARM_LENGTH)
        self.warm_master = warm.bytes(32)

    def setup(self, ht) -> None:
        """Variants, seed expansion and one warm-up call per variant."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed input and reference preparation, after ``setup``."""

    def rounds(self) -> Iterator[list[Op]]:
        """The seeded, endless sequence of rounds; restarts on each call."""
        raise NotImplementedError

    def memory_ops(self) -> list[Op]:
        """Operations for the separate tracemalloc pass."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Deferred checks on the operations issued since the last call."""
        return []


# --- bulk ---------------------------------------------------------------


def bulk_pool_entries(pool_seed: int = BULK_POOL_SEED) -> list[dict]:
    """The fixed bulk pool: per variant one master seed and, per stratum,
    one aligned and one unaligned length."""
    rng = np.random.default_rng(pool_seed)
    entries = []
    for v in VARIANTS:
        master = rng.bytes(32).hex()
        for stratum, (lo, hi) in enumerate(BULK_STRATA):
            aligned = 8 * int(rng.integers(lo // 8, hi // 8 + 1))
            unaligned = 8 * int(rng.integers(lo // 8, hi // 8)) + int(rng.integers(1, 8))
            for length in (aligned, unaligned):
                entries.append({
                    "variant": v,
                    "stratum": stratum,
                    "length": length,
                    "content_seed": int(rng.integers(1 << 32)),
                    "master": master,
                })
    return entries


def bulk_input(entry: dict) -> bytes:
    return random_bytes(np.random.default_rng(entry["content_seed"]), entry["length"])


class Bulk(Workload):
    name = "bulk"
    why = "16-64 MiB hash_bytes over all variants: leaf stage and working set beyond cache"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pool = json.loads(BULK_POOL_FILE.read_text())["entries"]
        self.cells: dict[tuple[int, int], list[dict]] = {}
        for e in self.pool:
            self.cells.setdefault((e["variant"], e["stratum"]), []).append(e)

    def setup(self, ht) -> None:
        self.ht = ht
        self.params, self.seeds = {}, {}
        for v in VARIANTS:
            p = ht.pkg.variant(v)
            entries = [e for e in self.pool if e["variant"] == v]
            longest = max(e["length"] for e in entries)
            self.params[v] = p
            self.seeds[v] = ht.pkg.seed_for_input(bytes.fromhex(entries[0]["master"]), p, longest)
            ht.pkg.hash_bytes(self.warm_data, self.seeds[v], p)

    def _op(self, entry: dict) -> Op:
        v = entry["variant"]
        return Op(
            label=f"bulk v{v} len={entry['length']}",
            nbytes=entry["length"],
            make=lambda: bulk_input(entry),
            call=lambda data: self.ht.pkg.hash_bytes(data, self.seeds[v], self.params[v]),
            check=lambda got: _digest_mismatch(got, entry["digest"]),
        )

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        while True:
            picks = [cell[int(rng.integers(len(cell)))] for cell in self.cells.values()]
            yield [self._op(picks[i]) for i in rng.permutation(len(picks))]

    def memory_ops(self):
        # The unaligned short-stratum entry of each variant: the load path
        # copies an unaligned input, which is the worst case.
        return [self._op(e) for e in self.pool if e["stratum"] == 0 and e["length"] % 8]


# --- mid ----------------------------------------------------------------


class Mid(Workload):
    name = "mid"
    why = "one-shot digest() on 64 KiB-2 MiB with a fresh master each call: cache-sized leaf stage plus per-call seed set-up"
    window_rounds = 32

    def setup(self, ht) -> None:
        self.ht = ht
        for v in VARIANTS:
            ht.pkg.variant(v)
            ht.pkg.digest(self.warm_data, self.warm_master, v)

    def prepare(self) -> None:
        self.base = memoryview(random_bytes(np.random.default_rng([self.seed, 0]), MID_BASE))
        self.issued: list[tuple[tuple, object]] = []

    def _draw(self, rng, v: int) -> tuple:
        lo, hi = MID_LENGTHS
        n = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        off = int(rng.integers(0, MID_BASE - n + 1))
        return v, off, n, rng.bytes(32)

    def _op(self, desc: tuple) -> Op:
        v, off, n, master = desc

        def check(got):
            self.issued.append((desc, got))

        return Op(
            label=f"mid v{v} len={n} off={off}",
            nbytes=n,
            make=lambda: bytes(self.base[off : off + n]),
            call=lambda data: self.ht.pkg.digest(data, master, v),
            check=check,
        )

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield [self._op(self._draw(rng, VARIANTS[i])) for i in rng.permutation(len(VARIANTS))]

    def memory_ops(self):
        # One call per length stratum of the log-uniform range, all
        # variants in turn, so the pass covers the range the same way
        # whatever the seed.
        rng = np.random.default_rng([self.seed, 1])
        lo, hi = (math.log(x) for x in MID_LENGTHS)
        strata = 16
        ops = []
        for s in range(strata):
            v = VARIANTS[s % len(VARIANTS)]
            n = int(math.exp(lo + (hi - lo) * (s + rng.uniform()) / strata))
            off = int(rng.integers(0, MID_BASE - n + 1))
            ops.append(self._op((v, off, n, rng.bytes(32))))
        return ops

    def finish(self) -> list[str]:
        """Re-hash a seeded sample of the issued calls with the scalar engine."""
        pkg = self.ht.pkg
        issued, self.issued = self.issued, []
        small = [x for x in issued if x[0][2] <= MID_SCALAR_MAX]
        rng = np.random.default_rng([self.seed, 2])
        errors = []
        for i in rng.permutation(len(small))[:MID_SCALAR_SAMPLE]:
            (v, off, n, master), got = small[i]
            p = pkg.variant(v)
            want = pkg.hash_bytes(
                bytes(self.base[off : off + n]), pkg.seed_for_input(master, p, n), p, engine="scalar"
            )
            if got != want:
                errors.append(f"mid v{v} len={n} off={off}: lanes {got.hex()} != scalar {want.hex()}")
        return errors


# --- short --------------------------------------------------------------


class Short(Workload):
    name = "short"
    why = "hash_bytes on 0-4 KiB, log-uniform, with shared seed buffers: fixed per-call cost, leaf stage mostly bypassed"
    # The pool repeats a hundred times or more in a run.  Host speed swings
    # lasting seconds move the median of every window with them (identical
    # runs on a shared 2-core host read 2.8k to 5.0k calls/s), but an
    # input's fastest repetition in the run hardly moves.
    window_rounds = None
    repeats_inputs = True

    def setup(self, ht) -> None:
        self.ht = ht
        self.params, self.seeds = {}, {}
        for v in VARIANTS:
            p = ht.pkg.variant(v)
            self.params[v] = p
            self.seeds[v] = ht.pkg.seed_for_input(self.warm_master, p, SHORT_MAX)
            ht.pkg.hash_bytes(self.warm_data[:SHORT_MAX], self.seeds[v], p)

    def prepare(self) -> None:
        """A seeded pool of rounds, each input's digest made by the scalar engine."""
        pkg = self.ht.pkg
        rng = np.random.default_rng(self.seed)
        base = random_bytes(rng, SHORT_BASE)
        # Log-uniform lengths, so most calls hold no full instance (768 to
        # 1344 B), and stratified: each variant gets one length from each of
        # SHORT_POOL_ROUNDS equal slices of the log range, so the length mix,
        # and with it the call-time distribution, hardly varies by seed.
        # (Under uniform lengths half the calls hold at most one instance
        # and the median call time sits on the gap between the one- and
        # two-instance call times.)
        log_slice = math.log(SHORT_MAX + 2) / SHORT_POOL_ROUNDS
        lengths = {
            v: [int(math.exp((i + rng.uniform()) * log_slice)) - 1 for i in rng.permutation(SHORT_POOL_ROUNDS)]
            for v in VARIANTS
        }
        self.pool = []
        for j in range(SHORT_POOL_ROUNDS):
            ops = []
            for i in rng.permutation(len(VARIANTS)):
                v = VARIANTS[i]
                n = lengths[v][j]
                off = int(rng.integers(0, SHORT_BASE - n + 1))
                data = base[off : off + n]
                ref = pkg.hash_bytes(data, self.seeds[v], self.params[v], engine="scalar").hex()
                ops.append(self._op(v, data, ref, (j, v)))
            self.pool.append(ops)

    def _op(self, v: int, data: bytes, ref: str, key: tuple) -> Op:
        return Op(
            label=f"short v{v} len={len(data)}",
            nbytes=len(data),
            make=lambda: data,
            call=lambda d: self.ht.pkg.hash_bytes(d, self.seeds[v], self.params[v]),
            check=lambda got: _digest_mismatch(got, ref),
            key=key,
        )

    def rounds(self):
        while True:
            yield from self.pool

    def memory_ops(self):
        # The whole pool: a part of it would not keep the stratified mix.
        return [op for ops in self.pool for op in ops]


# --- verify -------------------------------------------------------------


class Verify(Workload):
    name = "verify"
    why = "full halftimehash verify plus scalar-engine checks: analysis, oracle, scalar engine, 4-bit gf16/nh"
    modules = ("halftimehash.cli", "halftimehash.analysis", "halftimehash.nh")
    # A round takes about 10 s, so a run holds only a few: rates pool the run.
    window_rounds = None

    def setup(self, ht) -> None:
        self.ht = ht
        for v in VARIANTS:
            p = ht.pkg.variant(v)
            data = self.warm_data[: 4 * KiB]
            seed = ht.pkg.seed_for_input(self.warm_master, p, len(data))
            ht.pkg.hash_bytes(data, seed, p, engine="scalar", counter=ht.nh.MultCounter())

    def _cli_op(self) -> Op:
        def call(_):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.ht.cli.main(["verify"])
            return code, out.getvalue()

        def check(result):
            code, text = result
            lines = text.splitlines()
            bad = [f"exit code {code}"] if code != 0 else []
            bad += [ln for ln in lines if ln.startswith("FAIL")]
            passed = {ln.split(":")[0][5:] for ln in lines if ln.startswith("PASS ")}
            bad += [f"no PASS line for {name}" for name in VERIFY_PROPERTIES if name not in passed]
            if "all properties hold" not in lines:
                bad.append("no 'all properties hold' line")
            return "; ".join(bad) or None

        return Op("verify cli", 0, lambda: None, call, check, hashes=False)

    def _scalar_op(self, v: int, data: bytes, master: bytes) -> Op:
        pkg = self.ht.pkg
        n = len(data)

        def make():
            p = pkg.variant(v)
            return p, pkg.seed_for_input(master, p, n)

        def call(arg):
            p, seed = arg
            counter = self.ht.nh.MultCounter()
            return arg, pkg.hash_bytes(data, seed, p, engine="scalar", counter=counter), counter.total

        def check(result):
            (p, seed), got, mults = result
            self.stats["nh.mults"] += mults
            self.stats["nh.bytes"] += n
            bad = []
            lanes = pkg.hash_bytes(data, seed, p)
            if got != lanes:
                bad.append(f"scalar {got.hex()} != lanes {lanes.hex()}")
            exact = self.ht.analysis.entropy_report(p, n).multiplications_exact
            if mults != exact:
                bad.append(f"MultCounter {mults} != multiplications_exact {exact}")
            return "; ".join(bad) or None

        return Op(f"verify scalar v{v} len={n}", n, make, call, check)

    def _scalar_ops(self, rng) -> list[Op]:
        ops = []
        width = VERIFY_SCALAR_MAX / VERIFY_SCALAR_CALLS
        for v in VARIANTS:
            for i in range(VERIFY_SCALAR_CALLS):
                n = 1 + int((i + rng.uniform()) * width)
                ops.append(self._scalar_op(v, random_bytes(rng, n), rng.bytes(32)))
        return ops

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        while True:
            ops = [self._cli_op()] + self._scalar_ops(rng)
            yield [ops[i] for i in rng.permutation(len(ops))]

    def memory_ops(self):
        # Every fourth slice keeps the pass short and still spans the range.
        return self._scalar_ops(np.random.default_rng([self.seed, 1]))[::4]


WORKLOADS = {w.name: w for w in (Bulk, Mid, Short, Verify)}
