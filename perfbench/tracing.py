"""Outside-in stage tracing for the traced benchmark run.

For the length of one traced operation the tracer replaces the
module-level functions each layer is called through with wrappers that
record a span: name, start, end and parent id, and then puts the
originals back.  Only the benchmark's own files change.  Spans
are kept in memory and written out when the run ends; self time is a
span's duration minus the time its child spans cover.

A wrapped name that no longer exists (a refactor removed it) is reported
as absent and is otherwise skipped.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = "bench.call"  # one per timed operation; its self time is benchmark glue

#: (module, attribute, span).  Where a tuple names the span, ``_name``
#: picks one per call.  Package-level re-exports are separate bindings
#: and are wrapped too.
WRAPPED = (
    ("halftimehash.gf16", "scale", "gf16.scale"),
    ("halftimehash.hasher", "_encode_np", "hasher.encode"),
    ("halftimehash.hasher", "_nh_words_np", ("hasher.leaf_nh", "hasher.finalize", "hasher.tail")),
    ("halftimehash.hasher", "_combine_np", "hasher.combine"),
    ("halftimehash.hasher", "coefficient_multiply", "hasher.coefficient_multiply"),
    ("halftimehash.hasher", "_nh_node_np", "hasher.tree"),
    ("halftimehash.hasher", "SeedBuffer.words_np", "hasher.seed"),
    ("halftimehash.hasher", "SeedBuffer.words", "hasher.seed"),
    ("halftimehash.hasher", "seed_layout", "hasher.layout"),
    ("halftimehash.hasher", "_hash_words_np", "hasher.glue"),
    ("halftimehash.hasher", "hash_bytes", "hasher.glue"),
    ("halftimehash", "hash_bytes", "hasher.glue"),
    ("halftimehash.hasher", "_words_np_from_bytes", "hasher.load"),
    ("halftimehash.hasher", "digest", "hasher.digest"),
    ("halftimehash", "digest", "hasher.digest"),
    ("halftimehash.params", "variant", "params.variant"),
    ("halftimehash", "variant", "params.variant"),
    ("halftimehash.hasher", "_hash_scalar", "hasher.scalar"),
    ("halftimehash.hasher", "hash_remainder", "hasher.hash_remainder"),
    ("halftimehash.ehc", "compress_instance", "ehc.compress_instance"),
    ("halftimehash.tree", "tree_reduce", "tree.tree_reduce"),
    ("halftimehash.tree", "tree_finalize", "tree.tree_finalize"),
    ("halftimehash.analysis", "max_two_adic_valuation", "analysis.max_two_adic_valuation"),
    ("halftimehash.analysis", "verify_min_distance", "analysis.verify_min_distance"),
    ("halftimehash.oracle", "max_delta_probability", ("oracle.nh", "oracle.ehc")),
    ("halftimehash.cli", "main", "cli.main"),
)

#: Every span the traced run reports, in report order.
SPANS = (
    "gf16.scale",
    "hasher.encode",
    "hasher.leaf_nh",
    "hasher.combine",
    "hasher.coefficient_multiply",
    "hasher.tree",
    "hasher.finalize",
    "hasher.seed",
    "hasher.layout",
    "hasher.tail",
    "hasher.glue",
    "hasher.load",
    "hasher.digest",
    "params.variant",
    "hasher.scalar",
    "hasher.hash_remainder",
    "ehc.compress_instance",
    "tree.tree_reduce",
    "tree.tree_finalize",
    "analysis.max_two_adic_valuation",
    "analysis.verify_min_distance",
    "oracle.nh",
    "oracle.ehc",
    "cli.main",
    ROOT,
)

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in the order spans open.
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        # Finalize vs tail: the first k 2-D _nh_words_np calls inside one
        # _hash_words_np are the k finalize NHs, the rest hash the tail.
        self._nh_k = 0
        self._nh_2d = 0
        self.absent: list[str] = []  # wrapped names not found
        self._present: set[str] = set()  # spans some found name can record
        self._patches = self._resolve()  # (owner, attr, original, wrapper)

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _record(self, span: str, fn, args, kwargs):
        sid = len(self.name)
        self.name.append(self._id(span))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def root(self, fn, arg):
        """Run one operation as a root span with every wrapper in place."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._record(ROOT, fn, (arg,), {})
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # -- span naming and counters for particular wrapped functions --------

    def _name(self, attr: str, span, args, kwargs) -> str:
        if attr == "_nh_words_np":
            if np.ndim(_arg(args, kwargs, 0, "words")) >= 3:
                return "hasher.leaf_nh"
            self._nh_2d += 1
            return "hasher.finalize" if self._nh_2d <= self._nh_k else "hasher.tail"
        if attr == "max_delta_probability":
            return f"oracle.{_arg(args, kwargs, 0, 'stage')}"
        if attr == "_hash_words_np":
            self._nh_k = getattr(_arg(args, kwargs, 3, "params"), "output_words", 0)
            self._nh_2d = 0
        elif span == "gf16.scale":
            self.counts["gf16.scale.identity"] += _arg(args, kwargs, 0, "coeff") == 1
        elif span == "hasher.seed":
            self.counts["hasher.seed.words"] += _arg(args, kwargs, 2, "count")
        return span

    def _after(self, span: str, args, kwargs, result) -> None:
        if span == "hasher.load":
            data = _arg(args, kwargs, 0, "data")
            try:
                shared = np.shares_memory(result, np.frombuffer(data, dtype=np.uint8))
            except (TypeError, ValueError):
                shared = False
            if not shared:
                self.counts["hasher.load.copied_bytes"] += result.nbytes

    def _wrapper(self, fn, attr: str, span):
        def traced(*args, **kwargs):
            name = self._name(attr, span, args, kwargs)
            result = self._record(name, fn, args, kwargs)
            self._after(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _resolve(self) -> list[tuple]:
        """Wrappers for every name in WRAPPED that exists; note the ones that do not."""
        patches = []
        for module_name, path, span in WRAPPED:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            patches.append((owner, attr, fn, self._wrapper(fn, attr, span)))
            self._present.update((span,) if isinstance(span, str) else span)
        return patches

    def absent_spans(self) -> list[str]:
        """Reported spans none of whose wrapped names exist."""
        return [s for s in SPANS if s != ROOT and s not in self._present]

    def summary(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self time in s, calls)."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        # Spans come from one thread, so children of a span never overlap
        # and the time they cover is the sum of their durations.
        covered = np.zeros(len(dur))
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_time = dur - covered
        total = np.bincount(name, weights=self_time, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {s: (float(total[i]), int(calls[i])) for i, s in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
