"""Record the digests of the fixed bulk pool into ``bulk_pool.json``.

The bulk workload's digests are checked against this file, so a later
change to the lanes engine is compared with digests made before it.  Each
recorded digest is made by the lanes engine and must equal the scalar
engine's digest of the same input, so the file never blesses a lanes
change's own output.  The scalar engine takes minutes per entry.  Run from
the repository root:

    python3 perfbench/record_bulk.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import import_package
from workloads import BULK_POOL_FILE, BULK_POOL_SEED, bulk_input, bulk_pool_entries


def main() -> int:
    pkg = import_package(Path.cwd())
    entries = bulk_pool_entries()
    seeds = {}
    for e in entries:
        p = pkg.variant(e["variant"])
        if e["variant"] not in seeds:
            longest = max(x["length"] for x in entries if x["variant"] == e["variant"])
            seeds[e["variant"]] = pkg.seed_for_input(bytes.fromhex(e["master"]), p, longest)
        data = bulk_input(e)
        e["digest"] = pkg.hash_bytes(data, seeds[e["variant"]], p).hex()
        line = f"v{e['variant']} len={e['length']} {e['digest']}"
        t0 = time.perf_counter()
        ref = pkg.hash_bytes(data, seeds[e["variant"]], p, engine="scalar").hex()
        if ref != e["digest"]:
            print(f"{line}: scalar engine gives {ref}", file=sys.stderr)
            return 1
        print(f"{line} scalar-confirmed in {time.perf_counter() - t0:.0f} s", flush=True)
    doc = {
        "about": "Fixed bulk inputs (bytes of PCG64 random_raw from content_seed) and their "
        "digests under one seed buffer per variant, expanded for that variant's longest length; "
        "each digest equals the scalar engine's.",
        "pool_seed": BULK_POOL_SEED,
        "entries": entries,
    }
    BULK_POOL_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
