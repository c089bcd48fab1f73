"""Record the reference digests of every workload's outputs into digests.json.

    python3 bench/record_digests.py [workload ...]

Each item's outputs (canonical envelope documents, CLI stdout and written
files) are hashed on one pass per seed. Seed-independent items are stored
by id; each seed of a seeded workload gets one string holding every item's
digest in item order. The benchmark
counts an item whose digest differs as failed, so output must stay byte
for byte what it was when this ran. Re-record only for a change whose
purpose is to alter output, and say so. Naming workloads re-records only
those and keeps the others' digests.
"""

from __future__ import annotations

import json
import sys

from run import DIGEST_CHARS, DIGESTS, run_workload
from workloads import WORKLOADS

HELD_OUT_SEED = 271828
SEEDS = (*range(24), HELD_OUT_SEED)


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    reference = {"digest_chars": DIGEST_CHARS, "fixed": {}, "seeded": {}}
    if sys.argv[1:] and DIGESTS.exists():
        reference = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for name in names:
        reference["seeded"].pop(name, None)
        fixed, seeded = {}, {}
        for seed in SEEDS:
            run = run_workload(name, seed, seconds=0, setup_repeats=1)
            if not run["result"]["correct"]:
                print(f"{name} seed {seed}: {run['record']['failures'][:3]}", file=sys.stderr)
                return 1
            digests = run["record"]["digests"]
            for item_id, seeded_item in run["record"]["seeded"].items():
                if not seeded_item and fixed.setdefault(item_id, digests[item_id]) != digests[item_id]:
                    print(f"{name}: {item_id} is seed-independent but its digest varies", file=sys.stderr)
                    return 1
            if not any(run["record"]["seeded"].values()):
                break  # nothing seeded: one seed covers the workload
            # every item in index order, so a seeded item's digest sits at its index
            seeded[str(seed)] = "".join(digests[item_id] for item_id in run["record"]["seeded"])
        reference["fixed"][name] = fixed
        if seeded:
            reference["seeded"][name] = seeded
        print(f"{name}: {len(fixed)} fixed items, {len(seeded)} seeds")
    DIGESTS.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
