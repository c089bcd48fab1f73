"""Self-test of the benchmark's checks, on every workload at a tiny size.

    python3 bench/selftest.py

For each workload: a clean run must pass with every digest checked; a run
with one wrong expected answer planted must count exactly that item as
failed; a run against a reference with one wrong digest must count exactly
that item as failed. Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import copy
import json
import sys

from run import DIGEST_CHARS, DIGESTS, run_workload
from workloads import WORKLOADS

SEED = 1


def tampered(reference: dict, name: str, first_id: str, seeded: bool) -> dict:
    """The reference with the digest of item 0 replaced by one no output has."""
    out = copy.deepcopy(reference)
    wrong = "-" * DIGEST_CHARS
    if seeded:
        row = out["seeded"][name][str(SEED)]
        out["seeded"][name][str(SEED)] = wrong + row[DIGEST_CHARS:]
    else:
        out["fixed"][name][first_id] = wrong
    return out


def main() -> int:
    reference = json.loads(DIGESTS.read_text(encoding="utf-8"))
    ok = True

    def expect(label: str, cond: bool, detail) -> None:
        nonlocal ok
        ok &= cond
        print(f"{'PASS' if cond else 'FAIL'} {label}" + ("" if cond else f": {detail}"))

    for name in WORKLOADS:
        runs = {
            kind: run_workload(name, SEED, seconds=0, tiny=True, plant=kind == "planted", setup_repeats=1,
                               reference=reference)
            for kind in ("clean", "planted")
        }
        clean = runs["clean"]["record"]
        first_id, first_seeded = next(iter(clean["seeded"].items()))
        runs["digest"] = run_workload(name, SEED, seconds=0, tiny=True, setup_repeats=1,
                                      reference=tampered(reference, name, first_id, first_seeded))
        expect(f"{name}: clean tiny run passes with every digest checked",
               clean["failed"] == 0 and clean["digests_checked"] == clean["items"], clean["failures"][:3])
        for kind, planted_id in (("planted", runs["planted"]["record"]["planted"]), ("digest", first_id)):
            record = runs[kind]["record"]
            expect(f"{name}: a planted wrong {'answer' if kind == 'planted' else 'digest'} is counted once",
                   record["failed"] == 1 and record["failures"][0].startswith(f"{planted_id}:")
                   and not runs[kind]["result"]["correct"],
                   record["failures"][:3])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
