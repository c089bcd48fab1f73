"""pactkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload random-suite --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is always the ``src/`` tree next
to this directory. Set-up (importing pactkit and building the seeded
inputs) is repeated and its median reported as ``setup_s``. The timed
phase is a closed loop on one thread: each item starts when the previous
one returns, in whole passes over the item list until ``--seconds`` have
gone by. The timing metrics are taken over each item's fastest timing.
Every verdict is checked; the outcomes of the first pass are then hashed
and compared with the digests recorded in ``digests.json``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones: each item then runs once untraced
and once traced, and the traced run's spans give self times per function.
A fuller record of the run (sizes per item, percentile used, spans) is
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
DIGEST_CHARS = 6
SETUP_REPEATS = 5
MODULES = ("groupoid", "action", "envelope", "coset", "morphisms", "topology", "io", "cli", "sampling", "fixtures")

sys.path.insert(0, str(BENCH))
from tracer import Tracer, metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Pactkit:
    """The pactkit modules of one fresh import, by short name."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for key in [k for k in sys.modules if k == "pactkit" or k.startswith("pactkit.")]:
            del sys.modules[key]
        package = importlib.import_module("pactkit")
        if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"pactkit was imported from {package.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"pactkit.{name}"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def reference_digest(reference: dict, workload: str, seed: int, item) -> str | None:
    if item.seeded:
        row = reference.get("seeded", {}).get(workload, {}).get(str(seed))
        return row[item.index * DIGEST_CHARS : (item.index + 1) * DIGEST_CHARS] if row else None
    return reference.get("fixed", {}).get(workload, {}).get(item.id)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "pactkit").rglob("*.py")))


def best_times(times: list) -> list:
    """Each item's fastest timing, sorted.

    On a machine whose cores are shared with other work, a core can run up
    to 1.7x slower for spells of a fraction of a second to minutes. An
    item's fastest timing is the one least touched by that, and every item
    keeps exactly one, so the mix of items does not change."""
    return sorted(min(ts) for ts in times)


def tail_percentile(sorted_values: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    tiny: bool = False,
    plant: bool = False,
    reference: dict | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Set up, run the timed loop, check and digest; returns the result and a record."""
    wl = WORKLOADS[name]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            pk = Pactkit()
            items = wl.setup(pk, seed, {"work": str(work)}, tiny)
            setup_times.append(time.perf_counter() - t0)
        planted = wl.plant(items) if plant else None
        tracer = Tracer(pk) if trace else None
        gc.collect()

        attempted = 0
        failures: list[str] = []
        first: dict[int, dict] = {}
        times = [[] for _ in items]
        traced_s = untraced_s = 0.0
        passes = 0

        def attempt(item, fn, *args):
            nonlocal attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # an item that raises is a failed item, not a crash
                failures.append(f"{item.id}: raised {type(exc).__name__}: {exc}")
                return None, time.perf_counter() - t0
            elapsed = time.perf_counter() - t0
            try:
                problems = wl.check(item, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failures.append(f"{item.id}: " + "; ".join(problems))
            return out, elapsed

        pass_s = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for i, item in enumerate(items):
                out, elapsed = attempt(item, wl.run, pk, item)
                times[i].append(elapsed)
                if passes == 0 and out is not None:
                    first[i] = out
                if tracer:
                    untraced_s += elapsed
                    tracer.install()
                    try:
                        _, elapsed = attempt(item, tracer.run_item, i, wl.run, pk, item)
                    finally:
                        tracer.uninstall()
                    traced_s += elapsed
            passes += 1
            pass_s.append(time.perf_counter() - pass_start)
            if time.perf_counter() - start >= seconds:
                break

        reference = reference or {}
        digests, checked = {}, 0
        sizes = []
        for i, item in enumerate(items):
            out = first.get(i)
            if out is None:
                continue
            digests[item.id] = digest(wl.digest_text(pk, item, out))
            expected = reference_digest(reference, name, seed, item)
            if expected is not None:
                checked += 1
                if expected != digests[item.id]:
                    failures.append(f"{item.id}: digest {digests[item.id]} differs from the recorded {expected}")
            traced = {k: v / passes for k, v in tracer.item_counts.get(i, {}).items()} if tracer else {}
            sizes.append({"id": item.id, **wl.sizes(item, out), **traced, "median_ms": statistics.median(times[i]) * 1e3})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    best = best_times(times)
    tail, beyond = tail_percentile(best, wl.tail_q)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "items": len(items),
        "passes": passes,
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:50],
        "planted": planted,
        "setup_s_runs": setup_times,
        "tail": {"q": wl.tail_q, "samples": len(best), "beyond": beyond},
        "digests_checked": checked,
        "digests": digests,
        "seeded": {item.id: item.seeded for item in items},
        "sizes": sizes,
    }
    if tracer:
        metrics = tracer.layer_metrics(passes, traced_s, untraced_s)
        shares = {m: v for m, v in metrics.items() if m.endswith(".share")}
        record["leading_module"] = max(shares, key=shares.get).removesuffix(".share")
        record["outside_share"] = tracer.outside_share(traced_s)
        spans = tracer.span_records()
        units = {k: metric_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": len(best) / sum(best),
            "item_p50_ms": statistics.median(best) * 1e3,
            "item_tail_ms": tail * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MiB"}
        spans = None
    record["metrics"] = metrics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "record": record, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pactkit" / "__init__.py").is_file():
        print(f"error: no pactkit sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PACT_FIXTURES", None)  # fixtures resolve to the packaged ones
    reference = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference=reference)
    record, result = run["record"], run["result"]
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record) + "\n", encoding="utf-8")
    if run["spans"]:
        detail.with_suffix(".spans.json").write_text(json.dumps(run["spans"]) + "\n", encoding="utf-8")

    tail = record["tail"]
    print(f"{args.workload} seed {args.seed}: {record['passes']} passes of {record['items']} items, "
          f"{record['attempted']} attempted, {record['failed']} failed, {record['digests_checked']} digests checked")
    print(f"tail percentile p{tail['q'] * 100:g} over {tail['samples']} samples, {tail['beyond']} beyond it")
    if args.trace:
        print(f"leading module: {record['leading_module']}; outside wrapped calls: {record['outside_share']:.3f}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    print(f"record: {detail.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
