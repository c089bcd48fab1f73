"""Run the benchmark over several seeds and write one result file.

    python3 bench/sweep.py --seeds 1-10 --out bench/out/sweep.json
    python3 bench/sweep.py --seeds 1-5 --workloads topo-envelope --trace 1 --out ...

Each run is a separate ``bench/run.py`` process, one at a time, with the run
length from BENCHMARK.json. For every workload and metric the file holds
the values, their median and quartiles, and the quartile spread as a share
of the median; the table printed at the end sets that spread beside the
metric's bound. Compare two such files with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append({"seed": seed, **line})
            print(f"{w} seed {seed}: correct={line['correct']} failed={line['failed']}/{line['attempted']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    result = {"python": platform.python_version(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    print(f"\n{'workload':15} {'metric':44} {'median':>12} {'spread':>8} {'bound':>6}")
    for w, rs in runs.items():
        metrics = {}
        for name in rs[0]["metrics"]:
            metrics[name] = {"unit": rs[0]["metrics"][name]["unit"],
                             **summary([r["metrics"][name]["value"] for r in rs])}
            if args.trace == 0 or name.endswith(".share"):
                bound = bounds.get(name)
                print(f"{w:15} {name:44} {metrics[name]['median']:12.5g} {metrics[name]['spread']:8.3f} "
                      f"{bound if bound is not None else '':>6}")
        result["workloads"][w] = {
            "seeds": [r["seed"] for r in rs],
            "correct": all(r["correct"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "metrics": metrics,
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
