"""Diff two sweep result files, per workload and metric.

    python3 bench/compare.py OLD.json NEW.json

For each metric: both medians, the change as a share of the old median
(positive = worse, by the metric's direction), the old run-to-run spread,
and a verdict against the bound in BENCHMARK.json. A change within the old
spread is reported as unresolved rather than as a gain or a loss; where
both files ran the same seeds, the count of seeds on which the new run
is better is shown too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    regressions = 0
    print(f"{'workload':15} {'metric':40} {'old':>11} {'new':>11} {'worse by':>9} {'spread':>7} {'wins':>6}  verdict")
    for w, o in old["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            print(f"{w:15} missing from {argv[1]}")
            continue
        for name, om in o["metrics"].items():
            nm = n["metrics"].get(name)
            if nm is None or name not in direction:
                continue
            sign = 1 if direction[name] == "lower" else -1
            worse = sign * (nm["median"] - om["median"]) / om["median"] if om["median"] else 0.0
            pairs = [(a, b) for s, a in zip(o["seeds"], om["values"]) for t, b in zip(n["seeds"], nm["values"]) if s == t]
            wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
            bound = bounds.get(name)
            if bound is not None and worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif abs(worse) <= om["spread"]:
                verdict = "unresolved (within spread)"
            elif worse < 0:
                verdict = "better"
            else:
                verdict = "worse, within bound" if bound is not None else "worse"
            print(f"{w:15} {name:40} {om['median']:11.5g} {nm['median']:11.5g} {worse:9.3f} "
                  f"{om['spread']:7.3f} {f'{wins}/{len(pairs)}':>6}  {verdict}")
        if not n["correct"]:
            print(f"{w:15} NEW RUNS FAILED CHECKS: {n['failed']} of {n['attempted']}")
            regressions += 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
