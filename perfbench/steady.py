"""Steadiness check: the same code, two sets of runs, compared per metric.

    python3 perfbench/steady.py

Each run is `run.py --workload W --seed S --trace 0` in its own process,
for run_seconds of BENCHMARK.json.  Two sets of RUNS runs each go through
every workload; set 1 uses seeds 1..10 and set 2 seeds 11..20, so the sets
share no seed.  For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (Q3 - Q1) / median, and the second
median's change in the metric's worse direction, each against the bound
from BENCHMARK.json.  It also compares the share of failed operations
between all runs, which must be exactly equal.  The whole table is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import HERE, ROOT, SPEC, run_child

SETS = 2
RUNS = 10


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    seconds = SPEC["run_seconds"]
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}

    sets = []
    for k in range(SETS):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for i in range(RUNS):
                seed = 1 + k * RUNS + i
                started = time.monotonic()
                result = run_child(workload, seed, seconds, False)[-1]
                runs[workload].append(result)
                print(f"set {k + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"({time.monotonic() - started:.1f} s)", flush=True)
        sets.append(runs)

    table = []
    ok = True
    print(f"\n{'workload':8s} {'metric':12s} {'median1':>11s} {'q1..q3':>23s} {'spread':>7s}"
          f" {'median2':>11s} {'spread':>7s} {'worse':>7s}  bound")
    for workload in workloads:
        shares = [
            {r["failed"] / r["attempted"] for r in runs[workload]} for runs in sets
        ]
        if any(len(s) != 1 for s in shares) or len(set.union(*shares)) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {shares}")
        for name, m in metrics.items():
            row = {"workload": workload, "metric": name, "bound": m["bound"], "sets": []}
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                row["sets"].append({"values": values, **describe(values)})
            a, b = row["sets"]
            change = (b["median"] - a["median"]) / a["median"]
            row["worse"] = change if m["better"] == "lower" else -change
            if row["worse"] > m["bound"] or any(s["spread"] > m["bound"] for s in row["sets"]):
                ok = False
            third = all(s["spread"] < m["bound"] / 3 for s in row["sets"])
            print(f"{workload:8s} {name:12s} {a['median']:11.5g} "
                  f"{a['q1']:11.5g}..{a['q3']:<11.5g} {a['spread']:7.1%}"
                  f" {b['median']:11.5g} {b['spread']:7.1%} {row['worse']:7.1%}"
                  f"  {m['bound']:.2f}" + ("" if third else "  spread above a third of the bound"))
            table.append(row)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "runs": RUNS, "table": table}, indent=1))
    print(f"\n{'accepted' if ok else 'NOT accepted'}; table in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
