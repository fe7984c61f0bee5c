"""Traced run: per-layer metrics, with the tracing overhead.

    python3 perfbench/traced.py                      # every workload, seed 1
    python3 perfbench/traced.py --workload query --seed 3

For each workload it runs `run.py ... --trace 0` and `run.py ... --trace 1`
with the same seed and run_seconds of BENCHMARK.json, each in its own
process, alternating for PAIRS pairs because the host's speed drifts
between runs.  The traced run writes its
spans as JSON lines to perfbench/out/spans-<workload>-seed<seed>.jsonl and
reports the per-layer metrics; the last pair's are printed.  The overhead
is the median over pairs of the untraced rate of operations over the traced
one, minus one, and the same for the median latency.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import HERE, ROOT, SPEC, run_child

PAIRS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
    report = {}
    for name in names:
        rates, p50s = [], []
        for _ in range(PAIRS):
            plain = run_child(name, args.seed, seconds, False)[-1]
            info, traced = run_child(name, args.seed, seconds, True)[-2:]
            rates.append(plain["metrics"]["ops_per_s"]["value"] / info["traced_ops_per_s"] - 1)
            p50s.append(info["traced_p50_ms"] / plain["metrics"]["p50_ms"]["value"] - 1)
        rate_overhead, p50_overhead = statistics.median(rates), statistics.median(p50s)
        print(f"{name}: correct={traced['correct']} attempted={traced['attempted']} "
              f"failed={traced['failed']} spans={info['spans']} in {info['spans_file']}")
        print(f"  tracing overhead over {PAIRS} pairs: ops_per_s {rate_overhead:+.1%}, "
              f"p50_ms {p50_overhead:+.1%}"
              + (f" (replayed inputs: {info['replay_passes']} pass)" if info["replay_passes"] else ""))
        for metric, entry in traced["metrics"].items():
            print(f"  {metric:26s} {entry['value']:14.6g} {entry['unit']}")
        report[name] = {"untraced": plain, "traced": traced, "info": info,
                        "overhead": {"ops_per_s": rates, "p50_ms": p50s}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"traced-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report in {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
