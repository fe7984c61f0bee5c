"""Run one benchmark workload against the meanderkit in ./src.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs each workload in its own process, prints a table,
and ends with one JSON object that maps each workload to its result.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 21
HARD_STOP_S = 120.0  # a run ends its rounds here even below min_ops


def import_package() -> SimpleNamespace:
    """Import meanderkit from ./src and nowhere else.

    Returns its layer modules by name.  They are taken from sys.modules
    because the package re-exports a function named ``spectrum`` over the
    module of that name.
    """
    if not (SRC / "meanderkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no meanderkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import meanderkit
    import meanderkit.cli  # noqa: F401  (the package does not import it)

    if Path(meanderkit.__file__).resolve().parent != SRC / "meanderkit":
        raise SystemExit(f"error: meanderkit imported from {meanderkit.__file__}")
    layers = {name: sys.modules[f"meanderkit.{name}"] for name in LAYERS}
    return SimpleNamespace(package=meanderkit, MeanderType=meanderkit.MeanderType, **layers)


def setup_probe(workload: str) -> None:
    """Child process: time importing the package and one warm-up operation."""
    from workloads import WORKLOADS

    start = time.perf_counter()
    mk = import_package()
    WORKLOADS[workload].warmup(mk)
    print(time.perf_counter() - start)


def measure_setup(workload: str) -> float:
    """One set-up time, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run one workload in its own process; returns the JSON lines it printed.

    The child's standard error is passed on.  A child that exits with an
    error ends this process too.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed}: exit {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def timed_rounds(wl, seconds: float, tracer=None) -> dict:
    """Run whole rounds for `seconds` and at least wl.min_ops operations.

    An untraced run also takes its SETUP_PROBES set-up times, spread evenly
    over the run between rounds, so that they see the same phases of the
    host's speed as the rounds do.  Only the operations themselves are
    timed as latencies and round times.
    """
    setup_times: list[float] = []
    probes = 0 if tracer else SETUP_PROBES
    latencies = array.array("d")  # not a list: keeps the benchmark's own memory small
    round_times: list[float] = []
    summaries: list = []  # (key, summary) to check against the reference
    first: dict = {}
    problems: list[str] = []
    failures: dict[str, str] = {}
    attempted = failed = 0
    clock = time.perf_counter
    gc.collect()
    start = clock()
    while attempted < wl.min_ops or clock() - start < seconds:
        if clock() - start > HARD_STOP_S or (tracer and attempted >= wl.trace_ops):
            break
        while len(setup_times) < probes and clock() - start >= len(setup_times) * seconds / probes:
            setup_times.append(measure_setup(wl.name))
        r = len(round_times)
        round_time = 0.0
        for i, (label, op) in enumerate(wl.round(r)):
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            t0 = clock()
            try:
                result = op()
            except Exception as exc:  # a fault of the program: count it
                round_time += clock() - t0
                failed += 1
                failures.setdefault(label, f"{type(exc).__name__}: {exc}")
                if label not in wl.expected_failures and len(problems) < 100:
                    problems.append(f"{label}: unexpected {type(exc).__name__}: {exc}")
                continue
            elapsed = clock() - t0
            round_time += elapsed
            latencies.append(elapsed)
            key = (r, i) if wl.fresh_rounds else i
            summary = wl.summarize(key, result)
            del result
            if wl.fresh_rounds or r == 0:
                first[key] = summary
                summaries.append((key, summary))
            elif summary != first[key] and len(problems) < 100:
                problems.append(f"{label}: output changed between rounds")
        round_times.append(round_time)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_times) < probes:  # a run cut short by HARD_STOP_S
        setup_times.append(measure_setup(wl.name))
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rounds": len(round_times),
        "round_times": round_times,
        "completed_per_round": (attempted - failed) / len(round_times),
        "latencies": latencies,
        "summaries": summaries,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
    }


def end_to_end(wl, timed: dict) -> dict:
    lat = sorted(timed["latencies"])
    return {
        "setup_s": {"value": timed["setup_s"], "unit": "s"},
        "ops_per_s": {
            "value": timed["completed_per_round"] / statistics.median(timed["round_times"]),
            "unit": "1/s",
        },
        "p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "tail_ms": {"value": percentile(lat, wl.percentile) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}")
    mk = import_package()
    wl = WORKLOADS[name](mk, seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(mk)
    timed = timed_rounds(wl, seconds, tracer)
    replay_passes = 0
    if tracer is not None:
        tracer.op = -1
        replay_passes = wl.replay()
        tracer.uninstall()

    problems = list(timed["problems"])
    for key, summary in timed["summaries"]:
        problems += wl.check(key, summary)
    for label, failure in timed["failures"].items():
        print(f"failed: {label}: {failure}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)

    if tracer is not None:
        from tracing import layer_metrics

        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        values = layer_metrics(
            tracer.spans, {"timed": timed["rounds"], "replay": replay_passes}
        )
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["per_layer"]
        }
        traced = end_to_end(wl, timed)
        print(json.dumps({
            "traced_ops_per_s": traced["ops_per_s"]["value"],
            "traced_p50_ms": traced["p50_ms"]["value"],
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "replay_passes": replay_passes,
        }))
    else:
        metrics = end_to_end(wl, timed)
    return {
        "correct": not problems,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints a table, then all results."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        result = run_child(name, seed, seconds, trace)[-1]
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:26s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
