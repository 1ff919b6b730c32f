"""Run the benchmark over workloads and seeds and summarise the results.

    python3 benchmarks/report.py [--seeds 1-10] [--determinism] [--out FILE]

Prints, for each of the four workloads, the median, quartiles and spread
(interquartile range over median) of every end-to-end metric across the
seeds, with ``failed_frac``.  ``--determinism`` adds two traced runs per
workload at the first seed, prints the per-layer metrics and the tracing
overhead (both as measured in the wrappers and as traced minus untraced
``wall_s``), and fails unless every count metric and ``digits`` repeat
exactly.  ``--out`` writes the summary as JSON.  Run length comes from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import COUNT_METRICS, ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_runs" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def integration_counts(records: list[dict]) -> dict:
    """DOP853 integrations per cold shooting solve, by problem."""
    counts = {"quintic": Counter(), "cubic": Counter()}
    for rec in records:
        for it in rec["iterations"]:
            for quintic, n in it.get("layers", {}).get("_solve_integrations", []):
                counts["quintic" if quintic else "cubic"][str(n)] += 1
    return {k: dict(v) for k, v in counts.items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--determinism", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    summary, ok = {"workloads": {}}, True

    for workload in WORKLOADS:
        runs = [run_one(workload, seed, seconds, 0) for seed in seeds]
        summary.setdefault("env", runs[0]["record"]["env"])
        entry = {"seeds": seeds, "end_to_end": {}}
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}")
        print(f"  {'metric':16s} {'unit':9s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s}")
        rows = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        for name, unit in rows + [("failed_frac", "fraction")]:
            values = [r["record"]["failed_frac"] if name == "failed_frac"
                      else r["result"]["metrics"][name]["value"] for r in runs]
            s = entry["end_to_end"][name] = stats(values) | {"unit": unit}
            print(f"  {name:16s} {unit:9s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f}")
        incorrect = [r["record"]["env"]["seed"] for r in runs
                     if not r["result"]["correct"]]
        if incorrect:
            ok = False
            print(f"  INCORRECT runs at seeds {incorrect}")

        if args.determinism:
            traced = [run_one(workload, seeds[0], seconds, 1) for _ in range(2)]
            layers = {k: v["value"] for k, v in traced[0]["result"]["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = layers
            entry["integrations_per_cold_solve"] = integration_counts(
                [t["record"] for t in traced])
            untraced_wall = runs[0]["result"]["metrics"]["wall_s"]["value"]
            entry["tracing_overhead"] = {
                "in_place_s": layers["trace.overhead_s"],
                "traced_minus_untraced_wall_s": layers["trace.wall_s"] - untraced_wall}
            print(f"  traced, seed {seeds[0]}: tracing overhead "
                  f"{layers['trace.overhead_s']:.6f} s measured in the wrappers; "
                  f"traced minus untraced wall_s {layers['trace.wall_s']:.3f} - "
                  f"{untraced_wall:.3f} = "
                  f"{layers['trace.wall_s'] - untraced_wall:+.3f} s")
            for key, value in layers.items():
                print(f"    {key:34s} {value:.6g}")
            print(f"    integrations per cold solve: "
                  f"{entry['integrations_per_cold_solve']}")
            first, second = ({k: t["result"]["metrics"][k]["value"] for k in COUNT_METRICS}
                             | {"digits": [it["digits"] for it in t["record"]["iterations"]]}
                             for t in traced)
            differ = sorted(k for k in first if first[k] != second[k])
            entry["determinism"] = {"compared": sorted(first), "differ": differ}
            ok &= not differ
            print("  determinism: counts and digits "
                  + (f"DIFFER in {differ}" if differ else "repeat exactly"))
        summary["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
