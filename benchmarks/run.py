"""cqnls benchmark: the CLI pipelines end to end, and their layers traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cqnls`` must be there; the
package is imported from it, nothing is installed).  Each iteration runs the
workload's commands (``workloads.py``), each in a fresh interpreter, so the
profile cache and the collocation ladder start cold as they do for a user.
Load is closed-loop: one client, one process at a time; BLAS pools are held
to one thread.  Iterations repeat while the next one is expected to finish
within S seconds; at least one always runs.

``--trace 0`` prints the end-to-end metrics (medians over iterations):

* ``setup_s``      interpreter start until ``import cqnls.cli`` returns
                   (median over two set-up-only processes and every step)
* ``wall_s``       sum over the workload's commands of their process times
* ``peak_rss_mb``  peak resident memory of the largest step process
* ``digits``       -log10 of the worst identity error in the outputs
* ``success_frac`` 1 - failed_frac; ``failed_frac`` (failed over attempted
                   operations: steps, scan nodes and output checks) is printed
                   too, but as it is 0 when healthy it cannot be a gated ratio

``setup_s`` and ``wall_s`` are seconds at the reference core speed: each
process times a fixed kernel while it runs (see ``child.py``) and its
measured times are scaled by its mean speed relative to
``REFERENCE_KERNEL_S``.  On a shared host the raw times of ten runs
spread by 20-30 % (interquartile range over median), the scaled ones by
2-10 %.  The scaling holds only for a step that ran on one thread of one
core: a step that ended with more than one thread, or used more CPU time
than wall time, keeps its measured times and is reported as unscaled, so
that parallelism is not credited twice.  The measured wall time, the
speed and the sampler ratio (kernel time while working over kernel time
right after the import) are printed beside them and recorded.

``--trace 1`` runs traced iterations instead and prints the per-layer
metrics (``spans.py`` wraps the layers from outside the package); their
times are scaled to the reference core speed in the same way.  Its
``trace.overhead_s`` is the time the wrappers spend outside the calls
they wrap, measured in place; ``trace.wall_s`` minus the untraced
``wall_s`` of the same seed is the end-to-end view of the same overhead,
but on a shared host it is dominated by run-to-run noise.

The last line of standard output is the JSON result.  Everything else, and
a full record with the environment, goes to ``.bench_runs/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_iteration  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
#: fastest time of ``child.speed_kernel`` seen on the reference host (an idle
#: core of a 2-vCPU Intel Xeon VM, Python 3.11.7); times are scaled to it
REFERENCE_KERNEL_S = 1.36e-3
#: leave room under the 180 s limit for one more step's set-up and the checks
HARD_LIMIT_S = 165.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "digits": "digits", "success_frac": "fraction"}
LAYER_UNITS = {
    "shooting.solve_calls": "count", "shooting.cache_hit_ratio": "fraction",
    "shooting.cold_solve_s_p50": "s", "shooting.cold_solve_s_p90": "s",
    "shooting.integrations": "count", "shooting.integrations_per_solve": "count",
    "shooting.rhs_evals": "count", "shooting.self_s": "s",
    "bvp.rungs_attempted": "count", "bvp.rung_accept_ratio": "fraction",
    "bvp.max_nodes": "count", "bvp.cold_ladder_s": "s", "bvp.self_s": "s",
    "functionals.evaluate_calls": "count", "functionals.evaluate_s": "s",
    "curves.scan_s": "s", "curves.differentiate_s": "s",
    "curves.invert_beta_s": "s", "curves.invert_beta_solves": "count",
    "landscape.table_s": "s", "landscape.solves": "count",
    "landscape.cache_hit_ratio": "fraction",
    "dynamics.steps": "count", "dynamics.step_us": "us",
    "dynamics.inner_per_step": "count", "dynamics.reference_solves_s": "s",
    "dynamics.distance_s": "s", "dynamics.spectra_s": "s",
    "flow.iterations": "count", "flow.iter_us": "us",
    "profiles.interpolate_calls": "count", "profiles.interpolate_s": "s",
    "geometry.calls": "count", "analytic1d.validate_s": "s",
    "cli.self_s": "s", "process.cpu_s": "s", "process.wall_raw_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}
#: per-layer metrics that must repeat exactly for a given seed
COUNT_METRICS = [k for k, u in LAYER_UNITS.items() if u in ("count", "fraction")]


class StepTimeout(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CQNLS_OUT_DIR", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         capture_output=True, timeout=30)
    return out.stdout.strip() or "unknown"


def run_process(argv: list[str], directory: Path, result: Path, deadline: float,
                trace_id: str | None = None) -> dict:
    """One child process; returns its result record plus parent timings."""
    directory.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result)]
    if trace_id:
        cmd += ["--trace", trace_id]
    cmd += ["--", *argv]
    with (directory / "stdout.txt").open("w") as out, \
            (directory / "stderr.txt").open("w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=directory, env=child_env(),
                                stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise StepTimeout(f"{argv[0]} exceeded the run's time limit")
        end = time.monotonic()
    record = json.loads(result.read_text()) if result.exists() else {}
    record.update(exit_code=rc, start=start, end=end, wall_raw_s=end - start)
    samples = record.get("speed_samples")
    if samples and "ready" in record:
        record["speed"] = speed(samples)
        # the first five samples are taken right after the import; a ratio
        # above 1 means the host or the program slowed the sampler while
        # the step worked
        if len(samples) > 5:
            record["sampler_ratio"] = (statistics.median(samples[5:])
                                       / statistics.median(samples[:5]))
        # the kernel only tracks the speed of the one core the step runs
        # on; threads or worker processes would be credited twice
        record["scaled"] = (record.get("threads") == 1
                            and record.get("cpu_s", math.inf) <= record["wall_raw_s"])
        record["scale"] = record["speed"] if record["scaled"] else 1.0
        record["wall_s"] = record["wall_raw_s"] * record["scale"]
        record["setup_raw_s"] = record["ready"] - start
        record["setup_s"] = record["setup_raw_s"] * (
            speed(samples[:5]) if record["scaled"] else 1.0)
    return record


def speed(samples: list[float]) -> float:
    """Mean core speed over the samples, as a fraction of the reference."""
    return statistics.fmean(REFERENCE_KERNEL_S / d for d in samples)


def module_ok(record: dict) -> bool:
    """The step imported cqnls from this checkout, not from elsewhere."""
    return record.get("module", "").startswith(str(ROOT / "src") + os.sep)


def run_iteration(workload: str, p: dict, directory: Path, deadline: float,
                  traced: bool) -> dict:
    directory.mkdir(parents=True)
    dirs, values, context, timed, failures, walls = {}, {}, {}, [], [], {}
    setup, attempted, versions, timed_names = [], 0, {}, []
    for step in p["steps"]:
        step_dir = directory / step.name
        dirs[step.name] = step_dir
        argv = list(step.argv)
        attempted += 1
        try:
            argv = [a.format_map(context) if "{" in a else a for a in argv]
        except KeyError as err:
            failures.append(f"{step.name}: missing input {err}")
            continue
        if argv[0] != "certify":
            argv += ["--out", str(step_dir)]
        if step.config is not None:
            step_dir.mkdir(parents=True, exist_ok=True)
            (step_dir / "run.cfg").write_text(step.config)
            argv += ["--config", str(step_dir / "run.cfg")]
        trace_id = f"{directory.name}/{step.name}" if traced and step.timed else None
        rec = run_process(argv, step_dir, directory / f"{step.name}.json",
                          deadline, trace_id)
        if rec["exit_code"] != 0 or not module_ok(rec):
            failures.append(f"{step.name}: exit {rec['exit_code']} "
                            f"{rec.get('error', '')} module={rec.get('module')}")
        walls[step.name] = rec["wall_raw_s"]
        if "setup_s" in rec:
            setup.append(rec["setup_s"])
        versions = versions or rec.get("versions", {})
        if rec.get("value") is not None:
            values[step.name] = rec["value"]
        manifest = step_dir / "manifest.json"
        if manifest.exists():
            context.update(json.loads(manifest.read_text()).get("critical", {}))
        if step.timed:
            timed.append(rec)
            timed_names.append(step.name)
    checker = check_iteration(workload, dirs, p["params"], values)
    attempted += len(checker.checks)
    failures += [f"check {n}: {d}" for n, ok, d in checker.checks if not ok]
    it = {
        "traced": traced,
        "wall_s": sum(r.get("wall_s", math.nan) for r in timed) if timed else math.nan,
        "wall_raw_s": timed[-1]["end"] - timed[0]["start"] if timed else math.nan,
        "speed": statistics.fmean(r.get("speed", math.nan) for r in timed)
        if timed else math.nan,
        "sampler_ratio": median([r["sampler_ratio"] for r in timed
                                 if "sampler_ratio" in r]),
        "unscaled_steps": [n for n, r in zip(timed_names, timed)
                           if not r.get("scaled")],
        "step_walls": walls,
        "versions": versions,
        "setup_samples": setup,
        "peak_rss_mb": max((r.get("maxrss_kb", 0) for r in timed), default=0) / 1024.0,
        "cpu_s": sum(r.get("cpu_s", 0.0) for r in timed),
        "digits": checker.digits(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    if traced:
        it["layers"] = layer_metrics([(r["trace"], r["scale"]) for r in timed
                                      if "trace" in r and "scale" in r])
    return it


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def layer_metrics(dumps: list[tuple[dict, float]]) -> dict:
    """Per-layer metrics of one traced iteration from its processes' spans.

    ``dumps`` pairs each process's spans with its scale; span times are
    scaled to the reference core speed like ``wall_s``.
    """
    spans, counts = [], {}
    for dump, scale in dumps:
        base = len(spans)
        for name, start, end, parent, attrs in dump["spans"]:
            spans.append((name, (end - start) * scale,
                          parent + base if parent >= 0 else -1, attrs or {}))
        for key, n in dump["counts"].items():
            counts[key] = max(counts.get(key, 0), n) if key == "bvp.max_nodes" \
                else counts.get(key, 0) + n
    children = [0.0] * len(spans)
    in_invert, in_table = [False] * len(spans), [False] * len(spans)
    for i, (name, dur, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += dur
            pname = spans[parent][0]
            in_invert[i] = in_invert[parent] or pname == "curves.invert_beta"
            in_table[i] = in_table[parent] or pname == "landscape.landscape_table"

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(spans[i][1] for i in named(name))

    def self_time(prefix):
        return sum(s[1] - children[i] for i, s in enumerate(spans)
                   if s[0].startswith(prefix + "."))

    def attr_sum(name, key):
        return sum(spans[i][3].get(key, 0) for i in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    solves = named("shooting.solve_ground_state") + named("shooting.solve_cubic_reference")
    hits = [i for i in solves if spans[i][3].get("hit")]
    cold = [spans[i][1] for i in named("shooting._solve")]
    table = [i for i in solves if in_table[i]]
    steps = attr_sum("dynamics.evolve", "steps")
    evolve_self = sum(spans[i][1] - children[i] for i in named("dynamics.evolve"))
    flow_iters = attr_sum("flow.mass_projected_flow", "iterations")
    rungs = counts.get("bvp.rungs_attempted", 0)
    integrations = counts.get("shooting.integrations", 0)
    return {
        "shooting.solve_calls": len(solves),
        "shooting.cache_hit_ratio": ratio(len(hits), len(solves)),
        "shooting.cold_solve_s_p50": percentile(cold, 0.5),
        "shooting.cold_solve_s_p90": percentile(cold, 0.9),
        "shooting.integrations": integrations,
        "shooting.integrations_per_solve": ratio(integrations, len(cold)),
        "shooting.rhs_evals": counts.get("shooting.rhs_evals", 0),
        "shooting.self_s": self_time("shooting"),
        "bvp.rungs_attempted": rungs,
        "bvp.rung_accept_ratio": ratio(counts.get("bvp.rungs_accepted", 0), rungs),
        "bvp.max_nodes": counts.get("bvp.max_nodes", 0),
        "bvp.cold_ladder_s": sum(spans[i][1] for i in named("bvp.solve_collocation")
                                 if spans[i][3].get("rungs", 0) > 0),
        "bvp.self_s": self_time("bvp"),
        "functionals.evaluate_calls": len(named("functionals.evaluate")),
        "functionals.evaluate_s": total("functionals.evaluate"),
        "curves.scan_s": total("curves.scan"),
        "curves.differentiate_s": total("curves.differentiate"),
        "curves.invert_beta_s": total("curves.invert_beta"),
        "curves.invert_beta_solves": sum(1 for i in solves if in_invert[i]),
        "landscape.table_s": total("landscape.landscape_table"),
        "landscape.solves": len(table),
        "landscape.cache_hit_ratio": ratio(sum(1 for i in table if spans[i][3].get("hit")),
                                           len(table)),
        "dynamics.steps": steps,
        "dynamics.step_us": ratio(evolve_self * 1e6, steps),
        "dynamics.inner_per_step": ratio(attr_sum("dynamics.evolve", "inner"), steps),
        "dynamics.reference_solves_s": total("dynamics._reference_family"),
        "dynamics.distance_s": total("dynamics.modulated_distance"),
        "dynamics.spectra_s": total("dynamics.linearized_spectra"),
        "flow.iterations": flow_iters,
        "flow.iter_us": ratio(self_time("flow") * 1e6, flow_iters),
        "profiles.interpolate_calls": len(named("profiles.interpolate")),
        "profiles.interpolate_s": total("profiles.interpolate"),
        "geometry.calls": sum(1 for s in spans if s[0].startswith("geometry.")),
        "analytic1d.validate_s": total("analytic1d.validate_quadrature_1d"),
        "cli.self_s": self_time("cli"),
        "trace.spans": len(spans),
        "trace.overhead_s": sum(d["overhead_s"] * scale for d, scale in dumps),
        "_solve_integrations": sorted(
            [spans[i][3].get("quintic", True), spans[i][3].get("integrations", 0)]
            for i in named("shooting._solve")),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traced = bool(args.trace)

    if not (ROOT / "src" / "cqnls" / "cli.py").is_file():
        print(f"error: no cqnls sources at {ROOT / 'src' / 'cqnls'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_runs" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    p = plan(args.workload, args.seed)

    setup, iterations, errors, versions = [], [], [], {}
    try:
        for k in range(0 if traced else SETUP_PROBES):
            rec = run_process(["setup"], work / f"setup{k}", work / f"setup{k}.json",
                              deadline)
            if rec["exit_code"] != 0 or not module_ok(rec):
                errors.append(f"set-up process failed: exit {rec['exit_code']} "
                              f"module={rec.get('module')}")
                break
            setup.append(rec["setup_s"])
        measure_start = time.monotonic()
        longest = 0.0
        while not errors:
            t0 = time.monotonic()
            iterations.append(run_iteration(
                args.workload, p, work / f"iter{len(iterations)}", deadline, traced))
            versions = versions or iterations[-1]["versions"]
            longest = max(longest, time.monotonic() - t0)
            now = time.monotonic()
            if now - measure_start + longest > args.seconds \
                    or now + longest > deadline:
                break
    except StepTimeout as err:
        errors.append(str(err))

    attempted = max(sum(it["attempted"] for it in iterations) + len(errors), 1)
    failed = sum(it["failed"] for it in iterations) + len(errors)
    setup += [s for it in iterations for s in it["setup_samples"]]
    walls = [it["wall_s"] for it in iterations]
    if traced:
        units = LAYER_UNITS
        metrics = {key: median([it["layers"][key] for it in iterations])
                   for key in LAYER_UNITS if not key.startswith(("process.", "trace.wall"))}
        metrics["process.cpu_s"] = median([it["cpu_s"] for it in iterations])
        metrics["process.wall_raw_s"] = median([it["wall_raw_s"] for it in iterations])
        metrics["trace.wall_s"] = median(walls)
    else:
        units = E2E_UNITS
        metrics = {
            "setup_s": median(setup),
            "wall_s": median(walls),
            "peak_rss_mb": median([it["peak_rss_mb"] for it in iterations]),
            "digits": median([it["digits"] for it in iterations]),
            "success_frac": 1.0 - failed / attempted,
        }

    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           **versions,
           "blas_threads": {var: child_env()[var] for var in THREAD_VARS},
           "platform": platform.platform(), "commit": git_commit(),
           "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace}
    record = {"env": env, "params": p["params"], "errors": errors,
              "iterations": iterations, "metrics": metrics,
              "failed_frac": failed / attempted, "setup_samples": setup}
    record_path = ROOT / ".bench_runs" / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))
    shutil.rmtree(work, ignore_errors=True)

    print(f"cqnls benchmark {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} iterations in {time.monotonic() - started:.1f} s")
    print("env " + json.dumps(env))
    for line in errors + [f for it in iterations for f in it["failures"]]:
        print("FAILED " + line)
    raw = [it["wall_raw_s"] for it in iterations]
    unscaled = sorted({n for it in iterations for n in it["unscaled_steps"]})
    print(f"  {'measured wall time':34s} {median(raw):<14.6g} s at "
          f"{median([it['speed'] for it in iterations]):.3f} of reference "
          f"core speed, {len(raw)} iteration(s); sampler ratio "
          f"{median([it['sampler_ratio'] for it in iterations]):.3f}")
    print(f"  {'unscaled (multi-threaded) steps':34s} "
          + (", ".join(unscaled) if unscaled else "none"))
    print(f"  {'failed_frac':34s} {failed / attempted:<14.6g} fraction "
          f"({failed}/{attempted} operations)")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:<14.6g} {units[key]}")
    print(f"record: {record_path}")
    print(json.dumps({"correct": failed == 0 and bool(iterations),
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v if math.isfinite(v) else 0.0,
                                      "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
