"""One benchmark step in a fresh interpreter.

    python3 benchmarks/child.py RESULT.json [--trace RUN_ID] -- ARGV...

Imports ``cqnls.cli`` first (the monotonic clock reading after that import
is the end of set-up), then runs ``cqnls.cli.main(ARGV)``, or
``certify_e_min_by_flow(mass)`` for ``ARGV = certify MASS``, or nothing
for ``ARGV = setup``.  The result, the process's peak RSS, its CPU time
(its own and that of any child processes it waited for), the number of
its threads at exit, and in traced mode the spans, are written to
RESULT.json.

Speed samples: on a shared host the speed of a core drifts by up to 2x
over seconds to minutes.  A fixed pure-Python kernel is therefore timed
five times right after the import and then every ``SAMPLE_INTERVAL_S``
(on SIGALRM, in this process, so on the core doing the work) while the
step runs.  The parent scales the step's times by them only if the step
stayed on one thread and one core (see ``run.py``).
"""

import json
import os
import signal
import sys
import time

SAMPLE_INTERVAL_S = 0.25
SAMPLES = []


def speed_kernel():
    """About 2 ms of interpreter-bound float work on an idle core."""
    u, v = 0.5, 0.0
    for _ in range(10_000):
        u, v = u + 1e-4 * v, v + 1e-4 * (0.05 * u - u * u * u + u * u * u * u * u)
    return u


def sample(*_):
    start = time.perf_counter()
    speed_kernel()
    SAMPLES.append(time.perf_counter() - start)


import cqnls.cli  # noqa: E402  (set-up ends when this returns)

READY = time.monotonic()
for _ in range(5):
    sample()

import resource  # noqa: E402


def main() -> int:
    result_path = sys.argv[1]
    split = sys.argv.index("--")
    options, argv = sys.argv[2:split], sys.argv[split + 1:]
    tracer = None
    if options[:1] == ["--trace"]:
        import spans
        tracer = spans.Tracer(options[1])
        spans.install(tracer)

    import numpy
    import scipy
    record = {"ready": READY, "module": os.path.abspath(cqnls.cli.__file__),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__},
              "rc": 0, "value": None}
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = time.monotonic()
    try:
        if argv[0] == "certify":
            from cqnls import landscape
            record["value"] = landscape.certify_e_min_by_flow(float(argv[1]))
        elif argv[0] != "setup":
            main_fn = cqnls.cli.main
            if tracer is not None:
                main_fn = tracer.span("cli.main", main_fn)
            record["rc"] = int(main_fn(argv))
    except Exception as err:  # reported to the parent as a failed step
        record["rc"] = 1
        record["error"] = f"{type(err).__name__}: {err}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["work_s"] = time.monotonic() - start
    record["speed_samples"] = SAMPLES
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["cpu_s"] = (usage.ru_utime + usage.ru_stime
                       + children.ru_utime + children.ru_stime)
    record["maxrss_kb"] = usage.ru_maxrss
    try:
        record["threads"] = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the thread count is unknown
        record["threads"] = None
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
