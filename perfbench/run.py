"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload eulerian --seed 1 --seconds 5 --trace 0

Set-up (importing latgas, building the models and flux objects) is timed
once, from the start of the process.  Rounds of the workload's operations
then repeat until ``--seconds`` of study time have passed (at least one
round); ``study_s`` is the median round.  With ``--trace 1`` the package is
wrapped by the span tracer, replicas run in this process, and the last line
carries the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result; a summary of every check and
the study's own numbers go to standard error.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from checks import poisson_count  # noqa: E402
from workloads import WORKLOADS, OperationFailed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
PACKAGE_MODULES = ("latgas", "latgas.entropy", "latgas.goursat",
                   "latgas.harness", "latgas.pde", "latgas.sim")
DEFAULT_WORKERS = min(2, os.cpu_count() or 1)


def process_age():
    """Seconds between the start of this process and ``_T0``.

    Read from the kernel's record of the process start (clock-tick
    resolution); 0 where that record is unavailable.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = (time.clock_gettime(time.CLOCK_BOOTTIME) - started
               - (time.perf_counter() - _T0))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 10.0 else 0.0


def digest(results):
    blob = json.dumps(results, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest reaped
    child (the harness's replica workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_round(workload):
    """One round of operations: (outputs, failures, seconds, attempted)."""
    outputs, failures = {}, {}
    ops = workload.operations()
    t0 = time.perf_counter()
    for name, op in ops:
        try:
            outputs[name] = op()
        except Exception as exc:  # an operation's failure is counted
            failures[name] = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, OperationFailed):
                traceback.print_exc(file=sys.stderr)
    return outputs, failures, time.perf_counter() - t0, len(ops)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                    help="replica worker processes when untraced "
                         f"(default {DEFAULT_WORKERS})")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:  # importing the package and all its modules is part of set-up
        for module in PACKAGE_MODULES:
            importlib.import_module(module)
    except ImportError as exc:
        print(f"cannot import latgas from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer().install()
    workers = 1 if args.trace else max(1, args.workers)
    workload = WORKLOADS[args.workload](args.seed, workers, OUT_DIR)
    workload.setup()
    setup_s = process_age() + time.perf_counter() - _T0

    quiet = tracer.pause if tracer else contextlib.nullcontext
    study_times, checks, digests = [], [], []
    attempted = failed = 0
    failures = {}
    while not study_times or sum(study_times) < args.seconds:
        if tracer:
            tracer.round = len(study_times) + 1
        outputs, failures, took, n_ops = run_round(workload)
        study_times.append(took)
        attempted += n_ops
        failed += len(failures)
        with quiet():
            try:
                checks += workload.check(outputs)
            except Exception as exc:  # a crashing check is a failed check
                traceback.print_exc(file=sys.stderr)
                checks.append(("checks ran", False, repr(exc)))
            results = workload.results(outputs)
        digests.append(digest(results))
    checks.append(("rounds reproduce each other", len(set(digests)) == 1,
                   f"{len(digests)} rounds, digests {sorted(set(digests))}"))

    if tracer:
        from spans import PER_LAYER, event_expectation, layer_metrics
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in
                   layer_metrics(tracer.spans, len(study_times)).items()}
        seen, mean = event_expectation(tracer.spans, 1)
        if mean > 0:
            checks.append(("event count vs Poisson mean",
                           *poisson_count(seen, mean)))
        tracer.restore()
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "study_s": {"value": statistics.median(study_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    correct = all(ok for _, ok, _ in checks)
    for label, ok, detail in dict.fromkeys(checks):  # rounds repeat checks
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}", file=sys.stderr)
    for name, why in failures.items():
        print(f"failed operation {name}: {why}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "workers": workers,
            "rounds": len(study_times), "round_s": study_times,
            "setup_s": setup_s, "digest": digests[0],
            "results": results}
    print("info " + json.dumps(info, default=repr), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
