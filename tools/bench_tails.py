"""Before/after rows for the tail-domination check (criterion 12).

    python tools/bench_tails.py --parent PATH [--pairs 5] [--out BENCH_tails.json]

``PATH`` is a checkout of the commit to compare against (made with
``git archive`` or ``git clone``); this script's own checkout is the change.
The pairing, the quartiles and the JSON layout are those of
``tools/bench_tilt.py``.  Rows, each with the median and quartiles of each
side:

- seconds per ``tail_checks`` on pm1 at l = 50, n = 1000 and 10^6 samples
  (the ``equilibrium`` benchmark's call), best of three in one process;
- ns per sampled site: ``_sample_blocks`` alone, best of three (timed in
  turn with the previous row), divided by the 10^6 x 99 sites it draws;
- the worker's peak resident set (``ru_maxrss``) after those calls, with
  the kernel cache warmed by an untimed call first;
- criterion 12's call, from pytest's ``--durations`` (its setup is below
  the 5 ms pytest reports).
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_tilt import ROOT, alternate_pairs, criterion_times, run_worker  # noqa: E402

REPEATS = 3
SAMPLES = 1_000_000


def _worker(src):
    """Time the tail check and its sampler against the package under ``src``;
    print one JSON object."""
    sys.path.insert(0, src)
    from latgas import build_model
    from latgas.harness import _sample_blocks, tail_checks
    from latgas.sim import ScalingPlan

    model, plan = build_model("pm1"), ScalingPlan(l=50)
    _sample_blocks(model, plan, 1000, 0.5, 0.0, 100, 7)    # builds any kernel
    calls = {"tail_checks_s": lambda: tail_checks(model, plan, n=1000,
                                                  samples=SAMPLES, seed=7),
             "sample_s": lambda: _sample_blocks(model, plan, 1000, 0.5, 0.0,
                                                SAMPLES, 7)}
    times = {key: [] for key in calls}
    for _ in range(REPEATS):         # interleaved: both see the same machine
        for key, call in calls.items():
            t0 = time.perf_counter()
            call()
            times[key].append(time.perf_counter() - t0)
    sites = SAMPLES * (2 * plan.block_size(1000) - 1)
    print(json.dumps({"tail_checks_s": min(times["tail_checks_s"]),
                      "ns_per_sampled_site": min(times["sample_s"]) / sites * 1e9,
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout to compare against")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_tails.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    alternate_pairs(args.parent, args.pairs,
                    lambda checkout: {**run_worker(os.path.abspath(__file__), checkout),
                                      "criterion_12.call_s":
                                      criterion_times(checkout, 12)["criterion_12.call_s"]},
                    args.out,
                    f"python tools/bench_tails.py --parent PATH --pairs {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
