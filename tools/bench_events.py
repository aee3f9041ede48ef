"""Before/after rows for the event kernel (``sim.simulate``).

    python tools/bench_events.py --parent PATH [--pairs 5] [--out BENCH_events.json]

``PATH`` is a checkout of the commit to compare against (made with
``git archive`` or ``git clone``); this script's own checkout is the change.
The pairing, the quartiles and the JSON layout are those of
``tools/bench_tilt.py``.  The lattice is the ``intermediate`` benchmark's
largest: two-lane gamma = 1.25, n = 2000, intermediate scaling with
beta = 0.1 and delta = 0.25, from rho = 0.5 + 0.1 sin, u = 0.1 cos.  Rows,
each with the median and quartiles of each side:

- end-to-end ns per event: a whole ``simulate`` call to t = 0.03 with stops
  at 0.015 and 0.03 (about 2.5 million events), best of five seeds;
- ns per event of the record alone, ``sim.EVENTS.impl``, over 10^6 events
  from the same start, best of five.  A record that draws its own events
  (its twin is a pair of callables) is timed with its draws; an older one,
  which applies bonds and uniforms drawn before the call, without them;
- ns per event of those numpy draws alone (``rng.integers(0, n,
  dtype=np.int64)`` then ``rng.random``), the same on both sides, best of
  five;
- the worker's peak resident set (``ru_maxrss``) after those calls, with
  the kernel cache warmed by an untimed call first;
- criterion 10's fixture setup, from pytest's ``--durations`` (its call is
  below the 5 ms pytest reports; the setup runs the oracle and the 80
  replicas).
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_tilt import ROOT, alternate_pairs, criterion_times, run_worker  # noqa: E402

REPEATS = 5
N = 2000
RECORD_EVENTS = 1_000_000


def _worker(src):
    """Time ``simulate`` and its event record against the package under
    ``src``; print one JSON object."""
    sys.path.insert(0, src)
    import numpy as np

    from latgas import build_model, sim

    model = build_model("two-lane", gamma=1.25)
    plan = sim.ScalingPlan(mode="intermediate", beta=0.1, delta=0.25)

    def start(seed):
        return sim.sample_local_equilibrium(
            model, lambda x: 0.5 + 0.1 * np.sin(2 * np.pi * x),
            lambda x: 0.1 * np.cos(2 * np.pi * x), N, plan, seed=seed)

    def run(seed):
        st = start(seed)
        t0 = time.perf_counter()
        sim.simulate(st, model, plan, 0.03, observe_at=(0.015, 0.03))
        return (time.perf_counter() - t0) / st.events * 1e9

    run(0)                              # builds any kernel
    simulate_ns = min(run(seed) for seed in range(1, REPEATS + 1))

    tab = sim._ChannelTable(model, plan.lambda_speed(N), plan.kappa_speed(N))
    args = (tab.cum, tab.out_a, tab.out_b, tab.nchan, tab.k)
    record_ns, draws_ns = [], []
    for seed in range(1, REPEATS + 1):
        st = start(seed)
        t0 = time.perf_counter()
        bonds = st.rng.integers(0, N, size=RECORD_EVENTS, dtype=np.int64)
        us = st.rng.random(RECORD_EVENTS)
        draws_ns.append(time.perf_counter() - t0)
        if isinstance(sim.EVENTS.python, tuple):    # draws its own events
            buf = np.empty(RECORD_EVENTS, dtype=np.uint32)
            t0 = time.perf_counter()
            sim.EVENTS.impl[1](st.rng, st.spins, buf, *args)
        else:
            t0 = time.perf_counter()
            sim.EVENTS.impl(st.spins, bonds, us, *args)
        record_ns.append(time.perf_counter() - t0)
        del bonds, us
    print(json.dumps({
        "ns_per_event.simulate": simulate_ns,
        "ns_per_event.record": min(record_ns) / RECORD_EVENTS * 1e9,
        "ns_per_event.numpy_draws": min(draws_ns) / RECORD_EVENTS * 1e9,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout to compare against")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_events.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    alternate_pairs(args.parent, args.pairs,
                    lambda checkout: {**run_worker(os.path.abspath(__file__), checkout),
                                      **criterion_times(checkout, 10)},
                    args.out,
                    f"python tools/bench_events.py --parent PATH --pairs {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
