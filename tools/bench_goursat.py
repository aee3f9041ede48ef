"""Before/after rows for the Riemann function (criterion 9).

    python tools/bench_goursat.py --parent PATH [--pairs 5] [--out BENCH_goursat.json]

``PATH`` is a checkout of the commit to compare against (made with
``git archive`` or ``git clone``); this script's own checkout is the change.
The pairing, the quartiles and the JSON layout are those of
``tools/bench_tilt.py``.  Rows, each with the median and quartiles of each
side:

- ms per ``riemann_function`` call, best of five in one process after one
  warm-up call: zero coefficients at m = 65 and (w0, z0) = (1, 0.2)
  (criterion 9's exact case); the limit coefficients at gamma = 2 for
  criterion 9's four kappa, m = 81 and (1.2, 0.3); and the gamma = 1
  closed form with c = kappa - 1 = 3 at m = 257 and (1, 0.2), the finest
  case of ``test_riemann_function_closed_form_order``;
- Picard iterations of each of those calls (``RiemannFunction.iterations``);
- criterion 9's setup and call, from pytest's ``--durations``.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_tilt import ROOT, alternate_pairs, criterion_times, run_worker  # noqa: E402

REPEATS = 5


def _worker(src):
    """Time each Riemann function against the package under ``src``; print
    one JSON object."""
    sys.path.insert(0, src)
    from latgas.goursat import (limit_flux_char_coeffs, riemann_function,
                                zero_coeffs)

    calls = {"zero_m65": (zero_coeffs(), 1.0, 0.2, 65)}
    for kap in (1.0, 3.0, 2.0, 4.0):
        calls[f"gamma2_kappa{kap:g}_m81"] = (limit_flux_char_coeffs(2.0, kap),
                                             1.2, 0.3, 81)
    calls["closed_form_c3_m257"] = (limit_flux_char_coeffs(1.0, 4.0), 1.0, 0.2,
                                    257)
    out = {}
    for key, (cc, w0, z0, m) in calls.items():
        riemann_function(cc, w0, z0, m=m)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            rf = riemann_function(cc, w0, z0, m=m)
            times.append(time.perf_counter() - t0)
        out[f"ms_per_call.{key}"] = min(times) * 1e3
        out[f"iterations.{key}"] = rf.iterations
    print(json.dumps(out))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout to compare against")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_goursat.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    alternate_pairs(args.parent, args.pairs,
                    lambda checkout: {**run_worker(os.path.abspath(__file__), checkout),
                                      **criterion_times(checkout, 9)},
                    args.out,
                    f"python tools/bench_goursat.py --parent PATH --pairs {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
