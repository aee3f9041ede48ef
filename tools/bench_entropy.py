"""Before/after rows for the entropy tables (criteria 7 and 8).

    python tools/bench_entropy.py --parent PATH [--pairs 5] [--out BENCH_entropy.json]

``PATH`` is a checkout of the commit to compare against (made with
``git archive`` or ``git clone``); this script's own checkout is the change.
The pairing, the quartiles and the JSON layout are those of
``tools/bench_tilt.py``.  Rows, each with the median and quartiles of each
side:

- seconds per table, each built once in a fresh process: the ``entropy``
  benchmark's cutoff table (``LimitFlux(2)``, r_lo = 1, r_hi = e^4,
  u_max = 2, 24 cells per r_lo, n_u = 80), criterion 7's default and
  refined tables (48 and 72 cells per r_lo, n_u = 160 and 240) and the
  benchmark's scaled two-lane table (gamma = 1.25, n = 1000, 300 x 60);
- the march steps of each of those tables;
- the step-doubling error of the cutoff table: the largest change of its
  seven fields on ``interior_mask()`` when the table is rebuilt at half the
  march step, and that change over the table's D3 residual;
- seconds for ``CharGeometry(LimitFlux(2), 1, e^4, 2)``, best of three;
- criteria 7 and 8's fixture setup and call, from pytest's ``--durations``;
- the wall time of the tier-1 suite.
"""

import argparse
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_tilt import ROOT, alternate_pairs, criterion_times, run_worker  # noqa: E402

FIELDS = ("S", "F", "S_rho", "S_u", "S_rr", "S_ru", "S_uu")


def _worker(src):
    """Build and time the tables against the package under ``src``; print
    one JSON object."""
    import json

    sys.path.insert(0, src)
    import numpy as np

    import latgas.entropy as ent
    from latgas import build_model, macroscopic_flux
    from latgas.entropy import CharGeometry, build_entropy
    from latgas.pde import LimitFlux, ModelFluxView

    r_hi = float(np.exp(4.0))
    limit = LimitFlux(2.0)
    view = ModelFluxView(macroscopic_flux(build_model("two-lane", gamma=1.25)))

    def cutoff():
        return build_entropy(limit, 1.0, r_hi, u_max=2.0, cells_per_rlo=24,
                             n_u=80)

    tables = {
        "cutoff": cutoff,
        "criterion7_default": lambda: build_entropy(
            limit, 1.0, r_hi, u_max=2.0, cells_per_rlo=48, n_u=160),
        "criterion7_refined": lambda: build_entropy(
            limit, 1.0, r_hi, u_max=2.0, cells_per_rlo=72, n_u=240),
        "scaled_two_lane": lambda: build_entropy(
            view, 1.0, r_hi, n=1000, beta=0.5, u_max=1.5, n_rho=300, n_u=60),
    }
    out, built = {}, {}
    for name, build in tables.items():
        t0 = time.perf_counter()
        built[name] = build()
        out[f"table.{name}_s"] = time.perf_counter() - t0
        out[f"march_steps.{name}"] = built[name].diagnostics["march_steps"]

    tab = built["cutoff"]
    step = ent._CFL
    ent._CFL = step / 2
    try:
        half = cutoff()
    finally:
        ent._CFL = step
    mask = tab.interior_mask()
    res = float(np.abs(tab.pde_residual())[mask].max())
    err = max(float(np.max(np.abs(getattr(tab, k) - getattr(half, k))[mask]))
              for k in FIELDS)
    out["step_doubling.cutoff_error"] = err
    out["step_doubling.cutoff_over_residual_ratio"] = err / res

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        CharGeometry(limit, 1.0, r_hi, 2.0)
        times.append(time.perf_counter() - t0)
    out["char_geometry.limit_s"] = min(times)
    print(json.dumps(out))


def tier1_time(checkout):
    """Wall seconds of the tier-1 suite in ``checkout``; raises if it fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"tier-1 failed in {checkout}:\n{res.stdout[-3000:]}")
    return {"tier1_s": wall}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout to compare against")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_entropy.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    alternate_pairs(args.parent, args.pairs,
                    lambda checkout: {**run_worker(os.path.abspath(__file__), checkout),
                                      **criterion_times(checkout, 7),
                                      **criterion_times(checkout, 8),
                                      **tier1_time(checkout)},
                    args.out,
                    f"python tools/bench_entropy.py --parent PATH --pairs {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
