"""Before/after rows for the tilt inversion (rho, u) -> (tau, theta).

    python tools/bench_tilt.py --parent PATH [--pairs 5] [--out BENCH_tilt.json]

``PATH`` is a checkout of the commit to compare against (made with
``git archive`` or ``git clone``); this script's own checkout is the change.
Every measurement runs in a fresh process, and the two sides alternate,
which one goes first switching from pair to pair.  Rows, each with the
median and quartiles of each side:

- ns per tilt-inversion point on the scaled-table grid: the 300 x 119 cells
  of the ``entropy`` benchmark's scaled two-lane table (gamma = 1.25,
  n = 1000, beta = 1/2), mapped to model variables and floored at 1e-11 as
  ``FluxPair`` does, in one ``invert_parameters_grid`` call;
- ns per point on a pm1 oracle grid: the ``eulerian`` oracle's initial
  profile (rho = 0.5 + 0.1 sin, u = 0.1 cos) at 3 x 512 points;
- Newton iterations of each of those solves: ``Tilt.iterations``, the
  largest number of tilt evaluations any point took;
- criterion 8's fixture setup and call, from pytest's ``--durations``.

The machine, the interpreter and library versions go into the JSON file.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 5


def _worker(src):
    """Time both grids in this process against the package under ``src``;
    print one JSON object."""
    sys.path.insert(0, src)
    import numpy as np

    from latgas import build_model, thermo

    rho = np.linspace(0.0, 83.0797, 300)
    u = np.linspace(-1.5, 1.5, 119)
    R, U = np.meshgrid(np.maximum(1e-3 * rho, 1e-11), 1000 ** -0.5 * u)
    x = (np.arange(3 * 512) + 0.5) / (3 * 512)
    grids = {"scaled_table": (build_model("two-lane", gamma=1.25), R, U),
             "pm1_oracle": (build_model("pm1"), 0.5 + 0.1 * np.sin(2 * np.pi * x),
                            0.1 * np.cos(2 * np.pi * x))}
    out = {}
    for name, (model, r, v) in grids.items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            sol = thermo.invert_parameters_grid(model, r, v)
            times.append(time.perf_counter() - t0)
        out[f"ns_per_point.{name}"] = min(times) / np.size(r) * 1e9
        out[f"iterations.{name}"] = sol.iterations
    print(json.dumps(out))


def run_worker(script, checkout):
    """Run ``script --worker CHECKOUT/src`` in a fresh process; return the
    JSON object it prints last."""
    res = subprocess.run([sys.executable, script, "--worker",
                          os.path.join(checkout, "src")],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def criterion_times(checkout, num):
    """Setup and call seconds of acceptance criterion ``num`` in ``checkout``,
    from pytest's ``--durations``; a phase pytest does not list is left out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", f"criterion_{num}_", "--durations=0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"criterion {num} failed in {checkout}:\n{res.stdout}")
    out = {}
    for phase in ("setup", "call"):
        m = re.search(rf"([0-9.]+)s {phase}\s+\S*criterion_{num}_", res.stdout)
        if m:   # pytest leaves out durations under 5 ms
            out[f"criterion_{num}.{phase}_s"] = float(m.group(1))
    return out


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def _versions():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return ({"cpu": cpu, "cores": os.cpu_count(), "system": platform.system(),
             "release": platform.release()},
            {"python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__})


def alternate_pairs(parent, pairs, measure, out, command):
    """Measure the parent checkout and this one in ``pairs`` alternating
    pairs, which side goes first switching from pair to pair, and write
    the median and quartiles of each row and side to ``out``.

    ``measure(checkout)`` returns one flat dict of numbers.  A key's unit
    is ns or ms if it starts with ``ns_`` or ``ms_``, s if it ends with
    ``_s``, MB if it ends with ``_mb``, none (``1``) if it ends with
    ``_error`` or ``_ratio``, else count.
    """
    sides = {"parent": os.path.abspath(parent), "change": ROOT}
    runs = {side: [] for side in sides}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            row = measure(sides[side])
            runs[side].append(row)
            print(f"pair {pair + 1} {side}: {row}", file=sys.stderr)
    rows = {}
    for key in runs["change"][0]:
        unit = (key[:2] if key.startswith(("ns_", "ms_"))
                else "s" if key.endswith("_s")
                else "MB" if key.endswith("_mb")
                else "1" if key.endswith(("_error", "_ratio")) else "count")
        rows[key] = {"unit": unit,
                     **{side: quartiles([r[key] for r in runs[side]])
                        for side in sides}}
    machine, versions = _versions()
    result = {"command": command, "pairs": pairs, "machine": machine,
              "versions": versions, "rows": rows}
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for key, row in rows.items():
        print(f"{key}: parent {row['parent']['median']:.4g} "
              f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}] -> "
              f"change {row['change']['median']:.4g} "
              f"[{row['change']['q1']:.4g}, {row['change']['q3']:.4g}] "
              f"{row['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout to compare against")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_tilt.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    alternate_pairs(args.parent, args.pairs,
                    lambda checkout: {**run_worker(os.path.abspath(__file__), checkout),
                                      **criterion_times(checkout, 8)},
                    args.out,
                    f"python tools/bench_tilt.py --parent PATH --pairs {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
