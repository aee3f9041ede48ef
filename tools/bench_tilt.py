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
- Newton iterations of each of those solves (tilt evaluations, counted by
  wrapping ``thermo.tilted``, so both sides are counted the same way);
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
    inner = thermo.tilted
    for name, (model, r, v) in grids.items():
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        thermo.tilted = counting
        thermo.invert_parameters_grid(model, r, v)
        thermo.tilted = inner
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            thermo.invert_parameters_grid(model, r, v)
            times.append(time.perf_counter() - t0)
        out[f"ns_per_point.{name}"] = min(times) / np.size(r) * 1e9
        out[f"iterations.{name}"] = len(calls)
    print(json.dumps(out))


def _run_worker(checkout):
    res = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                          os.path.join(checkout, "src")],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _criterion_8(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "criterion_8", "--durations=0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"criterion 8 failed in {checkout}:\n{res.stdout}")
    out = {}
    for phase in ("setup", "call"):
        m = re.search(rf"([0-9.]+)s {phase}\s+\S*criterion_8", res.stdout)
        out[f"criterion_8.{phase}_s"] = float(m.group(1))
    return out


def _summary(values):
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
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            row = _run_worker(sides[side])
            row.update(_criterion_8(sides[side]))
            runs[side].append(row)
            print(f"pair {pair + 1} {side}: {row}", file=sys.stderr)
    rows = {}
    for key in runs["change"][0]:
        unit = ("ns" if key.startswith("ns_") else "s" if key.endswith("_s")
                else "count")
        rows[key] = {"unit": unit,
                     **{side: _summary([r[key] for r in runs[side]])
                        for side in sides}}
    machine, versions = _versions()
    result = {"command": "python tools/bench_tilt.py --parent PATH --pairs "
                         f"{args.pairs}",
              "pairs": args.pairs, "machine": machine, "versions": versions,
              "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for key, row in rows.items():
        print(f"{key}: parent {row['parent']['median']:.4g} "
              f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}] -> "
              f"change {row['change']['median']:.4g} "
              f"[{row['change']['q1']:.4g}, {row['change']['q3']:.4g}] "
              f"{row['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
