"""Steadiness of the end-to-end metrics, the basis for the bounds in
BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads entropy --seed0 500
    python3 perfbench/steady.py --runs 1 --trace-check

Runs every chosen workload ``--runs`` times, one seed per pass, reversing
the workload order on every other pass, and prints each end-to-end metric's
median and quartiles with its spread (interquartile range over median)
against the bound.  ``--trace-check`` then runs each workload traced and
untraced with one worker on the first seed, checks that both report the same
numbers as the untraced runs, and prints the tracing overhead (traced
``study_s`` minus untraced).  Raw results go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec, workload, seed, trace=0, workers=None):
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = next(json.loads(line[5:]) for line in
                reversed(proc.stderr.splitlines()) if line.startswith("info "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "workers": info["workers"], "wall_s": wall, "result": result,
            "info": info}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<13} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  runs  failed/attempted")
    for w in dict.fromkeys(r["workload"] for r in runs):
        rs = [r for r in runs if r["workload"] == w]
        shares = sorted({f"{r['result']['failed']}/{r['result']['attempted']}"
                         for r in rs})
        correct = all(r["result"]["correct"] for r in rs)
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            print(f"{w:<13} {name:<12} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{spread:>7.2%} {bounds[name]:>6.2f}  {len(rs):>4}  "
                  f"{','.join(shares)}{'' if correct else '  INCORRECT'}")
        print(f"{w:<13} {'wall_s':<12} "
              f"{statistics.median(r['wall_s'] for r in rs):>10.2f}")


def trace_check(spec, workloads, seed, untraced):
    """Traced and one-worker runs of each workload; returns those runs."""
    print(f"\ntrace check on seed {seed}")
    extra = []
    for w in workloads:
        one = run_once(spec, w, seed, trace=0, workers=1)
        traced = run_once(spec, w, seed, trace=1)
        same = {r["info"]["digest"] for r in [one, traced] + [
            r for r in untraced if r["workload"] == w and r["seed"] == seed]}
        over = (statistics.median(traced["info"]["round_s"])
                - one["result"]["metrics"]["study_s"]["value"])
        print(f"{w:<13} digests agree: {len(same) == 1}  tracing overhead "
              f"{over:+.3f} s on study_s "
              f"{one['result']['metrics']['study_s']['value']:.3f} s "
              f"(one worker); traced correct: {traced['result']['correct']}")
        extra += [one, traced]
    return extra


def main():
    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args()
    chosen = args.workloads.split(",")

    runs = []
    for i in range(args.runs):
        order = chosen if i % 2 == 0 else chosen[::-1]
        for w in order:
            runs.append(run_once(spec, w, args.seed0 + i))
            r = runs[-1]
            print(f"  {w} seed {r['seed']}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in
                r["result"]["metrics"].items()), flush=True)
    if runs:
        summarize(spec, runs)
    if args.trace_check:
        runs += trace_check(spec, chosen, args.seed0, runs)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1, default=repr)
    print(f"raw results: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
