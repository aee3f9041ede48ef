"""Command-line entry point: one subcommand per module operation, a manifest
written for every run (resolved parameters + seed + versions) so any result
can be reproduced bit for bit, and nonzero exit codes when an asserted
invariant fails."""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time

import numpy as np


def _versions():
    import scipy

    from . import __version__
    from .entropy import MARCH
    from .sim import EVENTS, SITES
    from .thermo import TILT

    return {"latgas": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "event_kernel": EVENTS.backend, "march_kernel": MARCH.backend,
            "tilt_kernel": TILT.backend, "sites_kernel": SITES.backend}


def _write_manifest(out_dir, command, params, outputs, error=None,
                    metrics=None):
    """Write ``manifest.json``; ``status`` is "failed" when ``error`` is set,
    and ``metrics`` (what the run did and what it cost) goes in as is."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": command, "params": params,
                "versions": _versions(), "outputs": outputs,
                "status": "ok" if error is None else "failed"}
    if metrics is not None:
        manifest["metrics"] = metrics
    if error is not None:
        manifest["error"] = error
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
    return path


def _model_from_args(args):
    from .models import build_model

    return build_model(args.model, gamma=getattr(args, "gamma", 0.3))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    from .models import validate_conditions

    model = _model_from_args(args)
    rep = validate_conditions(model, block_len=args.block_len)
    print(rep.summary())
    ok = rep.all_passed()
    if args.out:
        _write_manifest(args.out, "validate", vars(args) | {"func": None}, [],
                        error=None if ok else "a structural condition failed")
    return 0 if ok else 1


def cmd_fluxes(args):
    from .fluxes import macroscopic_flux

    model = _model_from_args(args)
    fp = macroscopic_flux(model)
    print(f"model {model.name}: gamma = {fp.gamma:.8f}, "
          f"Psi_ru(0,0) = {fp.psi_ru_origin:.8f}")
    outputs = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "fluxes.csv")
        dom = fp.domain
        margin = 0.04 * max(dom.rho_max, 1.0)
        rr = np.linspace(margin, dom.rho_max - margin, args.grid)
        uu = np.linspace(-dom.u_max + margin, dom.u_max - margin, args.grid)
        fp.export_points_csv(path, [(r, u) for r in rr for u in uu
                                    if dom.contains(r, u, margin=margin * 0.5)])
        outputs.append(path)
        _write_manifest(args.out, "fluxes", _params(args), outputs)
    return 0


def _resolve_out(args):
    return args.out if args.out else "latgas-out"


def cmd_simulate(args):
    from .sim import (ScalingPlan, sample_local_equilibrium, simulate,
                      empirical_fields, write_snapshot_csv, dump_state)

    model = _model_from_args(args)
    plan = ScalingPlan(mode=args.mode, beta=args.beta, delta=args.delta,
                       l=args.l)
    rho0 = lambda x: args.rho_base + args.rho_amp * np.sin(2 * np.pi * x)
    u0 = lambda x: args.u_base + args.u_amp * np.cos(2 * np.pi * x)
    args.out = _resolve_out(args)
    os.makedirs(args.out, exist_ok=True)
    outputs, replicas = [], []
    times = np.linspace(0.0, args.t_end, args.snapshots + 1)[1:]
    for rep in range(args.replicas):
        state = sample_local_equilibrium(model, rho0, u0, args.n, plan,
                                         seed=args.seed, stream=rep)
        rows = []

        def obs(st):
            fr, fu = empirical_fields(st, model, plan, args.m)
            rows.append((st.time, fr, fu))

        obs(state)
        t0 = time.perf_counter()
        simulate(state, model, plan, args.t_end, observe_at=times, observer=obs)
        replicas.append({"replica": rep, "events": state.events,
                         "accepted": state.accepted,
                         "trajectory_hash": state.trajectory_hash,
                         "simulate_s": time.perf_counter() - t0})
        path = os.path.join(args.out, f"snapshots_rep{rep}.csv")
        write_snapshot_csv(path, rows)
        outputs.append(path)
        dump = os.path.join(args.out, f"state_rep{rep}.bin")
        dump_state(dump, state, model)
        outputs.append(dump)
        print(f"replica {rep}: events={state.events:,} "
              f"hash={state.trajectory_hash[:16]}")
    _write_manifest(args.out, "simulate", _params(args), outputs,
                    metrics={"replicas": replicas})
    return 0


def _flux_from_spec(spec, gamma):
    from .fluxes import macroscopic_flux
    from .models import build_model
    from .pde import LimitFlux, ModelFluxView

    if spec == "limit":
        return LimitFlux(gamma)
    if spec.startswith("model:"):
        return ModelFluxView(macroscopic_flux(build_model(spec[6:], gamma=gamma)))
    raise ValueError(f"unknown flux spec {spec!r} (use 'limit' or 'model:<name>')")


def cmd_solve_pde(args):
    from .pde import solve
    from .sim import snapshot_rows

    flux = _flux_from_spec(args.flux, args.gamma)
    rho0 = lambda x: args.rho_base + args.rho_amp * np.sin(2 * np.pi * x)
    u0 = lambda x: args.u_base + args.u_amp * np.cos(2 * np.pi * x)
    times = np.linspace(0.0, args.t_end, args.snapshots + 1)[1:]
    run = solve(flux, rho0, u0, args.t_end, m=args.m, scheme=args.scheme,
                cfl=args.cfl, snapshot_times=times)
    args.out = _resolve_out(args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "pde.csv")
    # \r\n line ends, as the csv module writes them
    np.savetxt(path, snapshot_rows(run.snapshots), fmt="%.10g", delimiter=",",
               newline="\r\n", header="t,x,rho,u", comments="")
    print(f"solved to t={args.t_end} on m={args.m} ({run.steps} steps), "
          f"blowup_time={run.blowup_time}")
    _write_manifest(args.out, "solve-pde", _params(args), [path])
    return 0


def cmd_build_entropy(args):
    from .entropy import build_entropy

    flux = _flux_from_spec(args.flux, args.gamma)
    tab = build_entropy(flux, args.r_lo, args.r_hi,
                        n=(args.n if args.n > 0 else None), beta=args.beta,
                        u_max=args.u_max)
    args.out = _resolve_out(args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "entropy.csv")
    tab.to_csv(path)
    diag = os.path.join(args.out, "entropy_diag.json")
    with open(diag, "w") as fh:
        json.dump(tab.diagnostics, fh, indent=2, default=float)
    print(f"entropy table {tab.rho.size} x {tab.u.size} written; "
          f"seam residuals D1={tab.diagnostics['overlap_D1']:.2e} "
          f"D2={tab.diagnostics['overlap_D2']:.2e}")
    _write_manifest(args.out, "build-entropy", _params(args), [path, diag])
    return 0


def cmd_verify_bounds(args):
    from .entropy import build_entropy, verify_bounds

    flux = _flux_from_spec(args.flux, args.gamma)
    n_list = [int(x) for x in args.n_list.split(",")] if args.n_list else [None]
    failed = []
    rows = []
    for n in n_list:
        tab = build_entropy(flux, args.r_lo, args.r_hi, n=n, beta=args.beta,
                            u_max=args.u_max)
        rep = verify_bounds(tab)
        print(f"--- n = {n if n else 'unscaled'} ---")
        print(rep.summary())
        for name, fit in rep.fits.items():
            rows.append([n or 0, name, fit.constant, fit.support_leak])
            if not fit.ok():
                failed.append(f"{name}@n={n or 0}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "bounds.csv")
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n", "bound", "constant", "support_leak"])
            wr.writerows(rows)
        _write_manifest(args.out, "verify-bounds", _params(args), [path],
                        error=("bound fits failed: " + ", ".join(failed)
                               if failed else None))
    return 1 if failed else 0


def _config_to_experiment(path, overrides):
    from .harness import ExperimentConfig

    allowed = set(ExperimentConfig.__dataclass_fields__)
    cfg = {}
    if path:
        cp = configparser.ConfigParser()
        if not cp.read(path):
            raise FileNotFoundError(path)
        for sec in cp.sections():
            if sec != "experiment":
                raise ValueError(f"unknown config section [{sec}]")
            for key, val in cp["experiment"].items():
                if key not in allowed:
                    raise ValueError(f"unknown config key {key!r}")
                cfg[key] = val
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    kw = {}
    for key, val in cfg.items():
        f = ExperimentConfig.__dataclass_fields__[key]
        if f.type == "tuple" or isinstance(f.default, tuple):
            toks = [x.strip() for x in
                    str(val).replace("(", "").replace(")", "").split(",")]
            kw[key] = tuple(float(x) if "." in x else int(x)
                            for x in toks if x)
        elif isinstance(f.default, bool):
            kw[key] = str(val).lower() in ("1", "true", "yes")
        elif isinstance(f.default, int) and not isinstance(val, float):
            kw[key] = int(val)
        elif isinstance(f.default, float):
            kw[key] = float(val)
        else:
            kw[key] = val
    return ExperimentConfig(**kw)


def cmd_converge(args):
    from .harness import run_eulerian, run_intermediate

    overrides = {"seed": args.seed, "threads": args.threads}
    if args.mode:
        overrides["mode"] = args.mode
    config = _config_to_experiment(args.config, overrides)
    rep = (run_intermediate if config.mode == "intermediate"
           else run_eulerian)(config)
    print(rep.summary())
    ok = rep.mass_invariant and rep.weak_within()[0] \
        and all(rep.l1_strictly_decreasing(t) for t in rep.l1_sequence)
    outputs = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "convergence.csv")
        rep.to_csv(path)
        outputs.append(path)
        summ = os.path.join(args.out, "summary.txt")
        with open(summ, "w") as fh:
            fh.write(rep.summary() + "\n")
        outputs.append(summ)
        _write_manifest(args.out, "converge", _params(args), outputs,
                        error=None if ok else "convergence checks failed")
    return 0 if ok else 1


def cmd_tails(args):
    from .harness import tail_checks
    from .sim import ScalingPlan

    model = _model_from_args(args)
    plan = ScalingPlan(mode=args.mode, beta=args.beta, delta=args.delta,
                       l=args.l)
    rep = tail_checks(model, plan, args.n, rho0=args.rho_base, u0=args.u_base,
                      samples=args.samples, seed=args.seed)
    print(rep.summary())
    ok = rep.passed()
    if args.out:
        _write_manifest(args.out, "tails", _params(args), [],
                        error=None if ok else "tail domination failed")
    return 0 if ok else 1


def cmd_enumerate(args):
    from .harness import microcanonical_moment_check

    model = _model_from_args(args)
    ls = [int(x) for x in args.l_list.split(",")]
    cs = []
    for l in ls:
        rep = microcanonical_moment_check(model, l, xi=args.xi,
                                          centered=args.centered)
        print(rep.summary())
        cs.append(rep.C)
    med = float(np.median(cs))
    spread = max(abs(c - med) for c in cs) / max(abs(med), 1e-300)
    print(f"C stability across l: max deviation from median = {spread:.1%}")
    ok = spread <= 0.5
    if args.out:
        _write_manifest(args.out, "enumerate", _params(args), [],
                        error=None if ok else f"C spread {spread:.1%} > 50%")
    return 0 if ok else 1


def cmd_rerun(args):
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    params = dict(manifest["params"])
    command = manifest["command"]
    globals_ = []
    for key in ("seed", "out", "threads"):
        val = params.pop(key, None)
        if val is not None:
            globals_.extend([f"--{key}", str(val)])
    argv = globals_ + [command]
    for key, val in params.items():
        if key in ("func", "cmd") or val is None or val is False:
            continue
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(val)])
    print(f"re-running: latgas {' '.join(argv)}")
    return main(argv)


def _params(args):
    return {k: v for k, v in vars(args).items() if k != "func"}


# ---------------------------------------------------------------------------


def _add_model_flags(p):
    p.add_argument("--model", default="pm1")
    p.add_argument("--gamma", type=float, default=0.3,
                   help="two-lane flux parameter")


def _add_plan_flags(p):
    p.add_argument("--mode", default="eulerian",
                   choices=["eulerian", "intermediate"])
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--l", type=int, default=None)


def _add_profile_flags(p):
    p.add_argument("--rho-base", type=float, default=0.5)
    p.add_argument("--rho-amp", type=float, default=0.1)
    p.add_argument("--u-base", type=float, default=0.0)
    p.add_argument("--u-amp", type=float, default=0.1)


def build_parser():
    p = argparse.ArgumentParser(
        prog="latgas",
        description="two-species lattice gases, their hydrodynamic limits, "
                    "and entropy-cutoff verification")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("validate", help="check the structural conditions")
    _add_model_flags(q)
    q.add_argument("--block-len", type=int, default=6)
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("fluxes", help="tabulate macroscopic fluxes")
    _add_model_flags(q)
    q.add_argument("--grid", type=int, default=20)
    q.set_defaults(func=cmd_fluxes)

    q = sub.add_parser("simulate", help="run lattice trajectories")
    _add_model_flags(q)
    _add_plan_flags(q)
    _add_profile_flags(q)
    q.add_argument("--n", type=int, default=1024)
    q.add_argument("--t-end", type=float, default=0.1)
    q.add_argument("--m", type=int, default=128)
    q.add_argument("--snapshots", type=int, default=4)
    q.add_argument("--replicas", type=int, default=1)
    q.add_argument("--out", default=argparse.SUPPRESS)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("solve-pde", help="solve the hyperbolic system")
    q.add_argument("--flux", default="limit")
    q.add_argument("--gamma", type=float, default=1.0)
    q.add_argument("--m", type=int, default=512)
    q.add_argument("--t-end", type=float, default=0.2)
    q.add_argument("--scheme", default="muscl", choices=["muscl", "central4"])
    q.add_argument("--cfl", type=float, default=0.4)
    q.add_argument("--snapshots", type=int, default=4)
    _add_profile_flags(q)
    q.add_argument("--out", default=argparse.SUPPRESS)
    q.set_defaults(func=cmd_solve_pde)

    q = sub.add_parser("build-entropy", help="construct the cutoff entropy")
    q.add_argument("--flux", default="limit")
    q.add_argument("--gamma", type=float, default=2.0)
    q.add_argument("--r-lo", type=float, default=1.0)
    q.add_argument("--r-hi", type=float, default=float(np.exp(4.0)))
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--beta", type=float, default=0.5)
    q.add_argument("--u-max", type=float, default=None)
    q.add_argument("--out", default=argparse.SUPPRESS)
    q.set_defaults(func=cmd_build_entropy)

    q = sub.add_parser("verify-bounds", help="fit the entropy bound constants")
    q.add_argument("--flux", default="limit")
    q.add_argument("--gamma", type=float, default=2.0)
    q.add_argument("--r-lo", type=float, default=1.0)
    q.add_argument("--r-hi", type=float, default=float(np.exp(4.0)))
    q.add_argument("--beta", type=float, default=0.5)
    q.add_argument("--u-max", type=float, default=None)
    q.add_argument("--n-list", default="")
    q.set_defaults(func=cmd_verify_bounds)

    q = sub.add_parser("converge", help="field convergence experiment")
    q.add_argument("--config", default=None)
    q.add_argument("--mode", default=None,
                   choices=[None, "eulerian", "intermediate"])
    q.set_defaults(func=cmd_converge)

    q = sub.add_parser("tails", help="stochastic domination checks")
    _add_model_flags(q)
    _add_plan_flags(q)
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--samples", type=int, default=1_000_000)
    q.add_argument("--rho-base", type=float, default=0.5)
    q.add_argument("--u-base", type=float, default=0.0)
    q.set_defaults(func=cmd_tails)

    q = sub.add_parser("enumerate", help="microcanonical moment enumeration")
    _add_model_flags(q)
    q.add_argument("--l-list", default="4,5,6,7,8")
    q.add_argument("--xi", default="psi")
    q.add_argument("--centered", action="store_true")
    q.set_defaults(func=cmd_enumerate)

    q = sub.add_parser("rerun", help="replay a run from its manifest")
    q.add_argument("manifest")
    q.set_defaults(func=cmd_rerun)
    return p


def _invariant_failures():
    """The exceptions that mean an asserted invariant failed (exit code 1)."""
    from .entropy import InconsistentOverlap
    from .goursat import NoContraction
    from .pde import BlowupBeforeT, DomainExit
    from .sim import ConservationViolated
    from .thermo import NonConvergence

    return (DomainExit, BlowupBeforeT, NonConvergence, InconsistentOverlap,
            NoContraction, ConservationViolated)


def _report(args, exc):
    """One ``error:`` line on stderr, and a failed manifest if --out is set."""
    reason = " ".join(str(exc).split())
    print("error: " + reason, file=sys.stderr)
    if getattr(args, "out", None):
        try:
            _write_manifest(args.out, args.cmd, _params(args), [],
                            error=reason)
        except OSError:     # the stderr line stays the one report
            pass


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        _report(args, exc)
        return 2
    except _invariant_failures() as exc:
        _report(args, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
