"""Spans around calls into the latgas modules, recorded from outside the
package, and the per-layer metrics derived from them.

The tracer replaces public functions (and a few methods) of the package with
timing wrappers for the life of the process.  Every call becomes a span with
its layer, name, parent span and the set-up/round it belongs to; a span's
self time is its duration minus the part covered by its direct child spans.
Spans stay in memory; ``layer_metrics`` turns them into the named figures.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("layer", "name", "parent", "round", "start", "end",
                 "child_s", "info")

    def __init__(self, layer, name, parent, round_):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.round = round_
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info = {}

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


class Tracer:
    """Span recorder; ``install`` wraps the package, ``restore`` undoes it."""

    def __init__(self):
        self.spans = []
        self.round = 0          # 0 is set-up, 1.. are study rounds
        self.paused = False
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------
    def wrap(self, layer, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(layer, name, parent, tracer.round)
            if before is not None:
                before(span, args, kwargs)
            tracer._stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
                tracer.spans.append(span)
            if after is not None:
                after(span, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        old, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = old

    # -- installation ------------------------------------------------------
    def _patch_function(self, module, attr, layer, before=None, after=None):
        original = getattr(module, attr)
        wrapped = self.wrap(layer, attr, original, before, after)
        # rebinding in every package module catches `from .x import f` names
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "latgas"
                                   or modname.startswith("latgas.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, layer, name=None, before=None,
                      after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(layer, name or attr, original, before,
                                     after))
        self._undo.append((cls, attr, original))

    def install(self):
        import latgas.entropy as entropy
        import latgas.fields as fields
        import latgas.fluxes as fluxes
        import latgas.goursat as goursat
        import latgas.harness as harness
        import latgas.models as models
        import latgas.pde as pde
        import latgas.sim as sim
        import latgas.thermo as thermo

        f = self._patch_function
        f(models, "build_model", "models")
        f(models, "validate_conditions", "models")
        f(thermo, "invert_parameters_grid", "thermo", before=_tilt_points)
        f(fluxes, "macroscopic_flux", "fluxes")
        for meth in ("Psi", "Phi", "Phi_raw", "Psi_rho", "Psi_u", "Phi_rho",
                     "Phi_u", "gradients", "Phi_uu", "Psi_rho_u",
                     # reached by pde.ModelFluxView.bundle, the entropy
                     # march's evaluation path for model fluxes
                     "_raw_with_grads"):
            self._patch_method(fluxes.FluxPair, meth, "fluxes", name="eval")
        f(sim, "sample_local_equilibrium", "sim")
        f(sim, "simulate", "sim", before=_sim_before, after=_sim_after)
        f(sim, "empirical_fields", "sim")
        f(pde, "solve", "pde", before=_solve_kind, after=_solve_steps)
        f(pde, "smooth_solution_oracle", "pde")
        for cls in (pde.LimitFlux, pde.ModelFluxView, pde.ScaledFluxView):
            self._patch_method(cls, "bundle", "pde")
        f(entropy, "build_entropy", "entropy", after=_table_cells)
        f(entropy, "verify_bounds", "entropy")
        for meth in ("pde_residual", "flux_compat_error", "interior_mask"):
            self._patch_method(entropy.EntropyTable, meth, "entropy",
                               name="check")
        f(goursat, "riemann_function", "goursat", after=_picard_iterations)
        f(goursat, "goursat_solve_rectangle", "goursat",
          after=_rect_iterations)
        f(harness, "run_eulerian", "harness")
        f(harness, "run_intermediate", "harness")
        f(harness, "tail_checks", "harness", before=_tail_samples)
        f(harness, "microcanonical_moment_check", "harness",
          before=_enumerated)
        f(fields, "l1_distance", "fields")
        f(fields, "linf_distance", "fields")
        return self

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- span hooks ---------------------------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _tilt_points(span, args, kwargs):
    rho, u = _arg(args, kwargs, 1, "rho"), _arg(args, kwargs, 2, "u")
    span.info["points"] = int(np.broadcast(np.asarray(rho),
                                           np.asarray(u)).size)


def _sim_before(span, args, kwargs):
    state, model, plan = args[0], args[1], args[2]
    t_end = _arg(args, kwargs, 3, "t_end")
    span.info.update(n=state.n, t0=float(state.time), t1=float(t_end),
                     model=model, beta=float(plan.beta),
                     delta=float(plan.delta), events0=state.events,
                     accepted0=state.accepted)


def _sim_after(span, args, kwargs, state):
    span.info["events"] = state.events - span.info.pop("events0")
    span.info["accepted"] = state.accepted - span.info.pop("accepted0")


def _solve_kind(span, args, kwargs):
    from latgas.pde import LimitFlux

    flux = _arg(args, kwargs, 0, "flux")
    span.info["kind"] = "limit" if isinstance(flux, LimitFlux) else "model"


def _solve_steps(span, args, kwargs, run):
    span.info["steps"] = run.steps


def _table_cells(span, args, kwargs, table):
    span.info["cells"] = int(table.S.size)


def _picard_iterations(span, args, kwargs, rf):
    span.info["iterations"] = rf.iterations


def _rect_iterations(span, args, kwargs, out):
    span.info["iterations"] = out[1]


def _tail_samples(span, args, kwargs):
    span.info["samples"] = int(_arg(args, kwargs, 5, "samples", 1_000_000))


def _enumerated(span, args, kwargs):
    model, l = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "l")
    span.info["configs"] = int(model.nstates) ** int(l)


# -- metrics ------------------------------------------------------------------


PER_LAYER = {
    "sim.events": "count", "sim.accept_ratio": "ratio",
    "sim.simulate_s": "s", "sim.ns_per_event": "ns", "sim.sample_s": "s",
    "sim.fields_s": "s",
    "thermo.tilt_calls": "count", "thermo.tilt_points": "count",
    "thermo.tilt_s": "s", "thermo.ns_per_tilt_point": "ns",
    "fluxes.construct_s": "s", "fluxes.eval_calls": "count",
    "fluxes.eval_s": "s",
    "pde.model_steps": "count", "pde.model_ms_per_step": "ms",
    "pde.tilt_calls_per_model_step": "calls/step", "pde.limit_steps": "count",
    "pde.limit_ms_per_step": "ms", "pde.oracle_s": "s",
    "entropy.build_s": "s", "entropy.bundle_calls": "count",
    "entropy.cells": "count", "entropy.check_s": "s", "entropy.verify_s": "s",
    "goursat.riemann_s": "s", "goursat.picard_iterations": "count",
    "goursat.rect_s": "s", "goursat.rect_iterations": "count",
    "harness.self_s": "s", "harness.tails_s": "s",
    "harness.tail_samples": "count", "harness.enumerate_s": "s",
    "harness.enumerated_configs": "count",
    "models.build_s": "s", "models.validate_s": "s",
    "fields.distance_s": "s",
}


def _ratio(a, b, scale=1.0):
    return scale * a / b if b else 0.0


def layer_metrics(spans, rounds):
    """Per-layer figures: set-up spans once plus the mean over study rounds.

    Times are inclusive span durations, except ``sim.simulate_s`` and
    ``harness.self_s``, which are self times.  Nested calls within one layer
    count once (the outermost call).
    """
    rounds = max(int(rounds), 1)

    def total(sel, value):
        setup = sum(value(s) for s in spans if s.round == 0 and sel(s))
        study = sum(value(s) for s in spans if s.round > 0 and sel(s))
        return setup + study / rounds

    def named(*names):
        return lambda s: s.name in names

    def outermost(layer, *names):
        def sel(s):
            return (s.layer == layer and s.name in names
                    and not any(a.layer == layer and a.name in names
                                for a in s.ancestors()))
        return sel

    dur = lambda s: s.dur
    one = lambda s: 1
    info = lambda key: (lambda s: s.info.get(key, 0))

    m = {}
    sim_sel = named("simulate")
    events = total(sim_sel, info("events"))
    m["sim.events"] = events
    m["sim.accept_ratio"] = _ratio(total(sim_sel, info("accepted")), events)
    m["sim.simulate_s"] = total(sim_sel, lambda s: s.self_s)
    m["sim.ns_per_event"] = _ratio(m["sim.simulate_s"], events, 1e9)
    m["sim.sample_s"] = total(named("sample_local_equilibrium"), dur)
    m["sim.fields_s"] = total(named("empirical_fields"), dur)

    tilt = named("invert_parameters_grid")
    m["thermo.tilt_calls"] = total(tilt, one)
    m["thermo.tilt_points"] = total(tilt, info("points"))
    m["thermo.tilt_s"] = total(tilt, dur)
    m["thermo.ns_per_tilt_point"] = _ratio(m["thermo.tilt_s"],
                                           m["thermo.tilt_points"], 1e9)

    m["fluxes.construct_s"] = total(named("macroscopic_flux"), dur)
    flux_eval = (lambda s: s.layer == "fluxes" and s.name == "eval"
                 and not any(a.layer == "fluxes" for a in s.ancestors()))
    m["fluxes.eval_calls"] = total(flux_eval, one)
    m["fluxes.eval_s"] = total(flux_eval, dur)

    def solves(kind):
        return lambda s: s.name == "solve" and s.info.get("kind") == kind

    model_steps = total(solves("model"), info("steps"))
    limit_steps = total(solves("limit"), info("steps"))
    m["pde.model_steps"] = model_steps
    m["pde.model_ms_per_step"] = _ratio(total(solves("model"), dur),
                                        model_steps, 1e3)
    in_model_solve = (lambda s: s.name == "invert_parameters_grid"
                      and any(a.name == "solve"
                              and a.info.get("kind") == "model"
                              for a in s.ancestors()))
    m["pde.tilt_calls_per_model_step"] = _ratio(total(in_model_solve, one),
                                                model_steps)
    m["pde.limit_steps"] = limit_steps
    m["pde.limit_ms_per_step"] = _ratio(total(solves("limit"), dur),
                                        limit_steps, 1e3)
    m["pde.oracle_s"] = total(named("smooth_solution_oracle"), dur)

    m["entropy.build_s"] = total(named("build_entropy"), dur)
    entropy_bundle = (lambda s: outermost("pde", "bundle")(s)
                      and any(a.name == "build_entropy"
                              for a in s.ancestors()))
    m["entropy.bundle_calls"] = total(entropy_bundle, one)
    m["entropy.cells"] = total(named("build_entropy"), info("cells"))
    m["entropy.check_s"] = total(outermost("entropy", "check"), dur)
    m["entropy.verify_s"] = total(named("verify_bounds"), dur)

    m["goursat.riemann_s"] = total(named("riemann_function"), dur)
    m["goursat.picard_iterations"] = total(named("riemann_function"),
                                           info("iterations"))
    m["goursat.rect_s"] = total(named("goursat_solve_rectangle"), dur)
    m["goursat.rect_iterations"] = total(named("goursat_solve_rectangle"),
                                         info("iterations"))

    m["harness.self_s"] = total(named("run_eulerian", "run_intermediate"),
                                lambda s: s.self_s)
    m["harness.tails_s"] = total(named("tail_checks"), dur)
    m["harness.tail_samples"] = total(named("tail_checks"), info("samples"))
    m["harness.enumerate_s"] = total(named("microcanonical_moment_check"),
                                     dur)
    m["harness.enumerated_configs"] = total(
        named("microcanonical_moment_check"), info("configs"))

    m["models.build_s"] = total(named("build_model"), dur)
    m["models.validate_s"] = total(named("validate_conditions"), dur)
    m["fields.distance_s"] = total(outermost("fields", "l1_distance",
                                             "linf_distance"), dur)
    assert set(m) == set(PER_LAYER)
    return {k: float(v) for k, v in m.items()}


# -- event-count expectation, computed apart from the simulator ----------------


def max_bond_rate(model, n, beta, delta):
    """Largest total jump rate out of one bond state, lambda r + kappa s,
    with lambda = n^(1+beta) and kappa = n^(1+beta+delta)."""
    lam = float(n) ** (1.0 + beta)
    kap = float(n) ** (1.0 + beta + delta)
    k = len(model.pi)
    rates = lam * np.asarray(model.r) + kap * np.asarray(model.s)
    return float(rates.reshape(k * k, k * k).sum(axis=1).max())


def event_expectation(spans, round_):
    """(observed events, Poisson mean) over the simulate calls of one round.

    The simulator draws one Poisson count per bond clock at the maximal bond
    rate, so the total over a call is Poisson with mean
    n * max_bond_rate * (t_end - t_start).
    """
    seen = mean = 0.0
    for s in spans:
        if s.name != "simulate" or s.round != round_:
            continue
        i = s.info
        seen += i["events"]
        mean += (i["n"] * max_bond_rate(i["model"], i["n"], i["beta"],
                                        i["delta"])
                 * max(i["t1"] - i["t0"], 0.0))
    return seen, mean
