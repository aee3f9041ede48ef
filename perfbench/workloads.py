"""The four benchmark workloads, scaled-down versions of the acceptance
studies.

A workload builds its models and flux objects in ``setup`` (timed as
set-up), lists the operations of one round in ``operations`` (timed as the
study), and checks the outputs in ``check`` (not timed).  Inputs are derived
from the seed alone; the program sees only the generated inputs.
"""

from __future__ import annotations

import os

import numpy as np

from checks import (at_most, bounds_finite, closed_form_fluxes,
                    condition_residuals, conserved, entropy_exact_off_wedge,
                    fields_match, mutant_fails_d, pairing_invariant)


class OperationFailed(RuntimeError):
    """An operation ran to its end but its result shows a known fault."""


def _seed_rng(seed, salt):
    return np.random.default_rng([int(seed) & (2 ** 63 - 1), salt])


class Workload:
    name = ""

    def __init__(self, seed, workers, out_dir):
        self.seed = int(seed)
        self.workers = int(workers)
        self.out_dir = out_dir

    def setup(self):
        raise NotImplementedError

    def operations(self):
        """[(name, zero-argument callable)] of one round."""
        raise NotImplementedError

    def check(self, outputs):
        """[(label, ok, detail)] over the operations that did not fail."""
        raise NotImplementedError

    def results(self, outputs):
        """The numbers a round reports; equal across rounds and modes."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# particle studies


def _report_numbers(rep):
    out = {}
    for (n, t), d in sorted(rep.distances.items()):
        for key, val in sorted(d.items()):
            out[f"{key}@n={n},t={t:g}"] = val
    for (n, t, stat), (mean, std, _) in sorted(rep.weak.items()):
        out[f"{stat}@n={n},t={t:g}"] = [mean, std]
    return out


class _ParticleStudy(Workload):
    """Shared checks of the two particle-field studies."""

    def _check_report(self, rep, l1_bound):
        cfg = rep.config
        times = tuple(sorted(cfg.t_checkpoints))
        out = [("g=1 pairing invariant",
                *pairing_invariant(rep.weak, cfg.n_list, times)),
               ("harness mass flag", rep.mass_invariant,
                f"mass_invariant={rep.mass_invariant}")]
        l1 = rep.l1_sequence[times[-1]][-1]
        out.append(("L1(rho) at largest n",
                    *at_most(f"L1 at n={cfg.n_list[-1]}, t={times[-1]:g}",
                             l1, l1_bound)))
        return out


class Eulerian(_ParticleStudy):
    """pm1 at Eulerian scale against the model-flux Euler oracle."""

    name = "eulerian"
    N_LIST = (256, 512, 1024)
    REPLICAS = 2
    TIMES = (0.1, 0.2)
    ORACLE_M = 512
    L1_BOUND = 0.06
    ORACLE_TOL = 1e-8
    # the restart operation keeps fixed inputs: its fault does not depend
    # on the seed, so its failure share is the same in every run
    RESTART_N = 256
    RESTART_SEED = 2024
    RESTART_TIMES = (0.01, 0.02)

    def setup(self):
        from latgas import build_model, macroscopic_flux
        from latgas import harness

        self.model = build_model("pm1")
        self.flux = macroscopic_flux(self.model)
        self.cfg = harness.ExperimentConfig(
            model="pm1", n_list=self.N_LIST, replicas=self.REPLICAS,
            t_checkpoints=self.TIMES, m_grid=128, oracle_m=self.ORACLE_M,
            seed=self.seed, threads=self.workers)
        # keep the oracle run_eulerian computes, for the check made apart
        self.oracles = []
        inner = harness.smooth_solution_oracle

        def keep_oracle(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.oracles.append(out)
            return out

        harness.smooth_solution_oracle = keep_oracle

    def operations(self):
        from latgas import harness

        self.oracles.clear()
        self.restart_spins = None
        return [("run_eulerian", lambda: harness.run_eulerian(self.cfg)),
                ("restart-exact", self._restart)]

    def _restart(self):
        """Dump at half time, restore, finish; compare with no restart."""
        from latgas import sim

        plan = sim.ScalingPlan(mode="eulerian")
        rho0, u0 = self.cfg.profiles()
        t_half, t_end = self.RESTART_TIMES

        def start():
            return sim.sample_local_equilibrium(
                self.model, rho0, u0, self.RESTART_N, plan,
                seed=self.RESTART_SEED)

        straight = start()
        initial = straight.spins.copy()
        sim.simulate(straight, self.model, plan, t_half)
        sim.simulate(straight, self.model, plan, t_end)
        part = start()
        sim.simulate(part, self.model, plan, t_half)
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"restart-{os.getpid()}.lgs")
        try:
            sim.dump_state(path, part, self.model)
            resumed = sim.load_state(path, self.model)
        finally:
            if os.path.exists(path):
                os.remove(path)
        sim.simulate(resumed, self.model, plan, t_end)
        self.restart_spins = (initial, straight.spins.copy(),
                              resumed.spins.copy())
        differ = int(np.count_nonzero(straight.spins != resumed.spins))
        if differ:
            raise OperationFailed(
                f"restarted run differs from the uninterrupted one at "
                f"{differ} of {self.RESTART_N} sites")
        return differ

    def check(self, outputs):
        from latgas.pde import LimitFlux, smooth_solution_oracle

        out = []
        if self.restart_spins is not None:
            initial, straight, resumed = self.restart_spins
            out.append(("restart: uninterrupted run conserves",
                        *conserved(self.model, initial, straight)))
            out.append(("restart: resumed run conserves",
                        *conserved(self.model, initial, resumed)))
        if "run_eulerian" in outputs:
            out += self._check_report(outputs["run_eulerian"], self.L1_BOUND)
            # pm1 fluxes are rho u and rho + u^2: the closed-form limit flux
            # with gamma = 1 gives the same Euler solution by another path
            rho0, u0 = self.cfg.profiles()
            ref = smooth_solution_oracle(
                LimitFlux(1.0), rho0, u0, max(self.TIMES), m_out=128,
                m_fine=self.ORACLE_M, snapshot_times=self.TIMES)
            got = self.oracles[-1]
            out.append(("model-flux oracle = LimitFlux(1) solve",
                        *fields_match(got, ref, self.ORACLE_TOL)))
        return out

    def results(self, outputs):
        res = {}
        if "run_eulerian" in outputs:
            res = _report_numbers(outputs["run_eulerian"])
        if self.restart_spins is not None:
            _, straight, resumed = self.restart_spins
            res["restart_differ"] = int(np.count_nonzero(straight != resumed))
        return res


class Intermediate(_ParticleStudy):
    """Two-lane, gamma = 1.25, at intermediate scale against the universal
    limit system."""

    name = "intermediate"
    GAMMA = 1.25
    N_LIST = (1000, 2000)
    REPLICAS = 2
    TIMES = (0.015, 0.03)
    L1_BOUND = 0.2

    def setup(self):
        from latgas import build_model, macroscopic_flux
        from latgas import harness

        self.model = build_model("two-lane", gamma=self.GAMMA)
        self.flux = macroscopic_flux(self.model)
        self.cfg = harness.ExperimentConfig(
            model="two-lane", gamma=self.GAMMA, mode="intermediate", beta=0.1,
            delta=0.25, n_list=self.N_LIST, replicas=self.REPLICAS,
            t_checkpoints=self.TIMES, m_grid=64, oracle_m=256,
            seed=self.seed, threads=self.workers)

    def operations(self):
        from latgas import harness

        return [("run_intermediate",
                 lambda: harness.run_intermediate(self.cfg))]

    def check(self, outputs):
        out = [("two-lane gamma", *at_most(
            "|gamma - 1.25|", abs(self.flux.gamma - self.GAMMA), 1e-4))]
        if "run_intermediate" in outputs:
            rep = outputs["run_intermediate"]
            out += self._check_report(rep, self.L1_BOUND)
            flagged = getattr(rep, "gamma_flagged", True)
            out.append(("not flagged gamma <= 1", not flagged,
                        f"gamma_flagged={flagged}"))
        return out

    def results(self, outputs):
        if "run_intermediate" not in outputs:
            return {}
        return _report_numbers(outputs["run_intermediate"])


# ---------------------------------------------------------------------------
# entropy tables and the Goursat machinery


def _random_field(rng, amp):
    mat = rng.normal(size=(2, 2))

    def f(W, Z):
        out = np.zeros_like(W)
        for i in range(2):
            for j in range(2):
                out += mat[i, j] * np.sin((i + 1) * W + j) \
                    * np.cos((j + 1) * Z - i)
        return amp * out / (np.max(np.abs(mat)) * 4.0)
    return f


class Entropy(Workload):
    """Cutoff entropy on the criterion-7 geometry, one scaled two-lane table
    with its bounds, and the Goursat Riemann functions and rectangles."""

    name = "entropy"
    CELLS_PER_RLO = 24
    N_U = 80
    RECTANGLES = 100

    def setup(self):
        from latgas import build_model, macroscopic_flux
        from latgas.pde import LimitFlux, ModelFluxView

        self.limit = LimitFlux(2.0)
        self.two_lane = ModelFluxView(
            macroscopic_flux(build_model("two-lane", gamma=1.25)))

    def operations(self):
        return [("cutoff-entropy", self._cutoff),
                ("scaled-table", self._scaled),
                ("riemann-zero", self._riemann_zero),
                ("riemann-envelopes", self._envelopes),
                ("goursat-rectangles", self._rectangles)]

    def _cutoff(self):
        from latgas.entropy import build_entropy

        tab = build_entropy(self.limit, 1.0, np.exp(4.0), u_max=2.0,
                            cells_per_rlo=self.CELLS_PER_RLO, n_u=self.N_U)
        res = float(np.abs(tab.pde_residual())[tab.interior_mask()].max())
        return tab, res, tab.flux_compat_error()

    def _scaled(self):
        from latgas.entropy import build_entropy, verify_bounds

        tab = build_entropy(self.two_lane, 1.0, np.exp(4.0), n=1000, beta=0.5,
                            u_max=1.5, n_rho=300, n_u=60)
        return verify_bounds(tab)

    def _riemann_zero(self):
        from latgas.goursat import riemann_function, zero_coeffs

        return riemann_function(zero_coeffs(), 1.0, 0.2, m=65)

    def _envelopes(self):
        from latgas.goursat import limit_flux_char_coeffs, riemann_function

        gam = 2.0
        consts = {}
        for kap in (1.0, 2 * gam - 1, 2.0, 2 * gam):
            rf = riemann_function(limit_flux_char_coeffs(gam, kap), 1.2, 0.3,
                                  m=81)
            W, Z = np.meshgrid(rf.grid, rf.grid, indexing="ij")
            tri = W >= Z
            env = (W / 1.2) ** ((kap - 1) / (2 * gam - 1))
            consts[kap] = float(np.max(np.abs(rf.phi[tri]) / env[tri]))
        return consts

    def _rectangles(self):
        """sup|U|/M over random rectangles whose coefficient integrals sit
        below 1/6, where the Goursat estimate promises at most 5."""
        from latgas.goursat import goursat_solve_rectangle

        rng = _seed_rng(self.seed, 9)
        worst = 0.0
        for _ in range(self.RECTANGLES):
            x1 = rng.uniform(0.5, 1.5)
            x2 = x1 + rng.uniform(0.4, 1.2)
            y1 = rng.uniform(0.05, 0.2)
            y2 = min(y1 + rng.uniform(0.2, max(x1 - y1 - 0.01, 0.21)), x1)
            wg = np.linspace(x1, x2, 41)
            zg = np.linspace(y1, y2, 33)
            A = _random_field(rng, 0.9 / 6 / (y2 - y1))
            B = _random_field(rng, 0.9 / 6 / (x2 - x1))
            C = _random_field(rng, 0.9 / 6 / ((x2 - x1) * (y2 - y1)))
            f = np.cos(3 * wg) * rng.uniform(0.3, 2.0)
            g = np.sin(2 * zg) * rng.uniform(0.3, 2.0)
            g = g - g[-1] + f[0]
            M = np.max(np.abs(f)) + np.max(np.abs(g))
            U, _ = goursat_solve_rectangle(A, B, C, f, g, wg, zg)
            worst = max(worst, float(np.max(np.abs(U))) / M)
        return worst

    def check(self, outputs):
        out = []
        if "cutoff-entropy" in outputs:
            tab, res, compat = outputs["cutoff-entropy"]
            out.append(("S exact on D1 and D2", *entropy_exact_off_wedge(tab)))
            out.append(("D3 residual", *at_most("residual", res, 1e-4)))
            out.append(("flux compatibility",
                        *at_most("compatibility", compat, 1e-3)))
        if "scaled-table" in outputs:
            out.append(("scaled-table bounds",
                        *bounds_finite(outputs["scaled-table"])))
        if "riemann-zero" in outputs:
            dev = float(np.max(np.abs(outputs["riemann-zero"].phi - 1.0)))
            out.append(("phi == 1 for zero coefficients", dev == 0.0,
                        f"max|phi - 1| {dev:.3g}"))
        if "riemann-envelopes" in outputs:
            worst = max(outputs["riemann-envelopes"].values())
            out.append(("Riemann-function envelopes",
                        *at_most("largest envelope constant", worst, 10.0)))
        if "goursat-rectangles" in outputs:
            out.append(("Goursat sup bound", *at_most(
                "sup|U|/M", outputs["goursat-rectangles"], 5.0)))
        return out

    def results(self, outputs):
        res = {}
        if "cutoff-entropy" in outputs:
            tab, r, c = outputs["cutoff-entropy"]
            res.update(residual=r, compat=c, cells=int(tab.S.size))
        if "scaled-table" in outputs:
            res.update({f"C[{k}]": f.constant
                        for k, f in outputs["scaled-table"].fits.items()})
        if "riemann-zero" in outputs:
            res["zero_iterations"] = outputs["riemann-zero"].iterations
        if "riemann-envelopes" in outputs:
            res.update({f"env[{k:g}]": v for k, v in
                        outputs["riemann-envelopes"].items()})
        if "goursat-rectangles" in outputs:
            res["sup_ratio"] = outputs["goursat-rectangles"]
        return res


# ---------------------------------------------------------------------------
# static equilibrium facts


MUTANT = {
    "name": "pm1-mutant", "labels": ["-1", "0", "+1"],
    "eta": {"-1": 0, "0": 1, "+1": 0},
    "zeta": {"-1": "-1", "0": "0", "+1": "1"},
    "pi": {lab: "1/3" for lab in ("-1", "0", "+1")},
    "involution": {"-1": "+1", "0": "0", "+1": "-1"},
    # asymmetric rates that break the stationarity condition (D)
    "r": {"-1,+1->+1,-1": 2.0, "-1,0->0,-1": 1.0, "0,+1->+1,0": 5.0},
    "s": {f"{a},{b}->{b},{a}": 1.0 for a in ("-1", "0", "+1")
          for b in ("-1", "0", "+1") if a != b},
}


def _interior_points(dom, rng, count, margin=0.05):
    """Uniform points at least ``margin`` inside the domain polygon."""
    pts_r, pts_u = [], []
    while sum(map(len, pts_r)) < count:
        r = rng.uniform(margin, dom.rho_max - margin, 4 * count)
        u = rng.uniform(-dom.u_max + margin, dom.u_max - margin, 4 * count)
        keep = dom.contains(r, u, margin=margin)
        pts_r.append(r[keep])
        pts_u.append(u[keep])
    return (np.concatenate(pts_r)[:count], np.concatenate(pts_u)[:count])


class Equilibrium(Workload):
    """Stationarity, the condition suite, closed-form fluxes, Onsager
    reciprocity, tail dominations and microcanonical moments."""

    name = "equilibrium"
    TL_GAMMA = 0.3
    TAIL_SAMPLES = 1_000_000

    def setup(self):
        from latgas import build_model, macroscopic_flux

        self.pm1 = build_model("pm1")
        self.tl = build_model("two-lane", gamma=self.TL_GAMMA)
        self.mutant = build_model(MUTANT)
        self.pm1_flux = macroscopic_flux(self.pm1)
        self.tl_flux = macroscopic_flux(self.tl)
        rng = _seed_rng(self.seed, 1)
        self.tilts = [(0.0, 0.0), tuple(rng.uniform(-1.0, 1.0, 2))]
        self.grid1 = _interior_points(self.pm1_flux.domain, rng, 400)
        self.grid2 = _interior_points(self.tl_flux.domain, rng, 400)
        self.onsager_pts = [_interior_points(fp.domain, rng, 25)
                            for fp in (self.pm1_flux, self.tl_flux)]

    def operations(self):
        return [("stationarity", self._stationarity),
                ("conditions", self._conditions),
                ("closed-form-fluxes", self._fluxes),
                ("onsager", self._onsager),
                ("tails", self._tails),
                ("microcanonical", self._moments)]

    def _stationarity(self):
        """pi^T L on T3/T4 and detailed balance of K under product measures."""
        from latgas.sim import generator_matrix, product_measure_vector

        worst_L = worst_K = 0.0
        for n in (3, 4):
            L = generator_matrix(self.pm1, n, "L")
            K = generator_matrix(self.pm1, n, "K")
            for tau, theta in self.tilts:
                pi = product_measure_vector(self.pm1, n, tau, theta)
                worst_L = max(worst_L, float(np.max(np.abs(pi @ L))))
                DB = pi[:, None] * K
                worst_K = max(worst_K, float(np.max(np.abs(DB - DB.T))))
        return worst_L, worst_K

    def _conditions(self):
        from latgas import validate_conditions

        return ([validate_conditions(m, block_len=6)
                 for m in (self.pm1, self.tl)],
                validate_conditions(self.mutant, block_len=3))

    def _fluxes(self):
        (R1, U1), (R2, U2) = self.grid1, self.grid2
        return (self.pm1_flux.Psi(R1, U1), self.pm1_flux.Phi(R1, U1),
                self.tl_flux.Psi(R2, U2), self.tl_flux.Phi_raw(R2, U2))

    def _onsager(self):
        from latgas.fluxes import onsager_residual

        worst = 0.0
        for model, fp, (R, U) in zip((self.pm1, self.tl),
                                     (self.pm1_flux, self.tl_flux),
                                     self.onsager_pts):
            for r, u in zip(R, U):
                worst = max(worst, onsager_residual(model, r, u, fp))
        return worst

    def _tails(self):
        from latgas.harness import tail_checks
        from latgas.sim import ScalingPlan

        return tail_checks(self.pm1, ScalingPlan(l=50), n=1000, rho0=0.5,
                           u0=0.0, samples=self.TAIL_SAMPLES, seed=self.seed)

    def _moments(self):
        from latgas.harness import microcanonical_moment_check

        return [microcanonical_moment_check(self.pm1, l).C
                for l in (4, 5, 6, 7, 8)]

    def check(self, outputs):
        out = []
        if "stationarity" in outputs:
            wl, wk = outputs["stationarity"]
            out.append(("pi^T L", *at_most("residual", wl, 1e-12)))
            out.append(("detailed balance", *at_most("residual", wk, 1e-12)))
        if "conditions" in outputs:
            reports, mutant = outputs["conditions"]
            out.append(("condition suite", *condition_residuals(reports)))
            out.append(("mutant fails (D)", *mutant_fails_d(mutant)))
        if "closed-form-fluxes" in outputs:
            out.append(("closed-form fluxes", *closed_form_fluxes(
                *outputs["closed-form-fluxes"], *self.grid1, *self.grid2,
                self.TL_GAMMA)))
            g_err = max(abs(self.pm1_flux.gamma - 1.0),
                        abs(self.tl_flux.gamma - self.TL_GAMMA))
            out.append(("flux gamma", *at_most("gamma error", g_err, 1e-4)))
        if "onsager" in outputs:
            out.append(("Onsager", *at_most("residual", outputs["onsager"],
                                            1e-8)))
        if "tails" in outputs:
            rep = outputs["tails"]
            out.append(("tail dominations", rep.passed(), rep.summary()))
        if "microcanonical" in outputs:
            cs = outputs["microcanonical"]
            med = float(np.median(cs))
            spread = max(abs(c - med) for c in cs) / med
            out.append(("microcanonical spread", *at_most(
                "deviation from median", spread, 0.30)))
        return out

    def results(self, outputs):
        res = {}
        if "stationarity" in outputs:
            res["stationarity"] = list(outputs["stationarity"])
        if "onsager" in outputs:
            res["onsager"] = outputs["onsager"]
        if "tails" in outputs:
            t = outputs["tails"]
            res["tails"] = [t.C_rho, t.C_u, t.violations_rho, t.violations_u]
        if "microcanonical" in outputs:
            res["microcanonical"] = outputs["microcanonical"]
        if "conditions" in outputs:
            res["mutant_D"] = outputs["conditions"][1].asym_stationarity.residual
        return res


WORKLOADS = {w.name: w for w in (Eulerian, Intermediate, Entropy, Equilibrium)}
