"""End-to-end verification experiments: particle fields against PDE solutions
under Eulerian and intermediate scaling, weak-convergence pairings against
test functions, stochastic-domination tail checks, and exhaustive
microcanonical moment enumeration at tiny block sizes.

Relative entropies between the particle law and local equilibrium are never
estimated here (that would need densities in a huge product space); the
measurable surrogate throughout is weak convergence of the conserved fields.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .fields import Field, l1_distance, linf_distance
from .fluxes import macroscopic_flux
# TooLarge is re-exported: callers catch it as harness.TooLarge
from .models import (TooLarge, build_model, configurations, level_totals,
                     microscopic_fluxes)
from .pde import LimitFlux, ModelFluxView, smooth_solution_oracle
from .sim import (ScalingPlan, draw_sites, sample_local_equilibrium,
                  simulate, empirical_fields, weight_function, philox_stream)
from .thermo import DomainPolygon, invert_parameters_grid


@dataclass
class ExperimentConfig:
    model: str = "pm1"
    gamma: float = 0.3                  # two-lane parameter (ignored for pm1)
    mode: str = "eulerian"
    beta: float = 0.0
    delta: float = 0.25
    n_list: tuple = (256, 512, 1024, 2048)
    replicas: int = 20
    t_checkpoints: tuple = (0.1, 0.2)
    m_grid: int = 128
    l: int = None
    rho_base: float = 0.5
    rho_amp: float = 0.1
    u_base: float = 0.0
    u_amp: float = 0.1
    seed: int = 2024
    oracle_m: int = 2048
    threads: int = None

    def plan(self):
        return ScalingPlan(mode=self.mode, beta=self.beta, delta=self.delta,
                           l=self.l)

    def profiles(self):
        rho0 = lambda x: self.rho_base + self.rho_amp * np.sin(2 * np.pi * x)
        u0 = lambda x: self.u_base + self.u_amp * np.cos(2 * np.pi * x)
        return rho0, u0

    def build(self):
        return build_model(self.model, gamma=self.gamma)


TEST_FUNCTIONS = {
    "one": lambda x: np.ones_like(x),
    "sin": lambda x: np.sin(2 * np.pi * x),
    "cos": lambda x: np.cos(2 * np.pi * x),
}


def _weak_statistics(model, state, plan):
    """Pairings n^{2b-1} sum g(j/n) eta_j and n^{b-1} sum g(j/n) zeta_j."""
    n = state.n
    x = np.arange(n) / n
    f_r, f_u = plan.field_scale(n)
    eta = model.eta[state.spins]
    zeta = model.zeta[state.spins]
    out = {}
    for name, g in TEST_FUNCTIONS.items():
        gx = g(x)
        out[f"rho_{name}"] = f_r / n * float(gx @ eta)
        out[f"u_{name}"] = f_u / n * float(gx @ zeta)
    return out


def _one_replica(config, n, seed, rep):
    model = config.build()
    plan = config.plan()
    rho0, u0 = config.profiles()
    t_list = tuple(sorted(config.t_checkpoints))
    state = sample_local_equilibrium(model, rho0, u0, n, plan,
                                     seed=seed, stream=rep)
    snaps = {}
    weak = {}

    def observer(st):
        fr, fu = empirical_fields(st, model, plan, config.m_grid)
        snaps[round(st.time, 12)] = (fr.values.copy(), fu.values.copy())
        weak[round(st.time, 12)] = _weak_statistics(model, st, plan)

    observer(state)
    simulate(state, model, plan, max(t_list), observe_at=t_list,
             observer=observer)
    mass = (state.total_eta, state.total_zeta2)
    return snaps, weak, mass, state.trajectory_hash


_HARD_SIGMA = 4.5      # no weak pairing may sit further from the PDE value
_ALLOWED_FRAC = 0.06   # the share of pairings allowed beyond n_sigma


@dataclass
class ConvergenceReport:
    config: ExperimentConfig
    distances: dict            # (n, t) -> {"rho_l1":, "rho_linf":, "u_l1":, ...}
    weak: dict                 # (n, t, stat) -> (mean, std, pde_value)
    mass_invariant: bool
    l1_sequence: dict          # t -> [l1 per n, ordered by n_list]

    def l1_strictly_decreasing(self, t):
        seq = self.l1_sequence[t]
        return all(b < a for a, b in zip(seq, seq[1:]))

    def weak_within(self, n_sigma=3.0):
        """Pairings against the PDE integrals, with a multiple-comparison
        allowance: a small fraction (``_ALLOWED_FRAC``) may sit between
        n_sigma and ``_HARD_SIGMA``, none beyond ``_HARD_SIGMA``."""
        soft, hard = [], []
        for key, (mean, std, ref) in self.weak.items():
            if std == 0.0:
                if abs(mean - ref) > max(1e-12, 5e-3 * abs(ref)):
                    hard.append(key)
                continue
            dev = abs(mean - ref) / std
            if dev > _HARD_SIGMA:
                hard.append(key)
            elif dev > n_sigma:
                soft.append(key)
        allowed = max(1, int(_ALLOWED_FRAC * len(self.weak)))
        return (not hard) and len(soft) <= allowed, hard + soft

    def summary(self):
        lines = [f"convergence report: model={self.config.model} "
                 f"mode={self.config.mode} replicas={self.config.replicas}"]
        for t in sorted(self.l1_sequence):
            seq = ", ".join(f"{v:.4f}" for v in self.l1_sequence[t])
            dec = "decreasing" if self.l1_strictly_decreasing(t) else "NOT decreasing"
            lines.append(f"  t={t}: L1(rho) over n={list(self.config.n_list)}: "
                         f"[{seq}] ({dec})")
        ok, bad = self.weak_within()
        lines.append(f"  weak pairings within 3 sigma: {ok}"
                     + (f" offenders: {bad[:4]}" if bad else ""))
        lines.append(f"  mass exactly conserved per trajectory: {self.mass_invariant}")
        return "\n".join(lines)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n", "t", "rho_l1", "rho_linf", "u_l1", "u_linf",
                         "rho_l1_ci"])
            for (n, t), d in sorted(self.distances.items()):
                wr.writerow([n, t, f"{d['rho_l1']:.6g}", f"{d['rho_linf']:.6g}",
                             f"{d['u_l1']:.6g}", f"{d['u_linf']:.6g}",
                             f"{d['rho_l1_ci']:.6g}"])


def _run_experiment(config, oracle_flux):
    config.plan()      # a bad scaling fails here, before the oracle runs
    t_list = tuple(sorted(config.t_checkpoints))
    rho0, u0 = config.profiles()
    oracle = smooth_solution_oracle(oracle_flux, rho0, u0, max(t_list),
                                    m_out=config.m_grid, m_fine=config.oracle_m,
                                    snapshot_times=t_list)
    if not isinstance(oracle, dict):
        oracle = {max(t_list): oracle}
    oracle[0.0] = (Field(rho0(np.arange(config.m_grid) / config.m_grid), 0.0, "rho"),
                   Field(u0(np.arange(config.m_grid) / config.m_grid), 0.0, "u"))

    jobs = [(config, n, config.seed + 1000 * i, rep)
            for i, n in enumerate(config.n_list)
            for rep in range(config.replicas)]
    workers = config.threads or min(os.cpu_count() or 1, 8)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_replica, *zip(*jobs), chunksize=1))
    else:
        results = [_one_replica(*j) for j in jobs]

    distances = {}
    weak = {}
    l1_seq = {t: [] for t in t_list}
    mass_ok = True
    idx = 0
    for i, n in enumerate(config.n_list):
        per_rep = results[idx:idx + config.replicas]
        idx += config.replicas
        # the g = 1 pairing is n^{2b-1} * total eta: exactly time invariant
        for r in per_rep:
            vals = [r[1][round(float(t), 12)]["rho_one"] for t in (0.0,) + t_list]
            mass_ok &= (max(vals) - min(vals)) == 0.0
        for t in (0.0,) + t_list:
            key_t = round(float(t), 12)
            rho_stack = np.array([r[0][key_t][0] for r in per_rep])
            u_stack = np.array([r[0][key_t][1] for r in per_rep])
            fr = Field(rho_stack.mean(axis=0), t, "rho")
            fu = Field(u_stack.mean(axis=0), t, "u")
            orc_r, orc_u = oracle[t] if t in oracle else oracle[key_t]
            per_rep_l1 = [l1_distance(Field(v, t, "rho"), orc_r) for v in rho_stack]
            d = {
                "rho_l1": l1_distance(fr, orc_r),
                "rho_linf": linf_distance(fr, orc_r),
                "u_l1": l1_distance(fu, orc_u),
                "u_linf": linf_distance(fu, orc_u),
                "rho_l1_ci": float(np.std(per_rep_l1) / np.sqrt(len(per_rep_l1))),
            }
            distances[(n, t)] = d
            # weak statistics vs the oracle integrals
            x = orc_r.x()
            for name, g in TEST_FUNCTIONS.items():
                gx = g(x)
                ref_r = float(np.mean(gx * orc_r.values))
                ref_u = float(np.mean(gx * orc_u.values))
                sr = np.array([r[1][key_t][f"rho_{name}"] for r in per_rep])
                su = np.array([r[1][key_t][f"u_{name}"] for r in per_rep])
                weak[(n, t, f"rho_{name}")] = (float(sr.mean()),
                                               float(sr.std(ddof=1) / np.sqrt(len(sr))),
                                               ref_r)
                weak[(n, t, f"u_{name}")] = (float(su.mean()),
                                             float(su.std(ddof=1) / np.sqrt(len(su))),
                                             ref_u)
        for t in t_list:
            l1_seq[t].append(distances[(n, t)]["rho_l1"])

    return ConvergenceReport(config=config, distances=distances, weak=weak,
                             mass_invariant=mass_ok, l1_sequence=l1_seq)


def run_eulerian(config):
    """Eulerian-scaling comparison against the Euler system with the model's
    own macroscopic fluxes."""
    if config.mode != "eulerian":
        raise ValueError("config.mode must be 'eulerian'")
    model = config.build()
    flux = ModelFluxView(macroscopic_flux(model))
    return _run_experiment(config, flux)


def run_intermediate(config):
    """Intermediate-scaling comparison against the universal limit system.

    The theorem regime needs gamma > 1; models with gamma <= 1 are allowed
    (the proof extends to the three-state model with gamma = 1) but flagged
    in the report config.
    """
    if config.mode != "intermediate" or config.beta <= 0:
        raise ValueError("config needs mode='intermediate' and beta > 0")
    model = config.build()
    flux = macroscopic_flux(model)
    rep = _run_experiment(config, LimitFlux(flux.gamma))
    rep.gamma_flagged = flux.gamma <= 1.0 + 1e-6
    return rep


# ---------------------------------------------------------------------------
# stochastic domination tail checks


_CI_LEVEL = 0.05   # the share of tail bins allowed to break the bound
_BINS = 24         # tail bins of rho and of |u| in ``tail_checks``


@dataclass
class TailReport:
    L: float
    C_rho: float
    C_u: float
    violations_rho: int
    violations_u: int
    bins: int

    def passed(self):
        allowed = max(1, int(np.ceil(_CI_LEVEL * self.bins)))
        return self.violations_rho <= allowed and self.violations_u <= allowed

    def summary(self):
        return (f"tail report: L={self.L:.1f} fitted C_rho={self.C_rho:.3f} "
                f"C_u={self.C_u:.3f}; out-of-sample violations "
                f"{self.violations_rho}/{self.bins} (rho), "
                f"{self.violations_u}/{self.bins} (u)")


_SITE_CHUNK = 200_000     # sites per chunk: both buffers stay in cache


def _sample_blocks(model, plan, n, rho0, u0, samples, seed):
    """Draw block averages of (eta, zeta) from i.i.d. local equilibrium,
    sites by ``draw_sites`` into two buffers reused across chunks."""
    l = plan.block_size(n)
    rho_s, u_s = plan.scale_profile_values(np.array([rho0]), np.array([u0]), n)
    cum = np.cumsum(invert_parameters_grid(model, rho_s, u_s).p[0])
    rng = philox_stream(seed, 77)
    offs = np.arange(-l + 1, l)
    wts = weight_function(offs / l) / l
    f_r, f_u = plan.field_scale(n)
    eta, zeta = model.eta.astype(float), model.zeta.astype(float)
    rho_hat = np.empty(samples)
    u_hat = np.empty(samples)
    # a multiple of 4 rows: OpenBLAS's gemv gives a call's last rows % 4
    # rows to a kernel that rounds differently, so with such chunks every
    # block average equals that of one product over all samples
    chunk = 4 * max(1, _SITE_CHUNK // (4 * offs.size))
    eta_s, zeta_s = np.empty((2, min(chunk, samples), offs.size))
    for done in range(0, samples, chunk):
        rows = min(chunk, samples - done)
        draw_sites(rng, cum, eta, zeta, eta_s[:rows], zeta_s[:rows])
        rho_hat[done:done + rows] = f_r * (eta_s[:rows] @ wts)
        u_hat[done:done + rows] = f_u * (zeta_s[:rows] @ wts)
    return rho_hat, u_hat, l


def tail_checks(model, plan, n, rho0=0.5, u0=0.0, samples=1_000_000,
                seed=11):
    """Poisson/Gaussian stochastic domination of block-average tails.

    The density tail is compared to P(POI(L) > (z/C) L) and the slope tail
    to P(|GAU| > ((z/C)-1) sqrt(L)), L = n^{-2 beta} l, by ``_tail_report``
    on ``samples`` block averages drawn from local equilibrium.
    """
    rho_hat, u_hat, l = _sample_blocks(model, plan, n, rho0, u0, samples, seed)
    return _tail_report(rho_hat, u_hat, float(n) ** (-2.0 * plan.beta) * l,
                        _BINS)


_MIN_EXCEEDANCES = 50    # fit-half points above the outermost bin edge


def _tail_report(rho_hat, u_hat, L, bins):
    """Fit C on the first half of the block averages as the smallest
    constant whose bound covers every fit-half tail share, then test it on
    the second half at binomial 95% confidence, in ``bins`` tail bins of
    rho and of |u|.

    The bin edges are fit-half quantiles whose tail shares fall
    geometrically from the first level (the share above 1.05 times the
    mean for rho, one half for |u|) to 50 points, so every bin holds at
    least 50 fit-half exceedances and no edge depends on the test half.
    Each half is sorted once; a tail share is then one bisection.

    Over seeds 100-299 (pm1, l = 50, n = 1000, 10^6 samples) this fails 0
    times, against 12 with equally spaced edges up to the sample maximum,
    and a test half scaled by 1.02 fails on all of them.  Because C is
    fitted on the sample itself, a wrong equilibrium goes unseen: a sampler
    drawing from pi instead of the tilted measure passes on seeds 1-3.
    ``test_block_sampler_moments_and_lower_tail`` catches a wrong sampler.
    """
    def poisson(z, C):
        k = np.floor(z / C * L)
        return sps.poisson.sf(k, L) + sps.poisson.pmf(k, L)

    def gauss(z, C):
        arg = (z / C - 1.0) * np.sqrt(L)
        return np.where(arg <= 0, 1.0, 2.0 * sps.norm.sf(arg))

    half = rho_hat.size // 2
    out = []
    for x, bound in ((rho_hat, poisson), (np.abs(u_hat), gauss)):
        fit, test = np.sort(x[:half]), np.sort(x[half:])
        first = (half - np.searchsorted(fit, 1.05 * np.mean(fit), "right")
                 if bound is poisson else half // 2)
        if first < _MIN_EXCEEDANCES:
            raise ValueError(f"{x.size} samples are too few for the tail bins")
        counts = np.round(np.geomspace(first, _MIN_EXCEEDANCES, bins))
        z = fit[half - 1 - counts.astype(np.int64)]

        def share_above(sample):
            return (sample.size - np.searchsorted(sample, z, "right")) \
                / sample.size

        emp = share_above(fit)
        lo, hi = 1e-3, 1e3
        for _ in range(60):
            mid = np.sqrt(lo * hi)
            lo, hi = (lo, mid) if np.all(emp <= bound(z, mid)) else (mid, hi)
        b = bound(z, hi)
        thresh = b + 1.645 * np.sqrt(np.maximum(b * (1 - b), 1e-12)
                                     / test.size)
        out += [float(hi), int(np.sum(share_above(test) > thresh))]
    C_rho, violations_rho, C_u, violations_u = out
    return TailReport(L=L, C_rho=C_rho, C_u=C_u, violations_rho=violations_rho,
                      violations_u=violations_u, bins=bins)


# ---------------------------------------------------------------------------
# microcanonical exponential moments at tiny block size


@dataclass
class MomentReport:
    l: int
    xi: str
    centered: bool
    C: float
    n_classes: int

    def summary(self):
        tag = "centered" if self.centered else "plain"
        return (f"microcanonical moments: l={self.l} xi={self.xi} ({tag}) "
                f"fitted C={self.C:.4f} over {self.n_classes} classes")


def _enumerate_blocks(model, l):
    confs = configurations(model, l, 10 ** 7)
    logw = np.log(model.pi)[confs].sum(axis=1)
    return (confs, logw) + level_totals(model, confs)


def _xi_values(model, confs, xi):
    psi, phi, psi_s, phi_s = microscopic_fluxes(model)
    tab = {"psi": psi, "phi": phi, "psi_s": psi_s, "phi_s": phi_s}[xi]
    return tab[confs[:, :-1], confs[:, 1:]]    # adjacent pairs inside the block


def microcanonical_moment_check(model, l, xi="psi", centered=False,
                                gammas=(0.25, 0.5, 1.0, 2.0)):
    """Exhaustive conditional exponential moments of weighted block averages.

    For every conserved-total class, computes
        E( exp{ g sqrt(l) <b, xi>_l } | totals )       (plain, M(b) = 0)
    or the version centered by Xi(<b, (eta,zeta)>_l)    (M(b) = 1)
    and fits the smallest C with log-moment <= C (g^2 + g / sqrt(l)).
    """
    confs, logw, N, Z2 = _enumerate_blocks(model, l)
    xiv = _xi_values(model, confs, xi)
    npairs = xiv.shape[1]
    j_over_l = np.arange(npairs) / l
    if centered:
        b = lambda s: np.ones_like(s)                      # M(b) = 1
    else:
        # rescaled derivative of the averaging bump: odd, M(b) = 0
        b = lambda s: -(15.0 / 4.0) * (2 * s - 1) * (1 - (2 * s - 1) ** 2)
    bw = b(j_over_l)
    inner = xiv @ bw / l

    if centered:
        # center by the grand-canonical expectation at the b-weighted means
        eta_b = model.eta[confs] @ b(np.arange(l) / l) / l
        zeta_b = model.zeta[confs] @ b(np.arange(l) / l) / l
        inner = inner - _xi_expectation(model, xi, eta_b, zeta_b)

    _, level, counts = np.unique(np.column_stack([N, Z2]), axis=0,
                                 return_inverse=True, return_counts=True)
    order = np.argsort(level, kind="stable")
    inner_s = inner[order]
    logw_s = logw[order]
    starts = np.concatenate([[0], np.cumsum(counts)])
    best_C = -np.inf
    n_classes = 0
    for a, bnd in zip(starts[:-1], starts[1:]):
        w = logw_s[a:bnd]
        v = inner_s[a:bnd]
        n_classes += 1
        wmax = w.max()
        pw = np.exp(w - wmax)
        pw /= pw.sum()
        for g in gammas:
            x = g * np.sqrt(l) * v
            xm = x.max()
            logm = xm + np.log(np.sum(pw * np.exp(x - xm)))
            C = logm / (g ** 2 + g / np.sqrt(l))
            best_C = max(best_C, C)
    return MomentReport(l=l, xi=xi, centered=centered, C=float(best_C),
                        n_classes=n_classes)


def _xi_expectation(model, xi, rho_vals, u_vals):
    """Grand-canonical pair expectation at the given (rho, u) points."""
    dom = DomainPolygon.from_model(model)
    q = np.column_stack([rho_vals, u_vals]).astype(float)
    # Newton cannot invert points on the boundary: pull those (only) inside
    edge = dom.interior_margin(q[:, 0], q[:, 1]) <= 1e-9
    c = dom.vertices.mean(axis=0)
    q[edge] = c + 0.995 * (q[edge] - c)

    psi, phi, psi_s, phi_s = microscopic_fluxes(model)
    tab = {"psi": psi, "phi": phi, "psi_s": psi_s, "phi_s": phi_s}[xi]
    # evaluate exactly per distinct query point (few thousand at most)
    uniq, inv = np.unique(q, axis=0, return_inverse=True)
    p = invert_parameters_grid(model, uniq[:, 0], uniq[:, 1]).p
    vals = np.einsum("ia,ab,ib->i", p, tab, p)
    return vals[inv]
