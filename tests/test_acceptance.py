"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
the heavyweight shared artifacts (entropy tables, the full Eulerian
convergence study) are built once per session.  Expected wall time is
roughly ten minutes on eight cores, dominated by criteria 7, 8 and 10.
"""

import os
import time

import numpy as np
import pytest

from latgas import build_model, macroscopic_flux, validate_conditions
from latgas.entropy import (build_entropy, characteristic_curve, limit_curve,
                            verify_bounds)
from latgas.fields import l1_distance
from latgas.fluxes import onsager_residual
from latgas.goursat import (goursat_solve_rectangle, limit_flux_char_coeffs,
                            riemann_function, zero_coeffs)
from latgas.harness import (ExperimentConfig, microcanonical_moment_check,
                            run_eulerian, tail_checks)
from latgas.pde import (LimitFlux, ModelFluxView, eigenstructure, level_line,
                        riemann_invariants, solve)
from latgas.sim import ScalingPlan, generator_matrix, product_measure_vector


def report(num, ok, text):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="session")
def models():
    return build_model("pm1"), build_model("two-lane", gamma=0.3)


@pytest.fixture(scope="session")
def fluxes(models):
    pm1, two_lane = models
    return macroscopic_flux(pm1), macroscopic_flux(two_lane)


@pytest.fixture(scope="session")
def entropy_tables():
    fl = LimitFlux(2.0)
    default = build_entropy(fl, 1.0, np.exp(4.0), u_max=2.0,
                            cells_per_rlo=48, n_u=160)
    refined = build_entropy(fl, 1.0, np.exp(4.0), u_max=2.0,
                            cells_per_rlo=72, n_u=240)
    return default, refined


@pytest.fixture(scope="session")
def scaled_tables():
    view = ModelFluxView(macroscopic_flux(build_model("two-lane", gamma=1.25)))
    tabs = {n: build_entropy(view, 1.0, np.exp(4.0), n=n, beta=0.5,
                             u_max=1.5, n_rho=700, n_u=100)
            for n in (100, 1000, 10000)}
    refined = build_entropy(view, 1.0, np.exp(4.0), n=1000, beta=0.5,
                            u_max=1.5, n_rho=1050, n_u=150)
    return tabs, refined


@pytest.fixture(scope="session")
def eulerian_run():
    cfg = ExperimentConfig(model="pm1", n_list=(256, 512, 1024, 2048),
                           replicas=20, t_checkpoints=(0.1, 0.2), m_grid=128,
                           oracle_m=2048, seed=4242,
                           threads=min(os.cpu_count() or 1, 8))
    t0 = time.time()
    rep = run_eulerian(cfg)
    return rep, time.time() - t0


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_exact_stationarity(models):
    pm1, _ = models
    t0 = time.time()
    worst_L = worst_K = 0.0
    for n in (3, 4):
        L = generator_matrix(pm1, n, "L")
        K = generator_matrix(pm1, n, "K")
        for tau, theta in ((0.0, 0.0), (0.5, 0.2)):
            pi = product_measure_vector(pm1, n, tau, theta)
            worst_L = max(worst_L, float(np.max(np.abs(pi @ L))))
            DB = pi[:, None] * K
            worst_K = max(worst_K, float(np.max(np.abs(DB - DB.T))))
    dt = time.time() - t0
    ok = worst_L < 1e-12 and worst_K < 1e-12 and dt < 5.0
    report(1, ok, f"pi^T L residual {worst_L:.1e}, detailed balance "
                  f"{worst_K:.1e} on T3/T4 in {dt:.2f}s")


# -- criterion 2 ------------------------------------------------------------

def test_criterion_2_condition_suite(models):
    pm1, two_lane = models
    resids = []
    irr = []
    for model in (pm1, two_lane):
        rep = validate_conditions(model, block_len=6)
        irr.append(rep.irreducibility.passed)
        resids.extend([rep.conservation.residual, rep.lr_symmetry.residual,
                       rep.asym_stationarity.residual,
                       rep.sym_reversibility.residual,
                       rep.gradient_flux.residual])
    # mutated-rate negative control
    mutant = build_model({
        "name": "pm1-mutant", "labels": ["-1", "0", "+1"],
        "eta": {"-1": 0, "0": 1, "+1": 0},
        "zeta": {"-1": "-1", "0": "0", "+1": "1"},
        "pi": {lab: "1/3" for lab in ("-1", "0", "+1")},
        "involution": {"-1": "+1", "0": "0", "+1": "-1"},
        "r": {"-1,+1->+1,-1": 2.0, "-1,0->0,-1": 1.0, "0,+1->+1,0": 5.0},
        "s": {f"{a},{b}->{b},{a}": 1.0 for a in ("-1", "0", "+1")
              for b in ("-1", "0", "+1") if a != b},
    })
    neg = validate_conditions(mutant, block_len=3)
    ok = (max(resids) < 1e-12 and all(irr)
          and not neg.asym_stationarity.passed
          and neg.asym_stationarity.residual > 0.1)
    report(2, ok, f"(A),(C)-(F) residuals <= {max(resids):.1e}, (B) connected "
                  f"at block 6, mutant fails (D) with residual "
                  f"{neg.asym_stationarity.residual:.2f}")


# -- criterion 3 ------------------------------------------------------------

def _interior_grid(dom, n=20, margin=0.05):
    rr = np.linspace(margin, dom.rho_max - margin, n)
    uu = np.linspace(-dom.u_max + margin, dom.u_max - margin, n)
    R, U = np.meshgrid(rr, uu)
    keep = dom.contains(R, U, margin=margin)
    return R[keep], U[keep]


def test_criterion_3_flux_closed_forms(fluxes):
    pm1_fp, tl_fp = fluxes
    R, U = _interior_grid(pm1_fp.domain)
    e_pm1 = max(float(np.max(np.abs(pm1_fp.Psi(R, U) - R * U))),
                float(np.max(np.abs(pm1_fp.Phi(R, U) - (R + U ** 2)))))
    R, U = _interior_grid(tl_fp.domain)
    e_tl = max(float(np.max(np.abs(tl_fp.Psi(R, U) - R * (1 - R) * U))),
               float(np.max(np.abs(tl_fp.Phi_raw(R, U)
                                   - (R - 0.3) * (1 - U ** 2)))))
    g_err = max(abs(pm1_fp.gamma - 1.0), abs(tl_fp.gamma - 0.3))
    ok = e_pm1 < 1e-10 and e_tl < 1e-10 and g_err < 1e-4
    report(3, ok, f"closed-form flux errors {max(e_pm1, e_tl):.1e} on 20x20 "
                  f"grids, gamma errors {g_err:.1e}")


# -- criterion 4 ------------------------------------------------------------

def test_criterion_4_onsager(models, fluxes):
    worst = 0.0
    for model, fp in zip(models, fluxes):
        R, U = _interior_grid(fp.domain, n=5)
        for r, u in zip(R.ravel(), U.ravel()):
            worst = max(worst, onsager_residual(model, r, u, fp))
    ok = worst < 1e-8
    report(4, ok, f"Onsager residual <= {worst:.1e} on interior grids")


# -- criterion 5 ------------------------------------------------------------

def test_criterion_5_pde_solver():
    flux = LimitFlux(2.0)
    rho0 = lambda x: 0.5 + 0.05 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.05 * np.cos(2 * np.pi * x)
    orders = {}
    for scheme, design in (("muscl", 2), ("central4", 4)):
        ref = solve(flux, rho0, u0, 0.1, m=1024, scheme=scheme).final[1]
        errs = [l1_distance(solve(flux, rho0, u0, 0.1, m=m,
                                  scheme=scheme).final[1], ref)
                for m in (128, 256)]
        orders[scheme] = (np.log2(errs[0] / errs[1]), design)
    run = solve(flux, lambda x: 0.4 + 0 * x, lambda x: 0.1 + 0 * x, 0.3, m=64)
    const_err = float(np.max(np.abs(run.final[1].values - 0.4)))
    run = solve(flux, rho0, u0, 0.15, m=256)
    mean_err = max(abs(run.final[1].mean() - 0.5), abs(run.final[2].mean()))
    # eigen residuals, closed form and FD paths
    worst_cf = 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        g, r, u = rng.uniform(0.5, 3), rng.uniform(0.01, 2), rng.uniform(-1, 1)
        ed = eigenstructure(LimitFlux(g), r, u)
        D = np.array([[u, r], [1, 2 * g * u]])
        worst_cf = max(worst_cf, float(np.max(np.abs(D @ ed.r - ed.lam * ed.r))),
                       float(np.max(np.abs(ed.m @ D - ed.mu * ed.m))))
    view = ModelFluxView(macroscopic_flux(build_model("pm1")))
    worst_fd = 0.0
    for r, u in ((0.4, 0.1), (0.3, -0.2)):
        ed = eigenstructure(view, r, u)
        D = np.array(view.bundle(r, u)[2:], dtype=float).reshape(2, 2)
        worst_fd = max(worst_fd, float(np.max(np.abs(D @ ed.r - ed.lam * ed.r))))
    ok = (all(abs(o - d) < 0.3 for o, d in orders.values())
          and const_err < 1e-12 and mean_err < 1e-10
          and worst_cf < 1e-10 and worst_fd < 1e-8)
    report(5, ok, "orders " + ", ".join(
        f"{s}: {o:.2f} (design {d})" for s, (o, d) in orders.items())
        + f"; const {const_err:.1e}, means {mean_err:.1e}, "
          f"eigen {worst_cf:.1e}/{worst_fd:.1e}")


# -- criterion 6 ------------------------------------------------------------

def test_criterion_6_riemann_invariants():
    fl = LimitFlux(2.0)
    worst = gap = 0.0
    for r in (0.01, 0.1, 0.5):
        us, rhos = characteristic_curve(fl, r, 0.5, u_min=0.0)
        _, z = riemann_invariants(2.0, rhos, us)
        z_ref = riemann_invariants(2.0, r, 0.0)[1]
        worst = max(worst, float(np.max(np.abs(z - z_ref))))
        # the RK4 curve against the closed-form level set, relative to r
        gap = max(gap, float(np.max(np.abs(rhos - limit_curve(2.0, r, us))))
                  / r)
    concave_ok = True
    for g in (1.5, 2.0):
        line = level_line(g, 0.8, np.linspace(-0.4, 0.4, 21))
        concave_ok &= bool(np.all(np.diff(line, 2) <= 1e-8))
    ok = worst <= 1e-6 and gap <= 1e-6 and concave_ok
    report(6, ok, f"invariant drift along characteristics <= {worst:.1e} "
                  f"(tolerance 1e-6); level lines concave for gamma > 1; "
                  f"RK4 curves within {gap:.1e} of the closed form")


# -- criterion 7 ------------------------------------------------------------

def test_criterion_7_entropy_construction(entropy_tables):
    default, refined = entropy_tables
    res_d = np.abs(default.pde_residual())[default.interior_mask()].max()
    res_r = np.abs(refined.pde_residual())[
        refined.interior_mask(margin_cells=8, singular_margin_cells=12)].max()
    ratio = res_r / res_d
    lin = default.rho[None, :] - (default.r_hi - default.r_lo) / 4.0
    exact_d1 = float(np.max(np.abs(default.S[default.labels == 1]), initial=0.0))
    exact_d2 = float(np.max(np.abs((default.S - lin)[default.labels == 2]),
                            initial=0.0))
    compat = default.flux_compat_error()
    ok = (res_d < 1e-4 and ratio <= 0.30 and exact_d1 == 0.0
          and exact_d2 == 0.0 and compat < 1e-3)
    report(7, ok, f"PDE residual {res_d:.2e} (<1e-4), refinement ratio "
                  f"{ratio:.2f} (<=0.30 is at least quartering), S exact on "
                  f"D1/D2, flux compatibility {compat:.1e}")


# -- criterion 8 ------------------------------------------------------------

def test_criterion_8_bound_verification(scaled_tables):
    tabs, refined = scaled_tables
    reports = {n: verify_bounds(t) for n, t in tabs.items()}
    rep_ref = verify_bounds(refined)
    finite = all(np.isfinite(f.constant)
                 for r in reports.values() for f in r.fits.values())
    supports = max(f.support_leak
                   for r in reports.values() for f in r.fits.values())
    # refinement stability at n = 1000
    stab = max(abs(rep_ref.fits[k].constant - reports[1000].fits[k].constant)
               / max(reports[1000].fits[k].constant, 1e-12)
               for k in rep_ref.fits)
    # uniform-in-n proxy: deviation from the median across n
    spread = 0.0
    for k in rep_ref.fits:
        vals = [reports[n].fits[k].constant for n in (100, 1000, 10000)]
        med = float(np.median(vals))
        spread = max(spread, max(abs(v - med) for v in vals) / max(med, 1e-12))
    ok = finite and supports <= 1e-8 and stab <= 0.20 and spread <= 0.50
    report(8, ok, f"7 bounds finite; supports <= {supports:.1e}; refinement "
                  f"change {stab:.1%} (<=20%); across-n spread {spread:.1%} "
                  f"(<=50%)")


# -- criterion 9 ------------------------------------------------------------

def test_criterion_9_goursat_machinery():
    rf = riemann_function(zero_coeffs(), 1.0, 0.2, m=65)
    phi1_exact = float(np.max(np.abs(rf.phi - 1.0))) == 0.0

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        x1 = rng.uniform(0.5, 1.5)
        x2 = x1 + rng.uniform(0.4, 1.2)
        y1 = rng.uniform(0.05, 0.2)
        y2 = min(y1 + rng.uniform(0.2, max(x1 - y1 - 0.01, 0.21)), x1)
        wg = np.linspace(x1, x2, 41)
        zg = np.linspace(y1, y2, 33)

        def rand_field(amp, mat):
            def f(W, Z):
                out = np.zeros_like(W)
                for i in range(2):
                    for j in range(2):
                        out += mat[i, j] * np.sin((i + 1) * W + j) \
                            * np.cos((j + 1) * Z - i)
                return amp * out / (np.max(np.abs(mat)) * 4.0)
            return f

        A = rand_field(0.9 / 6 / (y2 - y1), rng.normal(size=(2, 2)))
        B = rand_field(0.9 / 6 / (x2 - x1), rng.normal(size=(2, 2)))
        C = rand_field(0.9 / 6 / ((x2 - x1) * (y2 - y1)), rng.normal(size=(2, 2)))
        f = np.cos(3 * wg) * rng.uniform(0.3, 2.0)
        g = np.sin(2 * zg) * rng.uniform(0.3, 2.0)
        g = g - g[-1] + f[0]
        M = np.max(np.abs(f)) + np.max(np.abs(g))
        U, _ = goursat_solve_rectangle(A, B, C, f, g, wg, zg)
        worst = max(worst, float(np.max(np.abs(U))) / M)

    gam = 2.0
    env_ok = True
    env_consts = {}
    for kap in (1.0, 2 * gam - 1, 2.0, 2 * gam):
        cc = limit_flux_char_coeffs(gam, kap)
        rf = riemann_function(cc, 1.2, 0.3, m=81)
        W, Z = np.meshgrid(rf.grid, rf.grid, indexing="ij")
        tri = W >= Z
        env = (W / 1.2) ** ((kap - 1) / (2 * gam - 1))
        c = float(np.max(np.abs(rf.phi[tri]) / env[tri]))
        env_consts[kap] = c
        env_ok &= np.isfinite(c) and c < 10.0
    ok = phi1_exact and worst <= 5.0 and env_ok
    report(9, ok, f"phi==1 exact; sup|U|/M <= {worst:.2f} over 100 random "
                  f"fields (bound 5); envelope constants "
                  + ", ".join(f"k={k:g}: {c:.2f}" for k, c in env_consts.items()))


# -- criteria 10 and 11 -------------------------------------------------------

def test_criterion_10_eulerian_limit(eulerian_run):
    rep, wall = eulerian_run
    seq = rep.l1_sequence[0.2]
    decreasing = all(b < a for a, b in zip(seq, seq[1:]))
    final = seq[-1]
    ok = decreasing and final < 0.05 and wall <= 20 * 60
    report(10, ok, "L1(rho) over n=[256,512,1024,2048] at t=0.2: ["
                   + ", ".join(f"{v:.4f}" for v in seq)
                   + f"], final {final:.4f} (<0.05), wall {wall:.0f}s")


def test_criterion_11_weak_convergence(eulerian_run):
    rep, _ = eulerian_run
    ok_weak, bad = rep.weak_within(3.0)
    ok = ok_weak and rep.mass_invariant
    report(11, ok, f"pairings for g in {{1, sin, cos}} within replica bands "
                   f"(offenders: {bad if bad else 'none'}); g=1 exactly "
                   f"time-invariant: {rep.mass_invariant}")


# -- criterion 12 -------------------------------------------------------------

def test_criterion_12_tail_checks(models):
    pm1, _ = models
    plan = ScalingPlan(l=50)
    rep = tail_checks(pm1, plan, n=1000, rho0=0.5, u0=0.0,
                      samples=1_000_000, seed=11)
    allowed = max(1, int(np.ceil(0.05 * rep.bins)))
    ok = rep.passed()
    report(12, ok, f"L={rep.L:.0f}; out-of-sample violations "
                   f"{rep.violations_rho}(rho)/{rep.violations_u}(u) of "
                   f"{rep.bins} bins (allowed {allowed}); "
                   f"C_rho={rep.C_rho:.2f}, C_u={rep.C_u:.2f}")


# -- criterion 13 -------------------------------------------------------------

def test_criterion_13_microcanonical_moments(models):
    pm1, _ = models
    cs = [microcanonical_moment_check(pm1, l).C for l in (4, 5, 6, 7, 8)]
    med = float(np.median(cs))
    spread = max(abs(c - med) for c in cs) / med
    ok = spread <= 0.30 and all(np.isfinite(c) for c in cs)
    report(13, ok, "fitted C over l=4..8: ["
                   + ", ".join(f"{c:.3f}" for c in cs)
                   + f"], max deviation from median {spread:.1%} (<=30%)")
