"""Correctness checks on study outputs.

Each check returns ``(ok, detail)``.  They test properties the method must
have (exact invariants, closed forms, bounds that hold on every seed) or
compare against a computation made apart from the program's own path; none
compares against stored copies of earlier output.
"""

from __future__ import annotations

import numpy as np


def pairing_invariant(weak, n_list, times):
    """The g = 1 pairing n^{2b-1} sum eta_j is exactly time invariant.

    Per replica it is a fixed multiple of the integer particle count, so the
    replica mean and spread at every checkpoint equal those at t = 0 bit for
    bit; any conservation breach in any replica moves them.
    """
    worst = 0.0
    for n in n_list:
        ref = weak[(n, 0.0, "rho_one")][:2]
        for t in times:
            got = weak[(n, t, "rho_one")][:2]
            worst = max(worst, abs(got[0] - ref[0]), abs(got[1] - ref[1]))
    return worst == 0.0, f"largest drift of the g=1 pairing {worst:.3g}"


def conserved(model, spins_before, spins_after):
    """Particle count and slope total are equal in two configurations."""
    eta = np.asarray(model.eta)
    zeta2 = np.asarray(model.zeta_half_units)
    a = (int(eta[spins_before].sum()), int(zeta2[spins_before].sum()))
    b = (int(eta[spins_after].sum()), int(zeta2[spins_after].sum()))
    return a == b, f"totals (N, 2Z/v0) {a} -> {b}"


def fields_match(got, ref, tol):
    """Largest pointwise difference of (rho, u) snapshots keyed by time."""
    worst = 0.0
    for t, (rr, ur) in ref.items():
        rg, ug = got[t]
        worst = max(worst, float(np.max(np.abs(rg.values - rr.values))),
                    float(np.max(np.abs(ug.values - ur.values))))
    return worst <= tol, f"largest difference {worst:.3g} (<= {tol:g})"


def at_most(name, value, bound):
    ok = bool(np.isfinite(value)) and value <= bound
    return ok, f"{name} {value:.4g} (<= {bound:g})"


def poisson_count(seen, mean, sigmas=5.0):
    """An event count within ``sigmas`` standard deviations of its Poisson
    mean."""
    z = (seen - mean) / mean ** 0.5
    return abs(z) <= sigmas, (f"{seen:.0f} events, mean {mean:.1f}, "
                              f"{z:+.2f} sigma (<= {sigmas:g})")


def entropy_exact_off_wedge(table):
    """S is exactly 0 on D1 and exactly rho - (r_hi - r_lo)/log(r_hi/r_lo)
    on D2; the D2 line is recomputed here from the table's own knots."""
    lin = table.rho[None, :] - (table.r_hi - table.r_lo) / np.log(
        table.r_hi / table.r_lo)
    d1 = table.labels == 1
    d2 = table.labels == 2
    e1 = float(np.max(np.abs(table.S[d1]), initial=0.0))
    e2 = float(np.max(np.abs((table.S - lin)[d2]), initial=0.0))
    ok = d1.any() and d2.any() and e1 == 0.0 and e2 == 0.0
    return ok, (f"D1 max|S| {e1:.3g}, D2 max|S - linear| {e2:.3g} over "
                f"{int(d1.sum())}/{int(d2.sum())} cells")


def bounds_finite(report, leak_tol=1e-8):
    consts = [f.constant for f in report.fits.values()]
    leak = max(f.support_leak for f in report.fits.values())
    ok = len(consts) == 7 and all(np.isfinite(c) for c in consts) \
        and leak <= leak_tol
    return ok, f"{len(consts)} constants finite, support leak {leak:.3g}"


def condition_residuals(reports, tol=1e-12):
    """Conditions (A), (C)-(F) hold to rounding and (B) at the block size."""
    worst = 0.0
    connected = True
    for rep in reports:
        connected &= bool(rep.irreducibility.passed)
        worst = max(worst, rep.conservation.residual, rep.lr_symmetry.residual,
                    rep.asym_stationarity.residual,
                    rep.sym_reversibility.residual,
                    rep.gradient_flux.residual)
    return connected and worst <= tol, (f"largest residual {worst:.3g}, "
                                        f"level sets connected {connected}")


def mutant_fails_d(report):
    res = report.asym_stationarity.residual
    ok = (not report.asym_stationarity.passed) and res > 0.1
    return ok, f"(D) residual of the mutated rates {res:.3g} (> 0.1)"


def closed_form_fluxes(psi1, phi1, psi2, phi_raw2, R1, U1, R2, U2, gamma,
                       tol=1e-10):
    """Flux values against the closed forms: pm1 has Psi = rho u and
    Phi = rho + u^2; the two-lane model has Psi = rho(1-rho)u and
    Phi_raw = (rho - gamma)(1 - u^2)."""
    e = max(float(np.max(np.abs(psi1 - R1 * U1))),
            float(np.max(np.abs(phi1 - (R1 + U1 ** 2)))),
            float(np.max(np.abs(psi2 - R2 * (1 - R2) * U2))),
            float(np.max(np.abs(phi_raw2 - (R2 - gamma) * (1 - U2 ** 2)))))
    return e <= tol, f"closed-form flux error {e:.3g} (<= {tol:g})"
