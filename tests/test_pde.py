import numpy as np
import pytest

from latgas.fields import l1_distance
from latgas.pde import (BlowupBeforeT, ComplexEigenvalues, DegenerateGamma,
                        LimitFlux, ModelFluxView, ScaledFluxView,
                        convex_entropy, convex_entropy_pde_residual,
                        eigenstructure, genuine_nonlinearity, level_line,
                        riemann_invariant_gradients, riemann_invariants,
                        smooth_solution_oracle, solve, wave_speeds)


def _residual(flux, rho, u, ed):
    D = np.array(flux.bundle(rho, u)[2:], dtype=float).reshape(2, 2)
    return max(np.max(np.abs(D @ ed.r - ed.lam * ed.r)),
               np.max(np.abs(D @ ed.s - ed.mu * ed.s)),
               np.max(np.abs(ed.l @ D - ed.lam * ed.l)),
               np.max(np.abs(ed.m @ D - ed.mu * ed.m)))


def test_eigen_closed_form_points():
    e = eigenstructure(LimitFlux(1.0), 1.0, 0.0)
    assert abs(e.lam - 1.0) < 1e-14 and abs(e.mu + 1.0) < 1e-14
    e = eigenstructure(LimitFlux(1.0), 0.0, 0.3)
    assert abs(e.lam - 0.6) < 1e-14 and abs(e.mu - 0.3) < 1e-14


def test_eigen_residuals_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(40):
        g = rng.uniform(0.2, 3.0)
        r, u = rng.uniform(0.01, 2.0), rng.uniform(-1.0, 1.0)
        ed = eigenstructure(LimitFlux(g), r, u)
        assert ed.lam >= ed.mu
        assert _residual(LimitFlux(g), r, u, ed) < 1e-10


def test_eigen_residuals_model_flux(pm1_flux):
    view = ModelFluxView(pm1_flux)
    for r, u in [(0.4, 0.1), (0.25, -0.3), (0.6, 0.2)]:
        ed = eigenstructure(view, r, u)
        assert _residual(view, r, u, ed) < 1e-8


def test_complex_eigenvalues_rejected():
    class Bad:
        @staticmethod
        def bundle(r, u):
            return (np.asarray(0.0), np.asarray(0.0), np.asarray(0.0),
                    np.asarray(-1.0), np.asarray(1.0), np.asarray(0.0))

    with pytest.raises(ComplexEigenvalues):
        eigenstructure(Bad(), 0.5, 0.0)


def test_riemann_invariant_normalization():
    w, z = riemann_invariants(2.0, 0.0, 0.7)
    assert abs(w - 0.7) < 1e-12 and abs(z) < 1e-12
    w, z = riemann_invariants(2.0, 0.0, -0.7)
    assert abs(w) < 1e-12 and abs(z - 0.7) < 1e-12
    # on u = 0 both invariants agree and scale like sqrt(rho)
    w1, z1 = riemann_invariants(2.0, 0.09, 0.0)
    w4, z4 = riemann_invariants(2.0, 0.36, 0.0)
    assert abs(w1 - z1) < 1e-14
    assert abs(w4 / w1 - 2.0) < 1e-12


def test_riemann_invariant_eigen_relation():
    # (w_r, w_u) D = lam (w_r, w_u) and the mu-analogue for z
    rng = np.random.default_rng(5)
    for g in (0.9, 1.0, 2.0, 3.0):
        flux = LimitFlux(g)
        for _ in range(10):
            r, u = rng.uniform(0.05, 2.0), rng.uniform(-0.8, 0.8)
            wr, wu, zr, zu = riemann_invariant_gradients(g, r, u)
            lam, mu = wave_speeds(flux, r, u)
            D = np.array([[u, r], [1.0, 2 * g * u]])
            gw = np.array([wr, wu])
            gz = np.array([zr, zu])
            assert np.max(np.abs(gw @ D - lam * gw)) < 1e-8 * max(1, np.max(np.abs(gw)))
            assert np.max(np.abs(gz @ D - mu * gz)) < 1e-8 * max(1, np.max(np.abs(gz)))


def test_degenerate_gamma():
    with pytest.raises(DegenerateGamma):
        riemann_invariants(0.75, 0.5, 0.1)


def test_gamma_half_and_one_closed_forms():
    # continuity limits reduce to shallow-water / product forms
    r, u = 0.49, 0.22
    w, z = riemann_invariants(0.5, r, u)
    assert abs(w - (2 * np.sqrt(r) + u)) < 1e-12
    assert abs(z - (2 * np.sqrt(r) - u)) < 1e-12
    w, z = riemann_invariants(1.0, r, u)
    assert abs(w * z - r) < 1e-12 and abs((w - z) - u) < 1e-12


def test_level_line_concavity_gamma_gt_1():
    # level lines u -> rho(u, w) are concave for gamma > 1
    for g in (1.5, 2.0):
        us = np.linspace(-0.4, 0.4, 21)
        rho_line = level_line(g, 0.8, us)
        assert np.all(np.isfinite(rho_line))
        second = np.diff(rho_line, 2)
        assert np.all(second <= 1e-8)
    # and linear for gamma = 1
    us = np.linspace(-0.4, 0.4, 21)
    rho_line = level_line(1.0, 0.8, us)
    assert np.max(np.abs(np.diff(rho_line, 2))) < 1e-9


@pytest.mark.parametrize("g", [1.0, 1.25, 2.0])
def test_level_line_lies_on_its_level_set(g):
    """w(level_line(u), u) = w_value wherever the line crosses u (u <= w),
    NaN beyond; gamma <= 3/4 is refused."""
    us = np.linspace(-1.5, 1.5, 301)
    for w_value in (0.3, 0.8, 2.0):
        line = level_line(g, w_value, us)
        crosses = us <= w_value
        assert np.all(np.isnan(line[~crosses]))
        w = riemann_invariants(g, line[crosses], us[crosses])[0]
        assert np.max(np.abs(w - w_value)) < 1e-13 * w_value
    with pytest.raises(ValueError):
        level_line(0.7, 0.8, us)


def test_genuine_nonlinearity():
    gn_l, gn_m = genuine_nonlinearity(1.0, 1.0, 0.0)
    assert abs(gn_l) > 0.1 and abs(gn_m) > 0.1
    # gamma >= 0: no interior zeros on a dense grid
    rng = np.random.default_rng(2)
    for g in (0.8, 1.0, 2.0):
        for _ in range(25):
            r, u = rng.uniform(0.02, 2.0), rng.uniform(-1.0, 1.0)
            gn_l, gn_m = genuine_nonlinearity(g, r, u)
            assert abs(gn_l) > 1e-4 and abs(gn_m) > 1e-4
    # gamma < 0: sign change of the mu-field across the degeneracy parabola
    # rho = -g (2g-1)^2 (g+1)^{-2} u^2 (derived from the closed-form
    # eigenstructure; see the decisions ledger for the locus coefficient)
    g = -0.5
    u = 0.5
    rho_star = -g * (2 * g - 1) ** 2 / (g + 1) ** 2 * u ** 2
    lo = genuine_nonlinearity(g, rho_star * 0.8, u)[1]
    hi = genuine_nonlinearity(g, rho_star * 1.2, u)[1]
    assert lo * hi < 0
    # the lambda-family zero sits at the mirror point (u <= 0)
    lo_l = genuine_nonlinearity(g, rho_star * 0.8, -u)[0]
    hi_l = genuine_nonlinearity(g, rho_star * 1.2, -u)[0]
    assert lo_l * hi_l < 0


def test_convex_entropy():
    assert abs(float(convex_entropy(1.0, 0.0))) < 1e-15


def test_convex_entropy_residual_vanishes_for_limit_fluxes():
    R, U = np.meshgrid(np.linspace(0.05, 3.0, 7), np.linspace(-1.0, 1.0, 7))
    for g in (0.3, 0.5, 1.0, 2.0, 3.5):
        res = convex_entropy_pde_residual(LimitFlux(g), R, U)
        assert res.shape == R.shape
        assert np.max(np.abs(res)) < 1e-12


def test_convex_entropy_residual_detects_mismatch(two_lane_flux):
    # two-lane fluxes: Psi_u = rho (1 - rho), Phi_rho = 1 - u^2, so the
    # convex entropy leaves the residual u^2 - rho
    view = ModelFluxView(two_lane_flux)
    R, U = np.meshgrid(np.linspace(0.1, 0.6, 4), np.linspace(-0.5, 0.5, 5))
    res = convex_entropy_pde_residual(view, R, U)
    assert np.max(np.abs(res - (U ** 2 - R))) < 1e-8
    assert np.min(np.abs(res)) > 1e-3
    # a wrong Hessian fails for the limit flux too
    wrong = lambda r, u: (1.0 / r, np.zeros_like(r), np.full_like(r, 2.0))
    res = convex_entropy_pde_residual(LimitFlux(2.0), R, U, hessian=wrong)
    assert np.max(np.abs(res + 1.0)) < 1e-12


def test_constant_data_preserved():
    run = solve(LimitFlux(2.0), lambda x: 0.4 + 0 * x, lambda x: -0.1 + 0 * x,
                0.5, m=64)
    _, fr, fu = run.final
    assert np.max(np.abs(fr.values - 0.4)) < 1e-12
    assert np.max(np.abs(fu.values + 0.1)) < 1e-12


def test_conservation_of_means():
    rho0 = lambda x: 0.5 + 0.1 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.1 * np.cos(2 * np.pi * x)
    for scheme in ("muscl", "central4"):
        run = solve(LimitFlux(1.5), rho0, u0, 0.15, m=128, scheme=scheme)
        _, fr, fu = run.final
        assert abs(fr.mean() - 0.5) < 1e-10
        assert abs(fu.mean() - 0.0) < 1e-10


@pytest.mark.parametrize("scheme,order", [("muscl", 2), ("central4", 4)])
def test_convergence_order(scheme, order):
    flux = LimitFlux(2.0)
    rho0 = lambda x: 0.5 + 0.05 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.05 * np.cos(2 * np.pi * x)
    t = 0.1
    ms = (64, 128, 256)
    ref = solve(flux, rho0, u0, t, m=1024, scheme=scheme).final[1]
    errs = []
    for m in ms:
        fr = solve(flux, rho0, u0, t, m=m, scheme=scheme).final[1]
        errs.append(l1_distance(fr, ref))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(ms) - 1)]
    assert abs(rates[-1] - order) < 0.3, (scheme, rates)


def test_linearized_speeds_match_eigenvalues():
    # tiny perturbations around (rho0, 0) split into waves at +-sqrt(rho0)
    rho0_val, eps = 0.64, 1e-3
    flux = LimitFlux(2.3)
    lam, mu = wave_speeds(flux, rho0_val, 0.0)
    assert abs(lam - 0.8) < 1e-12 and abs(mu + 0.8) < 1e-12
    bump = lambda x: np.exp(-0.5 * ((np.mod(x, 1.0) - 0.5) / 0.06) ** 2)
    rho0 = lambda x: rho0_val + eps * bump(x)
    u0 = lambda x: 0.0 * x
    t = 0.25
    run = solve(flux, rho0, u0, t, m=1024, scheme="central4")
    _, fr, _ = run.final
    dev = fr.values - rho0_val
    x = fr.x()
    # two symmetric pulses centered at 0.5 +- sqrt(rho0) t
    com_right = np.sum(np.abs(dev[x > 0.5]) * x[x > 0.5]) / np.sum(np.abs(dev[x > 0.5]))
    assert abs(com_right - (0.5 + 0.8 * t)) < 0.02


def test_maximum_principle_gamma_gt_1():
    # solutions stay inside the characteristic rectangle of the initial data
    g = 2.0
    rho0 = lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.15 * np.cos(4 * np.pi * x)
    run = solve(LimitFlux(g), rho0, u0, 0.25, m=512,
                snapshot_times=(0.1, 0.25))
    x = np.linspace(0, 1, 2048, endpoint=False)
    w0, z0 = riemann_invariants(g, rho0(x), u0(x))
    w_hi, z_hi = np.max(w0), np.max(z0)
    for t, fr, fu in run.snapshots:
        w, z = riemann_invariants(g, np.maximum(fr.values, 0), fu.values)
        assert np.max(w) <= w_hi * (1 + 1e-3) + 1e-6
        assert np.max(z) <= z_hi * (1 + 1e-3) + 1e-6


def test_scale_covariance():
    # rho~(t,x) = A^{2b} rho(A^{1+b} t, A x) with b = 1/2 solves the same system
    A, b = 2.0, 0.5
    flux = LimitFlux(2.0)
    rho0 = lambda x: 0.4 + 0.05 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.05 * np.cos(2 * np.pi * x)
    t_base = 0.08
    fine = solve(flux, rho0, u0, A ** (1 + b) * t_base, m=1024,
                 snapshot_times=(A ** (1 + b) * t_base,))
    _, fr, fu = fine.final
    # scaled initial data on the same torus: x -> A x wraps periodically
    rho0s = lambda x: A ** (2 * b) * rho0(np.mod(A * x, 1.0))
    u0s = lambda x: A ** b * u0(np.mod(A * x, 1.0))
    scaled = solve(flux, rho0s, u0s, t_base, m=1024)
    _, gr, gu = scaled.final
    x = gr.x()
    ref_r = A ** (2 * b) * fr(np.mod(A * x, 1.0))
    ref_u = A ** b * fu(np.mod(A * x, 1.0))
    assert np.max(np.abs(gr.values - ref_r)) < 5e-3
    assert np.max(np.abs(gu.values - ref_u)) < 5e-3


def test_scaled_flux_limits(two_lane_flux):
    # Psi^n -> rho u and Phi^n -> rho + gamma u^2 uniformly on compacts
    view = ModelFluxView(two_lane_flux)
    g = two_lane_flux.gamma
    R, U = np.meshgrid(np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 9))
    errs = []
    for n in (1e2, 1e4, 1e6):
        sv = ScaledFluxView(view, n, 0.5)
        e1 = np.max(np.abs(sv.Psi(R, U) - R * U))
        e2 = np.max(np.abs(sv.Phi(R, U) - (R + g * U ** 2)))
        errs.append(max(e1, e2))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-5


def test_scaled_view_rejects_bare_flux_pair(two_lane_flux):
    from latgas.entropy import build_entropy

    with pytest.raises(TypeError, match="wrap the FluxPair in ModelFluxView"):
        build_entropy(two_lane_flux, 1.0, np.exp(4.0), n=1000)


def test_blowup_detection_and_partial_result():
    # steep data on a genuinely nonlinear system must blow up before t = 2
    flux = LimitFlux(2.0)
    rho0 = lambda x: 0.5 + 0.45 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.8 * np.cos(2 * np.pi * x)
    with pytest.raises(BlowupBeforeT) as exc:
        solve(flux, rho0, u0, 5.0, m=256, blowup_factor=10.0)
    run = exc.value.run
    assert run.blowup_time is not None and run.blowup_time < 5.0
    assert len(run.snapshots) >= 1


def test_oracle_self_consistency():
    flux = LimitFlux(1.0)
    rho0 = lambda x: 0.5 + 0.08 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.05 * np.cos(2 * np.pi * x)
    t = 0.1
    a = smooth_solution_oracle(flux, rho0, u0, t, m_out=128, m_fine=512)
    b = smooth_solution_oracle(flux, rho0, u0, t, m_out=128, m_fine=1024)
    assert l1_distance(a[0], b[0]) < 5e-6
    # t = 0 returns the initial data
    z = smooth_solution_oracle(flux, rho0, u0, 0.0, m_out=64, m_fine=256)
    x = np.arange(64) / 64
    assert np.max(np.abs(z[0].values - rho0(x))) < 1e-12


def test_mirror_symmetry_of_solutions():
    # x -> -x with u -> -u maps solutions to solutions
    flux = LimitFlux(1.8)
    rho0 = lambda x: 0.5 + 0.1 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.1 * np.cos(2 * np.pi * x)
    t = 0.1
    run = solve(flux, rho0, u0, t, m=256)
    _, fr, fu = run.final
    rho0m = lambda x: rho0(np.mod(-x, 1.0))
    u0m = lambda x: -u0(np.mod(-x, 1.0))
    runm = solve(flux, rho0m, u0m, t, m=256)
    _, gr, gu = runm.final
    x = fr.x()
    assert np.max(np.abs(gr.values - fr(np.mod(-x, 1.0)))) < 1e-10
    assert np.max(np.abs(gu.values + fu(np.mod(-x, 1.0)))) < 1e-10


def test_pm1_flux_equals_limit_flux_gamma1(pm1_flux):
    # the three-state model's Euler fluxes coincide with the gamma=1 limit
    view = ModelFluxView(pm1_flux)
    lim = LimitFlux(1.0)
    R, U = np.meshgrid(np.linspace(0.05, 0.7, 6), np.linspace(-0.25, 0.25, 6))
    assert np.max(np.abs(view.Psi(R, U) - lim.Psi(R, U))) < 1e-10
    assert np.max(np.abs(view.Phi(R, U) - lim.Phi(R, U))) < 1e-10


def test_model_flux_step_makes_three_tilt_solves(pm1_flux, monkeypatch):
    import latgas.fluxes

    calls = []
    inner = latgas.fluxes.invert_parameters_grid

    def counting(model, rho, u, *args, **kwargs):
        calls.append(np.size(rho))
        return inner(model, rho, u, *args, **kwargs)

    monkeypatch.setattr(latgas.fluxes, "invert_parameters_grid", counting)
    m = 32
    run = solve(ModelFluxView(pm1_flux),
                lambda x: 0.5 + 0.05 * np.sin(2 * np.pi * x),
                lambda x: 0.05 * np.cos(2 * np.pi * x), 0.02, m=m)
    assert run.steps > 0
    assert len(calls) <= 3 * run.steps
    # dt speeds on the cells, then the stacked faces and interface states
    assert sum(calls) <= 5 * m * run.steps


def test_pm1_model_flux_solve_equals_limit_flux(pm1_flux):
    rho0 = lambda x: 0.5 + 0.08 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.05 * np.cos(2 * np.pi * x)
    for scheme in ("muscl", "central4"):
        a = solve(ModelFluxView(pm1_flux), rho0, u0, 0.05, m=64,
                  scheme=scheme, snapshot_times=(0.025,))
        b = solve(LimitFlux(1.0), rho0, u0, 0.05, m=64, scheme=scheme,
                  snapshot_times=(0.025,))
        assert a.steps == b.steps
        for (ta, ra, ua), (tb, rb, ub) in zip(a.snapshots, b.snapshots):
            assert ta == tb
            assert np.max(np.abs(ra.values - rb.values)) < 1e-10
            assert np.max(np.abs(ua.values - ub.values)) < 1e-10
