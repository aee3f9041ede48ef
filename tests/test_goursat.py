import numpy as np
import pytest

from latgas.entropy import build_entropy, cutoff_profile
from latgas.goursat import (CharCoeffs, NoContraction,
                            coefficient_integral_bounds,
                            goursat_solve_rectangle,
                            invert_riemann_coordinates,
                            limit_flux_char_coeffs, riemann_function,
                            solve_cauchy, zero_coeffs)
from latgas.pde import LimitFlux, riemann_invariants


def test_riemann_function_trivial():
    rf = riemann_function(zero_coeffs(), 1.0, 0.2, m=65)
    assert np.max(np.abs(rf.phi - 1.0)) == 0.0
    assert rf.certified


def test_cauchy_trivial_cases():
    z = zero_coeffs()
    f = solve_cauchy(z, lambda v: 3.0 + 0 * np.asarray(v),
                     lambda v: 0 * np.asarray(v), 1.0, 0.2)
    assert abs(f - 3.0) < 1e-12
    f = solve_cauchy(z, lambda v: 0 * np.asarray(v),
                     lambda v: 1.0 + 0 * np.asarray(v), 1.0, 0.2)
    assert abs(f - 0.4) < 1e-12


def test_inverse_coordinates_roundtrip():
    rng = np.random.default_rng(0)
    for g in (1.3, 2.0, 2.7):
        w = rng.uniform(0.2, 2.5, 100)
        z = w * rng.uniform(0.02, 0.999, 100)
        rho, u = invert_riemann_coordinates(g, w, z)
        w2, z2 = riemann_invariants(g, rho, u)
        assert np.max(np.abs(w2 - w)) < 1e-10
        assert np.max(np.abs(z2 - z)) < 1e-10


def test_diagonal_coefficient_identity():
    # left-right symmetry forces beta(v,v) = alpha(v,v)
    v = np.linspace(0.2, 1.8, 25)
    for g in (1.5, 2.0):
        for kap in (1.0, 2 * g - 1, 2.0, 2 * g):
            cc = limit_flux_char_coeffs(g, kap)
            assert np.max(np.abs(cc.diagonal_gap(v))) < 1e-10


def test_beta0_asymptotics():
    # beta(w, z -> 0) ~ (kappa-1)/(2 gamma - 1) / w
    g = 2.0
    for kap in (1.0, 3.0, 2.0, 4.0):
        cc = limit_flux_char_coeffs(g, kap)
        for w in (0.4, 0.9):
            b = float(cc.sample(w, 1e-5)[1])
            ref = (kap - 1) / (2 * g - 1) / w
            assert abs(b - ref) < 2e-3 * max(1.0, abs(ref))


def test_riemann_function_envelope_gamma2():
    # |phi(s,t)| <= c (s/w0)^{(kappa-1)/(2 gamma-1)} with stable constants
    g = 2.0
    for kap in (1.0, 2 * g - 1, 2.0, 2 * g):
        cc = limit_flux_char_coeffs(g, kap)
        cs = []
        for (w0, z0) in [(1.0, 0.25), (1.5, 0.5)]:
            rf = riemann_function(cc, w0, z0, m=81)
            W, Z = np.meshgrid(rf.grid, rf.grid, indexing="ij")
            tri = W >= Z
            env = (W / w0) ** ((kap - 1) / (2 * g - 1))
            cs.append(float(np.max(np.abs(rf.phi[tri]) / env[tri])))
        assert all(np.isfinite(c) and c < 10.0 for c in cs)
        assert abs(cs[0] - cs[1]) / max(cs) < 0.35


def test_goursat_zero_coefficients_exact():
    zf = lambda W, Z: np.zeros_like(W)
    wg = np.linspace(1.0, 2.0, 41)
    zg = np.linspace(0.2, 0.8, 31)
    f = np.sin(wg)
    gdat = np.cos(zg) - np.cos(zg[-1]) + np.sin(wg[0])
    U, it = goursat_solve_rectangle(zf, zf, zf, f, gdat, wg, zg)
    exact = f[:, None] + gdat[None, :] - f[0]
    assert np.max(np.abs(U - exact)) < 1e-14


def test_goursat_five_m_bound_random_fields():
    """sup|U| <= 5M for 100 random coefficient fields meeting the 1/6 bounds."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x1 = rng.uniform(0.5, 1.5)
        x2 = x1 + rng.uniform(0.4, 1.2)
        y1 = rng.uniform(0.05, 0.2)
        y2 = y1 + rng.uniform(0.2, max(x1 - y1 - 0.01, 0.21))
        y2 = min(y2, x1)
        wg = np.linspace(x1, x2, 41)
        zg = np.linspace(y1, y2, 33)

        def rand_field(amp, seed_mat):
            def f(W, Z):
                out = np.zeros_like(W)
                for i in range(2):
                    for j in range(2):
                        out += seed_mat[i, j] * np.sin((i + 1) * W + j) \
                            * np.cos((j + 1) * Z - i)
                return amp * out / (np.max(np.abs(seed_mat)) * 4.0)
            return f

        A = rand_field(0.9 / 6.0 / (y2 - y1), rng.normal(size=(2, 2)))
        B = rand_field(0.9 / 6.0 / (x2 - x1), rng.normal(size=(2, 2)))
        C = rand_field(0.9 / 6.0 / ((x2 - x1) * (y2 - y1)), rng.normal(size=(2, 2)))
        f = np.cos(3 * wg) * rng.uniform(0.3, 2.0)
        gdat = np.sin(2 * zg) * rng.uniform(0.3, 2.0)
        gdat = gdat - gdat[-1] + f[0]
        M = np.max(np.abs(f)) + np.max(np.abs(gdat))
        U, _ = goursat_solve_rectangle(A, B, C, f, gdat, wg, zg)
        worst = max(worst, np.max(np.abs(U)) / M)
    assert worst <= 5.0


def test_no_contraction_on_singular_coefficients():
    def singular(w, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (np.asarray(w) - np.asarray(w))

    zero = lambda w, z: np.zeros(np.broadcast(w, z).shape)
    bad = CharCoeffs(lambda w, z: (singular(w, z), zero(w, z), zero(w, z)))
    with pytest.raises(NoContraction):
        riemann_function(bad, 1.0, 0.2, m=33)


def test_certificate_with_splitting():
    # large but integrable coefficients: certified via rectangle splitting
    zero = lambda w, z: np.zeros(np.broadcast(w, z).shape)
    big = CharCoeffs(lambda w, z: (4.0 + 0 * np.asarray(w) * np.asarray(z),
                                   zero(w, z), zero(w, z)))
    rf = riemann_function(big, 1.0, 0.2, m=65)
    assert rf.certified and rf.split_count > 1
    ia, ib, inu = coefficient_integral_bounds(big, 1.0, 0.2)
    assert ia > 1.0 / 6.0


@pytest.mark.parametrize("gamma", [1.25, 2.0])
def test_cauchy_exact_log_density(gamma):
    """log rho + 1 solves the kappa = 1 equation (it is S_rho of the convex
    entropy); from its diagonal data the Riemann-function route converges to
    it at second order in m."""
    cc = limit_flux_char_coeffs(gamma, 1.0)

    def s_tilde(v):
        rho_d, _ = invert_riemann_coordinates(gamma, np.asarray(v), np.asarray(v))
        return np.log(rho_d) + 1.0

    t_tilde = lambda v: 0.0 * np.asarray(v)
    w0, z0 = 2.0, 1.2
    rho_p, _ = invert_riemann_coordinates(gamma, w0, z0)
    errs = [abs(solve_cauchy(cc, s_tilde, t_tilde, w0, z0, m=m) - np.log(rho_p) - 1.0)
            for m in (81, 161, 321)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)
    assert errs[-1] < 1e-5


def test_cauchy_matches_marched_cutoff_derivative():
    """The Riemann-function route reproduces the marched S_rho field."""
    from scipy.interpolate import RegularGridInterpolator

    gamma, r_lo = 2.0, 1.0
    r_hi = r_lo * np.exp(4.0)
    tab = build_entropy(LimitFlux(gamma), r_lo, r_hi, u_max=1.6,
                        n_rho=1500, n_u=150)
    itp = RegularGridInterpolator((tab.u, tab.rho), tab.S_rho)
    cc = limit_flux_char_coeffs(gamma, 1.0)

    def s_tilde(v):
        rho_d, _ = invert_riemann_coordinates(gamma, np.asarray(v), np.asarray(v))
        return cutoff_profile(r_lo, r_hi, rho_d)[1]

    t_tilde = lambda v: 0.0 * np.asarray(v)
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(12):
        w0 = rng.uniform(1.0, 4.5)
        z0 = rng.uniform(0.3, 0.9) * w0
        rho_p, u_p = invert_riemann_coordinates(gamma, w0, z0)
        if rho_p > tab.rho[-1] - 1 or abs(u_p) > tab.u[-1] - 0.1:
            continue
        val = solve_cauchy(cc, s_tilde, t_tilde, w0, z0, m=161)
        ref = float(itp((u_p, rho_p)))
        assert abs(val - ref) < 1e-3
        assert -0.05 < val < 1.05      # cutoff range with numerical slack
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("c", [-0.5, 0.5, 1.5, 2.5, 3.0])
def test_riemann_function_closed_form_order(c):
    """At gamma = 1 the limit coefficients are alpha = beta = c / (w + z),
    c = kappa - 1, whose Riemann function is known in closed form:

        ((w+z)/(w0+z0))^c 2F1(c, 1-c; 1; -(w-w0)(z-z0)/((w+z)(w0+z0))).

    The Picard solution approaches it at second order in m."""
    from scipy.special import hyp2f1

    w0, z0 = 1.0, 0.2
    cc = limit_flux_char_coeffs(1.0, c + 1.0)
    errs = []
    for m in (65, 129, 257):
        rf = riemann_function(cc, w0, z0, m=m)
        W, Z = np.meshgrid(rf.grid, rf.grid, indexing="ij")
        assert np.max(np.abs(cc.sample(W, Z)[0] - c / (W + Z))) < 1e-13
        exact = ((W + Z) / (w0 + z0)) ** c * hyp2f1(
            c, 1.0 - c, 1.0, -(W - w0) * (Z - z0) / ((W + Z) * (w0 + z0)))
        errs.append(np.max(np.abs(rf.phi - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)
    assert errs[-1] < 2e-5


@pytest.mark.parametrize("k", [0.5, 2.0, -1.0])
def test_riemann_function_nu_closed_form_order(k):
    """With alpha = beta = 0 and constant nu = k the Riemann function is
    I0(2 sqrt(k s)) for k > 0 and J0(2 sqrt(|k| s)) for k < 0, with
    s = (w0 - w)(z - z0); only the double integral of nu phi is exercised.
    The Picard solution approaches it at second order in m."""
    from scipy.special import i0, j0

    w0, z0 = 1.0, 0.2
    zero = lambda w, z: np.zeros(np.broadcast(w, z).shape)
    cc = CharCoeffs(lambda w, z: (zero(w, z), zero(w, z), k + zero(w, z)))
    errs = []
    for m in (33, 65, 129):
        rf = riemann_function(cc, w0, z0, m=m)
        W, Z = np.meshgrid(rf.grid, rf.grid, indexing="ij")
        x = 2.0 * np.sqrt(abs(k) * (w0 - W) * (Z - z0))
        exact = i0(x) if k > 0 else j0(x)
        errs.append(np.max(np.abs(rf.phi - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)
    assert errs[-1] < 1e-5
