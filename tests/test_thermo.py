import dataclasses

import numpy as np
import pytest

from latgas import thermo
from latgas.thermo import (DomainPolygon, OutOfDomain, entropy_gradient,
                           entropy_hessian, gibbs_measure, invert_parameters,
                           invert_parameters_grid, log_mgf, moments,
                           thermo_entropy)


def test_gibbs_at_origin_is_reference(pm1):
    p = gibbs_measure(pm1, 0.0, 0.0)
    assert np.allclose(p, pm1.pi, atol=1e-15)
    assert abs(log_mgf(pm1, 0.0, 0.0)) < 1e-15


def test_pm1_marginals_example(pm1):
    # (rho, u) = (0.6, 0.2) has marginals (pi(0), pi(+1), pi(-1)) = (.6,.3,.1)
    cp = invert_parameters(pm1, 0.6, 0.2)
    p = gibbs_measure(pm1, cp.tau, cp.theta)
    assert abs(p[1] - 0.6) < 1e-12
    assert abs(p[2] - 0.3) < 1e-12
    assert abs(p[0] - 0.1) < 1e-12


def test_gradient_matches_moments(pm1, two_lane):
    # grad G from finite differences of G equals the direct moment sums
    h = 1e-6
    for model in (pm1, two_lane):
        for tau, theta in [(0.0, 0.0), (0.5, -0.3), (-1.0, 0.8)]:
            m, _ = moments(model, tau, theta)
            g_tau = (log_mgf(model, tau + h, theta)
                     - log_mgf(model, tau - h, theta)) / (2 * h)
            g_theta = (log_mgf(model, tau, theta + h)
                       - log_mgf(model, tau, theta - h)) / (2 * h)
            assert abs(m[0] - g_tau) < 1e-9
            assert abs(m[1] - g_theta) < 1e-9


def test_inversion_roundtrip(pm1, two_lane):
    rng = np.random.default_rng(1)
    for model in (pm1, two_lane):
        dom = DomainPolygon.from_model(model)
        pts = []
        while len(pts) < 25:
            r = rng.uniform(0.05, dom.rho_max - 0.05)
            u = rng.uniform(-dom.u_max + 0.05, dom.u_max - 0.05)
            if dom.contains(r, u, margin=0.05):
                pts.append((r, u))
        for r, u in pts:
            cp = invert_parameters(model, r, u)
            m, _ = moments(model, cp.tau, cp.theta)
            assert abs(m[0] - r) < 1e-10 and abs(m[1] - u) < 1e-10


def test_out_of_domain_boundary(pm1):
    with pytest.raises(OutOfDomain):
        invert_parameters(pm1, 1.0, 0.0)     # rho + |u| = 1 is the boundary
    with pytest.raises(OutOfDomain):
        invert_parameters(pm1, 0.7, 0.4)


def test_hessian_is_covariance(pm1):
    cp = invert_parameters(pm1, 0.5, 0.1)
    _, cov = moments(pm1, cp.tau, cp.theta)
    h = 1e-5
    num = np.empty((2, 2))
    num[0, 0] = (log_mgf(pm1, cp.tau + h, cp.theta)
                 - 2 * cp.G + log_mgf(pm1, cp.tau - h, cp.theta)) / h ** 2
    num[1, 1] = (log_mgf(pm1, cp.tau, cp.theta + h)
                 - 2 * cp.G + log_mgf(pm1, cp.tau, cp.theta - h)) / h ** 2
    num[0, 1] = num[1, 0] = (log_mgf(pm1, cp.tau + h, cp.theta + h)
                             - log_mgf(pm1, cp.tau + h, cp.theta - h)
                             - log_mgf(pm1, cp.tau - h, cp.theta + h)
                             + log_mgf(pm1, cp.tau - h, cp.theta - h)) / (4 * h ** 2)
    assert np.max(np.abs(num - cov)) < 1e-6
    # S'' G'' = I at the matching points
    S2 = entropy_hessian(pm1, 0.5, 0.1)
    assert np.max(np.abs(S2 @ cov - np.eye(2))) < 1e-8


def test_entropy_minimum_and_convexity(pm1):
    # the entropy vanishes (and is minimal) at the reference densities
    m0, _ = moments(pm1, 0.0, 0.0)
    s0 = thermo_entropy(pm1, m0[0], m0[1])
    assert abs(s0) < 1e-12
    rng = np.random.default_rng(7)
    dom = DomainPolygon.from_model(pm1)
    for _ in range(10):
        r = rng.uniform(0.1, 0.8)
        u = rng.uniform(-0.4, 0.4)
        if not dom.contains(r, u, margin=0.05):
            continue
        assert thermo_entropy(pm1, r, u) >= -1e-13
        hess = entropy_hessian(pm1, r, u)
        eig = np.linalg.eigvalsh(hess)
        assert np.all(eig > 0)


def test_entropy_gradient_is_potentials(pm1):
    cp_r, cp_u = 0.55, 0.15
    g = entropy_gradient(pm1, cp_r, cp_u)
    h = 1e-6
    fd_tau = (thermo_entropy(pm1, cp_r + h, cp_u)
              - thermo_entropy(pm1, cp_r - h, cp_u)) / (2 * h)
    fd_theta = (thermo_entropy(pm1, cp_r, cp_u + h)
                - thermo_entropy(pm1, cp_r, cp_u - h)) / (2 * h)
    assert abs(g[0] - fd_tau) < 1e-8
    assert abs(g[1] - fd_theta) < 1e-8


def test_vectorized_inversion_matches_scalar(two_lane):
    rho = np.array([0.2, 0.5, 0.8])
    u = np.array([-0.3, 0.0, 0.4])
    tau, theta, G = invert_parameters_grid(two_lane, rho, u)
    for i in range(3):
        cp = invert_parameters(two_lane, rho[i], u[i])
        assert abs(tau[i] - cp.tau) < 1e-9
        assert abs(theta[i] - cp.theta) < 1e-9


@pytest.fixture(scope="module")
def two_lane_125():
    from latgas import build_model

    return build_model("two-lane", gamma=1.25)


@pytest.mark.parametrize("name", ["pm1", "two_lane_125"])
def test_low_density_inversion_keeps_relative_accuracy(request, name):
    """Down to the 1e-11 floor of the model fluxes the solved tilt gives
    back rho to 1e-10 relative, not merely to 1e-12 absolute."""
    model = request.getfixturevalue(name)
    R, U = np.meshgrid([1e-11, 1e-9, 1e-7, 1e-3], [-0.5, 0.0, 0.05, 0.3])
    sol = invert_parameters_grid(model, R, U)
    p = gibbs_measure(model, sol[0], sol[1])
    assert np.max(np.abs(p @ model.eta - R) / R) < 1e-10
    assert np.max(np.abs(p @ model.zeta - U)) < 1e-12
    assert sol.residual < 1e-12
    assert sol.iterations <= 10
    # the measures returned with the solve are those of the returned tilt
    assert np.array_equal(sol.p, p)


@pytest.mark.parametrize("name", ["pm1", "two_lane_125"])
def test_batch_inversion_equals_pointwise(request, name):
    """A point's solve does not depend on the other points of the call."""
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    rho = np.concatenate([10.0 ** rng.uniform(-11, -1, 40),
                          rng.uniform(0.1, 0.6, 25)])
    u = rng.uniform(-0.35, 0.35, rho.size)
    batch = invert_parameters_grid(model, rho, u)
    for i in range(rho.size):
        one = invert_parameters_grid(model, rho[i], u[i])
        for got, want in zip(one, batch):
            assert got == want[i]
        assert np.array_equal(one.p, batch.p[i])


# -- the compiled tilt kernels against the numpy reference -----------------

@pytest.fixture
def c_tilt():
    if thermo.TILT.backend != "c":
        pytest.skip("no C compiler to build the tilt kernel")


def _kernel_grids():
    """(name, model, rho, u): interior pm1 and two-lane points down to the
    1e-11 floor, and the benchmark's scaled-table grid (gamma = 1.25,
    n = 1000, 300 x 119 cells mapped to model variables)."""
    from latgas import build_model

    rng = np.random.default_rng(11)
    rho = np.concatenate([[1e-11, 1e-11, 1e-9, 1e-5],
                          rng.uniform(0.02, 0.98, 300)])
    frac = np.concatenate([[0.0, 0.5, -0.5, 0.9], rng.uniform(-0.9, 0.9, 300)])
    # pm1 lives on |u| <= min(rho, 1 - rho), inside the two-lane square
    # [0, 1] x [-1, 1]; u is a fraction of that bound
    u = frac * np.minimum(rho, 1.0 - rho)
    yield "pm1", build_model("pm1"), rho, u
    for g in (1.25, 0.3):
        yield f"two-lane {g}", build_model("two-lane", gamma=g), rho, 0.5 * u
    r = np.linspace(0.0, 83.0797, 300)
    v = np.linspace(-1.5, 1.5, 119)
    R, U = np.meshgrid(np.maximum(1e-3 * r, 1e-11), 1000 ** -0.5 * v)
    yield "scaled table", build_model("two-lane", gamma=1.25), R, U


def test_c_inversion_matches_numpy(c_tilt):
    """The compiled Newton takes the numpy loop's steps: the same iteration
    counts, and values that differ only through libm's exp and log against
    numpy's."""
    for name, model, rho, u in _kernel_grids():
        site = model.site_table
        m0 = float(model.pi @ model.eta)
        args = (site, m0, rho.ravel(), u.ravel(), 1e-12, 100)
        (res_c, p_c, it_c, worst_c, bad_c) = thermo.TILT.impl[0](*args)
        (res_p, p_p, it_p, worst_p, bad_p) = thermo._invert_py(*args)
        assert bad_c == bad_p == -1, name
        assert it_c == it_p, name
        assert np.all(np.abs(res_c - res_p)
                      <= 1e-14 * np.maximum(1.0, np.abs(res_p))), name
        assert np.max(np.abs(p_c - p_p)) <= 1e-15, name
        assert worst_c < 1e-12 and worst_p < 1e-12, name


def test_pair_moments_backends_bitwise(c_tilt, pm1_flux, two_lane_flux):
    """Given the same measures, the compiled pair sums equal the numpy
    loops bit for bit."""
    for fp in (pm1_flux, two_lane_flux):
        R, U = np.meshgrid(np.linspace(0.05, 0.6, 40),
                           np.linspace(-0.2, 0.2, 30))
        p, _ = fp._tilted(R, 0.3 * U * np.minimum(R, 1 - R))
        got = thermo.pair_moments(fp._site, p, fp._tabs)
        want = thermo._pair_moments_py(fp._site, p, fp._tabs)
        assert got.shape == (9, R.size)
        assert np.array_equal(got, want)


def test_c_nonconvergence_message(c_tilt, pm1):
    """The compiled solve names the first point that did not converge, as
    the numpy one does."""
    from latgas.thermo import NonConvergence

    rho, u = np.array([0.5, 0.3, 1.5, 2.0]), np.array([0.1, 0.0, 0.0, 0.0])
    with pytest.raises(NonConvergence) as exc:
        invert_parameters_grid(pm1, rho, u)
    assert str(exc.value) == "Newton failed at (rho,u)=(1.5,0)"
    site, m0 = pm1.site_table, float(pm1.pi @ pm1.eta)
    for kernel in (thermo.TILT.impl[0], thermo._invert_py):
        assert kernel(site, m0, rho, u, 1e-12, 100)[-1] == 2
        # too few iterations for any point
        assert kernel(site, m0, rho, u, 1e-12, 2)[-1] == 0


def test_numpy_tilt_without_compiler(monkeypatch, pm1, two_lane):
    """When no kernel can be built the numpy reference runs."""
    from latgas import macroscopic_flux, native

    monkeypatch.setattr(native, "load", lambda *args: None)
    monkeypatch.setattr(thermo, "TILT", dataclasses.replace(thermo.TILT))
    rho, u = np.array([1e-11, 0.2, 0.6]), np.array([0.0, -0.1, 0.3])
    sol = invert_parameters_grid(pm1, rho, u)
    res, p, it, worst, _ = thermo._invert_py(
        pm1.site_table, float(pm1.pi @ pm1.eta), rho, u, 1e-12, 100)
    for got, want in zip(sol, res):
        assert np.array_equal(got, want)
    assert np.array_equal(sol.p, p)
    assert (sol.iterations, sol.residual) == (it, worst)
    fp = macroscopic_flux(two_lane)
    ps = fp._tilted(rho, 0.5 * u)[0]
    assert np.array_equal(thermo.pair_moments(fp._site, ps, fp._tabs),
                          thermo._pair_moments_py(fp._site, ps, fp._tabs))


def test_pair_moments_rejects_mismatched_shapes(pm1_flux):
    """The compiled sums index by the site table's k: measures or tables
    of another size are refused before they reach it."""
    site, tabs = pm1_flux._site, pm1_flux._tabs
    p = np.full((5, 3), 1.0 / 3.0)
    assert thermo.pair_moments(site, p, tabs).shape == (9, 5)
    for args in ((site, p[:, :2], tabs), (site, p[0], tabs),
                 (site, p, tabs[:, :2]), (site[:, :2], p, tabs)):
        with pytest.raises(ValueError):
            thermo.pair_moments(*args)


def test_site_table_built_once_and_read_only(pm1):
    """Every tilt solve on a model reads the one site table it built."""
    site = pm1.site_table
    assert site is pm1.site_table and not site.flags.writeable
    assert site.shape == (6, pm1.nstates)
    assert np.array_equal(site[3], pm1.eta * pm1.eta)
    with pytest.raises(ValueError):
        site[0, 0] = 0.0
