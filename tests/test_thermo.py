import numpy as np
import pytest

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
