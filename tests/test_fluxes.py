import csv
import warnings

import numpy as np

from latgas.fluxes import NormalizationWarning, macroscopic_flux, onsager_residual
from latgas.models import build_model
from latgas.pde import LimitFlux


def _interior_grid(dom, n=20, margin=0.05):
    rr = np.linspace(margin, dom.rho_max - margin, n)
    uu = np.linspace(-dom.u_max + margin, dom.u_max - margin, n)
    R, U = np.meshgrid(rr, uu)
    keep = dom.contains(R, U, margin=margin)
    return R[keep], U[keep]


def test_pm1_closed_forms(pm1_flux):
    R, U = _interior_grid(pm1_flux.domain)
    psi = pm1_flux.Psi(R, U)
    phi = pm1_flux.Phi(R, U)
    assert np.max(np.abs(psi - R * U)) < 1e-10
    assert np.max(np.abs(phi - (R + U ** 2))) < 1e-10


def test_pm1_paper_point(pm1_flux):
    assert abs(float(pm1_flux.Psi(0.5, 0.25)) - 0.125) < 1e-12
    assert abs(float(pm1_flux.Phi(0.5, 0.25)) - 0.5625) < 1e-12


def test_two_lane_closed_forms(two_lane_flux):
    gamma = 0.3
    R, U = _interior_grid(two_lane_flux.domain)
    psi = two_lane_flux.Psi(R, U)
    phi_raw = two_lane_flux.Phi_raw(R, U)
    assert np.max(np.abs(psi - R * (1 - R) * U)) < 1e-10
    assert np.max(np.abs(phi_raw - (R - gamma) * (1 - U ** 2))) < 1e-10
    # centering shifts by the corner value only
    assert np.max(np.abs(two_lane_flux.Phi(R, U) - (phi_raw + gamma))) < 1e-9


def test_gamma_extraction(pm1_flux, two_lane_flux):
    assert abs(pm1_flux.gamma - 1.0) < 1e-4
    assert abs(two_lane_flux.gamma - 0.3) < 1e-4


def test_gamma_fd_step_stability(pm1):
    from latgas.fluxes import _corner_limit, _richardson
    fp = macroscopic_flux(pm1)

    def gamma_with_step(h):
        return 0.5 * _corner_limit(
            lambda r, u: _richardson(lambda a, b: fp._raw(a, b)[1], r, u, h, "uu"))

    assert abs(gamma_with_step(1e-3) - gamma_with_step(5e-4)) < 1e-4


def test_normalization_at_origin(pm1_flux, two_lane_flux):
    assert abs(pm1_flux.psi_ru_origin - 1.0) < 1e-6
    assert abs(two_lane_flux.psi_ru_origin - 1.0) < 1e-6


def test_parity(pm1_flux, two_lane_flux):
    for fp in (pm1_flux, two_lane_flux):
        R, U = _interior_grid(fp.domain, n=8)
        assert np.max(np.abs(fp.Phi(R, U) - fp.Phi(R, -U))) < 1e-12
        assert np.max(np.abs(fp.Psi(R, U) + fp.Psi(R, -U))) < 1e-12


def test_psi_vanishes_at_zero_density(pm1_flux):
    u = np.linspace(-0.6, 0.6, 7)
    psi = pm1_flux.Psi(np.full_like(u, 1e-9), u)
    assert np.max(np.abs(psi)) < 1e-7


def test_symmetric_fluxes_have_zero_mean(pm1):
    from latgas.models import microscopic_fluxes
    from latgas.thermo import invert_parameters, gibbs_measure
    _, _, psi_s, phi_s = microscopic_fluxes(pm1)
    cp = invert_parameters(pm1, 0.45, 0.2)
    p = gibbs_measure(pm1, cp.tau, cp.theta)
    assert abs(p @ psi_s @ p) < 1e-14
    assert abs(p @ phi_s @ p) < 1e-14


def test_exact_gradients_match_fd(pm1_flux):
    # the covariance chain rule against plain finite differences
    h = 1e-5
    for (r, u) in [(0.4, 0.1), (0.2, -0.3), (0.6, 0.05)]:
        fd_pr = (pm1_flux.Psi(r + h, u) - pm1_flux.Psi(r - h, u)) / (2 * h)
        fd_pu = (pm1_flux.Psi(r, u + h) - pm1_flux.Psi(r, u - h)) / (2 * h)
        fd_fr = (pm1_flux.Phi(r + h, u) - pm1_flux.Phi(r - h, u)) / (2 * h)
        fd_fu = (pm1_flux.Phi(r, u + h) - pm1_flux.Phi(r, u - h)) / (2 * h)
        assert abs(float(pm1_flux.Psi_rho(r, u)) - fd_pr) < 1e-9
        assert abs(float(pm1_flux.Psi_u(r, u)) - fd_pu) < 1e-9
        assert abs(float(pm1_flux.Phi_rho(r, u)) - fd_fr) < 1e-9
        assert abs(float(pm1_flux.Phi_u(r, u)) - fd_fu) < 1e-9


def test_onsager_grid(pm1, two_lane, pm1_flux, two_lane_flux):
    for model, fp in ((pm1, pm1_flux), (two_lane, two_lane_flux)):
        R, U = _interior_grid(fp.domain, n=5)
        for r, u in zip(R.ravel(), U.ravel()):
            assert onsager_residual(model, r, u, fp) < 1e-8


def test_onsager_corrupted_rates(pm1):
    bad = build_model({
        "name": "pm1-corrupt", "labels": list(pm1.labels),
        "eta": {lab: int(e) for lab, e in zip(pm1.labels, pm1.eta)},
        "zeta": {lab: str(int(z)) for lab, z in zip(pm1.labels, pm1.zeta_raw)},
        "pi": {lab: "1/3" for lab in pm1.labels},
        "involution": {"-1": "+1", "0": "0", "+1": "-1"},
        # stationarity of the asymmetric part broken on purpose
        "r": {"-1,+1->+1,-1": 2.0, "-1,0->0,-1": 3.0, "0,+1->+1,0": 1.0},
        "s": {f"{a},{b}->{b},{a}": 1.0 for a in pm1.labels for b in pm1.labels
              if a != b},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationWarning)
        fp = macroscopic_flux(bad)
        res = max(onsager_residual(bad, r, u, fp)
                  for r, u in [(0.4, 0.1), (0.5, 0.2), (0.3, -0.15)])
    assert res > 1e-3


def test_csv_export(tmp_path, pm1_flux):
    path = tmp_path / "flux.csv"
    pm1_flux.export_csv(path, [0.3, 0.5], [-0.2, 0.0, 0.2])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rho", "u", "Psi", "Phi", "Psi_rho", "Psi_u",
                       "Phi_rho", "Phi_u"]
    assert len(rows) == 1 + 6
    r, u = float(rows[1][0]), float(rows[1][1])
    assert abs(float(rows[1][2]) - r * u) < 1e-9


def test_bundle_equals_per_quantity_methods(pm1_flux, two_lane_flux):
    for fp in (pm1_flux, two_lane_flux):
        R, U = _interior_grid(fp.domain, n=9)
        got = fp.bundle(R, U)
        want = (fp.Psi(R, U), fp.Phi(R, U), fp.Psi_rho(R, U), fp.Psi_u(R, U),
                fp.Phi_rho(R, U), fp.Phi_u(R, U))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_limit_flux_bundle_equals_per_quantity_methods():
    fl = LimitFlux(1.75)
    rho = np.linspace(0.0, 2.0, 7)
    u = np.linspace(-1.0, 1.0, 5)
    for args in ((0.3, -0.2), (rho, 0.4), (0.6, u), (rho, rho - 1.0),
                 (rho[:, None], u[None, :])):
        got = fl.bundle(*args)
        r, v = np.broadcast_arrays(*args)
        want = (r * v, r + 1.75 * v ** 2, v, r, np.ones(v.shape),
                2.0 * 1.75 * v)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)


def test_one_tilt_solve_per_point(tmp_path, pm1, pm1_flux, monkeypatch):
    import latgas.fluxes

    calls = []
    inner = latgas.fluxes.invert_parameters_grid

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(latgas.fluxes, "invert_parameters_grid", counting)
    onsager_residual(pm1, 0.4, 0.1, pm1_flux)
    assert len(calls) == 1
    # the export solves all its points at once
    pm1_flux.export_csv(tmp_path / "flux.csv", [0.3, 0.5], [-0.2, 0.0, 0.2])
    assert len(calls) == 1 + 1


def test_points_csv_matches_per_point_rows(tmp_path, two_lane_flux):
    """One ``bundle`` over all points writes the bytes that one ``bundle``
    and one ``csv`` row per point wrote."""
    fp = two_lane_flux
    points = list(zip(*_interior_grid(fp.domain)))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["rho", "u", "Psi", "Phi", "Psi_rho", "Psi_u",
                     "Phi_rho", "Phi_u"])
        for r, u in points:
            wr.writerow([f"{float(v):.12g}" for v in (r, u, *fp.bundle(r, u))])
    calls = fp.newton.calls
    fp.export_points_csv(tmp_path / "got.csv", points)
    assert fp.newton.calls == calls + 1
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_bundle_does_not_depend_on_batch_size():
    """A point's fluxes and partials are the same bits whether it is solved
    with 5,000 others or in a call of 7."""
    fp = macroscopic_flux(build_model("two-lane", gamma=1.25))
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.01, 0.99, 5000)
    u = 0.4 * rng.uniform(-1.0, 1.0, 5000) * np.minimum(rho, 1.0 - rho)
    whole = fp.bundle(rho, u)
    parts = [fp.bundle(rho[i:i + 7], u[i:i + 7]) for i in range(0, 5000, 7)]
    for j, got in enumerate(whole):
        assert np.array_equal(got, np.concatenate([p[j] for p in parts]))
