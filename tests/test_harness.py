import dataclasses

import numpy as np
import pytest

from latgas.harness import (ExperimentConfig, TooLarge, _sample_blocks,
                            microcanonical_moment_check, run_eulerian,
                            run_intermediate, tail_checks)
from latgas.sim import ScalingPlan
from latgas.thermo import DomainPolygon


@pytest.fixture(scope="module")
def small_eulerian_report():
    cfg = ExperimentConfig(n_list=(128, 512), replicas=6, t_checkpoints=(0.08,),
                           m_grid=64, oracle_m=512, threads=4, seed=31)
    return run_eulerian(cfg)


def test_eulerian_l1_decreases(small_eulerian_report):
    rep = small_eulerian_report
    assert rep.l1_strictly_decreasing(0.08)


def test_eulerian_weak_pairings(small_eulerian_report):
    ok, bad = small_eulerian_report.weak_within(3.0)
    assert ok, bad


def test_eulerian_mass_exact(small_eulerian_report):
    assert small_eulerian_report.mass_invariant


def test_initial_distance_is_sampling_noise(small_eulerian_report):
    rep = small_eulerian_report
    l = ScalingPlan().block_size(512)
    d0 = rep.distances[(512, 0.0)]["rho_l1"]
    assert d0 < 4.0 / np.sqrt(l)


def test_report_csv_and_summary(tmp_path, small_eulerian_report):
    path = tmp_path / "conv.csv"
    small_eulerian_report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("n,t,rho_l1")
    assert len(lines) >= 5
    text = small_eulerian_report.summary()
    assert "decreasing" in text


def test_intermediate_run_flags_gamma_one():
    cfg = ExperimentConfig(mode="intermediate", beta=0.1, delta=0.25,
                           n_list=(4000,), replicas=4, t_checkpoints=(0.03,),
                           m_grid=32, oracle_m=512, threads=4, seed=17,
                           rho_base=0.6, rho_amp=0.1, u_amp=0.1)
    rep = run_intermediate(cfg)
    assert rep.gamma_flagged          # pm1 has gamma = 1
    ok, bad = rep.weak_within(3.5)
    assert ok, bad


def test_intermediate_orthogonal_u_integral_vanishes(pm1):
    # the cosine slope profile is orthogonal to sin(2 pi x), so that pairing
    # of the u-field vanishes at t = 0 up to replica noise
    cfg = ExperimentConfig(mode="intermediate", beta=0.1, n_list=(3000,),
                           replicas=4, t_checkpoints=(0.01,), m_grid=32,
                           oracle_m=256, threads=4, seed=23,
                           rho_base=0.6, rho_amp=0.0, u_base=0.0, u_amp=0.08)
    rep = run_intermediate(cfg)
    mean, std, ref = rep.weak[(3000, 0.0, "u_sin")]
    assert abs(ref) < 1e-12
    assert abs(mean) < 4 * max(std, 1e-4)


def test_tail_domination(pm1):
    plan = ScalingPlan(l=50)
    rep = tail_checks(pm1, plan, n=1000, rho0=0.5, u0=0.0, samples=200_000,
                      seed=11)
    assert rep.L == 50.0
    assert rep.passed()
    assert 0.05 < rep.C_rho < 10.0


def test_tail_report_pinned(pm1):
    # literals recorded with bin edges at fit-half quantiles; the sampler
    # and the sorted-half tail shares must reproduce them bit for bit
    rep = tail_checks(pm1, ScalingPlan(l=50), n=1000, samples=200_000, seed=11)
    assert (rep.L, rep.C_rho, rep.C_u) == (50.0, 0.48600960833333345,
                                           0.1941818568357633)
    assert (rep.violations_rho, rep.violations_u, rep.bins) == (0, 1, 24)


def test_tail_report_fails_on_scaled_test_half(pm1):
    """Block averages whose test half is 10% larger than the fit half
    break the fitted bounds in more bins than allowed."""
    from latgas.harness import _tail_report

    rho_hat, u_hat, _ = _sample_blocks(pm1, ScalingPlan(l=50), 1000, 0.5,
                                       0.0, 200_000, 11)
    assert _tail_report(rho_hat, u_hat, 50.0, 24).passed()
    half = rho_hat.size // 2
    rho_hat[half:] *= 1.1
    u_hat[half:] *= 1.1
    rep = _tail_report(rho_hat, u_hat, 50.0, 24)
    assert not rep.passed()
    assert rep.violations_rho > 12


def test_block_sampler_matches_comparison_formula(pm1):
    # the sampler's spins against searchsorted on all draws taken at once;
    # the sampler draws in chunks of 2020 rows at l = 50
    from latgas import build_model
    from latgas.sim import philox_stream, weight_function
    from latgas.thermo import gibbs_measure, invert_parameters_grid

    plan, n, samples, seed = ScalingPlan(l=50), 1000, 25_000, 5
    for model in (pm1, build_model("two-lane", gamma=1.25)):
        rho_hat, u_hat, l = _sample_blocks(model, plan, n, 0.5, 0.1, samples, seed)
        assert l == 50
        tau, theta, _ = invert_parameters_grid(model, 0.5, 0.1)
        cum = np.cumsum(gibbs_measure(model, float(tau), float(theta)))
        offs = np.arange(-l + 1, l)
        draws = philox_stream(seed, 77).random((samples, offs.size))
        spins = np.searchsorted(cum, draws)
        wts = weight_function(offs / l) / l
        assert np.array_equal(rho_hat, model.eta[spins] @ wts)
        assert np.array_equal(u_hat, model.zeta[spins] @ wts)
        assert np.array_equal(spins, (draws[..., None] > cum[:-1]).sum(axis=-1))


@pytest.mark.parametrize("gamma", [None, 1.25])
def test_block_sampler_backends_agree(monkeypatch, c_sites, pm1, gamma):
    """The compiled site pass and the numpy twin give the same block
    averages over a sample count that is no multiple of the chunk."""
    from latgas import build_model, sim

    model = pm1 if gamma is None else build_model("two-lane", gamma=gamma)
    runs = []
    for kernel in (sim.SITES.impl, sim._draw_sites_py):
        monkeypatch.setattr(sim.SITES, "impl", kernel)
        runs.append(_sample_blocks(model, ScalingPlan(l=50), 1000, 0.5, 0.1,
                                   5003, 9))
    (rho_c, u_c, _), (rho_p, u_p, _) = runs
    assert np.array_equal(rho_c, rho_p) and np.array_equal(u_c, u_p)


def test_tail_report_same_without_compiler(monkeypatch, without_compiler,
                                           pm1):
    """Without a compiler the numpy twin samples, and the pinned report
    comes out unchanged."""
    from latgas import sim

    monkeypatch.setattr(sim, "SITES", dataclasses.replace(sim.SITES))
    rep = tail_checks(pm1, ScalingPlan(l=50), n=1000, samples=200_000, seed=11)
    assert sim.SITES.backend == "python"
    assert (rep.C_rho, rep.C_u) == (0.48600960833333345, 0.1941818568357633)
    assert (rep.violations_rho, rep.violations_u) == (0, 1)


def test_block_sampler_moments_and_lower_tail(pm1):
    """The sampled block averages centre on the requested densities with
    the tilted measure's variance, and below the mean their tail is 1 up to
    rare misses."""
    from latgas.sim import weight_function
    from latgas.thermo import invert_parameters, moments

    samples = 40_000
    rho_hat, u_hat, l = _sample_blocks(pm1, ScalingPlan(l=50), 1000, 0.5, 0.1,
                                       samples, 5)
    cp = invert_parameters(pm1, 0.5, 0.1)
    _, cov = moments(pm1, cp.tau, cp.theta)
    wts = weight_function(np.arange(-l + 1, l) / l) / l
    for hat, mean, var in ((rho_hat, 0.5, cov[0, 0]), (u_hat, 0.1, cov[1, 1])):
        var_hat = var * np.sum(wts ** 2)
        assert abs(np.mean(hat) - mean * np.sum(wts)) < 5 * np.sqrt(
            var_hat / samples)
        assert abs(np.var(hat) / var_hat - 1.0) < 0.05
    assert np.mean(rho_hat > 0.5 * np.sum(wts) - 0.2) > 0.99


def test_moment_gamma_zero_trivial(pm1):
    rep = microcanonical_moment_check(pm1, 4, gammas=(1e-12,))
    assert rep.C < 1.0    # log-moment -> 0, normalized stays bounded


def test_moment_even_in_gamma_for_odd_b(pm1):
    """Antisymmetric weight + mirror symmetry: the moment is even in gamma
    on the Z = 0 classes."""
    from latgas.harness import _enumerate_blocks, _xi_values
    l = 5
    confs, logw, N, Z2 = _enumerate_blocks(pm1, l)
    xiv = _xi_values(pm1, confs, "psi")
    npairs = xiv.shape[1]
    # psi is antisymmetric under block reversal + involution, so a weight
    # symmetric under pair reversal (here constant) flips <b, psi> exactly
    bw = np.ones(npairs)
    inner = xiv @ bw / l
    sel = (N == 3) & (Z2 == 0)
    assert np.any(sel)
    w = np.exp(logw[sel] - logw[sel].max())
    w /= w.sum()
    for g in (0.5, 1.0):
        mp = float(w @ np.exp(g * np.sqrt(l) * inner[sel]))
        mm = float(w @ np.exp(-g * np.sqrt(l) * inner[sel]))
        assert abs(mp - mm) < 1e-12 * max(mp, mm) + 1e-12


def test_moment_stability_across_l(pm1):
    cs = [microcanonical_moment_check(pm1, l).C for l in (4, 5, 6, 7, 8)]
    med = float(np.median(cs))
    assert max(abs(c - med) for c in cs) / med <= 0.30


def test_moment_centered_variant(pm1):
    rep = microcanonical_moment_check(pm1, 6, centered=True)
    assert np.isfinite(rep.C)
    assert rep.C < 1.0


def test_xi_expectation_exact_inside(pm1, pm1_flux):
    """Interior centering points are evaluated where they are, not rounded;
    only points on the boundary are pulled inside."""
    from latgas.harness import _xi_expectation
    dom = DomainPolygon.from_model(pm1)
    rng = np.random.default_rng(5)
    lo, hi = dom.vertices.min(axis=0), dom.vertices.max(axis=0)
    pts = rng.uniform(lo, hi, size=(2000, 2))
    pts = pts[dom.contains(pts[:, 0], pts[:, 1], margin=1e-2)][:200]
    R = np.concatenate([[0.2, 0.5, 0.3, 0.1, 0.6], pts[:, 0]])
    U = np.concatenate([[0.1, -0.3, 0.05, 0.0, 0.25], pts[:, 1]])
    assert R.size == 205 and dom.contains(R, U, margin=1e-2).all()
    got = _xi_expectation(pm1, "psi", R, U)
    assert np.max(np.abs(got - pm1_flux.Psi(R, U))) < 1e-13


def test_moment_too_large(two_lane):
    with pytest.raises(TooLarge):
        microcanonical_moment_check(two_lane, 14)
