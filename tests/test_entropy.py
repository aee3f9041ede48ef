import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latgas.entropy as ent
from latgas.entropy import (CharGeometry, D1, D2, D3, InconsistentOverlap,
                            LimitRows, ModelRows, SingularStart,
                            _march_system, build_entropy, char_slope,
                            characteristic_curve, cutoff_profile, d1_4, d2_4,
                            limit_curve, max_box_in_d1, tabulated_slope,
                            verify_bounds)
from latgas.pde import (LimitFlux, ModelFluxView, ScaledFluxView,
                        riemann_invariants)
from latgas.thermo import TILT


@given(st.floats(0.05, 2.0), st.floats(1.5, 40.0))
@settings(max_examples=40, deadline=None)
def test_cutoff_profile_c1(r_lo, ratio):
    r_hi = r_lo * ratio
    eps = 1e-7 * r_lo
    for knot in (r_lo, r_hi):
        s_m, sp_m = cutoff_profile(r_lo, r_hi, knot - eps)
        s_p, sp_p = cutoff_profile(r_lo, r_hi, knot + eps)
        assert abs(s_p - s_m) < 1e-5 * max(1, r_hi)
        assert abs(sp_p - sp_m) < 1e-4
    # boundary values from the closed form
    s, sp = cutoff_profile(r_lo, r_hi, r_lo)
    assert s == 0.0 and sp == 0.0
    s, sp = cutoff_profile(r_lo, r_hi, r_hi)
    assert abs(s - (r_hi - (r_hi - r_lo) / np.log(r_hi / r_lo))) < 1e-12
    assert sp == 1.0


@given(st.floats(0.05, 2.0), st.floats(1.5, 40.0))
@settings(max_examples=30, deadline=None)
def test_cutoff_profile_monotone(r_lo, ratio):
    r_hi = r_lo * ratio
    r = np.linspace(0, 2 * r_hi, 400)
    s, sp = cutoff_profile(r_lo, r_hi, r)
    assert np.all(np.diff(s) >= -1e-12)
    assert np.all(sp >= 0) and np.all(sp <= 1 + 1e-12)


def test_cutoff_profile_unit_example():
    # r_lo = 1, r_hi = e: the closed form gives s(e) = e - (e-1) = 1
    s, sp = cutoff_profile(1.0, np.e, np.e)
    assert abs(s - 1.0) < 1e-14
    assert sp == 1.0


def test_singular_start():
    with pytest.raises(SingularStart):
        characteristic_curve(LimitFlux(2.0), 0.0, 1.0)


def test_characteristic_invariant_constancy():
    # acceptance-grade: the co-moving Riemann invariant is constant to 1e-6
    fl = LimitFlux(2.0)
    for r in (0.01, 0.1, 0.5):
        us, rhos = characteristic_curve(fl, r, 0.5, u_min=0.0)
        w, z = riemann_invariants(2.0, rhos, us)
        z_ref = riemann_invariants(2.0, r, 0.0)[1]
        assert np.max(np.abs(z - z_ref)) < 1e-6
        # the mirrored family carries the w-invariant, up to where the
        # curve merges into the rho = 0 edge and leaves the domain
        us2, rhos2 = characteristic_curve(fl, r, 0.0, u_min=-0.5)
        live = rhos2 > 1e-12
        w2, _ = riemann_invariants(2.0, rhos2[live], -us2[live])
        w_ref = riemann_invariants(2.0, r, 0.0)[0]
        assert np.max(np.abs(w2 - w_ref)) < 1e-6


@pytest.mark.parametrize("r_lo, r_hi, u_max", [(1.0, np.exp(4.0), 2.0),
                                                (0.5, 0.5 * np.exp(4.0), 1.2)])
def test_limit_curve_matches_rk4(r_lo, r_hi, u_max):
    """The closed-form level sets on the RK4 curves' own nodes, for the
    knots of criterion 7 and the benchmark's table (first case) and of the
    small table: the same curve to 1e-12, 0 past the merge point, and one
    value per point whatever else shares the call."""
    fl = LimitFlux(2.0)
    geom = CharGeometry(fl, r_lo, r_hi, u_max)
    for r in (r_lo, r_hi):
        us, rhos = characteristic_curve(fl, r, 1.05 * u_max)
        exact = limit_curve(2.0, r, us)
        assert np.max(np.abs(exact - rhos)) <= 1e-12
        assert np.array_equal(geom.sigma(us, r), exact)
        c = riemann_invariants(2.0, r, 0.0)[1]
        assert np.all(exact[us <= -c] == 0.0) and np.all(exact[us > -c] > 0.0)
        assert float(limit_curve(2.0, r, us[7])) == exact[7]
        # z(lam^2 rho, lam u) = lam z(rho, u) carries the curve through
        # (4 r, 0) onto this one
        assert np.allclose(limit_curve(2.0, 4 * r, 2 * us), 4 * exact,
                           rtol=1e-13, atol=1e-12 * r)


def test_curve_initial_condition_and_monotonicity():
    fl = LimitFlux(1.5)
    for r in (0.05, 0.4):
        us, rhos = characteristic_curve(fl, r, 0.8)
        i0 = np.argmin(np.abs(us))
        assert abs(rhos[i0] - r) < 1e-9
        live = rhos > 0
        assert np.all(np.diff(rhos[live]) > -1e-12)


def test_lemma1_sandwich(two_lane_flux):
    from latgas.pde import ModelFluxView, ScaledFluxView
    view = ScaledFluxView(ModelFluxView(two_lane_flux), 1000, 0.5)
    geom = CharGeometry(view, 0.3, 3.0, 1.0)
    assert 0 < geom.C2 <= geom.C1 < np.inf
    # fitted constants reproduce the sandwich on a fresh radius
    r = 0.8
    us = np.linspace(-0.8, -0.05, 23)
    sig = geom.sigma(us, r)
    live = sig > 0
    assert np.all(sig[live] >= r + geom.C1 * np.sqrt(r) * us[live] - 1e-8)
    assert np.all(sig[live] <= r + geom.C2 * np.sqrt(r) * us[live] + 1e-2)


def test_classify_cases():
    fl = LimitFlux(2.0)
    geom = CharGeometry(fl, 0.2, 1.0, 1.0)
    assert geom.classify(0.0, 0.05) == D1          # small rho, nonzero u
    assert geom.classify(2.0, 0.0) == D2           # far above r_hi
    assert geom.classify(0.5, 0.0) == D3           # between the knots
    # closed boundary: the curves themselves belong to D3, the next
    # float outside them does not
    assert geom.classify(0.2, 0.0) == D3 and geom.classify(1.0, 0.0) == D3
    for u in (0.0, 0.1):
        lo = float(geom.sigma(-u, 0.2))
        hi = float(geom.sigma(u, 1.0))
        assert lo > 0
        assert geom.classify(lo, u) == D3 and geom.classify(hi, u) == D3
        assert geom.classify(np.nextafter(lo, 0.0), u) == D1
        assert geom.classify(np.nextafter(hi, 2.0), u) == D2
    # nesting: D1(r) grows with r, D2 shrinks
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1.5, size=(200, 2)) * np.array([1.0, 0.8])
    au = np.abs(pts[:, 1])
    for sign in (-1.0, 1.0):
        assert np.all(geom.sigma(sign * au, 0.2) <= geom.sigma(sign * au, 0.6))


def test_march_reproduces_polynomial_entropy(monkeypatch):
    # gamma = 1 has the exact entropy S = rho^2 + rho u^2 + u^4/6
    fl = LimitFlux(1.0)
    rho = np.linspace(0.0, 3.0, 301)
    u_levels = np.linspace(0.0, 0.6, 7)
    UU, RR = np.meshgrid(u_levels, rho, indexing="ij")
    exact = RR ** 2 + RR * UU ** 2 + UU ** 4 / 6.0
    cut = int((3.0 - 1.9 * 0.6 - 0.1) / 3.0 * 300)
    seen = []
    # the compiled step (when a compiler works) and the numpy reference
    for kernel in (ent.MARCH.impl, ent._numpy_stepper):
        monkeypatch.setattr(ent.MARCH, "impl", kernel)
        out, _ = _march_system(LimitRows(fl, rho, ("S",)),
                               {"S": (rho ** 2, np.zeros_like(rho))},
                               u_levels, hyper=0.5)
        assert np.max(np.abs(out["S"] - exact)[:, 5:cut]) < 1e-10
        # and its rho-derivative under the kappa=1 equation
        stats = {}
        out, _ = _march_system(LimitRows(fl, rho, ("S_rho",)),
                               {"S_rho": (2 * rho, np.zeros_like(rho))},
                               u_levels, hyper=0.5, stats=stats)
        assert np.max(np.abs(out["S_rho"] - (2 * RR + UU ** 2))
                      [:, 5:cut]) < 1e-10
        seen.append(stats["march_kernel"])
    assert seen[1] == "python"


def test_march_rejects_rows_for_other_fields():
    # the compiled step trusts the rows' shapes, so they must fit the fields
    rho = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        _march_system(LimitRows(LimitFlux(2.0), rho, ("S", "S_rho")),
                      {"S": (rho, np.zeros_like(rho))}, [0.0, 0.1], 0.5)


@pytest.fixture
def c_march():
    if ent.MARCH.backend != "c":
        pytest.skip("no C compiler to build the march kernel")


def _model_march(two_lane_flux):
    """A five-field march on interpolated model-flux coefficients, with the
    S_rr/S_ru source coupling and the right-edge pins."""
    view = ScaledFluxView(ModelFluxView(two_lane_flux), 1000, 0.5)
    rho = np.linspace(0.0, 12.0, 160)
    names = ("S", "S_rho", "S_u", "S_rr", "S_ru")
    coeffs = ModelRows(view, rho, names, 0.0, 0.5, nodes=7)
    bump = np.exp(-(rho - 5.0) ** 2)
    fields0 = {k: ((i + 1) * (bump + 0.05 * rho), (2 - i) * 0.1 * np.sin(rho))
               for i, k in enumerate(names)}
    pin = {k: (np.full_like(rho, 0.1 * i), np.zeros_like(rho))
           for i, k in enumerate(names)}
    stats = {}
    f, g = _march_system(coeffs, fields0, np.linspace(0.0, 0.5, 6), 0.3,
                         pin_right=pin, stats=stats)
    return f, g, stats


def test_march_backends_agree(c_march, monkeypatch, two_lane_flux):
    """The compiled RK4 step reproduces the numpy reference: one step on
    random rows with free edges, a limit-flux table and a model-flux march
    (sources, pins, lower-order rows)."""
    rng = np.random.default_rng(7)
    nf, n = 3, 40
    rows = [(rng.uniform(0.5, 2.0, (3, n)), rng.normal(size=(4, nf, n)))
            for _ in range(3)]
    state0 = rng.normal(size=(2 * nf, n))
    runs = []
    for kernel in (ent.MARCH.impl, ent._numpy_stepper):
        monkeypatch.setattr(ent.MARCH, "impl", kernel)
        state = state0.copy()
        # the pinned row is 4; every other row keeps both edges free
        kernel(state, nf, 0.1, 0.3, np.array([0, 2, 1]), np.array([4]),
               np.full((1, 4), 0.5))(1e-3, *rows)
        tab = build_entropy(LimitFlux(2.0), 0.5, 0.5 * np.exp(4.0),
                            u_max=0.8, n_rho=400, n_u=30)
        f, g, stats = _model_march(two_lane_flux)
        fields = [getattr(tab, k) for k in ("S", "F", "S_rho", "S_u", "S_rr",
                                            "S_ru", "S_uu")]
        runs.append((tab.diagnostics["march_kernel"], stats["march_kernel"],
                     [state] + fields + list(f.values()) + list(g.values()),
                     tab.labels))
    (kc, mc, fc, lab_c), (kp, mp, fp, lab_p) = runs
    assert (kc, mc, kp, mp) == ("c", "c", "python", "python")
    assert np.array_equal(lab_c, lab_p)
    for a, b in zip(fc, fp):
        assert np.max(np.abs(b)) > 0
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_compiled_step_rejects_bad_arguments(c_march):
    make = ent.MARCH.impl
    state = np.zeros((4, 10))
    pins = np.array([1, 3]), np.zeros((2, 4))
    make(state, 2, 0.1, 0.5, np.array([0, 1]), *pins)
    for bad in [dict(state=np.zeros((4, 10), dtype=np.float32)),
                dict(state=np.zeros((4, 20))[:, ::2]),
                dict(state=np.zeros((6, 10))),
                dict(state=np.zeros((4, 5))),
                dict(partner=np.array([0, 2])),
                dict(partner=np.array([-1, 1])),
                dict(pin_rows=np.array([1, 4])),
                dict(pin_vals=np.zeros((2, 11)))]:
        args = dict(state=state, partner=np.array([0, 1]), pin_rows=pins[0],
                    pin_vals=pins[1]) | bad
        with pytest.raises(ValueError):
            make(args["state"], 2, 0.1, 0.5, args["partner"],
                 args["pin_rows"], args["pin_vals"])


def test_march_numpy_without_compiler(monkeypatch, without_compiler,
                                      two_lane_flux):
    """Without a compiler the numpy step marches, and says so."""
    monkeypatch.setattr(ent, "MARCH", dataclasses.replace(ent.MARCH))
    _, _, stats = _model_march(two_lane_flux)
    assert stats["march_steps"] > 0 and stats["march_kernel"] == "python"


def test_tabulated_slope_matches_grid_interpolator(two_lane_flux):
    from scipy.interpolate import RegularGridInterpolator

    view = ScaledFluxView(ModelFluxView(two_lane_flux), 1000, 0.5)
    rho_max, u_max, n_rho, n_u = 20.0, 1.2, 40, 16
    slope = tabulated_slope(view, rho_max, u_max, n_rho=n_rho, n_u=n_u)
    rho = np.linspace(0.0, rho_max, n_rho)
    uu = np.linspace(-u_max, u_max, n_u)
    RR, UU = np.meshgrid(rho, uu, indexing="ij")
    vals = char_slope(view, RR.ravel(), UU.ravel()).reshape(RR.shape)
    itp = RegularGridInterpolator((rho, uu), vals, bounds_error=False,
                                  fill_value=None)
    rng = np.random.default_rng(3)
    # inside, outside (clamped to the box) and on the nodes and corners
    pts = np.vstack([rng.uniform([-5.0, -2.0], [25.0, 2.0], size=(400, 2)),
                     np.column_stack([rho[::3], uu[np.arange(14) % n_u]]),
                     [[0.0, -u_max], [rho_max, u_max], [rho_max, -u_max]]])
    assert np.any(pts[:, 0] > rho_max) and np.any(pts[:, 1] < -u_max)
    for r, u in pts.tolist():
        want = float(itp((min(max(r, 0.0), rho_max),
                          min(max(u, -u_max), u_max))))
        assert abs(slope(r, u) - want) <= 1e-13 * max(1.0, abs(want))


def test_scaled_two_lane_table_pinned():
    """The benchmark's scaled two-lane table: labels and the seven fitted
    constants as computed with scipy's RegularGridInterpolator for the slope
    field and the numpy march step."""
    from latgas import build_model, macroscopic_flux

    view = ModelFluxView(macroscopic_flux(build_model("two-lane",
                                                      gamma=1.25)))
    tab = build_entropy(view, 1.0, np.exp(4.0), n=1000, beta=0.5, u_max=1.5,
                        n_rho=300, n_u=60)
    labels = np.ascontiguousarray(tab.labels, dtype=np.int8).tobytes()
    assert hashlib.sha256(labels).hexdigest() == (
        "ef22fa516194078ea8e4ed117ceba214026c3e5ff498868602273c8968aebfb7")
    pinned = {"S_rho-1D2": 0.9998577587078386, "S_u": 0.23514917049396736,
              "S_rr": 1.899738364751383, "S_ru": 2.0776597843827105,
              "S_uu": 1.5722391128622815, "F-PsiS_rho": 0.012402564630255991,
              "1-S_rho": 1.0}
    fits = verify_bounds(tab).fits
    assert set(fits) == set(pinned)
    for name, want in pinned.items():
        assert abs(fits[name].constant - want) <= 1e-10 * abs(want)
    # the build's tilt solves, the rho = 0 column's floor points (1e-11
    # after scaling) among them, take a handful of Newton steps each
    diag = tab.diagnostics
    assert diag["tilt_solves"] > 0
    assert diag["newton_iterations"] <= 10
    assert 0.0 < diag["newton_residual"] < 1e-12
    assert diag["tilt_kernel"] == TILT.backend


def test_march_fails_above_stability_limit(monkeypatch):
    """A step of about twice the sqrt(6)/2 limit makes the march blow up,
    and the overlap check against the closed forms catches it."""
    monkeypatch.setattr(ent, "_CFL", 2.45)
    with pytest.raises(InconsistentOverlap):
        build_entropy(LimitFlux(2.0), 0.5, 0.5 * np.exp(4.0), u_max=0.6,
                      n_rho=400, n_u=20)


def test_fd_operators_exact_on_quartics():
    # 4th-order interior and one-sided 6-point edge rows are exact on
    # degree-4 polynomials, so every point, edges included, must match
    h = 0.05
    x = 0.3 + h * np.arange(24)
    coef = np.array([[0.7, -1.3, 2.1, -0.4, 0.9],
                     [-2.0, 0.5, 1.0, 3.0, -1.5],
                     [1.0, 0.0, 0.0, 0.0, 2.0]])
    f = np.array([np.polyval(c, x) for c in coef])
    df = np.array([np.polyval(np.polyder(c), x) for c in coef])
    d2f = np.array([np.polyval(np.polyder(c, 2), x) for c in coef])
    for op, want in ((d1_4(f, h), df), (d2_4(f, h), d2f)):
        assert np.all(np.abs(op - want) <= 1e-9 * np.max(np.abs(want)))
    for i in range(len(coef)):
        for op, want in ((d1_4(f[i], h), df[i]), (d2_4(f[i], h), d2f[i])):
            assert np.all(np.abs(op - want) <= 1e-9 * np.max(np.abs(want)))


def test_limit_march_one_bundle_per_level(monkeypatch):
    """The limit fluxes' rows are closed forms: the march makes no bundle
    call at all (the build makes some outside it)."""
    import latgas.entropy as ent

    inside, levels, calls = [], [], []
    march, bundle = ent._march_system, LimitFlux.bundle

    def tracked(*args, **kwargs):
        inside.append(True)
        try:
            return march(*args, **kwargs)
        finally:
            inside.pop()

    def counting(self, rho, u):
        calls.append(1)
        if inside:
            levels.append(u)
        return bundle(self, rho, u)

    monkeypatch.setattr(ent, "_march_system", tracked)
    monkeypatch.setattr(LimitFlux, "bundle", counting)
    tab = build_entropy(LimitFlux(2.0), 0.5, 0.5 * np.exp(4.0), u_max=0.6,
                        n_rho=400, n_u=20)
    assert tab.diagnostics["march_steps"] > 0
    assert calls and levels == []


def test_model_coefficients_one_tilt_solve_per_node(two_lane_flux,
                                                    monkeypatch):
    import latgas.fluxes

    calls = []
    inner = latgas.fluxes.invert_parameters_grid

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(latgas.fluxes, "invert_parameters_grid", counting)
    view = ScaledFluxView(ModelFluxView(two_lane_flux), 1000, 0.5)
    ModelRows(view, np.linspace(0.0, 20.0, 40),
              ("S", "S_rho", "S_u", "S_rr", "S_ru"), 0.0, 1.0, nodes=7)
    assert len(calls) == 7


@pytest.fixture(scope="module")
def small_table():
    return build_entropy(LimitFlux(2.0), 0.5, 0.5 * np.exp(4.0), u_max=1.2,
                         n_rho=1200, n_u=140)


def test_limit_table_pinned(small_table):
    """The limit-flux table: labels, D3 residual, compatibility and the
    seven fitted constants."""
    tab = small_table
    labels = np.ascontiguousarray(tab.labels, dtype=np.int8).tobytes()
    assert hashlib.sha256(labels).hexdigest() == (
        "536fcbadc617ff97648af87cc051a0fbfa8029a01137eeefe93d21866a4a8081")
    res = float(np.abs(tab.pde_residual())[tab.interior_mask()].max())
    for got, want in ((res, 0.00020604167212726301),
                      (tab.flux_compat_error(), 7.112404799343242e-05)):
        assert abs(got - want) <= 1e-12 * want
    pinned = {"S_rho-1D2": 0.9999974822427795, "S_u": 0.26586594180136075,
              "S_rr": 1.9644066885467772, "S_ru": 1.6056297819968517,
              "S_uu": 1.8279408911763833, "F-PsiS_rho": 0.02122548528940515,
              "1-S_rho": 1.0}
    fits = verify_bounds(tab).fits
    assert set(fits) == set(pinned)
    for name, want in pinned.items():
        assert abs(fits[name].constant - want) <= 1e-12 * abs(want)


def test_step_doubling_error_below_residual(small_table, monkeypatch):
    """The march's time error, estimated by halving the step, is under 1%
    of the table's D3 residual: the residual is spatial error."""
    monkeypatch.setattr(ent, "_CFL", ent._CFL / 2)
    half = build_entropy(LimitFlux(2.0), 0.5, 0.5 * np.exp(4.0), u_max=1.2,
                         n_rho=1200, n_u=140)
    assert half.diagnostics["march_steps"] >= 2 * small_table.diagnostics[
        "march_steps"] - 1
    mask = small_table.interior_mask()
    res = float(np.abs(small_table.pde_residual())[mask].max())
    err = max(float(np.max(np.abs(getattr(small_table, k) - getattr(half, k))
                           [mask]))
              for k in ("S", "F", "S_rho", "S_u", "S_rr", "S_ru", "S_uu"))
    assert 0.0 < err <= 0.01 * res


def test_table_exact_regions(small_table):
    tab = small_table
    logq = 4.0
    lin = tab.rho[None, :] - (tab.r_hi - tab.r_lo) / logq
    assert np.all(tab.S[tab.labels == D1] == 0.0)
    assert np.all(tab.S_rho[tab.labels == D1] == 0.0)
    assert np.all(tab.F[tab.labels == D1] == 0.0)
    d2 = tab.labels == D2
    assert np.max(np.abs((tab.S - lin)[d2])) == 0.0
    assert np.all(tab.S_rho[d2] == 1.0)
    RR, UU = tab.meshgrid()
    psi = RR * UU
    assert np.max(np.abs((tab.F - psi)[d2])) == 0.0
    # partition of unity and cutoff boundedness
    assert np.max(np.abs(tab.I + tab.J - 1.0)) == 0.0
    assert np.max(np.abs(tab.I)) < 10.0


def test_table_overlap_consistency(small_table):
    d = small_table.diagnostics
    assert d["overlap_D1"] < 1e-5
    assert d["overlap_D2"] < 1e-5
    assert d["overlap_D2_Srho"] < 1e-4
    assert d["march_steps"] > 0 and d["march_s"] > 0
    assert d["march_kernel"] == ent.MARCH.backend
    assert 0 < d["coefficient_s"] < d["march_s"]


def test_table_residual_and_compat(small_table):
    tab = small_table
    mask = tab.interior_mask()
    res = np.abs(tab.pde_residual())
    assert res[mask].max() < 5e-4
    assert tab.flux_compat_error() < 1e-3


def test_table_symmetries(small_table):
    tab = small_table
    # S even, F odd under u -> -u
    assert np.max(np.abs(tab.S - tab.S[::-1])) < 1e-12
    assert np.max(np.abs(tab.F + tab.F[::-1])) < 1e-12
    assert np.max(np.abs(tab.S_u + tab.S_u[::-1])) < 1e-12


def test_bound_fits_finite_with_support(small_table):
    rep = verify_bounds(small_table)
    for name, fit in rep.fits.items():
        assert np.isfinite(fit.constant)
        assert fit.support_leak <= 1e-8
    assert rep.fits["S_rho-1D2"].constant <= 1.2
    assert rep.fits["1-S_rho"].constant <= 2.0


def test_box_inside_cutoff_region(small_table):
    m = max_box_in_d1(small_table)
    assert 0 < m < small_table.r_lo
    geom = small_table.geometry
    assert geom.classify(m * 0.95, m * 0.95) == D1
    # I = 1 on the box
    tab = small_table
    RR, UU = tab.meshgrid()
    box = (RR <= m * 0.95) & (np.abs(UU) <= m * 0.95)
    assert np.all(tab.I[box] == 1.0)


def test_entropy_csv(tmp_path, small_table):
    path = tmp_path / "tab.csv"
    small_table.to_csv(path)
    header = open(path).readline().strip()
    assert header == "rho,u,S,F,S_rho,S_u,S_rr,S_ru,S_uu,domain_label"
