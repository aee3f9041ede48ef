import dataclasses
import struct

import numpy as np
import pytest
from scipy.linalg import expm

from latgas import build_model, sim
from latgas.sim import (LatticeState, ScalingPlan, TooLarge, block_average,
                        draw_states, dump_state, empirical_fields,
                        generator_matrix,
                        load_state, philox_stream, product_measure_vector,
                        sample_local_equilibrium, simulate, weight_function,
                        write_snapshot_csv)
from latgas.thermo import OutOfDomain, gibbs_measure, invert_parameters


def test_plan_validation():
    with pytest.raises(ValueError):
        ScalingPlan(mode="intermediate", beta=0.0)
    with pytest.raises(ValueError):
        ScalingPlan(mode="intermediate", beta=0.2, delta=0.6, strict=True)
    # a strict-admissible pair: 2d - 8b > 1 and d + 3b < 1
    p = ScalingPlan(mode="intermediate", beta=0.02, delta=0.8, strict=True)
    assert p.lambda_speed(100) == pytest.approx(100 ** 1.02)
    assert p.kappa_speed(100) == pytest.approx(100 ** 1.82)
    assert ScalingPlan().block_size(1000) == int(np.ceil(1000 ** 0.6))


def test_weight_function_properties():
    x = np.linspace(-1.5, 1.5, 10001)
    a = weight_function(x)
    assert np.all(a >= 0)
    assert a[0] == 0 and a[-1] == 0
    assert abs(np.trapezoid(a, x) - 1.0) < 1e-6
    assert np.max(np.abs(a - weight_function(-x))) == 0


def test_generator_row_sums_and_stationarity(pm1):
    L = generator_matrix(pm1, 3, "L")
    K = generator_matrix(pm1, 3, "K")
    assert np.max(np.abs(L.sum(axis=1))) < 1e-12
    assert np.max(np.abs(K.sum(axis=1))) < 1e-12
    for tau, theta in [(0.0, 0.0), (0.4, 0.2), (-0.5, 0.3)]:
        pi = product_measure_vector(pm1, 3, tau, theta)
        assert np.max(np.abs(pi @ L)) < 1e-12
        DB = pi[:, None] * K
        assert np.max(np.abs(DB - DB.T)) < 1e-12


def test_generator_too_large(two_lane):
    with pytest.raises(TooLarge):
        generator_matrix(two_lane, 7)


def test_draw_states_last_weight_below_one():
    # a cumulative table that rounded below 1: a draw above its last weight
    # lands on the last state, both for one table and for one row per draw
    cum = np.array([0.25, 0.5, 1.0 - 2.0 ** -40])
    draws = np.array([0.1, 0.25, 0.3, 0.75, 1.0 - 2.0 ** -50])
    assert draws[-1] > cum[-1]
    assert draw_states(cum, draws).tolist() == [0, 0, 1, 2, 2]
    rows = np.tile(cum, (draws.size, 1))
    assert draw_states(rows, draws).tolist() == [0, 0, 1, 2, 2]


def _site_table(model):
    cp = invert_parameters(model, 0.5, 0.1)
    return (np.cumsum(gibbs_measure(model, cp.tau, cp.theta)),
            model.eta.astype(float), model.zeta.astype(float))


def _stream_words(rng):
    """Everything ``dump_state`` stores of a Philox generator."""
    st = rng.bit_generator.state
    return (st["state"]["key"].tolist(), st["state"]["counter"].tolist(),
            st["buffer"].tolist(), st["buffer_pos"], st["has_uint32"],
            st["uinteger"])


@pytest.mark.parametrize("gamma", [None, 1.25])
def test_site_fill_matches_twin_and_stream(c_sites, pm1, gamma):
    """The compiled pass fills the sites the numpy twin does, bit for bit,
    and leaves the generator where ``rng.random`` over as many draws would,
    so later draws continue the same stream."""
    model = pm1 if gamma is None else build_model("two-lane", gamma=gamma)
    cum, eta, zeta = _site_table(model)
    shape = (101, 123)      # 12,423 sites: no multiple of Philox's 4 words
    runs = []
    for kernel in (sim.SITES.impl, sim._draw_sites_py):
        rng = philox_stream(9, 77)
        rng.random(3)       # start inside a Philox output block
        eta_out, zeta_out = np.empty((2,) + shape)
        kernel(rng, cum, eta, zeta, eta_out, zeta_out)
        runs.append((eta_out, zeta_out, _stream_words(rng), rng.random(5)))
    ref = philox_stream(9, 77)
    ref.random(3)
    ref.random(shape)
    (eta_c, zeta_c, words_c, next_c), (eta_p, zeta_p, words_p, next_p) = runs
    assert np.array_equal(eta_c, eta_p) and np.array_equal(zeta_c, zeta_p)
    assert set(np.unique(zeta_c)) == set(zeta)      # every state was drawn
    assert words_c == words_p == _stream_words(ref)
    assert np.array_equal(next_c, next_p)
    assert np.array_equal(next_c, ref.random(5))


def test_draw_sites_rejects_bad_arguments(pm1):
    cum, eta, zeta = _site_table(pm1)
    out = np.empty((2, 6))
    good = dict(cum=cum, eta=eta, zeta=zeta, eta_out=out[0], zeta_out=out[1])
    frozen = np.empty(6)
    frozen.flags.writeable = False
    for key, bad in [("cum", cum.astype(np.float32)),
                     ("cum", np.empty(0)),
                     ("eta", eta[:-1]),
                     ("zeta", np.tile(zeta, 2)[::2]),
                     ("eta_out", np.empty((6, 2))[:, 0]),
                     ("zeta_out", np.empty(5)),
                     ("zeta_out", frozen)]:
        args = good | {key: bad}
        if key == "cum" and bad.size == 0:
            args |= dict(eta=bad, zeta=bad)
        with pytest.raises(ValueError):
            sim.draw_sites(philox_stream(1), **args)
    sim.draw_sites(philox_stream(1), **good)
    assert set(out[0]) <= set(eta) and set(out[1]) <= set(zeta)


def test_local_equilibrium_mean_and_determinism(pm1):
    plan = ScalingPlan()
    n = 100_000
    st1 = sample_local_equilibrium(pm1, lambda x: 0.6 + 0 * x,
                                   lambda x: 0.1 + 0 * x, n, plan, seed=9)
    st2 = sample_local_equilibrium(pm1, lambda x: 0.6 + 0 * x,
                                   lambda x: 0.1 + 0 * x, n, plan, seed=9)
    assert np.array_equal(st1.spins, st2.spins)
    # empirical eta-mean within 4 sigma of the target density
    cp = invert_parameters(pm1, 0.6, 0.1)
    from latgas.thermo import moments
    _, cov = moments(pm1, cp.tau, cp.theta)
    mean = pm1.eta[st1.spins].mean()
    assert abs(mean - 0.6) < 4.0 * np.sqrt(cov[0, 0] / n)


def test_local_equilibrium_mirror_symmetry(pm1):
    # u = 0 draws are invariant in law under the spin involution: compare
    # state histograms across the involution on a large sample
    plan = ScalingPlan()
    st = sample_local_equilibrium(pm1, lambda x: 0.5 + 0 * x,
                                  lambda x: 0.0 * x, 200_000, plan, seed=4)
    counts = np.bincount(st.spins, minlength=3)
    flipped = counts[pm1.involution]
    diff = np.abs(counts - flipped) / np.sqrt(counts + flipped)
    assert np.all(diff < 4.0)


def test_local_equilibrium_out_of_domain(pm1):
    plan = ScalingPlan()
    with pytest.raises(OutOfDomain):
        sample_local_equilibrium(pm1, lambda x: 0.9 + 0.2 * np.sin(2 * np.pi * x),
                                 lambda x: 0.3 + 0 * x, 64, plan, seed=1)


def test_conservation_and_reproducibility(pm1):
    plan = ScalingPlan(delta=0.25)
    rho0 = lambda x: 0.5 + 0.1 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.1 * np.cos(2 * np.pi * x)
    runs = []
    for _ in range(2):
        st = sample_local_equilibrium(pm1, rho0, u0, 512, plan, seed=21)
        N0, Z0 = st.total_eta, st.total_zeta2
        simulate(st, pm1, plan, 0.05)
        assert (st.total_eta, st.total_zeta2) == (N0, Z0)
        assert st.recompute_totals(pm1) == (N0, Z0)
        runs.append(st)
    assert runs[0].trajectory_hash == runs[1].trajectory_hash
    assert np.array_equal(runs[0].spins, runs[1].spins)
    # different seed gives a different trajectory
    st3 = sample_local_equilibrium(pm1, rho0, u0, 512, plan, seed=22)
    simulate(st3, pm1, plan, 0.05)
    assert st3.trajectory_hash != runs[0].trajectory_hash


@pytest.mark.parametrize("spec, gamma, plan, t_end, first, last, events", [
    ("pm1", None, ScalingPlan(delta=0.25), 0.05,
     "e62f9c5a2c60d49b71eab7462c9178fd", "28ebdcd3f5540b74ea9295853363dc8f",
     88_262),
    ("two-lane", 1.25, ScalingPlan("intermediate", beta=0.1, delta=0.25), 0.03,
     "8a106447523e08a8a9becb975504ef03", "7bdef0964efc310275b88e7313f97df7",
     113_493),
], ids=["pm1", "two_lane"])
def test_trajectory_hashes_pinned(spec, gamma, plan, t_end, first, last,
                                  events):
    """Fixed seeds reproduce the recorded trajectories; a change to the
    site draws, the draw order or the event engine moves these hashes."""
    model = build_model(spec, gamma=gamma)
    st = sample_local_equilibrium(model,
                                  lambda x: 0.5 + 0.1 * np.sin(2 * np.pi * x),
                                  lambda x: 0.1 * np.cos(2 * np.pi * x),
                                  512, plan, seed=21)
    assert st.trajectory_hash == first
    simulate(st, model, plan, t_end)
    assert (st.trajectory_hash, st.events) == (last, events)


def test_law_exactness_tiny_system(pm1):
    """Windowed transition frequencies against the matrix exponential."""
    n = 3
    plan = ScalingPlan(delta=0.25)
    lam = plan.lambda_speed(n)
    kap = plan.kappa_speed(n)
    G = lam * generator_matrix(pm1, n, "L") + kap * generator_matrix(pm1, n, "K")
    dt = 0.02
    P = expm(G * dt)
    powers = 3 ** np.arange(n - 1, -1, -1)

    windows = 60_000
    rng_init = philox_stream(123, 0)
    spins = np.array([0, 1, 2], dtype=np.uint8)
    st = LatticeState(spins=spins.copy(), time=0.0, seed=123, rng=rng_init)
    st.total_eta, st.total_zeta2 = st.recompute_totals(pm1)
    codes = [int(st.spins @ powers)]

    def obs(state):
        codes.append(int(state.spins @ powers))

    times = dt * np.arange(1, windows + 1)
    simulate(st, pm1, plan, times[-1], observe_at=times, observer=obs,
             check_conservation=False)
    codes = np.array(codes)
    src, dst = codes[:-1], codes[1:]
    # compare empirical next-window distributions to expm rows, 3 sigma with
    # a small allowance for the multiplicity of cells
    bad = total = 0
    for x in np.unique(src):
        sel = dst[src == x]
        if sel.size < 2000:
            continue
        emp = np.bincount(sel, minlength=27) / sel.size
        for y in range(27):
            p = P[x, y]
            if p < 1e-4:
                continue
            sigma = np.sqrt(p * (1 - p) / sel.size)
            total += 1
            if abs(emp[y] - p) > 3.0 * sigma:
                bad += 1
    # the start level set has 6 states, so ~36 comparable cells
    assert total > 30
    assert bad <= max(2, 0.02 * total)


def test_microcanonical_occupation(pm1):
    """Long-run occupation on a level set matches the conditioned product law."""
    n = 4
    plan = ScalingPlan(delta=0.25)
    spins0 = np.array([1, 1, 0, 2], dtype=np.uint8)   # N=2, Z=+1-1=... level set
    st = LatticeState(spins=spins0.copy(), time=0.0, seed=5,
                      rng=philox_stream(5, 0))
    st.total_eta, st.total_zeta2 = st.recompute_totals(pm1)
    powers = 3 ** np.arange(n - 1, -1, -1)
    pi = product_measure_vector(pm1, n, 0.0, 0.0)
    # the level set of the start state under uniform pi: conditioned weights
    total = 3 ** n
    confs = np.array(np.unravel_index(np.arange(total), (3,) * n)).T
    N = pm1.eta[confs].sum(axis=1)
    Z = pm1.zeta_half_units[confs].sum(axis=1)
    mask = (N == st.total_eta) & (Z == st.total_zeta2)
    target = np.where(mask, pi, 0.0)
    target /= target.sum()

    counts = np.zeros(total)
    batches = 40
    snaps_per = 400
    batch_freq = np.zeros((batches, total))
    k = 0
    t0 = 0.0
    for b in range(batches):
        times = t0 + 0.05 * np.arange(1, snaps_per + 1)
        local = []
        simulate(st, pm1, plan, times[-1], observe_at=times,
                 observer=lambda s: local.append(int(s.spins @ powers)))
        t0 = times[-1]
        idx, cts = np.unique(local, return_counts=True)
        batch_freq[b, idx] = cts / snaps_per
    freq = batch_freq.mean(axis=0)
    sem = batch_freq.std(axis=0, ddof=1) / np.sqrt(batches)
    live = target > 0
    assert np.all(freq[~live] == 0)
    dev = np.abs(freq[live] - target[live]) / np.maximum(sem[live], 1e-9)
    # batch means are correlated; allow a generous band but require bulk fit
    assert np.mean(dev < 3.0) > 0.9
    assert np.max(np.abs(freq[live] - target[live])) < 0.02


def test_block_average_constants_and_mirror(pm1):
    l, n = 40, 4000
    const = np.full(n, 2.5)
    val = block_average(const, l, 0.3, n)
    assert abs(val - 2.5) < 2.5 / l ** 2 * 5
    rng = np.random.default_rng(0)
    vals = rng.normal(size=n)
    x = np.linspace(0, 1, 13, endpoint=False)
    ba = block_average(vals, l, x, n)
    # mirror: reversing the lattice mirrors the block-average field
    ba_rev = block_average(vals[::-1], l, np.mod(1.0 - x - 1.0 / n, 1.0), n)
    assert np.max(np.abs(ba - ba_rev)) < 1e-10


def test_zeta_block_average_negates_under_mirror(pm1):
    plan = ScalingPlan()
    st = sample_local_equilibrium(pm1, lambda x: 0.5 + 0 * x,
                                  lambda x: 0.2 * np.sin(2 * np.pi * x),
                                  2000, plan, seed=3)
    zeta = pm1.zeta[st.spins]
    mirrored = pm1.zeta[pm1.involution[st.spins[::-1]]]
    x = np.array([0.25])
    l = 50
    a = block_average(zeta, l, x, 2000)
    b = block_average(mirrored, l, np.mod(1.0 - x - 1.0 / 2000, 1.0), 2000)
    assert abs(a + b) < 1e-12


def test_empirical_fields_constant_profile(pm1):
    plan = ScalingPlan(l=60)
    n = 30_000
    st = sample_local_equilibrium(pm1, lambda x: 0.55 + 0 * x,
                                  lambda x: 0.1 + 0 * x, n, plan, seed=17)
    fr, fu = empirical_fields(st, pm1, plan, 32)
    assert np.max(np.abs(fr.values - 0.55)) < 5.0 / np.sqrt(60)
    assert np.max(np.abs(fu.values - 0.1)) < 5.0 / np.sqrt(60)
    # discrete mass consistency: mean of the field ~ lattice mean
    lattice_mean = pm1.eta[st.spins].mean()
    assert abs(fr.mean() - lattice_mean) < 0.01


def test_two_seeds_differ_by_block_noise(pm1):
    plan = ScalingPlan(l=100)
    n = 20_000
    f = []
    for seed in (1, 2):
        st = sample_local_equilibrium(pm1, lambda x: 0.5 + 0 * x,
                                      lambda x: 0.0 * x, n, plan, seed=seed)
        f.append(empirical_fields(st, pm1, plan, 16)[0].values)
    diff = np.abs(f[0] - f[1])
    assert np.max(diff) > 0          # genuinely different draws
    assert np.max(diff) < 8.0 / np.sqrt(100)


def test_snapshot_roundtrip(tmp_path, pm1):
    plan = ScalingPlan()
    st = sample_local_equilibrium(pm1, lambda x: 0.5 + 0 * x,
                                  lambda x: 0.05 + 0 * x, 256, plan, seed=8)
    simulate(st, pm1, plan, 0.01)
    path = tmp_path / "state.bin"
    dump_state(path, st, pm1)
    st2 = load_state(path, pm1)
    assert np.array_equal(st.spins, st2.spins)
    assert st2.time == st.time
    assert (st2.total_eta, st2.total_zeta2) == (st.total_eta, st.total_zeta2)
    # restart continues cleanly
    simulate(st2, pm1, plan, st2.time + 0.01)

    fr, fu = empirical_fields(st, pm1, plan, 8)
    csvp = tmp_path / "snap.csv"
    write_snapshot_csv(csvp, [(st.time, fr, fu)])
    lines = csvp.read_text().strip().splitlines()
    assert lines[0] == "t,x,rho_hat,u_hat"
    assert len(lines) == 9


def test_restart_is_exact(tmp_path, pm1):
    plan = ScalingPlan()
    rho0 = lambda x: 0.5 + 0.1 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.1 * np.cos(2 * np.pi * x)
    t_half, t_end = 0.01, 0.02
    straight = sample_local_equilibrium(pm1, rho0, u0, 256, plan, seed=13)
    simulate(straight, pm1, plan, t_half)
    simulate(straight, pm1, plan, t_end)
    part = sample_local_equilibrium(pm1, rho0, u0, 256, plan, seed=13)
    simulate(part, pm1, plan, t_half)
    path = tmp_path / "half.bin"
    dump_state(path, part, pm1)
    resumed = load_state(path, pm1)
    assert (resumed.events, resumed.accepted, resumed.trajectory_hash) == \
        (part.events, part.accepted, part.trajectory_hash)
    simulate(resumed, pm1, plan, t_end)
    assert np.array_equal(resumed.spins, straight.spins)
    assert (resumed.events, resumed.accepted) == \
        (straight.events, straight.accepted)
    assert resumed.trajectory_hash == straight.trajectory_hash


def test_version1_snapshot_rejected(tmp_path, pm1):
    path = tmp_path / "v1.bin"
    path.write_bytes(struct.pack("<4sIQIQd", b"LGS1", 1, 4, 3, 8, 0.0)
                     + bytes(4))
    with pytest.raises(ValueError, match="version 1") as exc:
        load_state(path, pm1)
    assert "\n" not in str(exc.value)


@pytest.fixture
def c_kernel():
    if sim.EVENTS.backend != "c":
        pytest.skip("no C compiler to build the event kernel")


@pytest.mark.parametrize("n", [1, 2, 1000, 2 ** 31 + 1, 3 * 2 ** 30,
                               2 ** 32 - 1])
def test_bond_fill_matches_numpy(c_kernel, n):
    """The compiled bond fill is numpy's ``integers(0, n)`` for int64, bit
    for bit, and leaves the generator where numpy leaves it.  An odd count
    leaves half a Philox word buffered; at n = 2^31 + 1 and n = 3 * 2^30
    Lemire's rule rejects about a half and a quarter of the 32-bit draws,
    and n = 1 draws nothing."""
    m = 1001
    fill = sim.EVENTS.impl[0]
    rng, ref, plain = (philox_stream(5, 3) for _ in range(3))
    for g in (rng, ref, plain):
        g.random(3)         # start inside a Philox output block
    start = _stream_words(rng)
    bonds = np.empty(m, dtype=np.uint32)
    fill(rng, n, bonds)
    words = _stream_words(rng)
    assert np.array_equal(bonds, ref.integers(0, n, size=m, dtype=np.int64))
    assert words == _stream_words(ref)
    assert np.array_equal(rng.random(4), ref.random(4))
    # m plain 32-bit words, one per bond: what a fill without rejection draws
    plain.integers(0, 2 ** 32, size=m, dtype=np.uint64)
    if n == 1:
        assert not bonds.any() and words == start
    elif n in (2 ** 31 + 1, 3 * 2 ** 30):     # rejects about 1/2 and 1/4
        assert words != _stream_words(plain)
    else:
        assert words == _stream_words(plain) and words[4] == 1  # has_uint32
    with pytest.raises(ValueError):
        fill(rng, 2 ** 32, bonds)


@pytest.mark.parametrize("name", ["pm1", "two_lane"])
def test_backends_give_identical_trajectories(request, monkeypatch, c_kernel,
                                              name):
    model = request.getfixturevalue(name)
    plan = ScalingPlan(delta=0.25)
    rho0 = lambda x: 0.4 + 0.1 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.1 * np.cos(2 * np.pi * x)
    stops = (0.01, 0.02, 0.03, 0.04)
    runs = []
    for kernel in (sim.EVENTS.impl, sim.EVENTS.python):
        monkeypatch.setattr(sim.EVENTS, "impl", kernel)
        st = sample_local_equilibrium(model, rho0, u0, 256, plan, seed=31)
        seen = []
        simulate(st, model, plan, stops[-1], observe_at=stops,
                 observer=lambda s: seen.append((s.accepted,
                                                 s.trajectory_hash)))
        runs.append((sim.EVENTS.backend, st.spins.copy(), st.events, seen))
    (kc, spins_c, events_c, seen_c), (kp, spins_p, events_p, seen_p) = runs
    assert (kc, kp) == ("c", "python")
    assert events_c == events_p > 10_000
    assert np.array_equal(spins_c, spins_p)
    assert len(seen_c) == len(stops) and seen_c == seen_p


@pytest.mark.parametrize("name", ["pm1", "two_lane"])
def test_backends_agree_across_chunks(request, monkeypatch, c_kernel, name):
    """With a small odd chunk every stop spans several chunks, and each
    chunk draws all its bonds before its uniforms; the compiled pass and
    the twin still leave the same spins, counts and generator state."""
    model = request.getfixturevalue(name)
    monkeypatch.setattr(sim, "_EVENT_CHUNK", 9_999)
    plan = ScalingPlan(delta=0.25)
    stops = (0.02, 0.04, 0.06)
    runs = []
    for kernel in (sim.EVENTS.impl, sim.EVENTS.python):
        monkeypatch.setattr(sim.EVENTS, "impl", kernel)
        st = sample_local_equilibrium(model, lambda x: 0.5 + 0 * x,
                                      lambda x: 0.05 + 0 * x, 400, plan,
                                      seed=17)
        seen = []
        simulate(st, model, plan, stops[-1], observe_at=stops,
                 observer=lambda s: seen.append(
                     (s.spins.copy(), s.events, s.accepted,
                      _stream_words(s.rng))))
        runs.append(seen)
    assert len(runs[0]) == len(stops)
    assert runs[0][-1][1] > 3 * 9_999       # several chunks, odd remainders
    for (spins_c, *rest_c), (spins_p, *rest_p) in zip(*runs):
        assert np.array_equal(spins_c, spins_p) and rest_c == rest_p


def test_channel_index_is_first_threshold_above(pm1, two_lane):
    """The count of thresholds at or below u is the first channel whose
    threshold exceeds u; past the last one the identity column keeps the
    pair."""
    for model in (pm1, two_lane):
        tab = sim._ChannelTable(model, 1.0, 3.0)
        k, nchan = tab.k, tab.nchan
        pair = np.arange(k * k)
        assert tab.out_a.shape == tab.out_b.shape == (k * k, nchan + 1)
        assert np.array_equal(tab.out_a[:, nchan], pair // k)
        assert np.array_equal(tab.out_b[:, nchan], pair % k)
        u = np.random.default_rng(0).random(500)
        u[:k * k] = tab.cum[:, -1]        # exactly on a row's last threshold
        for c in pair:
            q = (tab.cum[c][None, :] <= u[:, None]).sum(axis=1)
            assert np.array_equal(
                q, np.searchsorted(tab.cum[c], u, side="right"))


@pytest.mark.parametrize("backend", ["c", "python"])
def test_bad_event_arguments_raise(monkeypatch, pm1, backend):
    if backend == "python":
        monkeypatch.setattr(sim.EVENTS, "impl", sim.EVENTS.python)
    elif sim.EVENTS.backend != "c":
        pytest.skip("no C compiler to build the event kernel")
    st = LatticeState(spins=np.array([0, 1, 7, 2], dtype=np.uint8), time=0.0,
                      seed=1, rng=philox_stream(1))
    with pytest.raises(ValueError, match="outside"):
        simulate(st, pm1, ScalingPlan(), 1.0, check_conservation=False)
    tab = sim._ChannelTable(pm1, 1.0, 1.0)
    good = dict(spins=np.zeros(8, dtype=np.uint8), cum=tab.cum,
                out_a=tab.out_a, out_b=tab.out_b)
    bad_state = tab.out_b.copy()
    bad_state[2, 0] = tab.k
    for key, bad in [("spins", np.zeros(8, dtype=np.int64)),
                     ("spins", np.zeros(16, dtype=np.uint8)[::2]),
                     ("cum", tab.cum[:, :-1].copy()),
                     ("out_a", tab.out_a[:, :-1].copy()),
                     ("out_b", bad_state)]:
        args = good | {key: bad}
        with pytest.raises(ValueError):
            sim._bind_events(philox_stream(1), args["spins"], args["cum"],
                             args["out_a"], args["out_b"], tab.nchan, tab.k)
    apply = sim._bind_events(philox_stream(1), good["spins"], tab.cum,
                             tab.out_a, tab.out_b, tab.nchan, tab.k)
    assert 0 <= apply(np.empty(3, dtype=np.uint32)) <= 3
    assert good["spins"].max() < tab.k


def test_lattice_beyond_bond_range_is_one_line_error(pm1):
    """Bonds are drawn by numpy's 32-bit rule, so n stops at 2^32 - 1; the
    lattice here is a read-only view that takes no memory."""
    st = LatticeState(spins=np.broadcast_to(np.uint8(0), (2 ** 32,)),
                      time=0.0, seed=1, rng=philox_stream(1))
    with pytest.raises(ValueError, match="n <= 4294967295") as exc:
        simulate(st, pm1, ScalingPlan(), 1e-12, check_conservation=False)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_observer_cannot_corrupt_lattice(monkeypatch, pm1, backend):
    """The lattice is checked once per run and again after every observer
    call, so a state written by an observer is caught before the kernel."""
    if backend == "python":
        monkeypatch.setattr(sim.EVENTS, "impl", sim.EVENTS.python)
    elif sim.EVENTS.backend != "c":
        pytest.skip("no C compiler to build the event kernel")
    plan = ScalingPlan()
    st = sample_local_equilibrium(pm1, lambda x: 0.5 + 0 * x,
                                  lambda x: 0.0 * x, 16, plan, seed=4)

    def corrupt(state):
        state.spins[3] = 9

    with pytest.raises(ValueError, match="outside"):
        simulate(st, pm1, plan, 0.2, observe_at=(0.1, 0.2), observer=corrupt,
                 check_conservation=False)


def test_python_fallback_without_compiler(monkeypatch, without_compiler,
                                          pm1):
    """Without a compiler the interpreted loop advances the chain."""
    monkeypatch.setattr(sim, "EVENTS", dataclasses.replace(sim.EVENTS))
    plan = ScalingPlan()
    st = sample_local_equilibrium(pm1, lambda x: 0.5 + 0 * x,
                                  lambda x: 0.0 * x, 64, plan, seed=2)
    simulate(st, pm1, plan, 0.01)
    assert st.events > 0
