"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Each case runs a check on a small clean input, where it must pass, and on
the same input with one corruption, where it must fail.  Exits 1 if any
case does not behave so.  Takes well under a minute.
"""

import dataclasses
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from workloads import MUTANT  # noqa: E402


def case(label, check, clean, corrupt):
    """Run ``check`` on both inputs; True when it passes only the clean one."""
    ok_clean, detail_clean = check(*clean)
    ok_corrupt, detail_corrupt = check(*corrupt)
    good = ok_clean and not ok_corrupt
    print(f"{'PASS' if good else 'FAIL'} {label}\n"
          f"     clean:   {'passes' if ok_clean else 'fails'} ({detail_clean})\n"
          f"     corrupt: {'passes' if ok_corrupt else 'fails'} "
          f"({detail_corrupt})")
    return good


def conservation_cases():
    from latgas import build_model, harness, sim

    pm1 = build_model("pm1")
    plan = sim.ScalingPlan(mode="eulerian")
    st = sim.sample_local_equilibrium(pm1, lambda x: 0.5 + 0 * x,
                                      lambda x: 0.0 * x, 64, plan, seed=3)
    before = st.spins.copy()
    sim.simulate(st, pm1, plan, 0.02)
    flipped = st.spins.copy()
    j = int(np.argmax(flipped == 1))        # an occupied site (state "0")
    flipped[j] = 2                          # becomes "+1": one particle lost
    ok = case("a flipped spin breaks conservation", checks.conserved,
              (pm1, before, st.spins), (pm1, before, flipped))

    cfg = harness.ExperimentConfig(model="pm1", n_list=(64,), replicas=2,
                                   t_checkpoints=(0.01,), m_grid=16,
                                   oracle_m=64, seed=5, threads=1)
    rep = harness.run_eulerian(cfg)
    weak = dict(rep.weak)
    mean, std, ref = weak[(64, 0.01, "rho_one")]
    weak[(64, 0.01, "rho_one")] = (mean + 1.0 / 64 / 2, std, ref)
    ok &= case("one particle too many breaks the g=1 pairing",
               checks.pairing_invariant, (rep.weak, (64,), (0.01,)),
               (weak, (64,), (0.01,)))
    return ok


def oracle_case():
    from latgas import build_model, macroscopic_flux
    from latgas.fields import Field
    from latgas.pde import LimitFlux, ModelFluxView, smooth_solution_oracle

    rho0 = lambda x: 0.5 + 0.1 * np.sin(2 * np.pi * x)
    u0 = lambda x: 0.1 * np.cos(2 * np.pi * x)
    kw = dict(m_out=32, m_fine=64, snapshot_times=(0.05, 0.1))
    model = smooth_solution_oracle(
        ModelFluxView(macroscopic_flux(build_model("pm1"))), rho0, u0, 0.1,
        **kw)
    ref = smooth_solution_oracle(LimitFlux(1.0), rho0, u0, 0.1, **kw)
    shifted = dict(model)
    r, u = shifted[0.1]
    shifted[0.1] = (Field(r.values + 1e-6, r.t, "rho"), u)
    return case("an oracle shifted by 1e-6 no longer matches LimitFlux(1)",
                checks.fields_match, (model, ref, 1e-8),
                (shifted, ref, 1e-8))


def entropy_case():
    from latgas.entropy import build_entropy
    from latgas.pde import LimitFlux

    tab = build_entropy(LimitFlux(2.0), 1.0, np.exp(2.0), u_max=1.0,
                        cells_per_rlo=8, n_u=40)
    S = tab.S.copy()
    d2 = np.argwhere(tab.labels == 2)
    S[tuple(d2[len(d2) // 2])] += 1e-9
    perturbed = dataclasses.replace(tab, S=S)
    return case("an entropy table perturbed on D2 is not exactly linear there",
                checks.entropy_exact_off_wedge, (tab,), (perturbed,))


def conditions_case():
    from latgas import build_model, validate_conditions

    pm1 = validate_conditions(build_model("pm1"), block_len=4)
    mutant = validate_conditions(build_model(MUTANT), block_len=3)
    ok = case("asymmetric rates that break (D) fail the condition suite",
              checks.condition_residuals, ([pm1],), ([mutant],))
    ok &= case("the negative control fails when its rates satisfy (D)",
               checks.mutant_fails_d, (mutant,), (pm1,))
    return ok


def poisson_case():
    mean = 1.0e6
    return case("an event count 6 sigma off its Poisson mean",
                checks.poisson_count, (mean + 3e3, mean),
                (mean + 6e3, mean))


def main():
    results = [conservation_cases(), oracle_case(), entropy_case(),
               conditions_case(), poisson_case()]
    print("all checks can fail" if all(results) else "SOME CHECKS CANNOT FAIL")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
