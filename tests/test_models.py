import dataclasses

import numpy as np
import pytest

import latgas.harness
import latgas.sim
from latgas.models import (ModelError, TooLarge, build_model,
                           model_from_config, validate_conditions,
                           microscopic_fluxes)


def test_pm1_structure(pm1):
    assert pm1.nstates == 3
    assert pm1.v0 == 1.0
    # involution flips the sign of zeta and fixes eta
    R = pm1.involution
    assert np.all(pm1.eta[R] == pm1.eta)
    assert np.all(pm1.zeta[R] == -pm1.zeta)
    # stated jump rates
    i = {lab: k for k, lab in enumerate(pm1.labels)}
    assert pm1.r[i["-1"], i["+1"], i["+1"], i["-1"]] == 2.0
    assert pm1.r[i["-1"], i["0"], i["0"], i["-1"]] == 1.0
    assert pm1.r[i["0"], i["+1"], i["+1"], i["0"]] == 1.0
    assert pm1.r.sum() == 4.0


def test_two_lane_v0_scaling(two_lane):
    # half-integer slopes scaled so Var(zeta | eta=0) = 1
    assert two_lane.v0 == 2.0
    assert set(np.round(two_lane.zeta, 12)) == {-1.0, 1.0}


def test_conditions_pass_builtin(pm1, two_lane):
    for model in (pm1, two_lane):
        rep = validate_conditions(model, block_len=4)
        assert rep.all_passed()
        for name in ("conservation", "lr_symmetry", "asym_stationarity",
                     "sym_reversibility", "gradient_flux"):
            assert getattr(rep, name).residual < 1e-12


def test_irreducibility_block6(pm1, two_lane):
    assert validate_conditions(pm1, block_len=6).irreducibility.passed
    assert validate_conditions(two_lane, block_len=6).irreducibility.passed


def test_irreducibility_check_can_fail(pm1):
    """Without jumps every configuration is its own class, so each level set
    holding more than one configuration is disconnected."""
    frozen = dataclasses.replace(pm1, r=np.zeros_like(pm1.r),
                                 s=np.zeros_like(pm1.s))
    res = validate_conditions(frozen, block_len=4).irreducibility
    assert not res.passed
    assert (res.residual, res.detail) == (12.0, "12 disconnected level sets")
    # one enumeration limit error, whichever module raises it
    assert latgas.sim.TooLarge is latgas.harness.TooLarge is TooLarge
    assert issubclass(TooLarge, ModelError)


def test_mutated_rate_breaks_stationarity(pm1):
    r = pm1.r.copy()
    i = {lab: k for k, lab in enumerate(pm1.labels)}
    r[i["0"], i["+1"], i["+1"], i["0"]] = 5.0
    bad = build_model({
        "name": "pm1-mutant", "labels": list(pm1.labels),
        "eta": {lab: int(e) for lab, e in zip(pm1.labels, pm1.eta)},
        "zeta": {lab: str(z) for lab, z in zip(pm1.labels, pm1.zeta_raw)},
        "pi": {lab: "1/3" for lab in pm1.labels},
        "involution": {"-1": "+1", "0": "0", "+1": "-1"},
        "r": {"-1,+1->+1,-1": 2.0, "-1,0->0,-1": 1.0, "0,+1->+1,0": 5.0},
        "s": {f"{a},{b}->{b},{a}": 1.0 for a in pm1.labels for b in pm1.labels
              if a != b},
    })
    rep = validate_conditions(bad, block_len=3)
    assert not rep.asym_stationarity.passed
    assert rep.asym_stationarity.residual > 0.1


def test_gradient_flux_extraction(pm1):
    rep = validate_conditions(pm1, block_len=3)
    # kappa = eta and chi = zeta up to gauge for swap dynamics
    assert np.allclose(rep.kappa, pm1.eta, atol=1e-10)
    psi, phi, psi_s, phi_s = microscopic_fluxes(pm1)
    fitted = rep.chi[:, None] - rep.chi[None, :]
    assert np.max(np.abs(fitted - phi_s)) < 1e-12
    # kappa vanishes on the empty level
    assert abs(rep.kappa[0]) < 1e-12 and abs(rep.kappa[2]) < 1e-12


def test_rejects_broken_involution(pm1):
    with pytest.raises(ModelError):
        build_model({
            "name": "bad", "labels": ["a", "b"],
            "eta": {"a": 0, "b": 1}, "zeta": {"a": "-1", "b": "1"},
            "pi": {"a": 0.5, "b": 0.5},
            "involution": {"a": "a", "b": "b"},   # does not flip zeta
        })


def test_rejects_bad_probability():
    with pytest.raises(ModelError):
        build_model({
            "name": "bad", "labels": ["a", "b", "c"],
            "eta": {"a": 1, "b": 0, "c": 0},
            "zeta": {"a": "0", "b": "1", "c": "-1"},
            "pi": {"a": -0.2, "b": 0.6, "c": 0.6},
            "involution": {"a": "a", "b": "c", "c": "b"},
        })


def test_model_config_roundtrip(tmp_path, pm1):
    cfg = tmp_path / "pm1.ini"
    cfg.write_text("""
[meta]
name = pm1-file
phi_offset = 1.0

[omega]
states = -1, 0, +1
eta = 0, 1, 0
zeta = -1, 0, 1
involution = +1, 0, -1

[measure]
pi = 1/3, 1/3, 1/3

[rates.r]
-1,+1->+1,-1 = 2
-1,0->0,-1 = 1
0,+1->+1,0 = 1

[rates.s]
-1,0->0,-1 = 1
0,-1->-1,0 = 1
-1,+1->+1,-1 = 1
+1,-1->-1,+1 = 1
0,+1->+1,0 = 1
+1,0->0,+1 = 1
""")
    m = model_from_config(str(cfg))
    assert np.array_equal(m.r, pm1.r)
    assert np.array_equal(m.s, pm1.s)
    assert validate_conditions(m, block_len=3).all_passed()


def test_unknown_config_section_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[nonsense]\nkey = 1\n")
    with pytest.raises(ModelError):
        model_from_config(str(cfg))


def test_unknown_model_name():
    with pytest.raises(ModelError):
        build_model("no-such-model")
