import json

import numpy as np
import pytest

from latgas import build_model
from latgas.cli import main
from latgas.sim import load_state


def test_validate_ok(capsys):
    rc = main(["validate", "--model", "pm1", "--block-len", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(D) asym_stationarity  pass" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_solve_pde_csv(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["--out", str(out), "solve-pde", "--gamma", "1", "--m", "64",
               "--t-end", "0.02", "--snapshots", "1"])
    assert rc == 0
    lines = (out / "pde.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,rho,u"
    assert len(lines) == 1 + 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve-pde"
    assert "numpy" in manifest["versions"]
    assert manifest["status"] == "ok" and "error" not in manifest


def test_manifest_roundtrip(tmp_path, capsys):
    out = tmp_path / "first"
    rc = main(["--out", str(out), "solve-pde", "--gamma", "1.5", "--m", "32",
               "--t-end", "0.01", "--snapshots", "1"])
    assert rc == 0
    first = (out / "pde.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["event_kernel"] in ("c", "python")
    assert manifest["versions"]["march_kernel"] in ("c", "python")
    assert manifest["versions"]["tilt_kernel"] in ("c", "python")
    rc = main(["rerun", str(out / "manifest.json")])
    assert rc == 0
    assert (out / "pde.csv").read_bytes() == first


def test_invariant_failure_is_one_line(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "o"), "solve-pde", "--flux",
               "model:pm1", "--rho-base", "0.97", "--rho-amp", "0.05"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["command"] == "solve-pde"
    assert manifest["status"] == "failed"
    assert manifest["error"] == err[len("error: "):].strip()
    assert "outside the flux domain" in manifest["error"]
    assert manifest["params"]["flux"] == "model:pm1"


def test_fluxes_csv_stays_in_domain(tmp_path, capsys, pm1_flux):
    out = tmp_path / "fl"
    rc = main(["--out", str(out), "fluxes", "--model", "pm1", "--grid", "20"])
    assert rc == 0
    rows = np.loadtxt(out / "fluxes.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) > 0
    assert np.all(pm1_flux.domain.contains(rows[:, 0], rows[:, 1]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    rc = main(["--seed", "3", "--out", str(out), "simulate", "--model", "pm1",
               "--n", "256", "--t-end", "0.02", "--m", "32",
               "--snapshots", "1", "--replicas", "2"])
    assert rc == 0
    assert (out / "snapshots_rep0.csv").exists()
    assert (out / "state_rep1.bin").exists()
    head = (out / "snapshots_rep0.csv").read_text().splitlines()[0]
    assert head == "t,x,rho_hat,u_hat"
    manifest = json.loads((out / "manifest.json").read_text())
    reps = manifest["metrics"]["replicas"]
    assert [r["replica"] for r in reps] == [0, 1]
    for rep in reps:
        state = load_state(out / f"state_rep{rep['replica']}.bin",
                           build_model("pm1"))
        assert (rep["events"], rep["accepted"], rep["trajectory_hash"]) == \
            (state.events, state.accepted, state.trajectory_hash)
        assert rep["events"] > rep["accepted"] > 0
        assert 0 < rep["simulate_s"] < 60
    assert reps[0]["trajectory_hash"] != reps[1]["trajectory_hash"]


def test_enumerate_exit(capsys):
    rc = main(["enumerate", "--model", "pm1", "--l-list", "4,5,6"])
    assert rc == 0
    assert "fitted C" in capsys.readouterr().out


def test_tails_cli(tmp_path, capsys):
    from latgas.sim import SITES

    rc = main(["--out", str(tmp_path), "tails", "--model", "pm1", "--n",
               "500", "--l", "40", "--samples", "60000"])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["sites_kernel"] == SITES.backend


def test_converge_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("""[experiment]
model = pm1
n_list = 128,256
replicas = 4
t_checkpoints = 0.05,
m_grid = 32
oracle_m = 256
""")
    rc = main(["--seed", "7", "--threads", "4", "converge",
               "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "decreasing" in out


def test_converge_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nnot_a_key = 1\n")
    rc = main(["converge", "--config", str(cfg)])
    assert rc == 2


def test_verify_bounds_cli(capsys):
    rc = main(["verify-bounds", "--gamma", "2.0", "--r-lo", "0.5",
               "--r-hi", str(0.5 * float(np.exp(2.0))), "--u-max", "0.6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "S_rho-1D2" in out
