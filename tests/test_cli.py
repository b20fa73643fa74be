import json

import numpy as np
import pytest

from multikink.cli import main


SG_SINGLE = """
[run]
seed = 42

[potential]
kind = sine_gordon

[chain]
labels = 0, 1

[multikink]
velocities = 0.3
shifts = 0.0

[grid]
x_min = -25
x_max = 25
dx = 0.05
t_start = 0
t_end = 8
snapshot_every = 20

[construct]
T = 2.0
delta = 0.5
t_final = 20.0
tol = 1e-8

[kink]
n = 0
n_prime = 1

[boost]
v = 0.2

[verify]
window_t = 3.0

[output]
directory = out
"""


@pytest.fixture()
def sg_config(tmp_path):
    path = tmp_path / "sg.cfg"
    path.write_text(SG_SINGLE)
    return path


def test_cmd_kink(tmp_path, sg_config):
    out = tmp_path / "o"
    assert main(["kink", "--config", str(sg_config), "--out", str(out)]) == 0
    data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    mid = len(data) // 2
    assert abs(data[mid, 0]) <= 1e-12
    assert abs(data[mid, 1] - np.pi) <= 1e-12
    energy = json.loads((out / "energy.json").read_text())
    assert abs(energy["energy"] - 8.0) <= 1e-6
    assert energy["artifact_version"]
    assert energy["config"]["potential"]["kind"] == "sine_gordon"
    tails = json.loads((out / "tails.json").read_text())
    assert abs(tails["right"]["fitted_rate"] - 1.0) <= 0.02


def test_cmd_multikink_and_evolve(tmp_path, sg_config):
    out = tmp_path / "o"
    assert main(["multikink", "--config", str(sg_config), "--out", str(out)]) == 0
    sector = json.loads((out / "sector.json").read_text())
    assert sector["sector"] == [0, 1]
    assert main(["evolve", "--config", str(sg_config), "--out", str(out)]) == 0
    ev = json.loads((out / "evolve.json").read_text())
    assert ev["energy_drift"] <= 1e-5
    assert (out / "slab" / "manifest.json").is_file()
    series = np.loadtxt(out / "energy_series.csv", delimiter=",", skiprows=1)
    gamma = 1.0 / np.sqrt(1.0 - 0.09)
    assert abs(series[0, 1] - 8.0 * gamma) <= 1e-3


def test_cmd_evolve_ends_at_t_end(tmp_path, sg_config):
    # dt = 0.9 dx = 0.045 does not divide t_end = 8; the run takes 178
    # steps of 8/178 and its last snapshot is t_end itself
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(sg_config), "--out", str(out)]) == 0
    times = json.loads((out / "slab" / "manifest.json").read_text())["times"]
    assert times[-1] == 8.0
    assert len(times) == 178 // 20 + 2
    assert json.loads((out / "evolve.json").read_text())["snapshots"] == len(times)


@pytest.mark.slow
def test_cmd_construct(tmp_path, sg_config):
    out = tmp_path / "o"
    assert main(["construct", "--config", str(sg_config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["converged"]
    # K=1: the error vanishes; the residual sits at the measurement cadence
    assert report["iterate_norms"][0] <= 1e-12
    assert report["final_residual"] <= 1e-3
    assert (out / "psi_slab" / "manifest.json").is_file()


def test_cmd_boost_and_spectrum(tmp_path, sg_config):
    out = tmp_path / "o"
    assert main(["boost", "--config", str(sg_config), "--out", str(out)]) == 0
    boosted = json.loads((out / "boosted_params.json").read_text())
    assert abs(boosted["velocities"][0] - (0.3 - 0.2) / (1 - 0.06)) <= 1e-14
    assert boosted["round_trip_error"] <= 1e-13
    assert main(["spectrum", "--config", str(sg_config), "--out", str(out)]) == 0
    spec = json.loads((out / "spectrum.json").read_text())
    assert abs(spec["eigenvalues"][0]) <= 1e-4
    assert spec["kernel_cosine_similarity"] >= 0.9999


@pytest.mark.slow
def test_cmd_verify(tmp_path, sg_config):
    out = tmp_path / "o"
    assert main(["verify", "--config", str(sg_config), "--out", str(out)]) == 0
    doc = json.loads((out / "verification.json").read_text())
    assert doc["covariance"]["discrepancy"] <= 1e-4
    assert doc["energy_drift"]["max_drift"] <= 1e-5
    assert doc["coercivity"]["min_rayleigh_ratio"] >= 0.05


@pytest.mark.slow
def test_determinism(tmp_path, sg_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["verify", "--config", str(sg_config), "--out", str(out)]) == 0
    assert (out1 / "verification.json").read_bytes() == (out2 / "verification.json").read_bytes()


def test_seed_override_changes_samples(tmp_path, sg_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(sg_config), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(sg_config), "--out", str(out2),
                 "--seed", "7"]) == 0
    d1 = json.loads((out1 / "spectrum.json").read_text())
    d2 = json.loads((out2 / "spectrum.json").read_text())
    assert d1["seed"] == 42 and d2["seed"] == 7
    assert d1["coercivity_lambda0"] != d2["coercivity_lambda0"]


def test_missing_config_exit_2(tmp_path):
    assert main(["kink", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_invalid_chain_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SG_SINGLE.replace("labels = 0, 1", "labels = 0, 2"))
    assert main(["multikink", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "(0, 2)" in capsys.readouterr().err


def test_missing_boost_section_exit_2(tmp_path):
    path = tmp_path / "noboost.cfg"
    path.write_text(SG_SINGLE.replace("[boost]\nv = 0.2\n", ""))
    assert main(["boost", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_missing_required_key_exit_2(tmp_path):
    path = tmp_path / "nokind.cfg"
    path.write_text(SG_SINGLE.replace("kind = sine_gordon", ""))
    assert main(["kink", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("dx", ["0", "-0.05", "nan"])
def test_bad_grid_step_exit_2(tmp_path, capsys, dx):
    path = tmp_path / "baddx.cfg"
    path.write_text(SG_SINGLE.replace("dx = 0.05", f"dx = {dx}"))
    assert main(["multikink", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("command, old, new, args", [
    ("kink", "n = 0\nn_prime = 1", "n = 5\nn_prime = 6", []),
    ("kink", "n = 0\nn_prime = 1", "n = -1\nn_prime = 0", []),
    ("multikink", "shifts = 0.0", "shifts = 0.0\nprofile_dx = nan", []),
    ("evolve", "t_end = 8", "t_end = nan", []),
    ("kink", "kind = sine_gordon", "kind = sine_gordon\nvacuum_tol = nan", []),
    ("spectrum", "[output]", "[spectrum]\ndx = 0\n\n[output]", []),
    ("spectrum", "[output]", "[spectrum]\nx_half = 0\n\n[output]", []),
    ("spectrum", "[output]", "[spectrum]\nk = 100000\nx_half = 1\n\n[output]", []),
    ("verify", "window_t = 3.0", "window_t = 3.0\ncoercivity_samples = 0\n"
                                 "energy_drift = false\nzero_modes = false", []),
    ("verify", "seed = 42", "seed = -3", []),
    ("verify", "seed = 42", "seed = 42", ["--seed", "-3"]),
], ids=["kink-n5", "kink-n-1", "profile_dx-nan", "t_end-nan", "vacuum_tol-nan", "spectrum-dx0",
        "spectrum-x_half0", "spectrum-k-above-grid", "coercivity_samples0", "seed-negative",
        "seed-override-negative"])
def test_invalid_input_exit_2(tmp_path, capsys, command, old, new, args):
    # vacuum labels outside the table, non-finite numbers, a zero spectrum
    # step or half width, more eigenpairs than grid points, no coercivity
    # samples and a negative seed are config errors
    path = tmp_path / "bad.cfg"
    assert old in SG_SINGLE
    path.write_text(SG_SINGLE.replace(old, new))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "verification.json").exists()
