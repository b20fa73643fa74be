import configparser
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multikink import cli, errors, lorentz
from multikink.cli import main
from multikink.config import ExperimentConfig
from multikink.errors import NumericsError


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


def _strict_json(path):
    """The JSON document at path; a bare NaN or Infinity token raises."""
    def reject(token):
        raise ValueError(f"{path}: non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture()
def sg_config(tmp_path):
    path = tmp_path / "sg.cfg"
    path.write_text(SG_SINGLE)
    return path


def test_cmd_kink(tmp_path):
    # W = 1 - cos(phi) given as a custom trigonometric polynomial searches
    # its own default window for vacua, which holds 0 and 2 pi
    for kind in ("sine_gordon", "custom\nform = trig\ncoeffs = 1, -1"):
        path = tmp_path / "kink.cfg"
        path.write_text(SG_SINGLE.replace("kind = sine_gordon", f"kind = {kind}"))
        out = tmp_path / kind.split()[0]
        assert main(["kink", "--config", str(path), "--out", str(out)]) == 0
        text = (out / "profile.csv").read_bytes().decode()
        assert text.startswith("x,H,dH\n") and "\r" not in text
        data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 3
        mid = len(data) // 2
        assert abs(data[mid, 0]) <= 1e-12
        assert abs(data[mid, 1] - np.pi) <= 1e-12
        energy = json.loads((out / "energy.json").read_text())
        assert abs(energy["energy"] - 8.0) <= 1e-6
        assert energy["artifact_version"]
        assert energy["config"]["potential"]["kind"] == kind.split()[0]
        tails = json.loads((out / "tails.json").read_text())
        assert abs(tails["right"]["fitted_rate"] - 1.0) <= 0.02


def test_cmd_kink_custom_poly_is_phi4(tmp_path):
    # 1 - 2 phi^2 + phi^4 given as a custom polynomial is the built-in phi4:
    # both kinks are tanh(sqrt(2) x), and the energy check reads the same
    # gap; dH of the monomial form is evaluated with cancellation near a
    # vacuum, so it agrees only to about 2e-8
    runs = {}
    for kind in ("phi4", "custom\nform = poly\ncoeffs = 1, 0, -2, 0, 1"):
        path = tmp_path / "kink.cfg"
        path.write_text(SG_SINGLE.replace("kind = sine_gordon", f"kind = {kind}"))
        out = tmp_path / kind.split()[0]
        assert main(["kink", "--config", str(path), "--out", str(out)]) == 0
        runs[kind.split()[0]] = (np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1),
                                 _strict_json(out / "energy.json")["relative_gap"])
    (builtin, gap_builtin), (custom, gap_custom) = runs["phi4"], runs["custom"]
    assert np.array_equal(builtin[:, 0], custom[:, 0])
    assert np.max(np.abs(builtin[:, 1] - custom[:, 1])) <= 1e-14
    assert np.max(np.abs(builtin[:, 2] - custom[:, 2])) <= 1e-7
    for data in (builtin, custom):
        assert np.max(np.abs(data[:, 1] - np.tanh(np.sqrt(2.0) * data[:, 0]))) <= 1e-12
    assert gap_builtin <= 1e-9 and abs(gap_builtin - gap_custom) <= 1e-12


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


def test_construct_report_is_strict_json(tmp_path, sg_config):
    # a single kink is exact: no increment ratio and no decay fit, whose
    # values are written as null
    out = tmp_path / "o"
    assert main(["construct", "--config", str(sg_config), "--out", str(out)]) == 0
    report = _strict_json(out / "report.json")["report"]
    for key in ("contraction_ratio", "decay_fit_r2", "fitted_decay_rate"):
        assert report[key] is None
    assert report["decay_fit_error"] and report["final_residual"] > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writers_refuse_non_finite_values(tmp_path, sg_config, bad):
    # a NaN or an infinity is a numerical failure naming the file, and
    # neither writer leaves a file behind
    cfg = ExperimentConfig(sg_config)
    path = tmp_path / "o" / "doc.json"
    with pytest.raises(NumericsError, match="doc.json"):
        cli._write_json(path, {"report": {"values": [1.0, bad]}}, cfg, 0)
    path = tmp_path / "o" / "table.csv"
    with pytest.raises(NumericsError, match="table.csv: column b"):
        cli._write_csv(path, ["a", "b"], [np.zeros(3), np.array([0.0, bad, 1.0])])
    assert not (tmp_path / "o").exists()


def test_non_finite_verification_exits_3(tmp_path, monkeypatch, capsys):
    # a coercivity sample that is NaN fails the run: no verification.json
    path = tmp_path / "coercivity.cfg"
    path.write_text(SG_SINGLE.replace(
        "window_t = 3.0", "energy_drift = false\nzero_modes = false\ncovariance = false"))
    monkeypatch.setattr(cli.ansatz, "coercivity_sample", lambda *_args: float("nan"))
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "verification.json" in err
    assert not (out / "verification.json").exists()


@pytest.mark.slow
def test_nan_discrepancy_exits_3(tmp_path, monkeypatch):
    # one NaN point of one boosted sample reaches the reported discrepancy,
    # which then fails the run
    real_boost, real_verify = lorentz.boost_field, lorentz.verify_covariance
    samples, results = [], []

    def boost_with_a_nan(*args):
        state = real_boost(*args)
        if not samples:
            state.phi[7] = np.nan
        samples.append(state.t)
        return state

    def recorded(*args, **kwargs):
        results.append(real_verify(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(lorentz, "boost_field", boost_with_a_nan)
    monkeypatch.setattr(lorentz, "verify_covariance", recorded)
    path = tmp_path / "covariance.cfg"
    path.write_text(SG_SINGLE.replace(
        "window_t = 3.0", "window_t = 3.0\nenergy_drift = false\nzero_modes = false\n"
                          "coercivity = false"))
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 3
    [result] = results
    assert np.isnan(result["discrepancy"])
    assert len(samples) == lorentz.COVARIANCE_T_SAMPLES
    assert result["max_location"]["t_prime"] == result["window"]["t_lo"] == samples[0]
    assert result["max_location"]["x_prime"] == pytest.approx(result["window"]["x_lo"] + 0.35)
    assert not (out / "verification.json").exists()


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


def test_cmd_boost_one_vacuum(tmp_path):
    # a chain of one vacuum has no kinks to boost: nothing moves
    path = tmp_path / "vacuum.cfg"
    path.write_text(SG_SINGLE.replace("labels = 0, 1", "labels = 0").replace(
        "velocities = 0.3\nshifts = 0.0\n", ""))
    out = tmp_path / "o"
    assert main(["boost", "--config", str(path), "--out", str(out)]) == 0
    boosted = _strict_json(out / "boosted_params.json")
    assert boosted["velocities"] == [] and boosted["shifts"] == []
    assert boosted["round_trip_error"] == 0.0


def test_nan_coercivity_ratio_exits_3(tmp_path, sg_config, monkeypatch, capsys):
    # one NaN sample among finite ones makes the coercivity constant NaN,
    # which fails the run: no spectrum.json
    bumps, calls = cli.spectral.gaussian_bumps, []

    def one_nan(grid, rng):
        calls.append(None)
        g = bumps(grid, rng)
        return np.full_like(g, np.nan) if len(calls) == 3 else g

    monkeypatch.setattr(cli.spectral, "gaussian_bumps", one_nan)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(sg_config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "spectrum.json" in err
    assert not (out / "spectrum.json").exists()


@pytest.mark.slow
def test_cmd_verify(tmp_path, sg_config):
    out = tmp_path / "o"
    assert main(["verify", "--config", str(sg_config), "--out", str(out)]) == 0
    doc = _strict_json(out / "verification.json")
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


@pytest.mark.parametrize("n, n_prime, message", [
    (5, 6, "label 5 outside vacuum table of size 3"),
    (0, 2, "labels (0, 2) are not adjacent vacua"),
])
def test_kink_and_spectrum_refuse_labels_alike(tmp_path, capsys, n, n_prime, message):
    # kink and spectrum check [kink] n, n_prime with the one chain check:
    # the same exit and the same stderr line
    path = tmp_path / "labels.cfg"
    path.write_text(SG_SINGLE.replace("n = 0\nn_prime = 1", f"n = {n}\nn_prime = {n_prime}"))
    errs = []
    for command in ("kink", "spectrum"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == f"config error: {message}\n"


def test_every_package_error_has_one_exit_code():
    # main maps ConfigError to exit 2 and NumericsError to exit 3 and
    # catches nothing else, so every package error is exactly one of them
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.MultikinkError)]
    assert len(classes) > 3
    for cls in classes:
        if cls is not errors.MultikinkError:
            assert issubclass(cls, errors.ConfigError) != issubclass(cls, errors.NumericsError), cls


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


# values whose grid, profile table or step count would overflow, each with
# the part of its error message that names its keys
OVERSIZED = [
    ("multikink", "x_max = 25", "x_max = 1e308", "x_min, x_max and dx"),
    ("multikink", "dx = 0.05", "dx = 1e-300", "x_min, x_max and dx"),
    ("spectrum", "[output]", "[spectrum]\nx_half = 1e308\n\n[output]", "[spectrum] x_half and dx"),
    ("spectrum", "[output]", "[spectrum]\ndx = 1e-300\n\n[output]", "[spectrum] x_half and dx"),
    ("kink", "shifts = 0.0", "shifts = 0.0\nprofile_dx = 1e-300", "half_width and dx"),
    ("kink", "shifts = 0.0", "shifts = 0.0\nhalf_width = 1e308", "half_width and dx"),
    ("construct", "tol = 1e-8", "tol = 1e-8\nsnapshot_dt = 1e-300", "snapshot_dt"),
    ("evolve", "t_end = 8", "t_end = 1e308", "t_end"),
]

# SG_SINGLE from [grid] t_end to [verify] window_t, where an edit can set
# t_end and leave only the coercivity check on
_T_END_TO_VERIFY = SG_SINGLE[SG_SINGLE.index("t_end = 8"):SG_SINGLE.index("window_t = 3.0")]

# values refused with a message naming their key
NAMED = [
    ("construct", "delta = 0.5", "delta = 1e308", "delta = 1e+308 overflows"),
    ("verify", "window_t = 3.0", "window_t = 0\nenergy_drift = false\nzero_modes = false\n"
                                 "coercivity = false", "window_t must be positive"),
    ("verify", "window_t = 3.0", "window_t = -1\nenergy_drift = false\nzero_modes = false\n"
                                 "coercivity = false", "window_t must be positive"),
    ("verify", "window_t = 3.0", "window_t = 1e308\nenergy_drift = false\nzero_modes = false\n"
                                 "coercivity = false", "window_t must be below"),
    ("construct", "shifts = 0.0\n\n[grid]\nx_min = -25", "shifts = -1.0\n\n[grid]\nx_min = 0",
     "kink 1 sits at x = -0.4 at T = 2, off the grid"),
    ("evolve", "dx = 0.05", "dx = 0.05\ncfl = -0.5", "[grid] cfl"),
    ("evolve", "dx = 0.05", "dx = 0.05\ncfl = 0", "[grid] cfl"),
    ("evolve", "dx = 0.05", "dx = 0.05\ncfl = 5", "[grid] cfl"),
    ("verify", _T_END_TO_VERIFY, _T_END_TO_VERIFY.replace("t_end = 8", "t_end = 1e308")
     + "energy_drift = false\nzero_modes = false\ncovariance = false\n", "[grid] t_end"),
    ("kink", "kind = sine_gordon", "kind = custom\nform = cubic\ncoeffs = 1, 0, -2, 0, 1",
     "[potential] form must be 'poly' or 'trig'"),
    ("construct", "x_min = -25\nx_max = 25", "x_min = -4\nx_max = 4",
     "no point of the grid [-4, 4] lies 5 clear of both ends"),
    ("kink", "kind = sine_gordon", "kind = custom\ncoeffs = -0.5, 0, -2, 0, 1",
     "W = -1.5 < 0 at its minimum"),
    ("construct", "labels = 0, 1\n\n[multikink]\nvelocities = 0.3\nshifts = 0.0",
     "labels = 0, 1, 2\n\n[multikink]\nvelocities = -0.3, 0.3\nshifts = 10.0, -10.0",
     "kink 2 sits at x = -9.4 at T = 2, not right of kink 1 at 9.4"),
]


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
    ("spectrum", "[output]", "[spectrum]\nx_half = 0.001\n\n[output]", []),
    ("kink", "kind = sine_gordon", "kind = sine_gordon\nsearch_interval = 1", []),
    ("kink", "kind = sine_gordon", "kind = custom\ncoeffs =", []),
    ("kink", "[run]", "; caf\u00e9\n[run]", []),
    ("kink", "seed = 42", "seed = 42", ["--out", "file"]),
    ("kink", "seed = 42", "seed = 42", ["--out", "file/sub"]),
    ("construct", "tol = 1e-8", "tol = 1e-8\nmax_iter = -1", []),
    ("construct", "tol = 1e-8", "tol = 1e-8\nmax_iter = 0", []),
    ("construct", "tol = 1e-8", "tol = -1", []),
    ("construct", "dx = 0.05", "dx = 0.05\ncfl = 1.0", []),
    ("multikink", "labels = 0, 1", "labels = 0, x", []),
    *[(command, old, new, []) for command, old, new, _ in OVERSIZED + NAMED],
], ids=["kink-n5", "kink-n-1", "profile_dx-nan", "t_end-nan", "vacuum_tol-nan", "spectrum-dx0",
        "spectrum-x_half0", "spectrum-k-above-grid", "coercivity_samples0", "seed-negative",
        "seed-override-negative", "spectrum-one-point-grid", "search_interval-one-value",
        "custom-no-coeffs", "config-not-utf8", "out-is-a-file", "out-under-a-file",
        "max_iter-negative", "max_iter-zero", "tol-negative", "construct-cfl1",
        "labels-not-integer",
        "x_max-1e308", "dx-1e-300", "spectrum-x_half-1e308", "spectrum-dx-1e-300",
        "profile_dx-1e-300", "half_width-1e308", "snapshot_dt-1e-300", "t_end-1e308",
        "delta-1e308", "window_t0", "window_t-negative", "window_t-1e308",
        "construct-kink-off-x_min0", "cfl-negative", "cfl0", "cfl5", "coercivity-t_end-1e308",
        "custom-form-cubic", "construct-grid-inside-residual-margins", "custom-negative-minimum",
        "construct-kinks-crossed-at-T"])
def test_invalid_input_exit_2(tmp_path, capsys, monkeypatch, command, old, new, args):
    # vacuum labels outside the table, non-finite numbers, a zero spectrum
    # step or half width, a one-point spectrum grid, more eigenpairs than
    # grid points, a search interval or coefficient list of the wrong
    # length, no coercivity samples, a negative seed, a config file that is
    # not UTF-8, an --out naming or under a regular file, a max_iter below
    # 1, a negative tol, a Courant ratio past the leapfrog's stable
    # bound, a label that is not an integer and a value asking for more grid
    # points, profile samples or time steps than MAX_COUNT, a delta whose
    # weight e^(delta t) overflows, a covariance window that is not positive
    # or not below the truncation span cap, a kink off the construction's
    # grid at T (x_min = 0 with the kink at -0.4), a Courant ratio outside
    # (0, MAX_COURANT], a t_end that moves a kink off the grid of the
    # coercivity sample, a custom potential form other than poly or trig, a
    # construction grid with no point 5 (RESIDUAL_MARGIN) clear of both ends,
    # a potential whose minima lie below zero and a given T before the kink
    # paths cross (at t = 100/3 for shifts 10, -10) are config errors, none
    # of them found by a construction of the covariance check
    def no_construction(*_args, **_kwargs):
        raise AssertionError("the covariance check constructed")

    monkeypatch.setattr(lorentz, "fixed_point", no_construction)
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    path = tmp_path / "bad.cfg"
    assert old in SG_SINGLE
    path.write_bytes(SG_SINGLE.replace(old, new).encode("latin-1"))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    names = {new: named for _, _, new, named in OVERSIZED + NAMED}
    assert names.get(new, "") in err
    assert not (out / "verification.json").exists()
    assert Path("file").read_text() == ""


def test_verify_zero_modes_read_cfl(tmp_path):
    # the zero-mode run steps [grid] cfl * dx, as the energy-drift run does
    laws = {}
    for cfl in ("0.5", "0.9"):
        path = tmp_path / f"cfl{cfl}.cfg"
        path.write_text(SG_SINGLE.replace("dx = 0.05", f"dx = 0.05\ncfl = {cfl}").replace(
            "window_t = 3.0", "energy_drift = false\ncoercivity = false\ncovariance = false"))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / cfl)]) == 0
        laws[cfl] = json.loads((tmp_path / cfl / "verification.json").read_text())["zero_modes"]
    assert laws["0.5"] != laws["0.9"]


def test_one_courant_bound(tmp_path):
    # cfl 0.95 lies under the one bound sqrt(0.97) of every leapfrog run:
    # the forward runs of evolve and verify accept it, as construct does
    path = tmp_path / "cfl.cfg"
    path.write_text(SG_SINGLE.replace("dx = 0.05", "dx = 0.05\ncfl = 0.95").replace(
        "window_t = 3.0", "coercivity = false\ncovariance = false"))
    for command in ("evolve", "verify"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
    doc = _strict_json(tmp_path / "verify" / "verification.json")
    assert doc["energy_drift"]["max_drift"] <= 1e-5


@pytest.mark.slow
def test_verify_records_what_it_ran(tmp_path):
    # t_end defaults to t_start + 10 for the coercivity sample as for the
    # energy drift, and [construct] max_iter bounds both constructions of
    # the covariance check
    path = tmp_path / "verify.cfg"
    path.write_text(SG_SINGLE.replace("t_start = 0\nt_end = 8", "t_start = 2").replace(
        "tol = 1e-8", "tol = 1e-8\nmax_iter = 1").replace(
        "window_t = 3.0", "window_t = 3.0\nenergy_drift = false\nzero_modes = false"))
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    doc = _strict_json(out / "verification.json")
    assert doc["config"]["grid"]["t_end"] == 12.0
    assert doc["coercivity"]["t"] == 12.0
    assert doc["config"]["construct"]["max_iter"] == 1
    assert doc["covariance"]["unprimed"]["iterations"] == 1
    assert doc["covariance"]["primed"]["iterations"] == 1


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _raw_config(path):
    """The config at path, read raw as ExperimentConfig reads it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")
    return parser


def _keys(parser):
    return [(section, key) for section in parser.sections() for key in parser[section]]


SHIPPED_KEYS = [(path, *key) for path in sorted(CONFIGS.glob("*.cfg"))
                for key in _keys(_raw_config(path))]


# a fixed list, so no draw can ask for a large but feasible allocation
EDIT_VALUES = ("0", "-1", "1e-300", "1e308", "nan", "inf", "x", "", "50%")


def _shipped(name, section, key):
    return next(k for k in SHIPPED_KEYS if (k[0].name, k[1], k[2]) == (name, section, key))


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from(SHIPPED_KEYS), value=st.sampled_from(EDIT_VALUES),
       command=st.sampled_from(("kink", "multikink", "evolve", "boost", "spectrum")))
# two edits whose grid size overflows without the MAX_COUNT check, tried on every run
@example(target=_shipped("sg2_construct.cfg", "grid", "x_max"), value="1e308",
         command="multikink")
@example(target=_shipped("sg_kink.cfg", "spectrum", "dx"), value="1e-300", command="spectrum")
def test_no_config_edit_ends_in_a_traceback(target, value, command):
    # one key of a shipped config set to an invalid or extreme value: the
    # command succeeds, or exits 2 (config) or 3 (numerics) with a message
    path, section, key = target
    _assert_edit_exits_cleanly(_raw_config(path), section, key, value, command)


def _assert_edit_exits_cleanly(parser, section, key, value, command):
    """command on parser with [section] key = value exits 0, 2 or 3 and
    prints no traceback."""
    parser[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "edited.cfg"
        with open(edited, "w", encoding="utf-8") as fh:
            parser.write(fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(edited), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def _narrowed(command):
    """The sg2 config that command runs on, read raw, with [grid] dx = 0.1."""
    parser = _raw_config(CONFIGS / f"sg2_{command}.cfg")
    parser["grid"]["dx"] = "0.1"
    return parser


NARROWED_KEYS = [(command, *key) for command in ("construct", "verify")
                 for key in _keys(_narrowed(command))]


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(NARROWED_KEYS), value=st.sampled_from(EDIT_VALUES))
# three edits that once ended in a traceback, tried on every run: a % that
# configparser's interpolation refused, a T at which the sample times of
# the forcing fit that once chose delta all rounded to T, and a boost
# origin whose primed domain overflows the grid's point count
@example(target=("construct", "construct", "tol"), value="50%")
@example(target=("construct", "construct", "T"), value="1e308")
@example(target=("verify", "boost", "t0"), value="1e308")
def test_no_construct_or_verify_edit_ends_in_a_traceback(target, value):
    # as above, for the two commands that construct, on a coarse grid
    command, section, key = target
    _assert_edit_exits_cleanly(_narrowed(command), section, key, value, command)
