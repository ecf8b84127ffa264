import math

import numpy as np
import pytest

from lightsim.cli import main
from lightsim.config import load_config
from lightsim.errors import ConfigError
from lightsim.scenarios import scenario_schemas

QPLATE_CONFIG = """\
[scenario]
name = qplate_conversion

[grid]
n = 256
window = 8e-3
wavelength = 632.8e-9

[beam]
kind = gaussian
w0 = 1e-3

[polarization]
kind = L

[element]
q = 1
alpha0 = 0
delta = pi
"""

PHOTON_CONFIG = """\
[scenario]
name = photon_partition

[photon]
nu = 5e14
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing ---

def test_load_config_parses_values(tmp_path):
    cfg = load_config(write(tmp_path, QPLATE_CONFIG), scenario_schemas())
    assert cfg.name == "qplate_conversion"
    assert cfg["grid"]["n"] == 256
    assert cfg["grid"]["window"] == pytest.approx(8e-3)
    assert cfg["beam"]["kind"] == "gaussian"
    assert cfg["element"]["delta"] == pytest.approx(math.pi)


def test_load_config_defaults_applied(tmp_path):
    text = QPLATE_CONFIG.replace("n = 256\n", "")
    cfg = load_config(write(tmp_path, text), scenario_schemas())
    assert cfg["grid"]["n"] == 512


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, QPLATE_CONFIG + "\n[mystery]\nx = 1\n"),
                    scenario_schemas())


def test_unknown_key_rejected(tmp_path):
    text = QPLATE_CONFIG.replace("w0 = 1e-3", "w0 = 1e-3\nwidth = 2")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text), scenario_schemas())


def test_missing_required_key_rejected(tmp_path):
    text = QPLATE_CONFIG.replace("wavelength = 632.8e-9\n", "")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text), scenario_schemas())


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[scenario]\nname = warp_drive\n"),
                    scenario_schemas())


def test_bad_number_rejected(tmp_path):
    text = QPLATE_CONFIG.replace("w0 = 1e-3", "w0 = wide")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text), scenario_schemas())


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"), scenario_schemas())


# --- CLI ---

def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert "qplate_conversion" in out
    assert "interference_fork" in out
    assert out == sorted(out)


def test_run_success_writes_outputs(tmp_path, capsys):
    cfg = write(tmp_path, QPLATE_CONFIG)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert (outdir / "summary.csv").exists()
    assert (outdir / "intensity_out.pgm").exists()
    assert (outdir / "phase_converted.pgm").exists()
    assert (outdir / "stokes_out.ppm").exists()


def test_run_outputs_are_deterministic(tmp_path):
    cfg = write(tmp_path, QPLATE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    for name in ("summary.csv", "intensity_out.pgm", "phase_converted.pgm",
                 "stokes_out.ppm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, QPLATE_CONFIG + "\n[mystery]\nx = 1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


LG_OAM_CONFIG = """\
[scenario]
name = lg_oam

[grid]
n = 64
window = 8e-3
wavelength = 632.8e-9

[beam]
kind = lg
w0 = 1e-3
"""

HWP_PAIR_CONFIG = """\
[scenario]
name = rotating_hwp_pair

[rotation]
omega = 1
"""


@pytest.mark.parametrize("text", [
    QPLATE_CONFIG.replace("w0 = 1e-3\n", ""),
    QPLATE_CONFIG.replace("kind = gaussian\nw0 = 1e-3",
                          "kind = elliptical\nwx = 1e-3"),
    QPLATE_CONFIG.replace("kind = gaussian", "kind = bessel"),
    LG_OAM_CONFIG.replace("w0 = 1e-3\n", ""),
    LG_OAM_CONFIG.replace("kind = lg\nw0 = 1e-3",
                          "kind = elliptical\nwx = 1e-3\nwy = 5e-4"),
    LG_OAM_CONFIG + "l = 2\n",
    LG_OAM_CONFIG + "p = 1\n",
    HWP_PAIR_CONFIG + "periods = 0\n",
    HWP_PAIR_CONFIG + "periods = -3\n",
    HWP_PAIR_CONFIG + "periods = 16\nsamples = 1000\n",
], ids=["gaussian-no-w0", "elliptical-no-wy", "unknown-kind", "lg-no-w0",
        "lg_oam-elliptical", "lg_oam-l", "lg_oam-p", "periods-0",
        "periods-negative", "undersampled"])
def test_run_domain_error_exit_2(tmp_path, capsys, text):
    assert main(["run", write(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_run_numerical_failure_exit_3(tmp_path):
    # on a 64-point grid the finite-difference OAM error exceeds tolerance
    cfg = write(tmp_path, QPLATE_CONFIG)
    code = main(["run", cfg, "--out", str(tmp_path / "o"), "--grid-n", "64"])
    assert code == 3


def test_run_invalid_runtime_value_exit_3(tmp_path, capsys):
    # syntactically valid config whose waist violates the sampling bounds
    text = QPLATE_CONFIG.replace("w0 = 1e-3", "w0 = 5e-3")
    assert main(["run", write(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_summary_csv_format(tmp_path):
    cfg = write(tmp_path, PHOTON_CONFIG)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir)]) == 0
    raw = (outdir / "summary.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("ascii").strip().split("\n")
    assert lines[0] == "scenario,quantity,value,expected,tolerance,status"
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert cells[0] == "photon_partition"
        # 17 significant digits, scientific notation
        mantissa = cells[2].split("e")[0]
        assert len(mantissa.lstrip("-").replace(".", "")) == 17
        assert cells[5] in ("pass", "fail")
        float(cells[2]), float(cells[3])


def test_pgm_and_ppm_headers(tmp_path):
    cfg = write(tmp_path, QPLATE_CONFIG)
    outdir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(outdir)]) == 0
    pgm = (outdir / "intensity_out.pgm").read_bytes()
    assert pgm.startswith(b"P5\n256 256\n65535\n")
    assert len(pgm) == len(b"P5\n256 256\n65535\n") + 256 * 256 * 2
    # peak-scaled: the brightest pixel hits the full range
    data = np.frombuffer(pgm[len(b"P5\n256 256\n65535\n"):], dtype=">u2")
    assert data.max() == 65535
    ppm = (outdir / "stokes_out.ppm").read_bytes()
    assert ppm.startswith(b"P6\n256 256\n255\n")
    assert len(ppm) == len(b"P6\n256 256\n255\n") + 256 * 256 * 3


def test_selftest_cli(tmp_path, capsys):
    out = tmp_path / "st"
    assert main(["selftest", "--out", str(out), "--grid-n", "128"]) in (0, 3)
    printed = capsys.readouterr().out
    assert "qplate_conversion" in printed
    assert (out / "summary.csv").exists()
