import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lightsim
from lightsim.cli import main
from lightsim.config import load_config
from lightsim.errors import ConfigError, NonpositiveFrequency
from lightsim.scenarios import SCENARIOS, _selftest_configs, scenario_schemas

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


def test_undecodable_file_is_config_error(tmp_path):
    path = tmp_path / "utf16.ini"
    path.write_bytes(b"\xff\xfe" + QPLATE_CONFIG.encode("utf-16-le"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(path), scenario_schemas())


# --- CLI ---

def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert "qplate_conversion" in out
    assert "interference_fork" in out
    assert out == sorted(out)


@pytest.mark.parametrize("text, args, code", [
    (None, ["list-scenarios"], 0),
    (QPLATE_CONFIG, ["--grid-n", "64"], 3),  # a failing check
    (PHOTON_CONFIG.replace("nu = 5e14", "nu = -1"), [], 3),  # a logged stop
], ids=["list-scenarios", "run-failing-check", "run-logged-stop"])
def test_closed_stdout_keeps_the_exit_code_without_traceback(tmp_path, text,
                                                              args, code):
    # the reader of stdout is gone before anything is written, as in
    # `lightsim list-scenarios | true` under pipefail
    if text is not None:
        args = ["run", write(tmp_path, text), "--out", str(tmp_path / "o"),
                *args]
    src = str(Path(lightsim.__file__).resolve().parents[1])
    read, write_end = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "lightsim", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == code


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

PROPAGATION_CONFIG = LG_OAM_CONFIG.replace(
    "name = lg_oam", "name = propagation_stability") + """
[propagation]
z_list = 1, 2
"""


@pytest.mark.parametrize("text, args", [
    (QPLATE_CONFIG.replace("w0 = 1e-3\n", ""), []),
    (QPLATE_CONFIG.replace("kind = gaussian\nw0 = 1e-3",
                           "kind = elliptical\nwx = 1e-3"), []),
    (QPLATE_CONFIG.replace("kind = gaussian", "kind = bessel"), []),
    (LG_OAM_CONFIG.replace("w0 = 1e-3\n", ""), []),
    (LG_OAM_CONFIG.replace("kind = lg\nw0 = 1e-3",
                           "kind = elliptical\nwx = 1e-3\nwy = 5e-4"), []),
    (LG_OAM_CONFIG + "l = 2\n", []),
    (LG_OAM_CONFIG + "p = 1\n", []),
    (HWP_PAIR_CONFIG + "periods = 0\n", []),
    (HWP_PAIR_CONFIG + "periods = -3\n", []),
    (HWP_PAIR_CONFIG + "periods = 16\nsamples = 1000\n", []),
    # above the cap: refused before the series is allocated
    (HWP_PAIR_CONFIG + "samples = 10000000000000\n", []),
    (QPLATE_CONFIG.replace("q = 1", "q = 0.3"), []),
    (QPLATE_CONFIG.replace("q = 1", "q = nan"), []),
    (QPLATE_CONFIG.replace("delta = pi", "delta = inf"), []),
    (PROPAGATION_CONFIG.replace("z_list = 1, 2", "z_list = -1"), []),
    (PHOTON_CONFIG.replace("nu = 5e14", "nu = nan"), []),
    (HWP_PAIR_CONFIG.replace("omega = 1", "omega = nan"), []),
    (QPLATE_CONFIG.replace("632.8e-9", "-632.8e-9"), []),
    (QPLATE_CONFIG.replace("n = 256", "n = 33"), []),
    (QPLATE_CONFIG, ["--grid-n", "31"]),
    (None, ["--grid-n", "30"]),
    # above the cap: refused before any array is allocated
    (QPLATE_CONFIG.replace("n = 256", "n = 100000000"), []),
    (None, ["--grid-n", "100000000"]),
    (QPLATE_CONFIG.replace("q = 1", "q = 5.5"), []),
    (QPLATE_CONFIG.replace("q = 1", "q = 1e18"), []),
    (QPLATE_CONFIG.replace("kind = L", "kind = H"), []),
    (QPLATE_CONFIG.replace("delta = pi", "delta = 1.0"), []),
    (QPLATE_CONFIG.replace("qplate_conversion", "rotating_qplate").replace(
        "delta = pi", "delta = pi/2") + "\n[rotation]\nomega = 1\n", []),
    (QPLATE_CONFIG, ["--out", "{file}"]),
    (None, ["--out", "{file}/x"]),
    (QPLATE_CONFIG + "\n[output]\ndirectory = {file}\n", []),
    (QPLATE_CONFIG, ["--seed", "-1"]),
    (None, ["--seed", "-1"]),
], ids=["gaussian-no-w0", "elliptical-no-wy", "unknown-kind", "lg-no-w0",
        "lg_oam-elliptical", "lg_oam-l", "lg_oam-p", "periods-0",
        "periods-negative", "undersampled", "samples-above-cap",
        "q-not-half-integer", "q-nan",
        "delta-inf", "z-negative", "nu-nan", "omega-nan",
        "wavelength-negative", "n-odd", "run-grid-n-odd",
        "selftest-grid-n-30", "n-above-cap", "selftest-grid-n-above-cap",
        "q-charge-above-max-l", "q-huge",
        "polarization-linear", "delta-not-pi", "rotating-quarter-wave",
        "run-out-is-a-file", "selftest-out-under-a-file",
        "output-directory-is-a-file", "run-seed-negative",
        "selftest-seed-negative"])
def test_run_domain_error_exit_2(tmp_path, capsys, text, args):
    # "{file}" stands for an existing file; a case that names it sets its
    # own output path, which cannot be written
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    unwritable = "{file}" in (text or "") + " ".join(args)
    out = [] if unwritable else ["--out", str(tmp_path / "o")]
    args = [a.replace("{file}", str(a_file)) for a in args]
    if text is None:
        argv = ["selftest"] + out + args
    else:
        text = text.replace("{file}", str(a_file))
        argv = ["run", write(tmp_path, text)] + out + args
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert ("cannot write" in err) == unwritable


ROTATING_QPLATE_CONFIG = QPLATE_CONFIG.replace(
    "qplate_conversion", "rotating_qplate") + "\n[rotation]\nomega = 1\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config", [HWP_PAIR_CONFIG, ROTATING_QPLATE_CONFIG],
                         ids=["hwp_pair", "qplate"])
@pytest.mark.parametrize("rotation, codes", [
    # at the default periods and samples 1e-303 overflows the sample
    # times, 1e307 their frequencies and 1e308 2 omega
    ("omega = 1e-303", (2, 2)), ("omega = 1e307", (2, 2)),
    ("omega = 1e308", (2, 2)), ("omega = 1e-300", (0, 0)),
    ("omega = 1e305", (0, 0)),
    # the pair's restoration check, at 2 periods of 256 samples, overflows
    ("omega = 5e-306\nperiods = 1\nsamples = 64", (2, 0)),
])
def test_rotation_that_overflows_is_a_config_error(tmp_path, capsys, config,
                                                   rotation, codes):
    code = codes[config is ROTATING_QPLATE_CONFIG]
    text = config.replace("omega = 1", rotation)
    assert main(["run", write(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert ("config error: [rotation] omega = " in err) == (code == 2)


FORK_CONFIG = """\
[scenario]
name = interference_fork

[grid]
n = 256
window = 8e-3
wavelength = 632.8e-9

[beam]
kind = lg
l = 2
w0 = 1e-3

[interference]
tilt = -0.000811
"""


def test_fork_count_with_negative_tilt(tmp_path):
    # a reference tilted the other way mirrors the fork, not the charge
    outdir = tmp_path / "o"
    assert main(["run", write(tmp_path, FORK_CONFIG), "--out", str(outdir)]) == 0
    rows = (outdir / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("interference_fork,fork_count,2,2,")


GENERALIZED_CONFIG = QPLATE_CONFIG.split("\n[polarization]")[0].replace(
    "qplate_conversion", "generalized_charge")


@pytest.mark.parametrize("text, expected", [
    (QPLATE_CONFIG.replace("kind = gaussian", "kind = lg\nl = 1")
     .replace("kind = L", "kind = R").replace("q = 1", "q = 0.5"),
     {"charge_out": 0, "oam_out": 0, "ledger_imbalance": 1}),
    (QPLATE_CONFIG.replace("kind = gaussian", "kind = lg\nl = 1"),
     {"charge_out": 3, "oam_out": 3, "ledger_imbalance": 0}),
    (GENERALIZED_CONFIG.replace("kind = gaussian", "kind = vortex\nl = -2"),
     {"charge_2q=4_L": 2, "charge_2q=4_R": -6, "charge_2q=-1_L": -3}),
    (GENERALIZED_CONFIG + "l = 2\n",  # a Gaussian beam has no charge
     {"charge_2q=4_L": 4, "charge_2q=4_R": -4, "charge_2q=-1_L": -1}),
], ids=["lg-R-q-half", "lg-L-q-1", "generalized-vortex", "generalized-gaussian"])
def test_qplate_scenarios_expect_beam_charge_plus_2q_sigma(tmp_path, capsys,
                                                           text, expected):
    # the converted component carries the input beam's charge l plus 2q
    # sigma; every row passes, and the charge rows have tolerance 0
    assert main(["run", write(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 0
    lines = {line.split(".", 1)[1].split(":")[0]: line
             for line in capsys.readouterr().out.splitlines()}
    for quantity, value in expected.items():
        assert f"(expected {value} " in lines[quantity]


def test_run_numerical_failure_exit_3(tmp_path):
    # on a 64-point grid the finite-difference OAM error exceeds tolerance
    cfg = write(tmp_path, QPLATE_CONFIG)
    code = main(["run", cfg, "--out", str(tmp_path / "o"), "--grid-n", "64"])
    assert code == 3


def test_run_invalid_runtime_value_exit_3(tmp_path, capsys):
    # valid configs that break a limit of the library found while running:
    # the waist against the sampling bounds, the mode index, the frequency.
    # Each stop is logged and becomes one failing row of summary.csv.
    for text, scenario, error in (
            (QPLATE_CONFIG.replace("w0 = 1e-3", "w0 = 5e-3"),
             "qplate_conversion", "WaistOutOfRange"),
            (QPLATE_CONFIG.replace("kind = gaussian", "kind = lg\nl = 99"),
             "qplate_conversion", "IndexOutOfRange"),
            (PHOTON_CONFIG.replace("nu = 5e14", "nu = -1"),
             "photon_partition", "NonpositiveFrequency")):
        outdir = tmp_path / error
        assert main(["run", write(tmp_path, text),
                     "--out", str(outdir)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        printed = captured.out.splitlines()
        assert printed[0].startswith(f"ERROR {scenario}: {error}: ")
        assert printed[1:] == [
            f"FAIL {scenario}.error[{error}]: 1 (expected 0 tol 0)"]
        rows = (outdir / "summary.csv").read_text().splitlines()
        assert rows[1:] == [
            f"{scenario},error[{error}],1.0000000000000000e+00,"
            "0.0000000000000000e+00,0.0000000000000000e+00,fail"]


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
    # At n = 128 the q-plate OAM estimate misses the reduced-grid tolerance
    # (its error falls as pitch^2); every other scenario passes.
    out = tmp_path / "st"
    assert main(["selftest", "--out", str(out), "--grid-n", "128"]) == 3
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    assert fails == ["FAIL qplate_conversion (5/7 checks)"]
    assert (out / "summary.csv").exists()


def test_selftest_records_a_raising_config_and_runs_the_rest(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    schemas, _ = SCENARIOS["photon_partition"]

    def raising_runner(cfg, outdir, rng):
        raise NonpositiveFrequency("injected")

    monkeypatch.setitem(SCENARIOS, "photon_partition",
                        (schemas, raising_runner))
    out = tmp_path / "st"
    assert main(["selftest", "--out", str(out), "--grid-n", "256"]) == 3
    printed = capsys.readouterr().out.splitlines()
    assert "ERROR photon_partition: NonpositiveFrequency: injected" in printed
    assert [line for line in printed if line.startswith("FAIL")] == [
        "FAIL photon_partition (0/1 checks)"]
    rows = (out / "summary.csv").read_text().splitlines()
    assert [r for r in rows if r.startswith("photon_partition,")] == [
        "photon_partition,error[NonpositiveFrequency],"
        "1.0000000000000000e+00,0.0000000000000000e+00,"
        "0.0000000000000000e+00,fail"]
    assert {r.split(",")[0] for r in rows[1:]} == set(SCENARIOS)


def test_selftest_reduces_pixel_maps_without_blas(tmp_path, monkeypatch):
    # A threaded BLAS dot can stall for milliseconds on a busy core, so no
    # pixel map may reach np.vdot or np.linalg.norm.  The per-vertex norms
    # of geomphase act on (points, 3) arrays and are not pixel maps.
    def guard(blas):
        def call(*args, **kwargs):
            for a in args:
                if np.ndim(a) == 2 and min(np.shape(a)) >= 32:
                    raise AssertionError(f"{blas.__name__} on a pixel map")
            return blas(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "vdot", guard(np.vdot))
    monkeypatch.setattr(np.linalg, "norm", guard(np.linalg.norm))
    # exit 3: the n = 128 q-plate OAM check, as in test_selftest_cli
    assert main(["selftest", "--out", str(tmp_path), "--grid-n", "128"]) == 3


# --- exit-code contract under fuzzed configs ---

# One valid config per scenario (n = 64), which the fuzzer then perturbs.
FUZZ_BASE = {}
for _cfg in _selftest_configs(64):
    FUZZ_BASE.setdefault(_cfg.name, _cfg.sections)

# None drops the key; a float scales a float base value (or stands alone).
# Numbers stay small, so n, --grid-n <= 64 and samples <= 8192 throughout.
FUZZ_VALUES = st.one_of(
    st.none(),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-1e-3", "pi/2",
                     "wide", ""]),
    st.integers(-3, 64),
    st.floats(0.1, 10.0),
)


def ini_text(name, sections):
    lines = [f"[scenario]\nname = {name}"]
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for k, v in keys.items():
            text = ", ".join(map(str, v)) if isinstance(v, list) else v
            lines.append(f"{k} = {text}")
    return "\n".join(lines) + "\n"


@st.composite
def fuzzed_configs(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    schemas = SCENARIOS[name][0]
    sections = {s: dict(keys) for s, keys in FUZZ_BASE[name].items()}
    for _ in range(draw(st.integers(1, 3))):
        schema = draw(st.sampled_from(schemas))
        key = draw(st.sampled_from([k.name for k in schema.keys] + ["bogus"]))
        keys = sections.setdefault(schema.name, {})
        value = draw(FUZZ_VALUES)
        if value is None:
            keys.pop(key, None)
        elif isinstance(value, float) and isinstance(keys.get(key), float):
            keys[key] *= value
        else:
            keys[key] = value
    grid_n = draw(st.one_of(st.none(), st.integers(-2, 64)))
    return ini_text(name, sections), grid_n


@settings(max_examples=200, deadline=None)
@given(config=fuzzed_configs())
def test_fuzzed_configs_keep_the_exit_code_contract(config):
    text, grid_n = config
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "fuzz.ini"
        ini.write_text(text)
        argv = ["run", str(ini), "--out", str(Path(tmp) / "o")]
        if grid_n is not None:
            argv += ["--grid-n", str(grid_n)]
        assert main(argv) in (0, 2, 3)


@st.composite
def mutated_configs(draw):
    """The INI text of a FUZZ_BASE config with a few bytes replaced,
    inserted or deleted."""
    name = draw(st.sampled_from(sorted(FUZZ_BASE)))
    data = bytearray(ini_text(name, FUZZ_BASE[name]).encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        data[i:i + draw(st.integers(0, 1))] = draw(st.binary(max_size=1))
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), mutated_configs()))
@example(data=b"\xff\xfe")
def test_config_bytes_keep_the_exit_code_contract(data):
    # --grid-n 64 keeps a mutated grid size from slowing the run down
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "fuzz.ini"
        ini.write_bytes(data)
        argv = ["run", str(ini), "--out", str(Path(tmp) / "o"),
                "--grid-n", "64"]
        assert main(argv) in (0, 2, 3)
