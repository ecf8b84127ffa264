"""Acceptance suite: ten numbered end-to-end criteria.

Each criterion is one test (so ``pytest -v`` shows one pass/fail line per
criterion) and additionally prints ``criterion N: PASS`` on success, visible
with ``pytest -s`` or ``-rA``.
"""

import math
import time

from lightsim.config import ScenarioConfig
from lightsim.scenarios import _selftest_configs, run_scenario, selftest

WINDOW = 8e-3
WAVELENGTH = 632.8e-9
W0 = WINDOW / 8.0
GRID = {"n": 512, "window": WINDOW, "wavelength": WAVELENGTH}


def run(name, tmp_path, **sections):
    cfg = ScenarioConfig(name, sections)
    code, rows = run_scenario(cfg, tmp_path / name)
    return code, {r.quantity: r for r in rows}


def check_rows(rows):
    bad = [r for r in rows.values() if not r.ok]
    assert not bad, "; ".join(
        f"{r.quantity}: {r.value!r} != {r.expected!r} (tol {r.tolerance:g})"
        for r in bad)


def test_criterion_01_qplate_conversion(tmp_path):
    start = time.perf_counter()
    code, rows = run("qplate_conversion", tmp_path, grid=GRID,
                     beam={"kind": "gaussian", "w0": W0},
                     polarization={"kind": "L"},
                     element={"q": 1.0, "alpha0": 0.0, "delta": math.pi})
    elapsed = time.perf_counter() - start
    check_rows(rows)
    assert code == 0
    assert rows["charge_out"].value == 2.0  # exact integer
    assert abs(rows["sam_in"].value - 1.0) <= 1e-12
    assert abs(rows["sam_out"].value + 1.0) <= 1e-12
    assert rows["s3_pointwise_flip_dev"].value <= 1e-12
    assert abs(rows["oam_out"].value - 2.0) <= 1e-3
    assert abs(rows["ledger_imbalance"].value) <= 1e-3
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(f"criterion 1: PASS (q=1 conversion, {elapsed:.2f} s)")


def test_criterion_02_generalized_charge(tmp_path):
    start = time.perf_counter()
    code, rows = run("generalized_charge", tmp_path, grid=GRID,
                     beam={"kind": "gaussian", "w0": W0})
    elapsed = time.perf_counter() - start
    check_rows(rows)
    assert code == 0
    assert len(rows) == 12
    for two_q in (-4, -2, -1, 1, 2, 4):
        assert rows[f"charge_2q={two_q}_L"].value == float(two_q)
        assert rows[f"charge_2q={two_q}_R"].value == float(-two_q)
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    print(f"criterion 2: PASS (12/12 charges, {elapsed:.2f} s)")


def test_criterion_03_lg_oam(tmp_path):
    code, rows = run("lg_oam", tmp_path, grid=GRID,
                     beam={"kind": "lg", "l": 0, "p": 0, "w0": W0})
    check_rows(rows)
    assert code == 0
    for l in range(-3, 4):
        for p in (0, 1):
            assert abs(rows[f"oam_l={l}_p={p}"].value - l) <= 1e-3
            assert rows[f"purity_l={l}_p={p}"].value > 0.999
    print("criterion 3: PASS (LG OAM and purity, 14 modes)")


def test_criterion_04_solid_angle_srp(tmp_path):
    code, rows = run("srp_greatcircle", tmp_path)
    check_rows(rows)
    assert code == 0
    assert abs(rows["solid_angle"].value - 2.0 * math.pi) <= 1e-6
    assert rows["srp_helicity_plus"].value == -rows["srp_helicity_minus"].value
    code, rows = run("geometric_phase", tmp_path)
    check_rows(rows)
    assert code == 0
    assert abs(rows["octant_solid_angle"].value - math.pi / 2) <= 1e-9
    assert abs(rows["pancharatnam_octant_magnitude"].value - math.pi / 4) \
        <= 1e-9
    assert rows["half_angle_law_max_dev"].value <= 1e-6
    print("criterion 4: PASS (solid angles, SRP, Pancharatnam)")


def test_criterion_05_plane_wave_identity(tmp_path):
    code, rows = run("plane_wave_identity", tmp_path)
    check_rows(rows)
    assert code == 0
    for kind in ("linear", "circular", "elliptical"):
        assert abs(rows[f"u_over_gc_{kind}"].value - 1.0) <= 1e-12
    print("criterion 5: PASS (<u> = |<g>| c, three polarizations)")


def test_criterion_06_photon_partition(tmp_path):
    code, rows = run("photon_partition", tmp_path, photon={"nu": 5e14})
    check_rows(rows)
    assert code == 0
    assert abs(rows["partition_sum_rel"].value - 1.0) <= 1e-15
    assert abs(rows["classical_rotational_rel"].value - 1.0) <= 1e-15
    assert abs(rows["classical_translational_rel"].value - 1.0) <= 1e-15
    print("criterion 6: PASS (photon energy partition)")


def test_criterion_07_interference_forks(tmp_path):
    configs = [c for c in _selftest_configs(512)
               if c.name == "interference_fork"]
    assert len(configs) == 20
    passed = 0
    for i, cfg in enumerate(configs):
        code, rows = run_scenario(cfg, tmp_path / f"fork_{i}")
        assert code == 0, f"case {i}: {cfg.sections['beam']}"
        passed += 1
    assert passed == 20
    print("criterion 7: PASS (fork counts, 20/20 cases)")


def test_criterion_08_rotating_elements(tmp_path):
    omega = 1.0
    rotation = {"omega": omega, "periods": 16, "samples": 4096}
    bin_width = omega / 16.0
    code, rows = run("rotating_hwp_pair", tmp_path, rotation=rotation)
    check_rows(rows)
    assert code == 0
    assert abs(rows["frequency_shift"].value - 2.0 * omega) <= bin_width
    code, rows = run("rotating_qplate", tmp_path,
                     grid={**GRID, "n": 128},
                     beam={"kind": "gaussian", "w0": W0},
                     polarization={"kind": "L"},
                     element={"q": 1.0, "alpha0": 0.0, "delta": math.pi},
                     rotation=rotation)
    check_rows(rows)
    assert code == 0
    assert abs(rows["frequency_shift"].value - 2.0 * omega) <= bin_width
    print("criterion 8: PASS (frequency shift 2*Omega, both elements)")


def test_criterion_09_propagation(tmp_path):
    w0 = WINDOW / 16.0
    zr = math.pi * w0 ** 2 / WAVELENGTH
    for l in (-2, -1, 1, 2):
        code, rows = run("propagation_stability", tmp_path / f"lg{l}",
                         grid=GRID, beam={"kind": "lg", "l": l, "p": 0,
                                          "w0": w0},
                         propagation={"z_list": [zr, 2.0 * zr]})
        check_rows(rows)
        assert code == 0
        for z in (zr, 2.0 * zr):
            assert rows[f"charge_z={z:g}"].value == float(l)
            assert abs(rows[f"oam_z={z:g}"].value - l) <= 2e-3
        assert rows["semigroup_rel_err"].value <= 1e-9
    code, rows = run("propagation_stability", tmp_path / "gauss",
                     grid=GRID, beam={"kind": "gaussian", "w0": w0},
                     propagation={"z_list": [zr]})
    check_rows(rows)
    assert code == 0
    expect = w0 * math.sqrt(2.0)
    assert abs(rows[f"gaussian_width_z={zr:g}"].value - expect) \
        <= 0.005 * expect
    print("criterion 9: PASS (propagation invariants)")


def test_criterion_10_determinism(tmp_path):
    logs = []
    results = []
    for label in ("first", "second"):
        start = time.perf_counter()
        lines = []
        code = selftest(tmp_path / label, grid_n=256, verbose=lines.append)
        elapsed = time.perf_counter() - start
        assert code == 0, "\n".join(lines)
        assert elapsed < 60.0, f"{label} run took {elapsed:.1f} s"
        logs.append(lines)
        results.append((tmp_path / label / "summary.csv").read_bytes())
    assert results[0] == results[1], "summary.csv differs between runs"
    assert logs[0] == logs[1]
    print("criterion 10: PASS (selftest n=256 bit-identical, < 60 s)")
