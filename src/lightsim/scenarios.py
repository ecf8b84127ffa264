"""Named experiment scenarios.

Each scenario reproduces one quantitative claim as a configured run that
writes a ``summary.csv`` of checked quantities (value, expected, tolerance,
status) plus image files.  The selftest executes the whole catalog on a
reduced grid.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, beams, elements, geomphase, interference, propagation
from .config import (BEAM_SECTION, ELEMENT_SECTION, GRID_SECTION,
                     INTERFERENCE_SECTION, OUTPUT_SECTION,
                     POLARIZATION_SECTION, PROPAGATION_SECTION,
                     ROTATION_SECTION, Key, ScenarioConfig, SectionSchema)
from .constants import C_LIGHT, H_PLANCK, HBAR
from .errors import ConfigError
from .imageio import (write_csv, write_intensity_pgm, write_phase_pgm,
                      write_stokes_ppm)
from .polarization import (apply, jones_state, stokes_of, waveplate,
                           wrap_angle)

PHOTON_SECTION = SectionSchema("photon", [Key("nu", "float", default=5e14)])

INFO = float("inf")  # tolerance marker for informational rows


@dataclass
class SummaryRow:
    scenario: str
    quantity: str
    value: float
    expected: float
    tolerance: float

    @property
    def ok(self):
        if math.isinf(self.tolerance):
            return True
        return abs(self.value - self.expected) <= self.tolerance

    @property
    def status(self):
        return "pass" if self.ok else "fail"


# ---------------------------------------------------------------------------
# config -> objects

def build_grid(cfg):
    g = cfg["grid"]
    return beams.Grid(g["n"], g["window"] / g["n"], g["wavelength"])


def build_scalar_beam(grid, beam_cfg):
    kind = beam_cfg["kind"]
    if kind == "gaussian":
        return beams.gaussian(grid, beam_cfg["w0"])
    if kind == "elliptical":
        return beams.elliptical_gaussian(grid, beam_cfg["wx"], beam_cfg["wy"],
                                         beam_cfg.get("tilt", 0.0))
    if kind == "lg":
        return beams.laguerre_gaussian(grid, beam_cfg["l"], beam_cfg["p"],
                                       beam_cfg["w0"])
    if kind == "vortex":
        # Gaussian envelope with a pure azimuthal phase winding.
        base = beams.gaussian(grid, beam_cfg["w0"])
        return beams.ScalarField(
            grid, base.amp * beams.azimuthal_phase(grid, beam_cfg["l"]))
    raise ConfigError(f"unknown beam kind {kind!r}")


def beam_waist(beam_cfg):
    if beam_cfg["kind"] == "elliptical":
        return max(beam_cfg["wx"], beam_cfg["wy"])
    return beam_cfg["w0"]


def build_beam(cfg):
    """The configured scalar beam on the configured grid."""
    return build_scalar_beam(build_grid(cfg), cfg["beam"])


def build_vector_beam(cfg):
    """The configured beam, uniformly polarized; the polarization kind is
    checked first."""
    try:
        pol = jones_state(cfg["polarization"]["kind"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return beams.vector_field(build_beam(cfg), pol)


def oam_tolerance(grid):
    """Discretization-aware OAM check tolerance.

    The finite-difference estimator converges as pitch^2 around a filled
    vortex core; 1e-3 holds from n = 512 up, reduced grids get 5e-3.
    """
    return 1e-3 if grid.n >= 512 else 5e-3


# ---------------------------------------------------------------------------
# time-series measurement

def frequency_shift_from_series(values, times):
    """Peak angular frequency [rad/s] of a complex amplitude series."""
    values = np.asarray(values, dtype=complex)
    times = np.asarray(times, dtype=float)
    dt = times[1] - times[0]
    spectrum = np.fft.fft(values)
    freqs = 2.0 * math.pi * np.fft.fftfreq(len(values), d=dt)
    return float(freqs[int(np.argmax(np.abs(spectrum)))])


def _rotation_times(omega, periods, samples):
    if omega == 0.0:
        duration = 1.0
    else:
        duration = periods * 2.0 * math.pi / abs(omega)
    return np.arange(samples) * duration / samples


def _configured_rotation(cfg):
    """(omega, times) of the [rotation] section; its sampling is checked
    before the scenario builds anything."""
    rot = cfg["rotation"]
    omega, periods, samples = rot["omega"], rot["periods"], rot["samples"]
    if samples < 64 * max(periods, 1):
        raise ConfigError("need >= 64 samples per rotation period")
    return omega, _rotation_times(omega, periods, samples)


def _frequency_shift_row(cfg, vals, times):
    """Peak frequency of the series against 2 omega, to within one bin."""
    omega, periods = cfg["rotation"]["omega"], cfg["rotation"]["periods"]
    bin_width = 0.0 if omega == 0.0 else abs(omega) / periods
    return SummaryRow(cfg.name, "frequency_shift",
                      frequency_shift_from_series(vals, times), 2.0 * omega,
                      bin_width)


def _hwp_pair_output(omega, times):
    """|L> through a half-wave plate spinning at omega, then a fixed one."""
    spun = elements.rotating_waveplate_series(math.pi, omega, jones_state("L"),
                                              times)
    return apply(waveplate(math.pi, 0.0), spun)


def rotating_qplate_overlap_series(spec, f, omega, times):
    """Amplitude <out(0)|out(t)> for a q-plate spinning at omega.

    Uses the exact three-term alpha0 decomposition of the element, so long
    series cost three overlap integrals instead of one element application
    per sample.
    """
    ref = elements.apply_qplate(spec, f)
    parts = elements.qplate_alpha0_decomposition(spec, f)
    scale = f.grid.pitch ** 2

    def overlap(g):
        return scale * sum(np.vdot(a, b)
                           for a, b in zip(ref.components, g.components))

    c0, cp, cm = (overlap(g) for g in parts)
    return (c0 + cp * np.exp(2j * omega * times)
            + cm * np.exp(-2j * omega * times))


# ---------------------------------------------------------------------------
# scenario runners

def _scenario_qplate_conversion(cfg, outdir, rng):
    field_in = build_vector_beam(cfg)
    el = cfg["element"]
    spec = elements.QPlateSpec(el["q"], el["alpha0"], el["delta"])
    field_out = elements.apply_qplate(spec, field_in)
    ledger_in = analysis.am_ledger(field_in)
    ledger_out = analysis.am_ledger(field_out)

    s3_sign = 1.0 if ledger_in.sam >= 0.0 else -1.0
    charge_expected = 2.0 * spec.q * s3_sign

    sf_in = analysis.stokes_field(field_in)
    sf_out = analysis.stokes_field(field_out)
    mask = sf_in.s0 > 1e-9 * float(np.max(sf_in.s0))
    flip_dev = float(np.max(np.abs(sf_out.s3[mask] / sf_out.s0[mask]
                                   + sf_in.s3[mask] / sf_in.s0[mask])))

    psi_l, psi_r = beams.circular_components(field_out)
    converted = psi_r if s3_sign > 0 else psi_l
    charge = analysis.topological_charge(converted, beam_waist(cfg["beam"]))

    tol = oam_tolerance(field_in.grid)
    name = cfg.name
    rows = [
        SummaryRow(name, "sam_in", ledger_in.sam, s3_sign, 1e-12),
        SummaryRow(name, "sam_out", ledger_out.sam, -s3_sign, 1e-12),
        SummaryRow(name, "s3_pointwise_flip_dev", flip_dev, 0.0, 1e-12),
        SummaryRow(name, "charge_out", charge, charge_expected, 0.0),
        SummaryRow(name, "oam_out", ledger_out.oam, charge_expected, tol),
        SummaryRow(name, "ledger_imbalance",
                   ledger_out.total - ledger_in.total,
                   s3_sign * (2.0 * spec.q - 2.0), tol),
        SummaryRow(name, "power_ratio", field_out.power / field_in.power,
                   1.0, 1e-12),
    ]
    if outdir is not None:
        write_intensity_pgm(outdir / "intensity_out.pgm", sf_out.s0)
        write_phase_pgm(outdir / "phase_converted.pgm", np.angle(converted.amp))
        write_stokes_ppm(outdir / "stokes_out.ppm", sf_out)
    return rows


def _scenario_generalized_charge(cfg, outdir, rng):
    base = build_beam(cfg)
    loop_radius = beam_waist(cfg["beam"])
    rows = []
    for two_q in (-4, -2, -1, 1, 2, 4):
        spec = elements.QPlateSpec(two_q / 2.0)
        for kind, sign in (("L", 1.0), ("R", -1.0)):
            field = beams.vector_field(base, jones_state(kind))
            out = elements.apply_qplate(spec, field)
            psi_l, psi_r = beams.circular_components(out)
            converted = psi_r if sign > 0 else psi_l
            charge = analysis.topological_charge(converted, loop_radius)
            rows.append(SummaryRow(
                cfg.name, f"charge_2q={two_q}_{kind}",
                charge, sign * two_q, 0.0))
    return rows


def _scenario_lg_oam(cfg, outdir, rng):
    grid = build_grid(cfg)
    w0 = cfg["beam"]["w0"]
    rows = []
    for l in range(-3, 4):
        for p in (0, 1):
            mode = beams.laguerre_gaussian(grid, l, p, w0)
            oam = analysis.oam_per_photon(mode)
            spectrum = analysis.azimuthal_spectrum(mode, 0.6 * w0)
            purity = spectrum.get(l, 0.0)
            rows.append(SummaryRow(cfg.name, f"oam_l={l}_p={p}",
                                   oam, float(l), 1e-3))
            rows.append(SummaryRow(cfg.name, f"purity_l={l}_p={p}",
                                   purity, 1.0, 1e-3))
    return rows


def _scenario_srp_greatcircle(cfg, outdir, rng):
    path = geomphase.qplate_k_path(1.0)
    omega = geomphase.solid_angle(path)
    srp_plus = geomphase.srp_phase(path, +1)
    srp_minus = geomphase.srp_phase(path, -1)
    name = cfg.name
    return [
        SummaryRow(name, "solid_angle", omega, 2.0 * math.pi, 1e-6),
        SummaryRow(name, "srp_helicity_plus", srp_plus, -2.0 * math.pi, 1e-6),
        SummaryRow(name, "srp_helicity_minus", srp_minus, 2.0 * math.pi, 1e-6),
        SummaryRow(name, "srp_sum", srp_plus + srp_minus, 0.0, 0.0),
    ]


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _scenario_geometric_phase(cfg, outdir, rng):
    name = cfg.name
    rows = []
    octant = geomphase.geodesic_path([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    rows.append(SummaryRow(name, "octant_solid_angle",
                           geomphase.solid_angle(octant), math.pi / 2, 1e-9))
    cap = geomphase.circle_path(math.pi / 6, n_points=4096)
    rows.append(SummaryRow(name, "polar_cap_solid_angle",
                           geomphase.solid_angle(cap),
                           2.0 * math.pi * (1.0 - math.cos(math.pi / 6)), 1e-6))

    states = [jones_state(k) for k in ("H", "D", "L", "H")]
    gamma = geomphase.pancharatnam_cycle_phase(states)
    rows.append(SummaryRow(name, "pancharatnam_octant_magnitude",
                           abs(gamma), math.pi / 4, 1e-9))

    # Half-angle law on random geodesic triangles: the cycle phase equals
    # half the oriented solid angle of the Poincare images (mod 2 pi).
    worst = 0.0
    count = 0
    while count < 100:
        pts = [_random_unit(rng) for _ in range(3)]
        dots = [abs(float(a @ b)) for a, b in
                ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0]))]
        if max(dots) > 0.99:  # skip nearly (anti)parallel vertex pairs
            continue
        count += 1
        tri_states = [geomphase.jones_from_poincare(p) for p in pts]
        tri_states.append(tri_states[0])
        gamma = geomphase.pancharatnam_cycle_phase(tri_states)
        omega = geomphase.solid_angle(geomphase.geodesic_path(pts))
        worst = max(worst, abs(wrap_angle(gamma - omega / 2.0)))
    rows.append(SummaryRow(name, "half_angle_law_max_dev", worst, 0.0, 1e-6))
    return rows


def _scenario_plane_wave_identity(cfg, outdir, rng):
    name = cfg.name
    rows = []
    phases = 2.0 * math.pi * np.arange(64) / 64.0
    for kind in ("linear", "circular", "elliptical"):
        u_avg = 0.0
        g_avg = np.zeros(3)
        b_frac = 0.0
        for ph in phases:
            e, b = beams.plane_wave_em(1.0, kind, ph)
            u_avg += analysis.energy_density(e, b)
            g_avg = g_avg + analysis.momentum_density(e, b)
            b_frac += float(b @ b) / (8.0 * math.pi)
        u_avg /= len(phases)
        g_avg /= len(phases)
        b_frac /= len(phases)
        ratio = u_avg / (float(np.linalg.norm(g_avg)) * C_LIGHT)
        rows.append(SummaryRow(name, f"u_over_gc_{kind}", ratio, 1.0, 1e-12))
        rows.append(SummaryRow(name, f"magnetic_fraction_{kind}",
                               b_frac / u_avg, 0.5, 1e-12))
    return rows


def _scenario_photon_partition(cfg, outdir, rng):
    nu = cfg.get("photon", "nu", 5e14)
    name = cfg.name
    rot, trans = analysis.photon_partition(nu)
    total = H_PLANCK * nu
    omega = 2.0 * math.pi * nu
    ke_rot, ke_trans = analysis.classical_ke(HBAR, omega,
                                             H_PLANCK * nu / C_LIGHT, C_LIGHT)
    return [
        SummaryRow(name, "partition_sum_rel", (rot + trans) / total, 1.0, 1e-15),
        SummaryRow(name, "rotational_is_hbar_omega_half",
                   rot / (HBAR * omega / 2.0), 1.0, 1e-15),
        SummaryRow(name, "classical_rotational_rel", ke_rot / rot, 1.0, 1e-15),
        SummaryRow(name, "classical_translational_rel",
                   ke_trans / trans, 1.0, 1e-15),
    ]


def _scenario_interference_fork(cfg, outdir, rng):
    beam = build_beam(cfg)
    tilt = cfg["interference"]["tilt"]
    image = interference.interference_image(beam, tilt)
    count = interference.fringe_fork_count(image, beam.grid.n // 8)
    charge = analysis.topological_charge(beam, beam_waist(cfg["beam"]))
    rows = [
        SummaryRow(cfg.name, "fork_count", count, charge, 0.0),
    ]
    if outdir is not None:
        write_intensity_pgm(outdir / "interferogram.pgm", image)
    return rows


def _scenario_rotating_hwp_pair(cfg, outdir, rng):
    omega, times = _configured_rotation(cfg)
    vals = jones_state("L").inner(_hwp_pair_output(omega, times))
    # polarization restoration: the pair returns the input state at all t
    restored = _hwp_pair_output(omega, _rotation_times(omega, 2, 256))
    return [_frequency_shift_row(cfg, vals, times),
            SummaryRow(cfg.name, "restored_s3_min",
                       float(np.min(stokes_of(restored).s3)), 1.0, 1e-9)]


def _scenario_rotating_qplate(cfg, outdir, rng):
    omega, times = _configured_rotation(cfg)
    el = cfg["element"]
    spec = elements.QPlateSpec(el["q"], el["alpha0"], el["delta"])
    vals = rotating_qplate_overlap_series(spec, build_vector_beam(cfg), omega,
                                          times)
    return [_frequency_shift_row(cfg, vals, times)]


def _scenario_propagation_stability(cfg, outdir, rng):
    beam_cfg = cfg["beam"]
    beam = build_beam(cfg)
    zs = cfg["propagation"]["z_list"]
    name = cfg.name
    rows = []
    kind = beam_cfg["kind"]
    records = propagation.stability_metrics(beam, zs)
    for rec in records:
        z = rec["z"]
        tag = f"z={z:g}"
        rows.append(SummaryRow(name, f"width_x_{tag}", rec["width_x"],
                               rec["width_x"], INFO))
        rows.append(SummaryRow(name, f"width_y_{tag}", rec["width_y"],
                               rec["width_y"], INFO))
        if kind in ("lg", "vortex"):
            l = beam_cfg["l"]
            rows.append(SummaryRow(name, f"charge_{tag}", rec["charge"],
                                   float(l), 0.0))
            rows.append(SummaryRow(name, f"oam_{tag}", rec["oam"],
                                   float(l), 2e-3))
        elif kind == "gaussian":
            w0 = beam_cfg["w0"]
            zr = math.pi * w0 ** 2 / beam.grid.wavelength
            w_expect = w0 * math.sqrt(1.0 + (z / zr) ** 2)
            rows.append(SummaryRow(name, f"gaussian_width_{tag}",
                                   0.5 * (rec["width_x"] + rec["width_y"]),
                                   w_expect, 0.005 * w_expect))
            rows.append(SummaryRow(name, f"oam_{tag}", rec["oam"], 0.0, 1e-9))
    # semigroup property: two half steps equal one full step
    if zs:
        z = max(zs)
        one = propagation.propagate(beam, z)
        two = propagation.propagate(propagation.propagate(beam, z / 2), z / 2)
        err = float(np.linalg.norm(two.amp - one.amp)
                    / np.linalg.norm(one.amp))
        rows.append(SummaryRow(name, "semigroup_rel_err", err, 0.0, 1e-9))
    return rows


SCENARIOS = {
    "qplate_conversion": ([GRID_SECTION, BEAM_SECTION, POLARIZATION_SECTION,
                           ELEMENT_SECTION, OUTPUT_SECTION],
                          _scenario_qplate_conversion),
    "generalized_charge": ([GRID_SECTION, BEAM_SECTION, OUTPUT_SECTION],
                           _scenario_generalized_charge),
    "lg_oam": ([GRID_SECTION, BEAM_SECTION, OUTPUT_SECTION], _scenario_lg_oam),
    "srp_greatcircle": ([OUTPUT_SECTION], _scenario_srp_greatcircle),
    "geometric_phase": ([OUTPUT_SECTION], _scenario_geometric_phase),
    "plane_wave_identity": ([OUTPUT_SECTION], _scenario_plane_wave_identity),
    "photon_partition": ([PHOTON_SECTION, OUTPUT_SECTION],
                         _scenario_photon_partition),
    "interference_fork": ([GRID_SECTION, BEAM_SECTION, INTERFERENCE_SECTION,
                           OUTPUT_SECTION], _scenario_interference_fork),
    "rotating_hwp_pair": ([ROTATION_SECTION, OUTPUT_SECTION],
                          _scenario_rotating_hwp_pair),
    "rotating_qplate": ([GRID_SECTION, BEAM_SECTION, POLARIZATION_SECTION,
                         ELEMENT_SECTION, ROTATION_SECTION, OUTPUT_SECTION],
                        _scenario_rotating_qplate),
    "propagation_stability": ([GRID_SECTION, BEAM_SECTION, PROPAGATION_SECTION,
                               OUTPUT_SECTION], _scenario_propagation_stability),
}


def scenario_schemas():
    return {name: schemas for name, (schemas, _) in SCENARIOS.items()}


SUMMARY_HEADER = ["scenario", "quantity", "value", "expected", "tolerance",
                  "status"]


def write_summary(path, rows):
    write_csv(path, SUMMARY_HEADER,
              [(r.scenario, r.quantity, r.value, r.expected, r.tolerance,
                r.status) for r in rows])


def run_scenario(cfg, outdir, seed=0, grid_n=None):
    """Execute one scenario; writes summary.csv and images into outdir.

    Returns (exit_code, rows): 0 on success, 3 when any checked quantity
    exceeds its tolerance.
    """
    if grid_n is not None and "grid" in cfg.sections:
        cfg = ScenarioConfig(cfg.name, {**cfg.sections,
                                        "grid": {**cfg.sections["grid"],
                                                 "n": grid_n}})
    rng = np.random.default_rng(seed)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _, runner = SCENARIOS[cfg.name]
    rows = runner(cfg, outdir, rng)
    write_summary(outdir / "summary.csv", rows)
    code = 0 if all(r.ok for r in rows) else 3
    return code, rows


# ---------------------------------------------------------------------------
# selftest catalog

def _selftest_configs(n, window, wavelength):
    """Scenario configs covering the acceptance catalog at grid size n."""
    w0 = window / 8.0
    grid = {"n": n, "window": window, "wavelength": wavelength}
    zr = math.pi * (window / 16.0) ** 2 / wavelength
    fringes = 10.25
    tilt = math.asin(fringes * wavelength / window)

    def cfg(name, **sections):
        return ScenarioConfig(name, sections)

    configs = [
        cfg("qplate_conversion", grid=grid,
            beam={"kind": "gaussian", "w0": w0},
            polarization={"kind": "L"},
            element={"q": 1.0, "alpha0": 0.0, "delta": math.pi}),
        cfg("generalized_charge", grid=grid,
            beam={"kind": "gaussian", "w0": w0}),
        cfg("lg_oam", grid=grid, beam={"kind": "lg", "l": 0, "p": 0, "w0": w0}),
        cfg("srp_greatcircle"),
        cfg("geometric_phase"),
        cfg("plane_wave_identity"),
        cfg("photon_partition", photon={"nu": 5e14}),
        cfg("rotating_hwp_pair",
            rotation={"omega": 1.0, "periods": 16, "samples": 4096}),
        cfg("rotating_qplate", grid={**grid, "n": min(n, 128)},
            beam={"kind": "gaussian", "w0": w0},
            polarization={"kind": "L"},
            element={"q": 1.0, "alpha0": 0.0, "delta": math.pi},
            rotation={"omega": 1.0, "periods": 16, "samples": 4096}),
    ]
    # interference forks: 20 synthesized charges in {-3..3}
    for l in range(-3, 4):
        configs.append(cfg("interference_fork", grid=grid,
                           beam={"kind": "lg", "l": l, "p": 0, "w0": w0},
                           interference={"tilt": tilt}))
        configs.append(cfg("interference_fork", grid=grid,
                           beam={"kind": "vortex", "l": l, "w0": w0},
                           interference={"tilt": tilt}))
    for l in (-3, -2, -1, 1, 2, 3):
        configs.append(cfg("interference_fork", grid=grid,
                           beam={"kind": "vortex", "l": l, "w0": 0.75 * w0},
                           interference={"tilt": tilt}))
    # propagation: half the waist, so the expanded beams stay off the edge
    pw0 = window / 16.0
    for l in (-2, -1, 1, 2):
        configs.append(cfg("propagation_stability", grid=grid,
                           beam={"kind": "lg", "l": l, "p": 0, "w0": pw0},
                           propagation={"z_list": [zr, 2.0 * zr]}))
    configs.append(cfg("propagation_stability", grid=grid,
                       beam={"kind": "gaussian", "w0": pw0},
                       propagation={"z_list": [zr]}))
    return configs


def selftest(outdir, seed=0, grid_n=256, window=8e-3, wavelength=632.8e-9,
             verbose=print):
    """Run the whole scenario catalog on a reduced grid.

    Writes one aggregated summary.csv (rows sorted by scenario name,
    insertion-stable within a scenario) and prints a pass/fail line per
    scenario group.  Returns 0 when everything passes, 3 otherwise.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    configs = _selftest_configs(grid_n, window, wavelength)
    all_rows = []
    failed = False
    for cfg in configs:
        _, runner = SCENARIOS[cfg.name]
        all_rows.extend(runner(cfg, None, rng))
    all_rows.sort(key=lambda r: r.scenario)
    by_scenario = {}
    for row in all_rows:
        by_scenario.setdefault(row.scenario, []).append(row)
    for name in sorted(by_scenario):
        rows = by_scenario[name]
        ok = all(r.ok for r in rows)
        failed = failed or not ok
        verbose(f"{'PASS' if ok else 'FAIL'} {name} "
                f"({sum(r.ok for r in rows)}/{len(rows)} checks)")
    write_summary(outdir / "summary.csv", all_rows)
    return 3 if failed else 0
