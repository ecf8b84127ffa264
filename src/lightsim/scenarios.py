"""Named experiment scenarios.

Each scenario reproduces one quantitative claim as a configured run that
writes a ``summary.csv`` of checked quantities (value, expected, tolerance,
status) plus image files.  The selftest executes the whole catalog on a
reduced grid.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import groupby
from pathlib import Path

import numpy as np

from . import analysis, beams, elements, geomphase, interference, propagation
from .config import (BEAM_SECTION, BEAM_WAIST_KEYS, ELEMENT_SECTION,
                     GRID_SECTION, INTERFERENCE_SECTION,
                     LG_SWEEP_BEAM_SECTION, OUTPUT_SECTION, PHOTON_SECTION,
                     POLARIZATION_SECTION, PROPAGATION_SECTION,
                     ROTATION_SECTION, ScenarioConfig, validate)
from .constants import C_LIGHT, H_PLANCK, HBAR
from .errors import ConfigError, LightsimError
from .imageio import (phase_levels, write_csv, write_intensity_pgm,
                      write_phase_pgm, write_stokes_ppm)
from .polarization import (JonesVector, StokesVector, half_wave,
                           jones_state, stokes_of, wrap_angle)

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

def _build(make, *args):
    """make(*args), whose ValueError (a library rule the config schemas do
    not restate) becomes a ConfigError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_grid(cfg):
    g = cfg["grid"]
    return _build(beams.Grid, g["n"], g["window"] / g["n"], g["wavelength"])


def build_qplate(cfg):
    el = cfg["element"]
    return _build(elements.QPlateSpec, el["q"], el["alpha0"])


def build_scalar_beam(grid, beam_cfg):
    kind = beam_cfg["kind"]
    if kind == "gaussian":
        return beams.gaussian(grid, beam_cfg["w0"])
    if kind == "elliptical":
        return beams.elliptical_gaussian(grid, beam_cfg["wx"], beam_cfg["wy"],
                                         beam_cfg["tilt"])
    if kind == "lg":
        return beams.laguerre_gaussian(grid, beam_cfg["l"], beam_cfg["p"],
                                       beam_cfg["w0"])
    return beams.vortex_beam(grid, beam_cfg["l"], beam_cfg["w0"])


def beam_waist(beam_cfg):
    return max(beam_cfg[k] for k in BEAM_WAIST_KEYS[beam_cfg["kind"]])


def beam_charge(beam_cfg):
    """The azimuthal charge l of an LG or vortex beam; 0 for the others."""
    return beam_cfg["l"] if beam_cfg["kind"] in ("lg", "vortex") else 0


def build_beam(cfg):
    """The configured scalar beam on the configured grid."""
    return build_scalar_beam(build_grid(cfg), cfg["beam"])


def build_vector_beam(cfg):
    """The configured beam, polarized in place once it is let go of."""
    pol, beam = jones_state(cfg["polarization"]["kind"]), build_beam(cfg)
    grid, ex = beam.grid, beam.amp.astype(complex, copy=False)
    del beam
    return beams._polarized(grid, ex, pol)


def oam_tolerance(grid):
    """Discretization-aware OAM check tolerance.

    The finite-difference estimator converges as pitch^2 around a filled
    vortex core; 1e-3 holds from n = 512 up, reduced grids get 5e-3.
    """
    return 1e-3 if grid.n >= 512 else 5e-3


# ---------------------------------------------------------------------------
# time-series measurement

def _rotation_times(omega, periods, samples):
    if omega == 0.0:
        duration = 1.0
    else:
        duration = periods * 2.0 * math.pi / abs(omega)
    return np.arange(samples) * duration / samples


def _frequency_shift_row(cfg, vals, times, hand="L"):
    """Peak angular frequency [rad/s] of the complex series `vals`, within
    one bin of 2 omega for an L input (it leaves as R), -2 omega for R."""
    omega, periods = cfg["rotation"]["omega"], cfg["rotation"]["periods"]
    bin_width = 0.0 if omega == 0.0 else abs(omega) / periods
    freqs = 2.0 * math.pi * np.fft.fftfreq(len(vals), d=times[1] - times[0])
    peak = float(freqs[int(np.argmax(np.abs(np.fft.fft(vals))))])
    # 0.0 - : an R row at omega = 0 expects 0.0, not -0.0
    expected = 2.0 * omega if hand == "L" else 0.0 - 2.0 * omega
    return SummaryRow(cfg.name, "frequency_shift", peak, expected, bin_width)


def _hwp_pair_output(omega, times):
    """|L> through a half-wave plate spinning at omega, then a fixed one."""
    spun = elements.rotating_waveplate_series(omega, jones_state("L"), times)
    return JonesVector(*half_wave(1.0, spun.ex, spun.ey))


def rotating_qplate_overlap_series(spec, f, omega, times):
    """Amplitude <out(0)|out(t)> for a q-plate spinning at omega.

    Turning the plate by omega t adds the geometric phase +2 omega t to the
    output's R part and -2 omega t to its L part; the winding has unit
    modulus and <R|L> = 0, so the amplitude is exactly
    P_R e^{2i omega t} + P_L e^{-2i omega t}, with the output's powers
    P_R, P_L = power (1 -+ SAM) / 2, read by blocks as the output is made.
    """
    ys, plate = elements.qplate_formula(spec, f.grid)
    power, sam = analysis.power_sam(beams._blocks(plate, f.ex, f.ey, ys),
                                    f.grid.pitch)
    p_r = power * (1.0 - sam) / 2.0
    p_l = power * (1.0 + sam) / 2.0
    return p_r * np.exp(2j * omega * times) + p_l * np.exp(-2j * omega * times)


# ---------------------------------------------------------------------------
# scenario runners

def _scenario_qplate_conversion(cfg, outdir, rng):
    # The q-plate output overwrites the input field by blocks of rows, each
    # read before and after and given its winding from its own rows; for the
    # images, each block's phase levels are written, then its Stokes maps
    # overwrite it.  Beside the field, no map is whole.
    field = build_vector_beam(cfg)
    grid, spec = field.grid, build_qplate(cfg)
    ledger_in = analysis.am_ledger(field)
    s3_sign = 1.0 if ledger_in.sam >= 0.0 else -1.0
    charge_expected = beam_charge(cfg["beam"]) + 2.0 * spec.q * s3_sign
    threshold = 1e-9 * float(np.max(*beams._by_rows(lambda ex, ey: (
        stokes_of(JonesVector(ex, ey)).s0.max(axis=1),), field.ex, field.ey)))
    hand = "R" if s3_sign > 0 else "L"
    project = beams.circular_projection(hand)
    ys, plate = elements.qplate_formula(spec, grid)

    def convert(ex, ey, y):
        s = stokes_of(JonesVector(ex, ey))
        mask = s.s0 > threshold
        ratio_in = s.s3[mask] / s.s0[mask]
        ex[...], ey[...] = plate(ex, ey, y)
        s = stokes_of(JonesVector(ex, ey))
        dev = np.zeros(mask.shape)
        dev[mask] = np.abs(s.s3[mask] / s.s0[mask] + ratio_in)
        return dev.max(axis=1), np.abs(project(ex, ey)).max(axis=1)

    flip_dev, psi_peak = (float(np.max(a)) for a in beams._by_rows(
        convert, field.ex, field.ey, ys))
    ledger_out = analysis.am_ledger(field)
    loop_radius = beam_waist(cfg["beam"])
    charge = analysis.topological_charge(beams.circular_component(
        analysis.loop_crop(field, loop_radius), hand), loop_radius, psi_peak)

    tol = oam_tolerance(grid)
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
        SummaryRow(name, "power_ratio", ledger_out.power / ledger_in.power,
                   1.0, 1e-12),
    ]
    if outdir is not None:
        def stokes_in_place(ex, ey):
            levels = phase_levels(np.angle(project(ex, ey)))
            s = stokes_of(JonesVector(ex, ey))
            ex.real, ex.imag, ey.real, ey.imag = s.s0, s.s1, s.s2, s.s3
            return levels

        write_phase_pgm(outdir / "phase_converted.pgm", field.ex, field.ey,
                        levels=stokes_in_place)
        s = StokesVector(field.ex.real, field.ex.imag, field.ey.real,
                         field.ey.imag)
        write_intensity_pgm(outdir / "intensity_out.pgm", s.s0)
        write_stokes_ppm(outdir / "stokes_out.ppm", s)
    return rows


def _scenario_generalized_charge(cfg, outdir, rng):
    base = build_beam(cfg)
    l, loop_radius = beam_charge(cfg["beam"]), beam_waist(cfg["beam"])
    # The chain is pixelwise, and a crop's cell-centered axis is the slice
    # of the full one: on the crop the circle reader samples, it gives the
    # loop samples of the full grid bit for bit.  The plate is unitary and
    # the projection is onto a unit state, so each output's peak is the
    # input beam's to rounding; the loop check reads the input's.
    crop = analysis.loop_crop(base, loop_radius)
    peak = beams.max_abs(base.amp)
    rows = []
    for two_q in (-4, -2, -1, 1, 2, 4):
        spec = elements.QPlateSpec(two_q / 2.0)
        for kind, sign in (("L", 1.0), ("R", -1.0)):
            converted = beams.circular_component(elements.apply_qplate(
                spec, beams.vector_field(crop, jones_state(kind))),
                "R" if sign > 0 else "L")
            rows.append(SummaryRow(
                cfg.name, f"charge_2q={two_q}_{kind}",
                analysis.topological_charge(converted, loop_radius, peak),
                l + sign * two_q, 0.0))
    return rows


def _scenario_lg_oam(cfg, outdir, rng):
    grid = build_grid(cfg)
    w0 = cfg["beam"]["w0"]
    rows = []
    for l in range(-3, 4):
        for p in (0, 1):
            mode = beams.laguerre_gaussian(grid, l, p, w0)
            oam = analysis.am_ledger(mode).oam
            purity = analysis.azimuthal_spectrum(mode, 0.6 * w0).get(l, 0.0)
            del mode  # let go of each mode before building the next
            rows.append(SummaryRow(cfg.name, f"oam_l={l}_p={p}",
                                   oam, float(l), 1e-3))
            rows.append(SummaryRow(cfg.name, f"purity_l={l}_p={p}",
                                   purity, 1.0, 1e-3))
    return rows


def _scenario_srp_greatcircle(cfg, outdir, rng):
    path = geomphase.qplate_k_path()
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
    cap = geomphase.circle_path(math.pi / 6)
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
        ems = [beams.plane_wave_em(1.0, kind, ph) for ph in phases]
        u_avg, g_avg, b_frac = (
            sum(f(e, b) for e, b in ems) / len(ems)
            for f in (analysis.energy_density, analysis.momentum_density,
                      analysis.magnetic_energy_fraction))
        ratio = u_avg / (float(np.linalg.norm(g_avg)) * C_LIGHT)
        rows.append(SummaryRow(name, f"u_over_gc_{kind}", ratio, 1.0, 1e-12))
        rows.append(SummaryRow(name, f"magnetic_fraction_{kind}",
                               b_frac, 0.5, 1e-12))
    return rows


def _scenario_photon_partition(cfg, outdir, rng):
    nu = cfg["photon"]["nu"]
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
    beam, tilt = build_beam(cfg), cfg["interference"]["tilt"]
    image = interference.interference_image(beam, tilt)
    count = interference.fringe_fork_count(image, beam.grid, tilt,
                                           beam_waist(cfg["beam"]))
    charge = analysis.topological_charge(beam, beam_waist(cfg["beam"]))
    if outdir is not None:
        write_intensity_pgm(outdir / "interferogram.pgm", image)
    return [SummaryRow(cfg.name, "fork_count", count, charge, 0.0)]


def _scenario_rotating_hwp_pair(cfg, outdir, rng):
    omega, times = cfg["rotation"]["omega"], _rotation_times(**cfg["rotation"])
    vals = jones_state("L").inner(_hwp_pair_output(omega, times))
    # polarization restoration: the pair returns the input state at all t
    restored = _hwp_pair_output(omega, _rotation_times(omega, 2, 256))
    return [_frequency_shift_row(cfg, vals, times),
            SummaryRow(cfg.name, "restored_s3_min",
                       float(np.min(stokes_of(restored).s3)), 1.0, 1e-9)]


def _scenario_rotating_qplate(cfg, outdir, rng):
    omega, times = cfg["rotation"]["omega"], _rotation_times(**cfg["rotation"])
    vals = rotating_qplate_overlap_series(build_qplate(cfg),
                                          build_vector_beam(cfg), omega, times)
    return [_frequency_shift_row(cfg, vals, times,
                                 cfg["polarization"]["kind"])]


def _scenario_propagation_stability(cfg, outdir, rng):
    beam_cfg = cfg["beam"]
    zs = cfg["propagation"]["z_list"]
    # one pass over the distinct distances and z/2, for the semigroup row
    z = max(zs)
    steps = list(dict.fromkeys([*zs, z / 2]))
    records, planes = {}, {}
    for step, out in zip(steps, propagation.propagations(build_beam(cfg),
                                                          steps)):
        if step in zs:
            records[step] = propagation.stability_record(step, out)
        if step in (z, z / 2):
            planes[step] = out
        del out  # let go of each other plane before the next
    name, kind, rows = cfg.name, beam_cfg["kind"], []
    for z_i in zs:
        rec, tag = records[z_i], f"z={z_i:g}"
        rows += [SummaryRow(name, f"{key}_{tag}", rec[key], rec[key], INFO)
                 for key in ("width_x", "width_y")]
        if kind in ("lg", "vortex"):
            l = float(beam_cfg["l"])
            rows += [SummaryRow(name, f"charge_{tag}", rec["charge"], l, 0.0),
                     SummaryRow(name, f"oam_{tag}", rec["oam"], l, 2e-3)]
        elif kind == "gaussian":
            w0 = beam_cfg["w0"]
            zr = math.pi * w0 ** 2 / cfg["grid"]["wavelength"]
            w_expect = w0 * math.sqrt(1.0 + (z_i / zr) ** 2)
            rows.append(SummaryRow(name, f"gaussian_width_{tag}",
                                   0.5 * (rec["width_x"] + rec["width_y"]),
                                   w_expect, 0.005 * w_expect))
            rows.append(SummaryRow(name, f"oam_{tag}", rec["oam"], 0.0, 1e-9))
    # semigroup: two half steps equal one full step; the second runs in
    # place but for z = 0, where the z/2 plane is the z plane
    one = planes[z].amp
    diff = next(propagation._propagations(planes.pop(z / 2), [z / 2],
                                          z > 0.0)).amp
    diff -= one
    err = math.sqrt(beams.sum_abs2(diff) / beams.sum_abs2(one))
    rows.append(SummaryRow(name, "semigroup_rel_err", err, 0.0, 1e-9))
    return rows


SCENARIOS = {
    "qplate_conversion": ([GRID_SECTION, BEAM_SECTION, POLARIZATION_SECTION,
                           ELEMENT_SECTION, OUTPUT_SECTION],
                          _scenario_qplate_conversion),
    "generalized_charge": ([GRID_SECTION, BEAM_SECTION, OUTPUT_SECTION],
                           _scenario_generalized_charge),
    "lg_oam": ([GRID_SECTION, LG_SWEEP_BEAM_SECTION, OUTPUT_SECTION],
               _scenario_lg_oam),
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


def execute(cfg, outdir, rng, log=print):
    """Validate one scenario config and run it; returns its summary rows.

    The one per-config path of `run_scenario` and `selftest`.  A
    ConfigError propagates; any other LightsimError becomes one failing row,
    `error[<class name>]`, logged as `ERROR <scenario>: <class>: <message>`.
    """
    schemas, runner = SCENARIOS[cfg.name]
    cfg = validate(cfg.name, cfg.sections, schemas)
    try:
        return runner(cfg, outdir, rng)
    except ConfigError:
        raise
    except LightsimError as exc:
        error = type(exc).__name__
        log(f"ERROR {cfg.name}: {error}: {exc}")
        return [SummaryRow(cfg.name, f"error[{error}]", 1.0, 0.0, 0.0)]


@contextmanager
def _output(outdir):
    """Create outdir; an OSError while writing into it is a ConfigError."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        yield outdir
    except OSError as exc:
        raise ConfigError(f"cannot write {outdir}: {exc}") from None


def _summarize(outdir, rows):
    """Write rows to outdir/summary.csv; returns the exit code, 0 when every
    row passes and 3 otherwise."""
    header = [f.name for f in fields(SummaryRow)] + ["status"]
    write_csv(outdir / "summary.csv", header,
              [[getattr(r, h) for h in header] for r in rows])
    return 0 if all(r.ok for r in rows) else 3


def run_scenario(cfg, outdir, seed=0, grid_n=None, log=print):
    """Execute one scenario; writes summary.csv and images into outdir.

    `grid_n` replaces the config's [grid] n, and `log` takes the line of a
    numerical stop (see `execute`).  Returns (exit_code, rows).
    """
    sections = cfg.sections
    if grid_n is not None and "grid" in sections:
        sections = {**sections, "grid": {**sections["grid"], "n": grid_n}}
    rng = _build(np.random.default_rng, seed)
    with _output(outdir) as outdir:
        rows = execute(ScenarioConfig(cfg.name, sections), outdir, rng, log)
        return _summarize(outdir, rows), rows


# ---------------------------------------------------------------------------
# selftest catalog

def _selftest_configs(n):
    """Scenario configs covering the acceptance catalog at grid size n, on
    an 8 mm window at 632.8 nm."""
    window, wavelength = 8e-3, 632.8e-9
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
            polarization={"kind": "L"}, element={"q": 1.0}),
        cfg("generalized_charge", grid=grid,
            beam={"kind": "gaussian", "w0": w0}),
        cfg("lg_oam", grid=grid, beam={"kind": "lg", "w0": w0}),
        cfg("srp_greatcircle"),
        cfg("geometric_phase"),
        cfg("plane_wave_identity"),
        cfg("photon_partition"),
        cfg("rotating_hwp_pair", rotation={"omega": 1.0}),
        cfg("rotating_qplate", grid={**grid, "n": min(n, 128)},
            beam={"kind": "gaussian", "w0": w0},
            polarization={"kind": "L"}, element={"q": 1.0},
            rotation={"omega": 1.0}),
    ]
    # interference forks: 20 synthesized charges in {-3..3}
    forks = [(kind, l, w0) for l in range(-3, 4) for kind in ("lg", "vortex")]
    forks += [("vortex", l, 0.75 * w0) for l in (-3, -2, -1, 1, 2, 3)]
    configs += [cfg("interference_fork", grid=grid,
                    beam={"kind": kind, "l": l, "w0": w},
                    interference={"tilt": tilt}) for kind, l, w in forks]
    # propagation: half the waist, so the expanded beams stay off the edge
    pw0 = window / 16.0
    for l in (-2, -1, 1, 2):
        configs.append(cfg("propagation_stability", grid=grid,
                           beam={"kind": "lg", "l": l, "w0": pw0},
                           propagation={"z_list": [zr, 2.0 * zr]}))
    configs.append(cfg("propagation_stability", grid=grid,
                       beam={"kind": "gaussian", "w0": pw0},
                       propagation={"z_list": [zr]}))
    return configs


def selftest(outdir, seed=0, grid_n=256, verbose=print):
    """Run the whole scenario catalog on a reduced grid.

    Writes one aggregated summary.csv (rows sorted by scenario name,
    insertion-stable within a scenario) and prints a pass/fail line per
    scenario group.  A config that stops on a numerical error becomes one
    failing row (see `execute`); the others still run.  Returns the exit code.
    """
    rng = _build(np.random.default_rng, seed)
    with _output(outdir) as outdir:
        rows = sorted((row for cfg in _selftest_configs(grid_n)
                       for row in execute(cfg, None, rng, verbose)),
                      key=lambda r: r.scenario)
        for name, group in groupby(rows, key=lambda r: r.scenario):
            oks = [r.ok for r in group]
            verbose(f"{'PASS' if all(oks) else 'FAIL'} {name} "
                    f"({sum(oks)}/{len(oks)} checks)")
        return _summarize(outdir, rows)
