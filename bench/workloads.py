"""The benchmark's workloads, their seeded inputs and their output checks.

Why each workload
-----------------
``selftest-256``
    The whole ``lightsim selftest`` catalog (37 configs) at n=256, run in
    process through ``scenarios.selftest``: the CI path and acceptance
    criterion 10.  Arrays are ~1 MB and fit in L2, so ``geomphase``
    (about 0.9 of 2.0 s), the scalar ``polarization`` loops and Python
    overhead dominate; the array kernels do little.  The seed drives the
    selftest rng.
``catalog-1024``
    One config of each grid-bearing scenario at n=1024, with no file
    output: ``qplate_conversion``, ``generalized_charge``, ``lg_oam``, one
    LG ``interference_fork`` (l != 0) and one LG
    ``propagation_stability``.  The array layers (``beams``, ``elements``,
    ``analysis``, ``propagation``, ``interference``) do nearly all the
    work and ``geomphase`` does none.  About 10 s a pass.
``run-2048``
    The user-facing ``lightsim run`` path (``cli.main(["run", ini,
    "--out", dir])``) on INI files generated at set-up, at n=2048:
    ``qplate_conversion``, LG ``interference_fork`` and LG
    ``propagation_stability``.  It writes ``summary.csv`` files and
    PGM/PPM images (~38 MB a pass) beside its reads.  Its working set
    (several 64 MB complex128 arrays) exceeds the 105 MB L3, and it adds
    ``config`` parsing and ``imageio`` writes, which the other two bypass.
    About 13 s a pass.

In ``catalog-1024`` and ``run-2048`` the seed picks the q-plate charge q
and input handedness, the fork charge l and the propagated LG (l, p),
each from the values the scenario checks accept at n >= 256: an LG fork
with p=1 and |l|=1 puts a ring zero on the charge loop, and LG modes with
p=1 and |l| >= 2 reach the window edge after 2 z_R.

Predictions (traced run), written before any optimisation
----------------------------------------------------------
=====================================================  ===================  =============================================
layer metric                                           should move          most work -> little or none
=====================================================  ===================  =============================================
geomphase.self_s, geomphase.solid_angle.self_s,        wall_s               selftest-256 -> none in catalog-1024, run-2048
geomphase.solid_angle.points
polarization.self_s                                    wall_s               selftest-256 -> negligible elsewhere
analysis.{topological_charge, azimuthal_spectrum,      wall_s               catalog-1024 -> small in selftest-256
oam_per_photon, am_ledger}.self_s
beams.Grid.coords.calls, beams.Grid.polar.calls,       wall_s; peak_rss_mb  catalog-1024 (generalized_charge rebuilds
beams.laguerre_gaussian.self_s                         if cached            polar coords 12x) -> small in selftest-256
elements.apply_qplate.self_s                           wall_s               catalog-1024 -> small in selftest-256
propagation.propagate.self_s/.calls,                   wall_s, peak_rss_mb  run-2048 -> small in selftest-256
propagation.stability_metrics.self_s
interference.{interference_image,                      wall_s               run-2048, catalog-1024 -> small in
fringe_fork_count}.self_s                                                   selftest-256
imageio.self_s, imageio.mb_written                     wall_s               run-2048 -> zero elsewhere (selftest-256 only
                                                                            writes its small summary.csv)
config.self_s, cli.self_s                              wall_s               run-2048 -> negligible elsewhere
interference.import_s, analysis.import_s               setup_s              all workloads equally
scenarios.<scenario>.span_s                            wall_s               locates where a gain lands
=====================================================  ===================  =============================================

``propagation.far_field`` is called by no scenario and gets no metric.

Five back-to-back ``selftest-256`` passes ranged 1.69-2.28 s on the
2-core box this benchmark was written on, so a single pass is not a
steady measurement: every run times several passes after a warm-up pass
and reports their median.  The machine drifts too: a fixed pure-Python
loop ran 0.048-0.12 s a call there, switching between a fast state and
one about 1.6x slower in blocks of seconds to minutes, in CPU time as in
wall time.
"""

import contextlib
import io
import math
import random
import shutil

import lightsim.cli
import numpy as np
from lightsim import scenarios
from lightsim.config import ScenarioConfig

WINDOW = 8e-3
WAVELENGTH = 632.8e-9
FRINGES = 10.25          # reference fringes across the window

# Values each seeded choice is drawn from (accepted by the checks).
Q_CHOICES = (-1.0, -0.5, 0.5, 1.0)
HANDEDNESS = ("L", "R")
FORK_L_CHOICES = (-3, -2, -1, 1, 2, 3)
PROPAGATED_LP = ((-3, 0), (-2, 0), (-1, 0), (1, 0), (2, 0), (3, 0),
                 (-1, 1), (1, 1))

# The selftest catalog: configs per scenario, and the integer charges its
# exact-check rows must hold whatever the seed.
SELFTEST_CONFIGS = {
    "qplate_conversion": 1, "generalized_charge": 1, "lg_oam": 1,
    "srp_greatcircle": 1, "geometric_phase": 1, "plane_wave_identity": 1,
    "photon_partition": 1, "rotating_hwp_pair": 1, "rotating_qplate": 1,
    "interference_fork": 20, "propagation_stability": 5,
}
GENERALIZED_CHARGES = [s * t for t in (-4, -2, -1, 1, 2, 4) for s in (1, -1)]
SELFTEST_CHARGES = {
    ("qplate_conversion", "charge"): [2],
    ("generalized_charge", "charge"): GENERALIZED_CHARGES,
    ("interference_fork", "fork_count"):
        2 * list(range(-3, 4)) + [-3, -2, -1, 1, 2, 3],
    ("propagation_stability", "charge"): [-2, -2, -1, -1, 1, 1, 2, 2],
}


def check_rows(rows, charges):
    """Problems found in summary rows.

    `rows` holds (scenario, quantity, value, expected, tolerance, status)
    tuples.  Every checked row (finite tolerance) must be within its
    tolerance and marked pass.  For each (scenario, quantity prefix) in
    `charges`, the values of the matching rows must equal the listed
    integers exactly, as a multiset.
    """
    problems = []
    if not rows:
        problems.append("no summary rows")
    for scenario, quantity, value, expected, tol, status in rows:
        if math.isinf(tol):
            continue
        if not (abs(value - expected) <= tol and status == "pass"):
            problems.append(f"{scenario}.{quantity}: {value!r} vs expected "
                            f"{expected!r} (tol {tol!r}, {status})")
    for (scenario, prefix), want in charges.items():
        got = sorted(r[2] for r in rows
                     if r[0] == scenario and r[1].startswith(prefix))
        if got != sorted(float(w) for w in want):
            problems.append(f"{scenario}.{prefix}*: {got} != {sorted(want)}")
    return problems


def read_summary(path):
    lines = path.read_text().splitlines()
    rows = []
    for line in lines[1:]:
        scenario, quantity, value, expected, tol, status = line.split(",")
        rows.append((scenario, quantity, float(value), float(expected),
                     float(tol), status))
    return rows


def summary_tuples(rows):
    return [(r.scenario, r.quantity, r.value, r.expected, r.tolerance,
             r.status) for r in rows]


def seeded_choices(seed):
    rng = random.Random(seed)
    return {"q": rng.choice(Q_CHOICES), "hand": rng.choice(HANDEDNESS),
            "fork_l": rng.choice(FORK_L_CHOICES),
            "prop_lp": rng.choice(PROPAGATED_LP)}


def grid_configs(n, seed, names):
    """(name, sections, expected charges) for the grid-bearing scenarios."""
    c = seeded_choices(seed)
    grid = {"n": n, "window": WINDOW, "wavelength": WAVELENGTH}
    w0 = WINDOW / 8.0
    pw0 = WINDOW / 16.0
    zr = math.pi * pw0 ** 2 / WAVELENGTH
    tilt = math.asin(FRINGES * WAVELENGTH / WINDOW)
    sign = 1 if c["hand"] == "L" else -1
    l, p = c["prop_lp"]
    catalog = {
        "qplate_conversion": (
            {"grid": grid, "beam": {"kind": "gaussian", "w0": w0},
             "polarization": {"kind": c["hand"]},
             "element": {"q": c["q"], "alpha0": 0.0, "delta": math.pi}},
            {"charge_out": [round(2 * c["q"]) * sign]}),
        "generalized_charge": (
            {"grid": grid, "beam": {"kind": "gaussian", "w0": w0}},
            {"charge": GENERALIZED_CHARGES}),
        "lg_oam": (
            {"grid": grid, "beam": {"kind": "lg", "l": 0, "p": 0, "w0": w0}},
            {}),
        "interference_fork": (
            {"grid": grid,
             "beam": {"kind": "lg", "l": c["fork_l"], "p": 0, "w0": w0},
             "interference": {"tilt": tilt}},
            {"fork_count": [c["fork_l"]]}),
        "propagation_stability": (
            {"grid": grid, "beam": {"kind": "lg", "l": l, "p": p, "w0": pw0},
             "propagation": {"z_list": [zr, 2.0 * zr]}},
            {"charge": [l, l]}),
    }
    return [(name, *catalog[name]) for name in names]


def ini_text(name, sections):
    out = [f"[scenario]\nname = {name}\n"]
    for section, keys in sections.items():
        out.append(f"\n[{section}]\n")
        for key, value in keys.items():
            if isinstance(value, list):
                value = ", ".join(repr(v) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            out.append(f"{key} = {value}\n")
    return "".join(out)


def pnm_problems(path, magic, maxval, n, bytes_per_pixel):
    header = f"{magic}\n{n} {n}\n{maxval}\n".encode("ascii")
    if not path.is_file():
        return [f"{path.name}: missing"]
    with open(path, "rb") as fh:
        head = fh.read(len(header))
    size = path.stat().st_size
    want = len(header) + n * n * bytes_per_pixel
    if head != header or size != want:
        return [f"{path.name}: header {head!r}, {size} bytes; want "
                f"{header!r}, {want} bytes"]
    return []


class Outcome:
    """Configs attempted and failed, with the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, configs, failed, problems):
        self.attempted += configs
        self.failed += failed
        self.problems.extend(problems[:20 - len(self.problems)])


class Selftest:
    name = "selftest-256"
    default_n = 256

    def __init__(self, seed, work_dir, n=None):
        self.seed = seed
        self.n = n or self.default_n
        self.out = work_dir / "selftest"
        self.out.mkdir(parents=True)
        self.reference = None   # summary.csv bytes of the first pass

    def run_pass(self):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return scenarios.selftest(self.out, seed=self.seed,
                                          grid_n=self.n)
        except Exception as exc:   # recorded as failed configs
            return exc

    def prepare(self):
        (self.out / "summary.csv").unlink(missing_ok=True)

    def check(self, result, outcome):
        total = sum(SELFTEST_CONFIGS.values())
        if isinstance(result, Exception):
            outcome.add(total, total, [f"selftest raised {result!r}"])
            return
        try:
            data = (self.out / "summary.csv").read_bytes()
            rows = read_summary(self.out / "summary.csv")
        except (OSError, ValueError) as exc:
            outcome.add(total, total, [f"summary.csv unreadable: {exc!r}"])
            return
        if self.reference is None:
            self.reference = data
        problems = check_rows(rows, SELFTEST_CHARGES)
        bad = {p.split(".")[0] for p in problems}
        whole = []   # problems no single scenario explains
        if set(SELFTEST_CONFIGS) != {r[0] for r in rows}:
            whole.append("summary scenarios differ from the catalog")
        if data != self.reference:
            whole.append("summary.csv differs from the first pass")
        if result != 0 and not problems:
            whole.append(f"selftest returned {result}")
        if whole or not bad <= set(SELFTEST_CONFIGS):
            failed = total
        else:
            # Rows do not name their config: fail every config of the
            # scenarios with a problem.
            failed = sum(SELFTEST_CONFIGS[s] for s in bad)
        problems += whole
        outcome.add(total, failed, problems)


class Catalog:
    name = "catalog-1024"
    default_n = 1024
    names = ("qplate_conversion", "generalized_charge", "lg_oam",
                 "interference_fork", "propagation_stability")

    def __init__(self, seed, work_dir, n=None):
        self.seed = seed
        self.n = n or self.default_n
        self.configs = [(ScenarioConfig(name, sections), charges)
                        for name, sections, charges
                        in grid_configs(self.n, seed, self.names)]

    def prepare(self):
        pass

    def run_pass(self):
        results = []
        rng = np.random.default_rng(self.seed)
        for cfg, _ in self.configs:
            _, runner = scenarios.SCENARIOS[cfg.name]
            try:
                results.append(runner(cfg, None, rng))
            except Exception as exc:   # recorded as a failed config
                results.append(exc)
        return results

    def check(self, results, outcome):
        for (cfg, charges), result in zip(self.configs, results):
            if isinstance(result, Exception):
                problems = [f"{cfg.name} raised {result!r}"]
            else:
                problems = check_rows(
                    summary_tuples(result),
                    {(cfg.name, k): v for k, v in charges.items()})
            outcome.add(1, bool(problems), problems)


class Run:
    name = "run-2048"
    default_n = 2048
    names = ("qplate_conversion", "interference_fork",
                 "propagation_stability")
    images = {
        "qplate_conversion": [("intensity_out.pgm", "P5", 65535, 2),
                              ("phase_converted.pgm", "P5", 65535, 2),
                              ("stokes_out.ppm", "P6", 255, 3)],
        "interference_fork": [("interferogram.pgm", "P5", 65535, 2)],
        "propagation_stability": [],
    }

    def __init__(self, seed, work_dir, n=None):
        self.n = n or self.default_n
        self.jobs = []
        work_dir.mkdir(parents=True, exist_ok=True)
        for name, sections, charges in grid_configs(self.n, seed,
                                                    self.names):
            ini = work_dir / f"{name}.ini"
            ini.write_text(ini_text(name, sections))
            self.jobs.append((name, ini, work_dir / f"out_{name}", charges))

    def prepare(self):
        for _, _, out, _ in self.jobs:
            shutil.rmtree(out, ignore_errors=True)

    def run_pass(self):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for _, ini, out, _ in self.jobs:
                try:
                    codes.append(lightsim.cli.main(
                        ["run", str(ini), "--out", str(out)]))
                except Exception as exc:   # recorded as a failed config
                    codes.append(exc)
        return codes

    def check(self, codes, outcome):
        for (name, _, out, charges), code in zip(self.jobs, codes):
            if code != 0:
                outcome.add(1, 1, [f"{name}: run returned {code!r}"])
                continue
            try:
                rows = read_summary(out / "summary.csv")
            except (OSError, ValueError) as exc:
                outcome.add(1, 1, [f"{name}: summary.csv unreadable: "
                                   f"{exc!r}"])
                continue
            problems = check_rows(rows, {(name, k): v
                                         for k, v in charges.items()})
            for image, magic, maxval, nbytes in self.images[name]:
                problems += pnm_problems(out / image, magic, maxval,
                                         self.n, nbytes)
            outcome.add(1, bool(problems), problems)


WORKLOADS = {w.name: w for w in (Selftest, Catalog, Run)}
