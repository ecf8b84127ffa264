"""Smoke tests of the benchmark's own code, at reduced grid sizes.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lightsim.analysis  # noqa: E402
import lightsim.beams  # noqa: E402
import lightsim.interference  # noqa: E402
from lightsim.config import load_config  # noqa: E402
from lightsim.scenarios import scenario_schemas  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import timed_pass  # noqa: E402
from workloads import (WORKLOADS, Catalog, Outcome, grid_configs,  # noqa: E402
                       ini_text)

SMALL_N = 256   # the smallest grid every workload's checks accept


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    work = WORKLOADS[name](7, tmp_path, n=SMALL_N)
    outcome = Outcome()
    for _ in range(2):
        timed_pass(work, outcome)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0


def test_wrong_charge_trips_the_output_check(tmp_path, monkeypatch):
    # A fork counter and a charge kernel that agree with each other but
    # are both off by one: the summary rows pass, the benchmark must not.
    count = lightsim.interference.fringe_fork_count
    charge = lightsim.analysis.topological_charge
    monkeypatch.setattr(lightsim.interference, "fringe_fork_count",
                        lambda *a: count(*a) + 1)
    monkeypatch.setattr(lightsim.analysis, "topological_charge",
                        lambda *a: charge(*a) + 1)
    work = Catalog(7, tmp_path, n=SMALL_N)
    work.configs = [c for c in work.configs
                    if c[0].name == "interference_fork"]
    outcome = Outcome()
    results = work.run_pass()
    assert all(r.ok for r in results[0])
    work.check(results, outcome)
    assert outcome.failed == 1
    assert "fork_count" in outcome.problems[0]


def test_tracer_attributes_time_and_restores_the_program(tmp_path):
    original = lightsim.beams.Grid.polar
    work = Catalog(7, tmp_path, n=SMALL_N)
    tracer = Tracer()
    wall = timed_pass(work, Outcome(), tracer)
    assert lightsim.beams.Grid.polar is original
    assert tracer.calls["beams.Grid.polar"] > 0
    assert tracer.calls["geomphase"] == 0
    assert tracer.span_s["lg_oam"] > 0
    attributed = sum(v for k, v in tracer.self_s.items() if "." not in k)
    assert 0.9 * wall < attributed <= wall


def test_generated_ini_files_parse_back_to_the_configs(tmp_path):
    configs = grid_configs(2048, 3, Catalog.names)
    assert configs == grid_configs(2048, 3, Catalog.names)
    for name, sections, _ in configs:
        path = tmp_path / f"{name}.ini"
        path.write_text(ini_text(name, sections))
        cfg = load_config(path, scenario_schemas())
        assert cfg.name == name
        for section, keys in sections.items():
            assert {k: cfg[section][k] for k in keys} == keys


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selftest-256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
