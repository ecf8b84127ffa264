"""The README's examples run as printed, so it cannot drift from the API."""

import re
from pathlib import Path

import pytest

from lightsim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def fenced_block(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1, f"expected one ```{lang} block in README.md"
    return blocks[0]


def test_quick_start_runs():
    namespace = {}
    exec(fenced_block("python"), namespace)
    ledger = namespace["ledger"]
    assert ledger.sam == pytest.approx(-1.0, abs=1e-12)
    assert ledger.oam == pytest.approx(2.0, abs=1e-3)
    assert namespace["ls"].topological_charge(namespace["psi_r"], 1e-3) == 2


def test_example_config_runs(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(fenced_block("ini"), encoding="utf-8")
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
