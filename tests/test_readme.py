"""The README's examples run as printed, so it cannot drift from the API;
the API exports nothing that only its own tests use; and no module imports
a name it does not use."""

import ast
import re
from pathlib import Path

import pytest

from lightsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def test_every_export_has_a_caller_outside_the_tests():
    package = ROOT / "src" / "lightsim"
    sources = [p.read_text(encoding="utf-8")
               for p in [*package.glob("*.py"), *(ROOT / "demos").glob("*.py")]
               if p.name != "__init__.py"]
    used = set()
    for tree in map(ast.parse, [*sources, fenced_block("python")]):
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute)))
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(exported - used) == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted((ROOT / "src" / "lightsim").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
