"""The README's examples run as printed, so it cannot drift from the API;
the API exports nothing that only its own tests use, and no public function
has an option that only its own tests pass; and no module imports a name
it does not use."""

import ast
import math
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


def test_every_option_of_a_public_function_is_passed_outside_the_tests():
    package = ROOT / "src" / "lightsim"
    sources = [p.read_text(encoding="utf-8") for p in
               [*package.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                *(ROOT / "bench").glob("*.py")]] + [fenced_block("python")]
    # per called name: the most positional arguments of one call (*args
    # passes them all) and the keywords passed (None: **kwargs)
    most, keywords = {}, {}
    for node in ast.walk(ast.Module(list(map(ast.parse, sources)), [])):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            most[name] = max(most.get(name, 0),
                             math.inf if star else len(node.args))
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords)
    unpassed = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name[0] == "_":
                continue
            a = fn.args
            args = a.posonlyargs + a.args
            options = [(i, p.arg) for i, p in enumerate(args)
                       if i >= len(args) - len(a.defaults)]
            options += [(math.inf, p.arg) for p, d
                        in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            kws = keywords.get(fn.name, set())
            unpassed += [f"{path.stem}.{fn.name}({name})"
                         for i, name in options
                         if most.get(fn.name, 0) <= i
                         and not {name, None} & kws]
    assert unpassed == []
