"""The top-level names of ``mrsfuse``: exactly those its callers outside the package use.

The callers are ``tests/test_acceptance.py`` and perfbench (``from mrsfuse import ...``) and the
README's *Library* section (``mf.<name>``, or a bare name in backticks that the package defines).
The three error types are exported too, because public functions raise them. Both sets are read
from the files, so an export that no caller uses, or a caller's name the package does not export,
fails here. Three rules on the source ride along: a module uses every name it imports and reads every
private name it defines, and no line of ``src/`` or ``tests/`` passes 120 columns.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import mrsfuse

ROOT = Path(__file__).resolve().parents[1]
README_LIBRARY = re.search(r"^## Library\n(.*?)(?=^## |\Z)", (ROOT / "README.md").read_text(), re.M | re.S).group(1)
ERROR_TYPES = {"ConfigError", "DegenerateDataError", "ValidationError"}


def exported() -> set[str]:
    return {name for name, value in vars(mrsfuse).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def imported_from_package(path: Path) -> set[str]:
    """The names that ``from mrsfuse import ...`` statements take in one Python file."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "mrsfuse" for alias in node.names}


def package_names() -> set[str]:
    """Public names that some submodule binds to an object of the package: its functions, classes, constants."""
    modules = [importlib.import_module(f"mrsfuse.{info.name}") for info in pkgutil.iter_modules(mrsfuse.__path__)]
    return {name for module in modules for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
            and getattr(value, "__module__", module.__name__).startswith("mrsfuse")}


def library_names() -> set[str]:
    """``mf.<name>`` in the Library section, and each bare backticked name the package defines.

    A dotted path such as ``mrsfuse.metrics.report`` names a submodule's function, not an export.
    """
    bare = set(re.findall(r"`([A-Za-z_]\w*)[`(.]", README_LIBRARY)) & package_names()
    return set(re.findall(r"\bmf\.(\w+)", README_LIBRARY)) | bare


def test_exports_are_the_names_callers_use():
    callers = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]
    used = set().union(*map(imported_from_package, callers)) | library_names()
    assert exported() == used | ERROR_TYPES


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README_LIBRARY, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "poor"


def test_modules_take_no_private_name_from_each_other():
    # a rule that two modules share is public where it is stated, so that no module leans on another's helper
    taken = [f"{path.name}: from .{node.module or ''} import {alias.name}"
             for path in sorted((ROOT / "src" / "mrsfuse").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    assert taken == []


def test_no_module_compares_with_an_outcome_label_member():
    # which value is poor is stated once, in cohort.poor_mask; a comparison with a member states it again
    members = {"OutcomeLabel.POOR", "OutcomeLabel.GOOD"}
    compared = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                for path in sorted((ROOT / "src" / "mrsfuse").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Compare)
                if members & {ast.unparse(operand) for operand in (node.left, *node.comparators)}]
    assert compared == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "mrsfuse").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno}: {alias.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                   for alias in node.names if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_every_private_name_is_used():
    # a function, class, method or constant named with one leading underscore serves its own module: it is read there
    unused = []
    for path in sorted((ROOT / "src" / "mrsfuse").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = [node for node in nodes if isinstance(node, ast.Name)]
        defined = [(node.lineno, node.name) for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defined += [(node.lineno, node.id) for node in names if isinstance(node.ctx, ast.Store)]
        read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}  # a method, through its instance
        unused += [f"{path.name}:{line}: {name}" for line, name in defined
                   if re.fullmatch(r"_[^_]\w*", name) and name not in read]  # no dunder matches
    assert unused == []


def test_no_line_passes_120_columns():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    long = [f"{path.relative_to(ROOT)}:{number}" for path in files
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 120]
    assert long == []
