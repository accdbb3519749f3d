"""Each name has one home.

The package's modules import a truncmix name only to use it, never to pass
it on, each public name is defined in one module, and the package root
binds no public name but ``__version__``, so every name is imported from
the submodule that defines it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "truncmix"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def bound_names(statements) -> set[str]:
    """Names that the given top-level statements bind."""
    names = set()
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def referenced_names(node) -> set[str]:
    """Names that ``node`` reads: plain names, attributes, imported names and
    identifier strings (``getattr(module, "name")``)."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names |= {a.name for a in n.names}
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names.add(n.value)
    return names


def is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_truncmix_name_it_does_not_use(path):
    tree = parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        f"{path.name}:{node.lineno} {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "truncmix")
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]
    assert not unused, f"imported but never used, so only passed on: {unused}"


def test_each_public_name_is_defined_in_one_module():
    homes = defaultdict(list)
    for path in MODULES:
        defined = [n for n in parse(path).body if not isinstance(n, (ast.Import, ast.ImportFrom))]
        for name in filter(is_public, bound_names(defined)):
            homes[name].append(path.name)
    shared = {name: files for name, files in homes.items() if len(files) > 1}
    assert not shared, f"defined in more than one module: {shared}"


def test_package_root_binds_only_version_and_pins_blas_first():
    tree = parse(PACKAGE / "__init__.py")
    assert sorted(filter(is_public, bound_names(tree.body))) == ["__version__"]
    # Importing only os, the root sets the BLAS variables before any
    # submodule's import can load numpy.
    imported = {a.name for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names}
    assert imported == {"os"}


def test_every_public_name_is_reached_outside_the_tests():
    # A name counts as reached when a top-level statement of src/ other than
    # the one defining it, or any file of perfbench/ or tools/, reads it; the
    # match is by name.  Dunder names such as __version__ are metadata.
    statements = [(path, node, referenced_names(node)) for path in MODULES
                  for node in parse(path).body]
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        outside |= referenced_names(parse(path))
    unreached = [
        f"{path.name}:{node.lineno} {name}"
        for path, node, _ in statements
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        for name in sorted(bound_names([node]))
        if not name.startswith("_")
        and name not in outside
        and not any(name in refs for _, other, refs in statements if other is not node)
    ]
    assert not unreached, f"public but read only by tests, if at all: {unreached}"


def test_readme_module_table_names_every_module_and_no_other():
    # The first cell of each row of README's module table names a module.
    table = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    named = re.findall(r"^\| `truncmix\.(\w+)`", table, flags=re.M)
    modules = [p.stem for p in MODULES if p.name != "__init__.py"]
    assert sorted(named) == modules


def test_each_test_file_names_a_module_or_a_cross_cutting_check():
    # A module folded into another takes its tests along, so no test file
    # outlives the module it names.
    cross_cutting = {"acceptance", "digests_tool", "one_home", "perfbench_contract", "row_blocks"}
    modules = {p.stem for p in MODULES if p.name != "__init__.py"}
    named = {p.stem.removeprefix("test_") for p in (ROOT / "tests").glob("test_*.py")}
    stale = sorted(named - modules - cross_cutting)
    assert not stale, f"test files naming no module: {stale}"
