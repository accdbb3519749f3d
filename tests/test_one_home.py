"""Each name has one home.

The package's modules import a truncmix name only to use it, never to pass
it on, each public name is defined in one module, and the package root
binds no public name but ``__version__``, so every name is imported from
the submodule that defines it.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "truncmix"
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
