import ast
import re
import sys
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def third_party_imports(package: Path) -> set[str]:
    """Top-level modules, outside the standard library and the package,
    that any module of ``package`` imports, at any depth of its code."""
    modules = set()
    for source in package.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules - set(sys.stdlib_module_names) - {"__future__", package.name}


def test_every_imported_package_is_a_declared_dependency():
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    # orjson is imported inside a function only; the walk must see it
    assert third_party_imports(REPO / "src" / "spinopt") == declared


def unreferenced_public_names(package: Path) -> list[str]:
    """The public module-level functions and classes of ``package``, as
    ``module.name``, that no code of it references: by a name it loads, an
    attribute it reads or a name it imports. Docstrings are not code."""
    defined, referenced = [], set()
    for source in sorted(package.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined.append((source.stem, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in referenced]


def test_every_public_function_and_class_is_used_by_the_package():
    # a name only tests call belongs in tests/helpers.py
    assert unreferenced_public_names(REPO / "src" / "spinopt") == []
