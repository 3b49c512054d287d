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
