"""Source layout rules that keep the module graph acyclic and explicit."""

import ast
from pathlib import Path

import ratpark

PACKAGE = Path(ratpark.__file__).parent


def _imports_inside_functions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    sites.append(f"{path.name}:{node.lineno} in {fn.name}")
    return sites


def test_no_imports_inside_functions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    sites = [site for path in modules for site in _imports_inside_functions(path)]
    assert sites == []
