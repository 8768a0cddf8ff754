"""The package's public surface and the import boundary between its layers."""

import ast
from pathlib import Path

import blgauss

PACKAGE = Path(blgauss.__file__).resolve().parent


def _imports_solver(path: Path) -> bool:
    """Whether a source file imports gaussian_solver or anything from it, in
    any spelling: from .gaussian_solver, from . import gaussian_solver,
    import blgauss.gaussian_solver."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        if "gaussian_solver" in parts:
            return True
    return False


def test_only_structure_and_cli_import_the_solver():
    """The verification layers (gaussian_verify, quadform, functional_verify,
    stochastic, report) re-check the solver, so none of them imports it;
    structure splits a datum by solving its parts, the CLI runs the solver,
    and __init__ exports it."""
    importers = {path.stem for path in PACKAGE.glob("*.py") if _imports_solver(path)}
    assert importers == {"__init__", "cli", "structure"}


def test_all_is_sorted_and_is_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert blgauss.__all__ == sorted(set(blgauss.__all__))
    assert set(blgauss.__all__) == set(imported) and len(imported) == len(set(imported))
    assert len(blgauss.__all__) <= 62
