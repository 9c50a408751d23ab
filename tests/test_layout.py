"""Boundaries between the package's modules."""

import ast
from pathlib import Path

import ccfour

# census() runs the batched Newton core on its whole seed lattice itself,
# and the benchmark times that call as the census's Newton stage
ALLOWED_PRIVATE_IMPORTS = {("census", "_newton_batch")}


def private_imports(source: str, module: str) -> set:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "ccfour":
            found |= {(module, alias.name) for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.startswith("__")}
    return found


def scipy_imports(source: str) -> set:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found |= {name for name in names if name.split(".")[0] == "scipy"}
    return found


def test_private_import_detection():
    source = ("from .solver import SolveOptions, _newton_batch\n"
              "from . import __version__\n"
              "def f():\n    from ccfour.geometry import _atan2\n")
    assert private_imports(source, "m") == {("m", "_newton_batch"),
                                            ("m", "_atan2")}


def test_no_module_imports_private_names_of_another():
    found = set()
    for path in sorted(Path(ccfour.__file__).parent.glob("*.py")):
        found |= private_imports(path.read_text(), path.stem)
    assert found <= ALLOWED_PRIVATE_IMPORTS, found - ALLOWED_PRIVATE_IMPORTS


def test_scipy_import_detection():
    source = ("import numpy as np, scipy.linalg as sl\n"
              "from .solver import scipy_like\n"
              "def f():\n    from scipy.optimize import brentq\n"
              "    import scipy\n")
    assert scipy_imports(source) == {"scipy.linalg", "scipy.optimize",
                                     "scipy"}


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency."""
    found = {path.name: scipy_imports(path.read_text())
             for path in sorted(Path(ccfour.__file__).parent.rglob("*.py"))}
    assert not any(found.values()), found
