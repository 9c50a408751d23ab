"""Boundaries between the package's modules."""

import ast
import graphlib
import tomllib
from pathlib import Path

import ccfour

ALLOWED_PRIVATE_IMPORTS = set()
# the packages of the "test" extra, which src/ must not import (each
# distribution there has its import name)
TEST_DEPENDENCIES = set(tomllib.loads(
    (Path(__file__).parents[1] / "pyproject.toml").read_text())
    ["project"]["optional-dependencies"]["test"])
# public functions with no caller in the package
UNCALLED_PUBLIC_FUNCTIONS = set()
# the entry points that set the numpy error state, once each; the kernels
# they call run under it
ERRSTATE_ENTRY_POINTS = [
    ("dziobek", "MassVector.__post_init__"), ("dziobek", "planar_many"),
    ("geometry", "canonicalize_many"), ("geometry", "newtonian_oracle_many"),
    ("geometry", "realize"), ("solver", "seed_vectors"),
    ("solver", "solve_batch")]


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


def package_imports(source: str, modules: set) -> tuple[set, set]:
    """The package modules that a source imports, and those of them that it
    imports inside a function; the package itself counts as "__init__"."""
    def targets(node) -> set:
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import is one from the package
                module = f"ccfour.{module}".rstrip(".")
            # from the package itself, each name may be a module
            dotted = [f"{module}.{alias.name}" if module == "ccfour"
                      else module for alias in node.names]
        else:
            return set()
        found = set()
        for parts in (name.split(".") for name in dotted):
            if parts[0] == "ccfour":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules
                          else "__init__")
        return found

    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    imported = set().union(*map(targets, ast.walk(tree)))
    local = set().union(*(targets(node) for function in functions
                          for node in ast.walk(function)))
    return imported, local


def package_sources() -> dict:
    return {path.stem: path.read_text()
            for path in sorted(Path(ccfour.__file__).parent.glob("*.py"))}


def uncalled_public_functions(sources: dict) -> set:
    """(module, name) of the public module-level functions that the
    package's "__init__" does not export and that no package code names,
    as a name or an attribute, outside the function's own body."""
    defined, named = set(), set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if not own.startswith("_"):
                    defined.add((module, own))
            if module == "__init__" and isinstance(top, ast.ImportFrom):
                named |= {alias.name for alias in top.names}
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    named.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    named.add(node.attr)
    return {(module, name) for module, name in defined if name not in named}


def unused_imports(source: str) -> set:
    """The names that a source's imports bind and that its code never
    names, alone or as the root of an attribute; "import a.b" binds a."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}


def errstate_sites(source: str, module: str) -> list:
    """(module, qualified name of the enclosing function or class) of each
    call of errstate, as np.errstate or a bare name; a decorator counts in
    the function it decorates."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call) and "errstate" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None)):
            found.append((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def imports_of_test_extra(source: str) -> set:
    """The modules of the packages in pyproject.toml's "test" extra that a
    source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found |= {name for name in names
                  if name.split(".")[0] in TEST_DEPENDENCIES}
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


def test_package_import_detection():
    source = ("import numpy as np, ccfour\n"
              "from . import __version__, solver\n"
              "from .geometry import realize\n"
              "import ccfour.jsonio\n"
              "class C:\n"
              "    def f(self):\n"
              "        from .census import census\n"
              "        from ccfour import verifier\n")
    modules = {"census", "geometry", "jsonio", "solver", "verifier"}
    imported, local = package_imports(source, modules)
    assert imported == {"__init__", "census", "geometry", "jsonio", "solver",
                        "verifier"}
    assert local == {"census", "verifier"}


def test_no_module_imports_a_package_module_inside_a_function():
    sources = package_sources()
    local = {module: package_imports(source, set(sources))[1]
             for module, source in sources.items()}
    assert not any(local.values()), local


def test_module_import_graph_has_no_cycle():
    sources = package_sources()
    graph = {module: package_imports(source, set(sources))[0] - {module}
             for module, source in sources.items()}
    # raises CycleError, naming the cycle, if there is one
    graphlib.TopologicalSorter(graph).prepare()


def test_uncalled_public_function_detection():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def exported():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def _private():\n    pass\n"
              "def called():\n    pass\n"
              "def by_attribute():\n    pass\n"),
        "b": ("from .a import called, recursive\n"
              "from . import a\n"
              "def f():\n    return called(), a.by_attribute\n"),
    }
    assert uncalled_public_functions(sources) == {("a", "recursive"),
                                                  ("b", "f")}


def test_every_public_function_has_a_caller_in_the_package():
    """A public function that only the tests reach is a second code path
    beside the one the package runs."""
    found = uncalled_public_functions(package_sources())
    assert found == UNCALLED_PUBLIC_FUNCTIONS, found


def test_unused_import_detection():
    source = ("from __future__ import annotations\n"
              "import numpy as np, os.path\n"
              "from .dziobek import PAIRS, cayley as cay, psi\n"
              "def f(x: PAIRS):\n    import math\n"
              "    return np.pi, os.sep, cay\n")
    assert unused_imports(source) == {"psi", "math"}


def test_no_module_imports_a_name_it_does_not_use():
    """Only the package's "__init__" imports names to export them."""
    found = {module: unused_imports(source)
             for module, source in package_sources().items()
             if module != "__init__"}
    assert not any(found.values()), found


def test_test_dependency_import_detection():
    source = ("import numpy as np, scipy.linalg as sl\n"
              "from .solver import scipy_like\n"
              "import pytest\n"
              "from sympy import Matrix\n"
              "import hypothesis.strategies as st\n"
              "def f():\n    from scipy.optimize import brentq\n"
              "    import scipy\n")
    assert imports_of_test_extra(source) == {
        "scipy.linalg", "scipy.optimize", "scipy", "pytest", "sympy",
        "hypothesis.strategies"}


def test_no_module_imports_a_test_dependency():
    """numpy is the only runtime dependency; the test extra's packages
    (the proofs' sympy among them) serve the tests alone."""
    found = {path.name: imports_of_test_extra(path.read_text())
             for path in sorted(Path(ccfour.__file__).parent.rglob("*.py"))}
    assert not any(found.values()), found


def test_errstate_site_detection():
    source = ("import numpy as np\n"
              "from numpy import errstate\n"
              "with np.errstate(all='ignore'):\n    pass\n"
              "class C:\n"
              "    def f(self):\n"
              "        with np.errstate(over='ignore'), errstate():\n"
              "            return np.seterr()\n"
              "@np.errstate(all='ignore')\n"
              "def g():\n"
              "    def h():\n        return errstate(all='ignore')\n")
    assert sorted(errstate_sites(source, "m")) == [
        ("m", ""), ("m", "C.f"), ("m", "C.f"), ("m", "g"), ("m", "g.h")]


def test_only_the_entry_points_set_the_error_state():
    """np.errstate costs about a microsecond to enter and leave, and changes
    only whether numpy reports a floating-point error, so it is set once
    per entry point and not again in the kernels under it."""
    found = [site for module, source in package_sources().items()
             for site in errstate_sites(source, module)]
    assert sorted(found) == sorted(ERRSTATE_ENTRY_POINTS), found
