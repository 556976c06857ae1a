"""Source hygiene: no module of the package imports a name it never uses,
and only `localalg.py` imports sympy."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "germforge"


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [u for p in modules for u in unused_imports(p)]
    assert found == []


def sympy_importers():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "sympy" for n in names):
                found.append(path.name)
    return sorted(set(found))


def test_only_localalg_imports_sympy():
    assert sympy_importers() == ["localalg.py"]


GERM_ALGEBRA_RUN = """
import contextlib, io, sys
from germforge import cli
jobs = [
    ["colon-ideal", "x*lambda", "--by", "x", "--vars", "x,lambda"],
    ["standard-basis", "x^2 - lambda^3", "x*lambda", "--vars", "x,lambda"],
    ["normalform", "sin(lambda) - x^3", "--vars", "x,lambda"],
    ["unfolding", "x^3 - x*lambda", "--vars", "x,lambda"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in jobs]
print(codes, "sympy" in sys.modules)
"""


def test_germ_algebra_never_loads_sympy():
    # sympy roughly doubles the resident memory of a process that only
    # does local-ring and singularity work
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", GERM_ALGEBRA_RUN], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0] False"
