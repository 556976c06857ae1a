"""Source hygiene: imports live at module level, no module of the package
imports a name it never uses or a private name of another module, only
`localalg.py` imports sympy, no module reads the environment, only
`cli.py` names the rings of computation, and the README shows every
subcommand."""

import argparse
import ast
import os
import pathlib
import subprocess
import sys

from germforge import cli
from test_readme import readme_commands

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


def private_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d %s" % (path.name, node.lineno, alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("germforge"))
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    found = [u for p in modules for u in private_imports(p)]
    assert found == []


def test_every_subcommand_has_a_readme_example():
    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    shown = {argv[0] for argv in readme_commands()}
    assert sorted(set(subparsers.choices) - shown) == []


def imported_modules(node):
    """The absolute modules an import statement names; none for a relative
    one."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] if node.level == 0 else []


def is_sympy_import(node):
    return any(n.split(".")[0] == "sympy" for n in imported_modules(node))


def sympy_importers():
    return sorted({path.name for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and is_sympy_import(node)})


def nested_imports(path):
    """Imports below module level, which the unused-import check does not
    see; `localalg.py` imports sympy lazily and is allowed to."""
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and node not in tree.body
            and not (path.name == "localalg.py" and is_sympy_import(node))]


def test_imports_live_at_module_level():
    found = [u for p in sorted(PACKAGE.glob("*.py")) for u in nested_imports(p)]
    assert found == []


def test_only_localalg_imports_sympy():
    assert sympy_importers() == ["localalg.py"]


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path):
    """Uses of os.environ or os.getenv, as attributes or imported names:
    every option of the package is a parameter or a command-line flag."""
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_READERS)
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in ENVIRONMENT_READERS for a in node.names))]


def test_no_module_reads_the_environment():
    found = [u for p in sorted(PACKAGE.glob("*.py"))
             for u in environment_reads(p)]
    assert found == []


RINGS = {"smooth", "formal", "fractional", "polynomial"}


def ring_names(path):
    """String constants that name a ring of computation."""
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d %s" % (path.name, node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in RINGS]


def test_rings_are_named_only_by_the_cli():
    # the library finds the truncation degree; which rings it permits is
    # said once, by the command line
    found = [u for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py"
             for u in ring_names(p)]
    assert found == []


GERM_ALGEBRA_RUN = """
import contextlib, io, sys
from germforge import cli
jobs = [
    ["colon-ideal", "x*lambda", "--by", "x", "--vars", "x,lambda"],
    ["standard-basis", "x^2 - lambda^3", "x*lambda", "--vars", "x,lambda"],
    ["normalform", "sin(lambda) - x^3", "--vars", "x,lambda"],
    ["unfolding", "x^3 - x*lambda", "--vars", "x,lambda"],
    # the body's state degree is the determinacy degree 3, so no transition
    # set (and no elimination) is needed
    ["verify", "--persistent", "x^3 - sin(lambda)", "--vars", "x,lambda"],
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
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] False"
