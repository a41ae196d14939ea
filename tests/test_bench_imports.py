"""What the benchmark in bench/ imports from gensco still exists in src/gensco.

A change that deletes or renames a module or name the benchmark uses then
fails here, offline, and not only when the benchmark is next run. Names
are resolved by parsing src/gensco, so the check does not depend on which
gensco is installed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gensco"
BENCH = sorted((ROOT / "bench").glob("*.py"))


def module_file(module):
    """The file under src/gensco that defines ``module``, or None."""
    base = SRC.joinpath(*module.split(".")[1:])
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def bound_names(path):
    """The names a module binds at its top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def resolves(module, name=None):
    path = module_file(module)
    if path is None:
        return False
    return name is None or name in bound_names(path) or module_file(f"{module}.{name}") is not None


def gensco_imports():
    """(where, module, name) for every gensco import in bench/*.py; name is
    None for ``import gensco.x``."""
    found = []
    for path in BENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"bench/{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "gensco":
                    found += [(where, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (where, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "gensco"
                ]
    return found


def test_every_gensco_import_of_the_benchmark_resolves():
    imports = gensco_imports()
    assert len({module for _, module, _ in imports}) >= 4  # the scan sees them
    unresolved = [
        f"{where}: {module}{'' if name is None else ' ' + name}"
        for where, module, name in imports
        if not resolves(module, name)
    ]
    assert unresolved == []


def test_cli_run_instance_exists():
    # bench/workload.py replaces gensco.cli.run_instance to time each instance.
    assert resolves("gensco.cli", "run_instance")
