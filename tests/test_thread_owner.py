"""The run owns every thread: only cli.py in src/gensco imports
concurrent.futures or names a ThreadPoolExecutor or threading.Thread.

``cli.run_batch`` builds the run's one pool, and every other module is
called on the threads it gives them. Only llm.py imports threading, for
the locks on its counters and idle connections: the run orders its
instances with ``Executor.map``, not with locks of its own. The scan is
by AST, so a comment or a docstring that names these does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gensco").glob("*.py"))
THREAD_MAKERS = {"ThreadPoolExecutor", "Thread"}


def thread_uses(tree):
    """Where a module imports concurrent.futures or names a thread maker."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            modules += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = []
        if any(m == "concurrent" or m.startswith("concurrent.") for m in modules):
            yield node.lineno, "imports concurrent.futures"
        if any(m.rsplit(".", 1)[-1] in THREAD_MAKERS for m in modules):
            yield node.lineno, "imports a thread maker"
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in THREAD_MAKERS:
            yield node.lineno, f"names {name}"


def test_only_cli_starts_threads():
    found = {
        path.name: list(thread_uses(ast.parse(path.read_text(encoding="utf-8"))))
        for path in SOURCES
    }
    assert found.pop("cli.py")  # the scan sees the run's own pool
    assert {name: uses for name, uses in found.items() if uses} == {}


def imports_threading(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "threading" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            return True
    return False


def test_only_llm_imports_threading():
    importers = [
        path.name for path in SOURCES
        if imports_threading(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == ["llm.py"]
