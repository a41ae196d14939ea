"""Each command meets the filesystem's refusals at one boundary: only the
functions in ALLOWED in src/gensco handle OSError or a builtin subclass.

A reader lets the OSError that names its path propagate, and
``cli._or_exit_2`` turns it into a fatal line and exit code 2; a wrapper
per reader covers the paths someone thought of and no others.
``cli._load_file`` adds the config key that named the file,
``llm.HttpBackend._post`` turns a socket's failure into a ConnectionError,
and ``llm.LlmGateway._cached`` retries that. The scan is by AST, so a
comment or a docstring that names these does not count.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gensco").glob("*.py"))
OS_ERRORS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, OSError)
}
ALLOWED = {
    "cli._or_exit_2",
    "cli._load_file",
    "llm.HttpBackend._post",
    "llm.LlmGateway._cached",
}


def names(node):
    """The names an except clause's type, or a call's arguments, spell."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def os_error_handlers(tree, module):
    """(qualified name of the enclosing function, line) of each except
    clause or contextlib.suppress call that names an OSError class."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            handled = None
            if isinstance(child, ast.ExceptHandler):
                handled = child.type  # None for a bare except
            elif isinstance(child, ast.Call) and "suppress" in names(child.func):
                handled = child
            if handled is not None and OS_ERRORS.intersection(names(handled)):
                yield inner, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, module)


def test_os_errors_are_handled_only_at_the_boundary():
    found = [
        (scope, line)
        for path in SOURCES
        for scope, line in os_error_handlers(
            ast.parse(path.read_text(encoding="utf-8")), path.stem
        )
    ]
    assert {scope for scope, _ in found} <= ALLOWED, found
    assert "cli._or_exit_2" in {scope for scope, _ in found}  # the scan sees the boundary


def test_scan_sees_a_handler_in_a_reader():
    tree = ast.parse(
        "def read(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except (ValueError, IsADirectoryError):\n"
        "        return ''\n"
        "def quiet(path):\n"
        "    with contextlib.suppress(FileNotFoundError):\n"
        "        os.unlink(path)\n"
    )
    assert list(os_error_handlers(tree, "m")) == [("m.read", 4), ("m.quiet", 7)]
