"""Each command meets the refusals of the filesystem and of the network at
a few boundaries: exactly the functions in ALLOWED in src/gensco handle
OSError or a builtin subclass.

A reader lets the OSError that names its path propagate, and
``cli._or_exit_2`` turns it into a fatal line and exit code 2; a wrapper
per reader covers the paths someone thought of and no others.
``cli._load_file`` adds the config key that named the file, and
``llm.ResponseCache.get`` reads an entry that is not there as a miss.
``llm.HttpBackend._failed`` turns a socket's failure into a
ConnectionError. The transient failures (``llm._TRANSIENT``, with
ConnectionError and TimeoutError) are caught where a call is tried again:
``llm.HttpBackend.token_logprobs_many`` yields them, and
``llm.LlmGateway.generate`` and ``llm._retried`` retry them.

The scan is by AST, so a comment or a docstring that names these does not
count. It finds each except clause, ``contextlib.suppress`` call and
``isinstance`` call that names such a class, itself or through a
module-level name bound to it.
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
    "llm.HttpBackend._failed",
    "llm.HttpBackend.token_logprobs_many",
    "llm.ResponseCache.get",
    "llm._retried",
    "llm.LlmGateway.generate",
}


def names(node):
    """The names an except clause's type, or a call, spell."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def os_error_handlers(tree, module):
    """(qualified name of the enclosing function, line) of each except
    clause, contextlib.suppress call or isinstance call that names an
    OSError class, itself or through module-level names bound to one."""
    bound = {
        node.targets[0].id: set(names(node.value))
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }

    def resolved(node):
        found, todo = set(), list(names(node))
        while todo:
            name = todo.pop()
            if name not in found:
                found.add(name)
                todo.extend(bound.get(name, ()))
        return found

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            handled = None
            if isinstance(child, ast.ExceptHandler):
                handled = child.type  # None for a bare except
            elif isinstance(child, ast.Call) and {"suppress", "isinstance"}.intersection(
                names(child.func)
            ):
                handled = child
            if handled is not None and OS_ERRORS.intersection(resolved(handled)):
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
    assert {scope for scope, _ in found} == ALLOWED, found


def test_scan_sees_a_handler_in_a_reader():
    tree = ast.parse(
        "_RETRIED = (ValueError, _TRANSPORT)\n"
        "_TRANSPORT = (TimeoutError,)\n"
        "def read(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except (ValueError, IsADirectoryError):\n"
        "        return ''\n"
        "def quiet(path):\n"
        "    with contextlib.suppress(FileNotFoundError):\n"
        "        os.unlink(path)\n"
        "def retried(call):\n"
        "    try:\n"
        "        return call()\n"
        "    except _RETRIED:\n"
        "        return call()\n"
        "def wrapped(exc):\n"
        "    return isinstance(exc, OSError)\n"
        "def other(call):\n"
        "    try:\n"
        "        return call()\n"
        "    except (ValueError, _UNBOUND):\n"
        "        return isinstance(call, Exception)\n"
    )
    assert list(os_error_handlers(tree, "m")) == [
        ("m.read", 6), ("m.quiet", 9), ("m.retried", 14), ("m.wrapped", 17)
    ]
