"""Every public top-level name in src/gensco has a caller outside the tests,
every name a module imports is used, and every exception class is raised
or caught and is one of a listed set, each listed with the reason it is a
class of its own.

A name counts as used when a top-level statement other than its own
definition, in src/gensco or bench/, mentions it (as a name, an
attribute or an import). Click commands are called by click. An
imported name counts as used when a top-level statement of its module
other than an import mentions it; listing it in ``__all__`` is no use.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gensco").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def mentioned(statement):
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def is_click_command(node):
    return any(
        ast.unparse(d).split("(", 1)[0].endswith((".command", ".group"))
        for d in getattr(node, "decorator_list", ())
    )


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_") and not is_click_command(node):
                yield name, node


def test_every_public_name_has_a_non_test_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    statements = [
        (statement, mentioned(statement)) for tree in trees.values() for statement in tree.body
    ]
    unused = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name, node in public_definitions(trees[path])
        if not any(name in names for statement, names in statements if statement is not node)
    ]
    assert unused == []


def imported_names(tree):
    """The names the top-level imports of a module bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".", 1)[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set().union(*(
            mentioned(statement)
            for statement in tree.body
            if not isinstance(statement, (ast.Import, ast.ImportFrom))
        ))
        unused += [f"{path.stem}.{name}" for name in imported_names(tree) if name not in used]
    assert unused == []


def exception_classes(trees):
    """The names of the classes defined in ``trees`` that derive from a
    builtin exception, directly or through one another."""
    bases = {
        node.name: [mentioned(base) for base in node.bases]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_builtin_exception(name):
        value = getattr(builtins, name, None)
        return isinstance(value, type) and issubclass(value, BaseException)

    found = set()
    while True:
        more = {
            name
            for name, names in bases.items()
            if any(is_builtin_exception(n) or n in found for ns in names for n in ns)
        }
        if more == found:
            return found
        found = more


def handled(tree):
    """The names mentioned by a ``raise``, an ``except`` clause or a
    ``suppress(...)`` call in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names |= mentioned(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names |= mentioned(node.type)
        elif isinstance(node, ast.Call) and "suppress" in mentioned(node.func):
            names |= set().union(*map(mentioned, node.args))
    return names


def test_every_exception_class_is_raised_or_caught():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    used = set().union(*map(handled, trees))
    assert sorted(exception_classes(trees) - used) == []


# Every exception class in src/gensco, and why a caller needs it as a class
# of its own. A new class needs a reason here; an error that is reported
# only by its message is one of these.
EXCEPTION_CLASSES = {
    "InputError": "cli._or_exit_2 catches it: a fatal: line and exit 2",
    "BackendBusy": "caught through llm._TRANSIENT: the gateway retries it",
    "BackendUnavailable": "failures.jsonl records it by name",
    "ContextOverflow": "failures.jsonl records it by name",
    "HttpStatusError": "failures.jsonl records it by name",
    "MalformedResponse": "failures.jsonl records it by name",
    "LogprobsUnsupported": "failures.jsonl records it by name",
    "ScriptMiss": "failures.jsonl records it by name",
}


def test_exception_classes_are_the_listed_ones():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    assert sorted(exception_classes(trees)) == sorted(EXCEPTION_CLASSES)
