"""Every JSON document gensco reads is decoded in one place:
``models.load_json``, which bounds a document's depth before orjson reads
it. orjson 3.8.3 kills the process with SIGSEGV on nesting past its native
stack, so a bare ``orjson.loads`` on a backend reply or a cache entry would
let one reply of a few hundred KB end a run. The scan is by AST, so a
comment or a docstring that names these does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gensco").glob("*.py"))
DECODERS = {"json", "orjson"}
ALLOWED = {"models.load_json"}


def decoder_uses(tree, module):
    """(qualified name of the enclosing function, line) of each use of
    ``json.loads`` or ``orjson.loads``, called or not, and of each import of
    ``loads`` from either module."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "loads"
                and isinstance(child.value, ast.Name)
                and child.value.id in DECODERS
            ) or (
                isinstance(child, ast.ImportFrom)
                and child.module in DECODERS
                and "loads" in {alias.name for alias in child.names}
            ):
                yield inner, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, module)


def test_json_is_decoded_only_in_load_json():
    found = [
        (scope, line)
        for path in SOURCES
        for scope, line in decoder_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert {scope for scope, _ in found} <= ALLOWED, found
    assert {scope for scope, _ in found} == ALLOWED  # the scan sees the one decoder


def test_scan_sees_a_decoder_outside_load_json():
    tree = ast.parse(
        "import json, orjson\n"
        "from orjson import loads\n"
        "class Backend:\n"
        "    def _post(self, raw):\n"
        "        return orjson.loads(raw)\n"
        "def read(lines):\n"
        "    return list(map(json.loads, lines))\n"
    )
    assert list(decoder_uses(tree, "m")) == [("m", 2), ("m.Backend._post", 5), ("m.read", 7)]
