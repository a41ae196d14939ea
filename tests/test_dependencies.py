"""Every package the code under src/gensco imports is one pyproject.toml
declares, so an install from it can run the program, and every JSON
document it reads is decoded by one function."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
# Import names whose distribution goes by another name.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def imported_packages() -> set[str]:
    """The top-level names of the absolute imports under src/gensco."""
    names = set()
    for path in (ROOT / "src" / "gensco").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def declared_distributions() -> set[str]:
    """The distribution names in [project] dependencies, normalized."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {
        re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9._-]+", spec)[0]).lower()
        for spec in project["dependencies"]
    }


def test_every_third_party_import_is_a_declared_dependency():
    third_party = imported_packages() - set(sys.stdlib_module_names)
    needed = {DISTRIBUTIONS.get(name, name) for name in third_party}
    assert "orjson" in needed  # the scan sees the imports
    assert needed - declared_distributions() == set()


# The decoders that read a JSON document into a value.
JSON_READS = {("json", "load"), ("json", "loads"), ("orjson", "loads")}


def json_reads() -> set[tuple[str, str]]:
    """(file, top-level definition) of each use of a JSON_READS decoder
    under src/gensco, as an attribute or an import."""
    found = set()
    for path in (ROOT / "src" / "gensco").rglob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    uses = {(node.value.id, node.attr)}
                elif isinstance(node, ast.ImportFrom):
                    uses = {(node.module, alias.name) for alias in node.names}
                else:
                    continue
                if uses & JSON_READS:
                    found.add((path.name, getattr(top, "name", "<module>")))
    return found


def test_every_json_document_is_read_by_load_json():
    assert json_reads() == {("models.py", "load_json")}
