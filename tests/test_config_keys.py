"""Every key that cli._CONFIG_KEYS declares is read somewhere in src/gensco
and documented once in README's table of which keys each variant and
backend read.

A key counts as read when it is a PipelineConfig field (cli passes every
field the config sets) or when src/gensco reads it by name from a config
dict: ``cfg["key"]`` or ``cfg.get("key", ...)``.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

from gensco import cli
from gensco.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gensco").glob("*.py"))


def keys_read_by_name(tree):
    """The constant keys that ``tree`` reads as ``cfg[key]`` or ``cfg.get(key, ...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            owner, key = node.value, node.slice
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            owner, key = node.func.value, node.args[0]
        else:
            continue
        if isinstance(owner, ast.Name) and owner.id == "cfg" and isinstance(key, ast.Constant):
            yield key.value


def test_every_declared_config_key_is_read():
    read = {f.name for f in fields(PipelineConfig)}
    for path in SOURCES:
        read.update(keys_read_by_name(ast.parse(path.read_text(encoding="utf-8"))))
    assert sorted(set(cli._CONFIG_KEYS) - read) == []


def readme_key_rows():
    """The backticked names in the key column of each row of README's table
    of which keys each variant and backend read."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("Which keys each variant and backend read:", 1)[1].split("\n\n")[1]
    rows = table.splitlines()[2:]  # below the header and its rule
    return [re.findall(r"`([^`]+)`", row.split("|")[1]) for row in rows]


def test_readme_key_table_names_every_config_key_once():
    named = [key for row in readme_key_rows() for key in row]
    assert sorted(named) == sorted(cli._CONFIG_KEYS)
