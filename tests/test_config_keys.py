"""Every key that cli._CONFIG_KEYS declares is read somewhere in src/gensco.

A key counts as read when it is a PipelineConfig field (cli passes every
field the config sets) or when src/gensco reads it by name from a config
dict: ``cfg["key"]`` or ``cfg.get("key", ...)``.
"""

import ast
from dataclasses import fields
from pathlib import Path

from gensco import cli
from gensco.pipeline import PipelineConfig

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gensco").glob("*.py"))


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
