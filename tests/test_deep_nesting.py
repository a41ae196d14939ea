"""JSON from outside the program that nests past the stdlib decoder's depth
gets each reader's named error, as any other unreadable input does, not a
bare RecursionError."""

import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from gensco import cli, datasets, llm
from gensco.datasets import DatasetConfig, ParseError
from gensco.llm import GeneratorRequest, HttpBackend, LlmGateway, MalformedResponse
from gensco.models import CorruptTrace, Dataset

from test_cli import make_run_config

# An unclosed array 100,000 levels deep, far past the stdlib decoder's limit.
DEEP = "[" * 100_000


class OneReply(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.server.body)))
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, format, *args):  # noqa: A002
        pass


def reply(tmp_path):
    server = HTTPServer(("127.0.0.1", 0), OneReply)
    server.body = b'{"choices": [' + DEEP.encode()
    thread = threading.Thread(target=server.handle_request)
    thread.start()
    backend = HttpBackend(f"http://127.0.0.1:{server.server_address[1]}/v1", "m")
    try:
        backend.complete(GeneratorRequest("p"))
    finally:
        backend.close()
        thread.join(timeout=5)
        server.server_close()
        assert not thread.is_alive()


def cache_entry(tmp_path):
    req = GeneratorRequest("p")
    llm.ResponseCache(tmp_path).put(f"scripted\0{req.fingerprint}", {"text": "x"})
    (path,) = tmp_path.rglob("*.json")
    path.write_text(DEEP)
    backend = llm.ScriptedBackend()  # any call would be a ScriptMiss
    LlmGateway(backend, backend, cache_dir=tmp_path).generate(req)


def named_file(key, line_end="", **extra):
    def run(tmp_path):
        cfg = {**make_run_config(tmp_path, 2), **extra}
        path = tmp_path / "named"
        path.write_text(DEEP + line_end)
        cfg[key] = str(path)
        cli.run_batch(cfg, tmp_path / "r")

    return run


def config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(DEEP)
    cli.load_config(path)


def manifest(tmp_path):
    cfg = make_run_config(tmp_path, 2)
    (tmp_path / "r").mkdir()
    (tmp_path / "r" / "manifest.json").write_text(DEEP)
    cli.run_batch(cfg, tmp_path / "r")


def trace_line(tmp_path):
    cfg = make_run_config(tmp_path, 2)
    assert cli.run_batch(cfg, tmp_path / "r") == 0
    traces = tmp_path / "r" / "traces.jsonl"
    first = traces.read_text().splitlines()[0]
    traces.write_text(f"{first}\n{DEEP}\n")
    cli.run_batch(cfg, tmp_path / "r")


def musique_line(tmp_path):
    path = tmp_path / "musique.jsonl"
    path.write_text(DEEP + "\n")
    datasets.load(DatasetConfig(Dataset.MUSIQUE, str(path)))


# Each reader of JSON from outside, and the error it must end in.
READERS = {
    "reply": (reply, MalformedResponse),
    "cache-entry": (cache_entry, MalformedResponse),
    "script": (named_file("script_file"), cli.ConfigError),
    "shot-bank": (named_file("shot_bank"), cli.ConfigError),
    "rankings": (named_file("rankings_file", "\n", variant="precomputed"), cli.ConfigError),
    "config": (config, cli.ConfigError),
    "manifest": (manifest, CorruptTrace),
    "trace-line": (trace_line, CorruptTrace),
    "wiki-dataset": (named_file("dataset_path"), ParseError),
    "musique-line": (musique_line, ParseError),
}


@pytest.mark.parametrize("read, error", READERS.values(), ids=list(READERS))
def test_nesting_past_the_decoder_depth_is_the_readers_named_error(tmp_path, read, error):
    with pytest.raises(error, match="maximum recursion depth exceeded"):
        read(tmp_path)


# Run in a child process: orjson 3.8.3 overflows its native stack on such
# a document, which kills the process with SIGSEGV rather than failing a test.
PAST_ORJSONS_STACK = """
import tempfile
from pathlib import Path

import pytest

import test_deep_nesting
from gensco.models import load_json

depth = 200_000
for raw in (b"[" * depth + b"]" * depth, b'{"":' * depth + b"0" + b"}" * depth):
    with pytest.raises(RecursionError):
        load_json(raw)
test_deep_nesting.DEEP = "[" * depth + "]" * depth
for read, error in test_deep_nesting.READERS.values():
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(error, match="maximum recursion depth exceeded"):
            read(Path(tmp))
"""


def test_nesting_past_orjsons_stack_is_the_readers_named_error():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", PAST_ORJSONS_STACK],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
