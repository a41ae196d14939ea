"""Loopback OpenAI-compatible ``/completions`` server answering from the fake LLM.

Run as ``python3 bench/fake_server.py --fixed-ms F --per-token-us P``. It
binds an ephemeral port on 127.0.0.1, prints the port on the first line
of stdout and serves until its stdin closes, so it cannot outlive the
process that started it.

Each POST sleeps ``F`` ms plus ``P`` us per prompt token (summed over a
list ``prompt``) before answering; echo requests (``echo`` with
``max_tokens: 0``) return per-token logprobs and text offsets. ``GET
/stats`` returns, since start, the POST count, the response bytes, and
per POST the handling time and the modeled time, both in ms.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import fake_llm


def choice(prompt: str, index: int, body: dict) -> dict:
    if body.get("echo") and not body.get("max_tokens"):
        tokens, offsets, logprobs = fake_llm.echo(prompt)
        return {
            "index": index,
            "text": prompt,
            "logprobs": {
                "tokens": tokens,
                "token_logprobs": logprobs,
                "text_offset": offsets,
                "top_logprobs": None,
            },
            "finish_reason": "length",
        }
    return {
        "index": index,
        "text": fake_llm.complete(prompt),
        "logprobs": None,
        "finish_reason": "stop",
    }


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.posts = 0
        self.response_bytes = 0
        self.handle_ms: list[float] = []
        self.model_ms: list[float] = []

    def add(self, nbytes: int, handle_ms: float, model_ms: float) -> None:
        with self.lock:
            self.posts += 1
            self.response_bytes += nbytes
            self.handle_ms.append(handle_ms)
            self.model_ms.append(model_ms)

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "posts": self.posts,
                "response_bytes": self.response_bytes,
                "handle_ms": list(self.handle_ms),
                "model_ms": list(self.model_ms),
            }


def make_handler(fixed_s: float, per_token_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this, a keep-alive response waits for the client's
        # delayed ACK, and the benchmark would time the fake, not gensco.
        disable_nagle_algorithm = True

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass

        def _send(self, status: int, payload: dict) -> int:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Bad Request'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            # One write per response, so no segment waits behind another.
            self.wfile.write(head + body)
            return len(body)

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._send(200, stats.snapshot())
            else:
                self._send(400, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            started = time.perf_counter()
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            try:
                body = json.loads(raw)
                prompts = body["prompt"]
                if isinstance(prompts, str):
                    prompts = [prompts]
                choices = [choice(p, i, body) for i, p in enumerate(prompts)]
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, {"error": str(exc)})
                return
            tokens = sum(fake_llm.count_tokens(p) for p in prompts)
            model_s = fixed_s + per_token_s * tokens
            remaining = model_s - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
            nbytes = self._send(
                200,
                {
                    "id": "cmpl-bench",
                    "object": "text_completion",
                    "model": body.get("model", ""),
                    "choices": choices,
                },
            )
            stats.add(nbytes, (time.perf_counter() - started) * 1000.0, model_s * 1000.0)

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixed-ms", type=float, required=True)
    parser.add_argument("--per-token-us", type=float, required=True)
    args = parser.parse_args()
    stats = Stats()
    handler = make_handler(args.fixed_ms / 1e3, args.per_token_us / 1e6, stats)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)

    def watch_stdin() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=watch_stdin, daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
