"""Generator/Scorer gateway: backends, disk cache, call accounting.

The Generator produces text completions; the Scorer returns per-token
log-probabilities of a supplied continuation. Backends are pluggable:
an HTTP client for OpenAI-compatible completion endpoints and a fully
scripted backend for deterministic tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import select
import socket
import ssl
import tempfile
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, Executor, wait
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Optional, Protocol, Sequence
from urllib.parse import urlsplit


class GatewayError(Exception):
    pass


class BackendUnavailable(GatewayError):
    """Transport failure that persisted through the bounded retries."""


class ContextOverflow(GatewayError):
    """Prompt exceeds the backend's context limit; never silently truncated."""


class HttpStatusError(GatewayError):
    """Backend answered with a non-2xx status; never retried."""

    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"HTTP {status}: {body}")
        self.status = status


class LogprobsUnsupported(GatewayError):
    """Endpoint cannot echo per-token log-probabilities."""


class ScriptMiss(GatewayError):
    """A scripted backend saw a request it has no canned response for."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(role: str, payload: dict[str, Any]) -> str:
    """A request's one identity: the scripted backend's lookup key, and the
    source of its cache key. Each request computes it once and keeps it."""
    return _sha256(json.dumps({"role": role, **payload}, ensure_ascii=False, sort_keys=True))


@dataclass(frozen=True)
class GeneratorRequest:
    prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 64
    stop_sequences: tuple[str, ...] = ()

    def payload(self) -> dict[str, Any]:
        return {
            "prompt": self.prompt,
            "temperature": self.temperature,
            "max_output_tokens": self.max_output_tokens,
            "stop_sequences": list(self.stop_sequences),
        }

    @cached_property
    def fingerprint(self) -> str:
        return _fingerprint("generator", self.payload())


@dataclass(frozen=True)
class ScorerRequest:
    prompt: str
    continuation: str

    def payload(self) -> dict[str, Any]:
        return {"prompt": self.prompt, "continuation": self.continuation}

    @cached_property
    def fingerprint(self) -> str:
        return _fingerprint("scorer", self.payload())


@dataclass(frozen=True)
class ScorerResponse:
    token_logprobs: tuple[float, ...]
    mean_nll: float

    @classmethod
    def from_logprobs(cls, logprobs: Sequence[float]) -> "ScorerResponse":
        if not logprobs:
            raise ValueError("scorer response must cover at least one token")
        mean_nll = -sum(logprobs) / len(logprobs)
        return cls(token_logprobs=tuple(logprobs), mean_nll=mean_nll)

    def to_dict(self) -> dict[str, Any]:
        return {"token_logprobs": list(self.token_logprobs), "mean_nll": self.mean_nll}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScorerResponse":
        return cls(token_logprobs=tuple(d["token_logprobs"]), mean_nll=d["mean_nll"])


class Backend(Protocol):
    backend_id: str

    def complete(self, req: GeneratorRequest) -> str: ...

    def token_logprobs(self, req: ScorerRequest) -> list[float]: ...

    def close(self) -> None: ...


class ScriptedBackend:
    """Deterministic backend driven entirely by pre-registered responses.

    Unknown requests raise ScriptMiss: a miss signals a test gap, never a
    fallback to some default behaviour.
    """

    def __init__(self, backend_id: str = "scripted") -> None:
        self.backend_id = backend_id
        self._completions: dict[str, str] = {}
        self._logprobs: dict[str, list[float]] = {}

    def add_completion(self, req: GeneratorRequest, completion: str) -> None:
        self._completions[req.fingerprint] = completion

    def add_logprobs(self, req: ScorerRequest, logprobs: Sequence[float]) -> None:
        self._logprobs[req.fingerprint] = list(logprobs)

    def complete(self, req: GeneratorRequest) -> str:
        key = req.fingerprint
        if key not in self._completions:
            raise ScriptMiss(
                f"no scripted completion for prompt starting "
                f"{req.prompt[:120]!r} (fingerprint {key[:12]})"
            )
        return self._completions[key]

    def token_logprobs(self, req: ScorerRequest) -> list[float]:
        key = req.fingerprint
        if key not in self._logprobs:
            raise ScriptMiss(
                f"no scripted logprobs for continuation {req.continuation!r} "
                f"on prompt starting {req.prompt[:120]!r} (fingerprint {key[:12]})"
            )
        return list(self._logprobs[key])

    def close(self) -> None:
        pass

    def to_file(self, path) -> None:
        payload = {
            "backend_id": self.backend_id,
            "completions": self._completions,
            "logprobs": self._logprobs,
        }
        Path(path).write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        """A backend written by ``to_file``; ValueError for another file."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        try:
            backend = cls(backend_id=payload.get("backend_id", "scripted"))
            backend._completions = dict(payload["completions"])
            backend._logprobs = {k: list(v) for k, v in payload["logprobs"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: not a script file ({exc!r})") from exc
        return backend


def _readable(sock) -> bool:
    """True when an idle socket has something to read: for a keep-alive
    connection between requests, that is the server's close."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


# Limits on what a response may send before its body, as in http.client.
_MAX_LINE = 65536
_MAX_HEADERS = 100


def _read_line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ConnectionError("response line longer than 65536 bytes")
    return line


def _read_exactly(rfile, n: int) -> bytes:
    data = rfile.read(n)
    if len(data) != n:
        raise ConnectionError(f"response body ended after {len(data)} of {n} bytes")
    return data


def _read_head(rfile) -> tuple[bytes, int, dict[bytes, bytes]]:
    """HTTP version, status and lower-cased headers of the next final
    (non-1xx) response."""
    while True:
        line = _read_line(rfile)
        if not line:
            raise ConnectionError("connection closed before a response")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not version.startswith(b"HTTP/") or not code.isdigit() or rest[3:4].strip():
            raise ConnectionError(f"malformed status line {line[:100]!r}")
        headers: dict[bytes, bytes] = {}
        while True:
            line = _read_line(rfile)
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.partition(b":")
            if not colon or not name.strip():
                raise ConnectionError(f"malformed header line {line[:100]!r}")
            if len(headers) == _MAX_HEADERS:
                raise ConnectionError(f"more than {_MAX_HEADERS} response headers")
            headers[name.strip().lower()] = value.strip()
        status = int(code)
        if not 100 <= status < 200:
            return version, status, headers


def _read_chunked(rfile) -> bytes:
    parts = []
    while True:
        line = _read_line(rfile)
        try:
            size = int(line.split(b";", 1)[0], 16)
        except ValueError:
            raise ConnectionError(f"malformed chunk size {line[:100]!r}") from None
        if size == 0:
            break
        parts.append(_read_exactly(rfile, size))
        if _read_line(rfile) not in (b"\r\n", b"\n"):
            raise ConnectionError("chunk data not followed by a line end")
    while _read_line(rfile) not in (b"\r\n", b"\n", b""):
        pass  # trailer fields
    return b"".join(parts)


def _read_response(rfile) -> tuple[int, bytes, bool]:
    """Status, body and whether the connection may carry another request.

    The body is delimited by ``Content-Length``, by ``chunked`` transfer
    coding, or else by the server closing the connection. Anything
    malformed raises the builtin ``ConnectionError``.
    """
    version, status, headers = _read_head(rfile)
    keep_alive = version == b"HTTP/1.1" and b"close" not in headers.get(
        b"connection", b""
    ).lower()
    if status in (204, 304):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower().endswith(b"chunked"):
        body = _read_chunked(rfile)
    elif b"content-length" in headers:
        length = headers[b"content-length"]
        if not length.isdigit():
            raise ConnectionError(f"malformed Content-Length {length[:100]!r}")
        body = _read_exactly(rfile, int(length))
    else:
        body, keep_alive = rfile.read(), False
    return status, body, keep_alive


class _Connection:
    """A connected socket and the buffered reader over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class HttpBackend:
    """OpenAI-compatible /completions client with echoed-logprobs scoring.

    Each request is one HTTP/1.1 POST written with a single ``sendall``
    on a keep-alive connection. Idle connections wait in a LIFO pool
    shared by all threads, so a request made from a fresh worker thread
    still reuses one, and the pool never holds more connections than
    were ever in flight at once. A pooled connection the server has
    closed is dropped before reuse. Transport failures, malformed
    responses included, surface as the builtin ``ConnectionError`` or
    ``TimeoutError``, which the gateway retries.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get("GENSCO_API_KEY")
        self.timeout = timeout
        self.backend_id = f"http:{self.base_url}:{model}"
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend URL must be http(s)://host[:port][/path]: {base_url!r}")
        path = url.path + "/completions"
        if any(c <= " " or c == "\x7f" for c in path):
            raise ValueError(f"backend URL path has whitespace or control characters: {base_url!r}")
        if self.api_key and any(c in self.api_key for c in "\r\n\0"):
            raise ValueError("API key has a line break or NUL character")
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        default_port = 443 if self._tls is not None else 80
        self._host = url.hostname
        self._port = url.port or default_port
        host = f"[{self._host}]" if ":" in self._host else self._host
        if self._port != default_port:
            host = f"{host}:{self._port}"
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Accept-Encoding: identity\r\n"
            "Content-Type: application/json\r\n"
        )
        if self.api_key:
            head += f"Authorization: Bearer {self.api_key}\r\n"
        self._head = (head + "Content-Length: ").encode("utf-8")
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()

    def _pooled(self) -> Optional[_Connection]:
        while True:
            with self._idle_lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if not _readable(conn.sock):
                return conn
            conn.close()

    def _connect(self) -> _Connection:
        sock = socket.create_connection((self._host, self._port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
            return _Connection(sock)
        except BaseException:
            sock.close()
            raise

    def close(self) -> None:
        """Close the idle connections; the backend stays usable."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: dict[str, Any]) -> dict[str, Any]:
        data = json.dumps(body).encode("utf-8")
        request = b"%s%d\r\n\r\n%s" % (self._head, len(data), data)
        conn = self._pooled()
        try:
            if conn is None:
                conn = self._connect()
            conn.sock.sendall(request)
            status, raw, keep_alive = _read_response(conn.rfile)
        except BaseException as exc:
            if conn is not None:
                conn.close()
            if isinstance(exc, OSError) and not isinstance(exc, (ConnectionError, TimeoutError)):
                # Name-resolution and TLS failures are connection failures too.
                raise ConnectionError(f"POST {self.base_url}/completions: {exc!r}") from exc
            raise
        if keep_alive:
            with self._idle_lock:
                self._idle.append(conn)
        else:
            conn.close()
        if not 200 <= status < 300:
            text = raw.decode("utf-8", errors="replace")
            if status == 400 and "context" in text.lower():
                raise ContextOverflow(text[:500])
            raise HttpStatusError(status, text[:500])
        return json.loads(raw)

    def complete(self, req: GeneratorRequest) -> str:
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": req.prompt,
            "temperature": req.temperature,
            "max_tokens": req.max_output_tokens,
        }
        if req.stop_sequences:
            body["stop"] = list(req.stop_sequences)
        data = self._post(body)
        return data["choices"][0]["text"]

    def token_logprobs(self, req: ScorerRequest) -> list[float]:
        # Echo the full prompt+continuation and read back per-token
        # logprobs for the continuation span only.
        full = req.prompt + req.continuation
        body = {
            "model": self.model,
            "prompt": full,
            "max_tokens": 0,
            "echo": True,
            "logprobs": 0,
            "temperature": 0.0,
        }
        data = self._post(body)
        lp = data["choices"][0].get("logprobs")
        if not lp or lp.get("token_logprobs") is None:
            raise LogprobsUnsupported(
                f"backend {self.backend_id} returned no token logprobs"
            )
        offsets = lp.get("text_offset")
        logprobs = lp["token_logprobs"]
        if offsets is None:
            raise LogprobsUnsupported("backend returned logprobs without text offsets")
        # The continuation must be covered by whole tokens, each with a
        # logprob: a dropped token would change the mean NLL's denominator.
        # Only whitespace may precede its first token (tokenizers that
        # skip whitespace start it after the leading space).
        cut = len(req.prompt)
        tail = [(off, logp) for off, logp in zip(offsets, logprobs) if off >= cut]
        if not tail or full[cut:tail[0][0]].strip():
            raise LogprobsUnsupported(
                f"no token starts at the continuation's offset {cut}: a token "
                "straddles the prompt/continuation boundary"
            )
        for off, logp in tail:
            if not isinstance(logp, (int, float)):
                raise LogprobsUnsupported(f"no logprob for the token at offset {off}")
        return [logp for _, logp in tail]


class ResponseCache:
    """Content-addressed on-disk store keyed by request digest."""

    def __init__(self, cache_dir) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(value, fh, ensure_ascii=False, sort_keys=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)


class _MemoryCache:
    def __init__(self) -> None:
        self._store: dict[str, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Any]:
        return self._store.get(key)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._store[key] = value


def _truncate_at_stop(text: str, stop_sequences: Sequence[str]) -> str:
    cut = len(text)
    for stop in stop_sequences:
        pos = text.find(stop)
        if pos != -1:
            cut = min(cut, pos)
    return text[:cut]


class LlmGateway:
    """Front door for all LLM traffic: caching, retries, counters.

    Call counters are bucketed by purpose ("decomposition", "answer",
    "relevance", "stop") so a run manifest can audit the call budget.
    ``scorer_pool``, when given, runs the calls of ``score_many``
    concurrently; the gateway owns it and shuts it down on ``close``.
    """

    def __init__(
        self,
        generator: Backend,
        scorer: Backend,
        cache_dir=None,
        max_retries: int = 3,
        retry_base_delay: float = 0.5,
        scorer_pool: Optional[Executor] = None,
    ) -> None:
        self.generator = generator
        self.scorer = scorer
        self.scorer_pool = scorer_pool
        self.cache = ResponseCache(cache_dir) if cache_dir else _MemoryCache()
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self._lock = threading.Lock()
        self.generator_calls: dict[str, int] = {}
        self.scorer_calls: dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _cached(self, calls: dict[str, int], purpose: str, backend: Backend, req, fetch):
        """The cached value of ``req`` on ``backend``. A miss calls ``fetch``,
        retrying transport failures, and stores what it returns."""
        key = _sha256(f"{backend.backend_id}\0{req.fingerprint}")
        value = self.cache.get(key)
        hit = value is not None
        if not hit:
            for attempt in itertools.count(1):
                try:
                    value = fetch()
                    break
                except (ConnectionError, TimeoutError) as exc:
                    if attempt >= self.max_retries:
                        raise BackendUnavailable(str(exc)) from exc
                    time.sleep(self.retry_base_delay * (2 ** (attempt - 1)))
            self.cache.put(key, value)
        with self._lock:
            calls[purpose] = calls.get(purpose, 0) + 1
            self.cache_hits += hit
            self.cache_misses += not hit
        return value

    def generate(self, req: GeneratorRequest, purpose: str = "answer") -> str:
        if not req.prompt:
            raise ValueError("generator prompt must be non-empty")

        def fetch():
            return {"text": _truncate_at_stop(self.generator.complete(req), req.stop_sequences)}

        return self._cached(self.generator_calls, purpose, self.generator, req, fetch)["text"]

    def score_continuation(self, req: ScorerRequest, purpose: str = "relevance") -> ScorerResponse:
        if not req.continuation:
            raise ValueError("scorer continuation must be non-empty")

        def fetch():
            return ScorerResponse.from_logprobs(self.scorer.token_logprobs(req)).to_dict()

        cached = self._cached(self.scorer_calls, purpose, self.scorer, req, fetch)
        return ScorerResponse.from_dict(cached)

    def score_many(self, requests: Sequence[ScorerRequest], purpose: str) -> list[float]:
        """The mean NLL of each request, in request order.

        With a scorer pool the calls run on it, at most its workers at
        once. The first failure in request order is raised once the calls
        in flight have finished; calls not yet started by then are
        dropped. No call outlives this method.
        """

        def score(req: ScorerRequest) -> float:
            return self.score_continuation(req, purpose=purpose).mean_nll

        if self.scorer_pool is None or len(requests) < 2:
            return [score(req) for req in requests]
        futures = [self.scorer_pool.submit(score, req) for req in requests]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            # After a failure (or an interrupt) start no more calls, and let
            # those in flight finish.
            for future in futures:
                future.cancel()
            wait(futures)
        # The pool starts calls in submission order, so any cancelled one
        # comes after the first failure and is never read.
        return [future.result() for future in futures]

    def close(self) -> None:
        """Wait for the scorer pool's calls and stop its workers, then
        release the backends' idle connections."""
        if self.scorer_pool is not None:
            self.scorer_pool.shutdown()
        self.generator.close()
        self.scorer.close()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "generator_calls": dict(self.generator_calls),
                "scorer_calls": dict(self.scorer_calls),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            }
