"""Generator/Scorer gateway: backends, disk cache, call accounting.

The Generator produces text completions; the Scorer returns per-token
log-probabilities of a supplied continuation. Backends are pluggable:
an HTTP client for OpenAI-compatible completion endpoints and a fully
scripted backend for deterministic tests.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import ssl
import tempfile
import threading
import time
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ScorerRequest:
    prompt: str
    continuation: str

    def payload(self) -> dict[str, Any]:
        return {"prompt": self.prompt, "continuation": self.continuation}


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


@dataclass(frozen=True)
class LlmExchange:
    role: str  # "generator" | "scorer"
    request: dict[str, Any]
    response: Any
    cache_key: str
    latency: float
    from_cache: bool


def _digest(payload: dict[str, Any]) -> str:
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def generator_fingerprint(req: GeneratorRequest) -> str:
    return _digest({"role": "generator", **req.payload()})


def scorer_fingerprint(req: ScorerRequest) -> str:
    return _digest({"role": "scorer", **req.payload()})


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
        self._completions[generator_fingerprint(req)] = completion

    def add_logprobs(self, req: ScorerRequest, logprobs: Sequence[float]) -> None:
        self._logprobs[scorer_fingerprint(req)] = list(logprobs)

    def complete(self, req: GeneratorRequest) -> str:
        key = generator_fingerprint(req)
        if key not in self._completions:
            raise ScriptMiss(
                f"no scripted completion for prompt starting "
                f"{req.prompt[:120]!r} (fingerprint {key[:12]})"
            )
        return self._completions[key]

    def token_logprobs(self, req: ScorerRequest) -> list[float]:
        key = scorer_fingerprint(req)
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
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        backend = cls(backend_id=payload.get("backend_id", "scripted"))
        backend._completions = dict(payload["completions"])
        backend._logprobs = {k: list(v) for k, v in payload["logprobs"].items()}
        return backend


def _readable(sock) -> bool:
    """True when an idle socket has something to read: for a keep-alive
    connection between requests, that is the server's close."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class HttpBackend:
    """OpenAI-compatible /completions client with echoed-logprobs scoring.

    Connections are kept alive: idle ones wait in a LIFO pool shared by
    all threads, so a request made from a fresh worker thread still
    reuses one, and the pool never holds more connections than were
    ever in flight at once. A pooled connection the server has closed
    is dropped before reuse. Transport failures surface as the builtin
    ``ConnectionError`` or ``TimeoutError``, which the gateway retries.
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
        self._host, self._port = url.hostname, url.port
        self._path = url.path + "/completions"
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if not _readable(conn.sock):
                return conn
            conn.close()
        if self._tls is not None:
            return http.client.HTTPSConnection(
                self._host, self._port, timeout=self.timeout, context=self._tls
            )
        return http.client.HTTPConnection(self._host, self._port, timeout=self.timeout)

    def close(self) -> None:
        """Close the idle connections; the backend stays usable."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: dict[str, Any]) -> dict[str, Any]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        conn = self._connection()
        try:
            conn.request("POST", self._path, json.dumps(body).encode("utf-8"), headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (http.client.HTTPException, OSError) as exc:
            # Name-resolution and TLS failures are connection failures too.
            conn.close()
            if isinstance(exc, (ConnectionError, TimeoutError)):
                raise
            raise ConnectionError(f"POST {self.base_url}/completions: {exc!r}") from exc
        except BaseException:
            conn.close()
            raise
        if not resp.will_close:  # else http.client has closed it already
            with self._idle_lock:
                self._idle.append(conn)
        if not 200 <= resp.status < 300:
            text = raw.decode("utf-8", errors="replace")
            if resp.status == 400 and "context" in text.lower():
                raise ContextOverflow(text[:500])
            raise HttpStatusError(resp.status, text[:500])
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
        cut = len(req.prompt)
        tail = [
            logp
            for off, logp in zip(offsets, logprobs)
            if off >= cut and logp is not None
        ]
        if not tail:
            raise LogprobsUnsupported("no continuation tokens covered by logprobs")
        return tail


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
    A semaphore bounds concurrent calls to external backends.
    """

    def __init__(
        self,
        generator: Backend,
        scorer: Backend,
        cache_dir=None,
        max_retries: int = 3,
        retry_base_delay: float = 0.5,
        max_in_flight: int = 8,
        record_exchanges: bool = False,
    ) -> None:
        self.generator = generator
        self.scorer = scorer
        self.cache = ResponseCache(cache_dir) if cache_dir else _MemoryCache()
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self._sem = threading.Semaphore(max_in_flight)
        self._lock = threading.Lock()
        self.record_exchanges = record_exchanges
        self.exchanges: list[LlmExchange] = []
        self.generator_calls: dict[str, int] = {}
        self.scorer_calls: dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _count(self, table: dict[str, int], purpose: str, hit: bool) -> None:
        with self._lock:
            table[purpose] = table.get(purpose, 0) + 1
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def _with_retries(self, fn):
        attempt = 0
        while True:
            attempt += 1
            try:
                with self._sem:
                    return fn()
            except (ConnectionError, TimeoutError) as exc:
                if attempt >= self.max_retries:
                    raise BackendUnavailable(str(exc)) from exc
                time.sleep(self.retry_base_delay * (2 ** (attempt - 1)))

    def _record(
        self, role: str, request: dict[str, Any], response: Any, key: str,
        latency: float, from_cache: bool,
    ) -> None:
        if not self.record_exchanges:
            return
        with self._lock:
            self.exchanges.append(
                LlmExchange(role, request, response, key, latency, from_cache)
            )

    def generate(self, req: GeneratorRequest, purpose: str = "answer") -> str:
        if not req.prompt:
            raise ValueError("generator prompt must be non-empty")
        key = _digest(
            {"backend": self.generator.backend_id, "role": "generator", **req.payload()}
        )
        start = time.monotonic()
        cached = self.cache.get(key)
        if cached is not None:
            self._count(self.generator_calls, purpose, hit=True)
            text = cached["text"]
        else:
            raw = self._with_retries(lambda: self.generator.complete(req))
            text = _truncate_at_stop(raw, req.stop_sequences)
            self.cache.put(key, {"text": text})
            self._count(self.generator_calls, purpose, hit=False)
        self._record(
            "generator", req.payload(), text, key,
            time.monotonic() - start, cached is not None,
        )
        return text

    def score_continuation(
        self, req: ScorerRequest, purpose: str = "relevance"
    ) -> ScorerResponse:
        if not req.continuation:
            raise ValueError("scorer continuation must be non-empty")
        key = _digest(
            {"backend": self.scorer.backend_id, "role": "scorer", **req.payload()}
        )
        start = time.monotonic()
        cached = self.cache.get(key)
        if cached is not None:
            self._count(self.scorer_calls, purpose, hit=True)
            resp = ScorerResponse.from_dict(cached)
        else:
            logprobs = self._with_retries(lambda: self.scorer.token_logprobs(req))
            resp = ScorerResponse.from_logprobs(logprobs)
            self.cache.put(key, resp.to_dict())
            self._count(self.scorer_calls, purpose, hit=False)
        self._record(
            "scorer", req.payload(), resp.to_dict(), key,
            time.monotonic() - start, cached is not None,
        )
        return resp

    def close(self) -> None:
        """Release the backends' idle connections."""
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
