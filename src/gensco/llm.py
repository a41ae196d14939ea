"""Generator/Scorer gateway: backends, disk cache, call accounting.

The Generator produces text completions; the Scorer returns per-token
log-probabilities of a supplied continuation. Backends are pluggable:
an HTTP client for OpenAI-compatible completion endpoints and a fully
scripted backend for deterministic tests.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import select
import socket
import ssl
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional, Protocol, Sequence
from urllib.parse import urlsplit

import orjson

from .models import load_json


class BackendUnavailable(Exception):
    """Transport failure that persisted through the bounded retries."""


class ContextOverflow(Exception):
    """Prompt exceeds the backend's context limit; never silently truncated."""


class HttpStatusError(Exception):
    """Backend answered with a non-2xx status; never retried unless it is
    a ``BackendBusy``."""

    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"HTTP {status}: {body}")
        self.status = status


class BackendBusy(HttpStatusError):
    """Backend answered 429 or 503. The gateway retries it, waiting for
    ``retry_after`` seconds when the reply had a numeric Retry-After."""

    def __init__(self, status: int, body: str, retry_after: Optional[int]) -> None:
        super().__init__(status, body)
        self.retry_after = retry_after


class MalformedResponse(Exception):
    """Backend answered 2xx with a body that is not a completions reply;
    never retried."""


class LogprobsUnsupported(Exception):
    """Endpoint cannot echo per-token log-probabilities."""


class ScriptMiss(Exception):
    """A scripted backend saw a request it has no canned response for."""


def _json(value: Any) -> bytes:
    """``value`` as ``json.dumps(value, ensure_ascii=False, sort_keys=True)``
    writes it, as UTF-8. A str (which orjson escapes to the same bytes), an
    int or a finite float is written without building an encoder; a str
    with a lone surrogate raises orjson.JSONEncodeError."""
    kind = type(value)
    if kind is str:
        return orjson.dumps(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value).encode()
    return json.dumps(value, ensure_ascii=False, sort_keys=True).encode()


# A request's ``fingerprint`` is its one identity: the scripted backend's
# lookup key and, after the backend id, its cache key. It is the sha256 of
# json.dumps({"role": role, **fields}, ensure_ascii=False, sort_keys=True)
# in UTF-8, assembled from its fragments in sorted-key order and computed
# once, when the request is built. JSON escapes a str character by
# character, so the escaping of a prompt's head without its closing quote
# and that of its tail without its opening one join into the escaping of
# the whole prompt: a request can finish a copy of the hash state of a head
# it shares with others, and a lone surrogate fails in either part.
def _generator_start(head: str, max_output_tokens: int):
    """The hash state of a generator request's JSON up to the end of ``head``."""
    return hashlib.sha256(
        b'{"max_output_tokens": %s, "prompt": %s'
        % (_json(max_output_tokens), orjson.dumps(head)[:-1])
    )


# The heads a run repeats in every Generator request: a template's text.
# Typed, since json.dumps writes 1 and True differently.
_shared_generator_start = functools.lru_cache(maxsize=8, typed=True)(_generator_start)


def _generator_fingerprint(
    state, tail: str, temperature: float, stop_sequences: tuple[str, ...]
) -> str:
    state.update(
        b'%s, "role": "generator", "stop_sequences": [%s], "temperature": %s}' % (
            orjson.dumps(tail)[1:], b", ".join(map(_json, stop_sequences)),
            _json(temperature),
        )
    )
    return state.hexdigest()


@dataclass(frozen=True)
class GeneratorRequest:
    prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 64
    stop_sequences: tuple[str, ...] = ()
    fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fingerprint", _generator_fingerprint(
            _generator_start(self.prompt, self.max_output_tokens), "",
            self.temperature, self.stop_sequences,
        ))

    @classmethod
    def sharing_head(
        cls,
        head: str,
        tail: str,
        temperature: float = 0.0,
        max_output_tokens: int = 64,
        stop_sequences: tuple[str, ...] = (),
    ) -> "GeneratorRequest":
        """The request of prompt ``head + tail``. The hash state up to the
        end of ``head`` is kept for the next request with this head (a few
        heads are kept), so ``head`` is text the run repeats, such as a
        template's, and each request escapes and hashes only its tail."""
        state = _shared_generator_start(head, max_output_tokens).copy()
        req = object.__new__(cls)
        req.__dict__.update(
            prompt=head + tail,
            temperature=temperature,
            max_output_tokens=max_output_tokens,
            stop_sequences=stop_sequences,
            fingerprint=_generator_fingerprint(state, tail, temperature, stop_sequences),
        )
        return req


def _scorer_start(head: str, continuation: str):
    """The hash state of a scorer request's JSON up to the end of ``head``."""
    return hashlib.sha256(
        b'{"continuation": %s, "prompt": %s' % (_json(continuation), orjson.dumps(head)[:-1])
    )


# A scorer request's JSON after its prompt.
_SCORER_END = b', "role": "scorer"}'


class ScorerTail(NamedTuple):
    """A scorer prompt's text after the head it shares with others, and the
    bytes that finish its fingerprint from the head's hash state."""

    text: str
    finish: bytes


def scorer_tails(texts: Iterable[str]) -> tuple[ScorerTail, ...]:
    """Each of ``texts`` as a ScorerTail, escaped once for every request it ends."""
    return tuple(ScorerTail(text, orjson.dumps(text)[1:] + _SCORER_END) for text in texts)


@dataclass(frozen=True)
class ScorerRequest:
    prompt: str
    continuation: str
    fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        state = _scorer_start(self.prompt, self.continuation)
        state.update(b'"' + _SCORER_END)
        object.__setattr__(self, "fingerprint", state.hexdigest())

    @classmethod
    def sharing_head(
        cls, head: str, tails: Sequence[ScorerTail], continuation: str
    ) -> tuple["ScorerRequest", ...]:
        """The request of prompt ``head + tail.text`` for each of ``tails``,
        with the head escaped and hashed once for all of them."""
        start = _scorer_start(head, continuation)
        requests = []
        for text, finish in tails:
            state = start.copy()
            state.update(finish)
            req = object.__new__(cls)
            req.__dict__.update(
                prompt=head + text, continuation=continuation, fingerprint=state.hexdigest()
            )
            requests.append(req)
        return tuple(requests)


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
        """A backend written by ``to_file``; ValueError for another file. A
        script's backend id and completions are strs, and each logprobs
        entry is a non-empty list of numbers with a finite sum, since the
        gateway would fail on any other at its first call."""
        payload = load_json(Path(path).read_bytes())
        try:
            backend = cls(backend_id=payload.get("backend_id", "scripted"))
            backend._completions = payload["completions"]
            backend._logprobs = payload["logprobs"]
            logprobs = backend._logprobs.values()
            if type(backend.backend_id) is not str:
                raise TypeError(f"backend_id {backend.backend_id!r} is not a string")
            if not {str}.issuperset(map(type, backend._completions.values())):
                raise TypeError("a completion is not a string")
            if not {list}.issuperset(map(type, logprobs)) or not {int, float}.issuperset(
                map(type, itertools.chain.from_iterable(logprobs))
            ):
                raise TypeError("a logprobs entry is not a list of numbers")
            if not all(logprobs) or not all(map(math.isfinite, map(sum, logprobs))):
                raise ValueError("a logprobs entry is empty or does not have a finite sum")
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
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
    # In pieces of at most 1 MiB: a size the peer never sends allocates only what arrives.
    pieces, left = [], n
    while left:
        pieces.append(rfile.read(min(left, 1 << 20)))
        if not pieces[-1]:
            raise ConnectionError(f"response body ended after {n - left} of {n} bytes")
        left -= len(pieces[-1])
    return b"".join(pieces)


def _read_head(rfile) -> tuple[bytes, int, dict[bytes, bytes]]:
    """HTTP version, status and lower-cased headers of the next final
    (non-1xx) response. Of a repeated header the last value is kept, but
    repeated ``Content-Length`` values must agree (RFC 9112, section 6.3)."""
    while True:
        line = _read_line(rfile)
        if not line:
            raise ConnectionError("connection closed before a response")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not version.startswith(b"HTTP/") or not code.isdigit() or rest[3:4].strip():
            raise ConnectionError(f"malformed status line {line[:100]!r}")
        headers: dict[bytes, bytes] = {}
        for lines in itertools.count():
            line = _read_line(rfile)
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.partition(b":")
            name, value = name.strip().lower(), value.strip()
            if not colon or not name:
                raise ConnectionError(f"malformed header line {line[:100]!r}")
            if lines == _MAX_HEADERS:  # lines, as http.client counts them, not names
                raise ConnectionError(f"more than {_MAX_HEADERS} response header lines")
            if name == b"content-length" and headers.get(name, value) != value:
                raise ConnectionError("response has conflicting Content-Length values")
            headers[name] = value
        status = int(code)
        if not 100 <= status < 200:
            return version, status, headers


def _read_chunked(rfile) -> bytes:
    parts = []
    while True:
        line = _read_line(rfile)
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):  # hex digits only
            raise ConnectionError(f"malformed chunk size {line[:100]!r}")
        size = int(size, 16)
        if size == 0:
            break
        parts.append(_read_exactly(rfile, size))
        if _read_line(rfile) not in (b"\r\n", b"\n"):
            raise ConnectionError("chunk data not followed by a line end")
    while _read_line(rfile) not in (b"\r\n", b"\n", b""):
        pass  # trailer fields
    return b"".join(parts)


def _read_response(rfile) -> tuple[int, dict[bytes, bytes], bytes, bool]:
    """Status, headers, body and whether the connection may carry another
    request.

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
    return status, headers, body, keep_alive


# An echo request's body after its prompt, as json.dumps writes it.
_ECHO_TAIL = ', "max_tokens": 0, "echo": true, "logprobs": 0, "temperature": 0.0}'
# Statuses that mean "try again later"; every other non-2xx is final.
_BUSY_STATUSES = (429, 503)
# What a 400 body holds when the prompt is over the context limit: OpenAI's
# error code, and the message that OpenAI and vLLM both send.
_CONTEXT_OVERFLOW_MARKS = ('"context_length_exceeded"', "maximum context length")
# The longest wait a Retry-After header can ask for before a retry.
_MAX_RETRY_AFTER_S = 30
# Seconds a connect, or a wait for the next bytes of a reply, may take.
_TIMEOUT_S = 120.0
# Tries of a request before a transport failure or busy reply is BackendUnavailable.
_MAX_ATTEMPTS = 3
# The wait before the second try, doubled before each later one, unless a
# busy reply says how long to wait.
_RETRY_BASE_DELAY_S = 0.5


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
    ``TimeoutError``, which the gateway retries. When ``GENSCO_API_KEY``
    is set, every request carries it as a bearer token.
    """

    def __init__(self, base_url: str, model: str) -> None:
        self.base_url = base_url.rstrip("/")
        self.model = model
        api_key = os.environ.get("GENSCO_API_KEY")
        self.backend_id = f"http:{self.base_url}:{model}"
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend URL must be http(s)://host[:port][/path]: {base_url!r}")
        path = url.path + "/completions"
        if any(c <= " " or c == "\x7f" for c in path):
            raise ValueError(f"backend URL path has whitespace or control characters: {base_url!r}")
        if api_key and any(c in api_key for c in "\r\n\0"):
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
        if api_key:
            head += f"Authorization: Bearer {api_key}\r\n"
        self._head = (head + "Content-Length: ").encode("utf-8")
        # json.dumps of an echo request, written around its prompt.
        self._echo_head = f'{{"model": {json.dumps(model)}, "prompt": '
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
        sock = socket.create_connection((self._host, self._port), _TIMEOUT_S)
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

    def _post(self, data: bytes) -> dict[str, Any]:
        """The first choice of the reply to one POST of the JSON ``data``."""
        request = b"%s%d\r\n\r\n%s" % (self._head, len(data), data)
        conn = self._pooled()
        try:
            if conn is None:
                conn = self._connect()
            conn.sock.sendall(request)
            status, headers, raw, keep_alive = _read_response(conn.rfile)
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
            if status in _BUSY_STATUSES:
                retry_after = headers.get(b"retry-after", b"")
                raise BackendBusy(
                    status, text[:500], int(retry_after) if retry_after.isdigit() else None
                )
            if status == 400 and any(m in text.lower() for m in _CONTEXT_OVERFLOW_MARKS):
                raise ContextOverflow(text[:500])
            raise HttpStatusError(status, text[:500])
        try:
            data = load_json(raw)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
            raise MalformedResponse(
                f"backend {self.backend_id} replied with a body that is not JSON ({exc})"
            ) from None
        choices = data.get("choices") if isinstance(data, dict) else None
        if not isinstance(choices, list) or not choices or not isinstance(choices[0], dict):
            raise MalformedResponse(
                f"backend {self.backend_id} replied without a choice: {raw[:200]!r}"
            )
        return choices[0]

    def complete(self, req: GeneratorRequest) -> str:
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": req.prompt,
            "temperature": req.temperature,
            "max_tokens": req.max_output_tokens,
        }
        if req.stop_sequences:
            body["stop"] = list(req.stop_sequences)
        text = self._post(json.dumps(body).encode("utf-8")).get("text")
        if not isinstance(text, str):
            raise MalformedResponse(f"backend {self.backend_id} replied with a choice without text")
        return text

    def token_logprobs(self, req: ScorerRequest) -> list[float]:
        # Echo the full prompt+continuation and read back per-token
        # logprobs for the continuation span only.
        full = req.prompt + req.continuation
        body = self._echo_head + json.encoder.encode_basestring_ascii(full) + _ECHO_TAIL
        lp = self._post(body.encode("ascii")).get("logprobs")
        if lp is not None and not isinstance(lp, dict):
            raise MalformedResponse(
                f"backend {self.backend_id} replied with logprobs that are not an object"
            )
        if not lp or lp.get("token_logprobs") is None:
            raise LogprobsUnsupported(
                f"backend {self.backend_id} returned no token logprobs"
            )
        offsets = lp.get("text_offset")
        logprobs = lp["token_logprobs"]
        if offsets is None:
            raise LogprobsUnsupported("backend returned logprobs without text offsets")
        lists = isinstance(logprobs, list) and isinstance(offsets, list)
        if not lists or len(logprobs) != len(offsets):
            raise MalformedResponse(
                f"backend {self.backend_id} replied with token_logprobs and text_offset "
                "that are not lists of one length"
            )
        if not {int}.issuperset(map(type, offsets)):
            raise MalformedResponse(
                f"backend {self.backend_id} replied with a text_offset that is not integers"
            )
        # The continuation's tokens are those after the last token that
        # starts before the cut; no earlier token may start at or after it.
        cut = len(req.prompt)
        start = len(offsets)
        while start and offsets[start - 1] >= cut:
            start -= 1
        tail = offsets[start:]
        if max(offsets[:start], default=cut - 1) >= cut or tail != sorted(tail):
            raise MalformedResponse(
                f"backend {self.backend_id} replied with a text_offset out of order"
            )
        # The continuation must be covered by whole tokens, each with a
        # logprob: a dropped token would change the mean NLL's denominator.
        # Only whitespace may precede its first token (tokenizers that
        # skip whitespace start it after the leading space).
        if not tail or full[cut:tail[0]].strip():
            raise LogprobsUnsupported(
                f"no token starts at the continuation's offset {cut}: a token "
                "straddles the prompt/continuation boundary"
            )
        values = logprobs[start:]
        for off, logp in zip(tail, values):
            if type(logp) is not int and type(logp) is not float:
                raise LogprobsUnsupported(f"no logprob for the token at offset {off}")
        return values


class ResponseCache:
    """Content-addressed on-disk store: one JSON file per key, named by the
    key's sha256. Each entry is written to a temporary file and renamed
    into place, so a reader sees a whole entry or none, also when another
    process shares the directory."""

    def __init__(self, cache_dir) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def get(self, key: str) -> Optional[Any]:
        """The value stored under ``key``, or None; MalformedResponse for an
        entry that is not UTF-8 JSON."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            return load_json(raw)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
            backend_id = key.partition("\0")[0]
            raise MalformedResponse(
                f"backend {backend_id}: the cache entry {path} is not UTF-8 JSON ({exc})"
            ) from None

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh, ensure_ascii=False, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


class _NoCache:
    """The store of a gateway without a cache_dir: no request repeats in a run, so it keeps none."""

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, value: Any) -> None:
        pass


def _truncate_at_stop(text: str, stop_sequences: Sequence[str]) -> str:
    cut = len(text)
    for stop in stop_sequences:
        pos = text.find(stop)
        if pos != -1:
            cut = min(cut, pos)
    return text[:cut]


# The entries the gateway caches, by exact type (so that a bool is not an
# int): a cache hit must be one, since a disk cache is input from outside.
def _is_completion(entry: Any) -> bool:
    return type(entry) is dict and type(entry.get("text")) is str


def _is_score(entry: Any) -> bool:
    return (
        type(entry) is dict
        and type(entry.get("token_logprobs")) is list
        and type(entry.get("mean_nll")) in (int, float)
    )


def _unexpected_entry(backend: Backend, entry: Any) -> MalformedResponse:
    return MalformedResponse(
        f"backend {backend.backend_id}: the cache holds {entry!r} for this request,"
        " not an entry of the shape the gateway writes"
    )


# Failures of a backend call that a later try may not meet.
_TRANSIENT = (ConnectionError, TimeoutError, BackendBusy)


def _retried(call: Callable, req, exc: Exception):
    """``call(req)`` tried again after its first try failed with the
    transient ``exc``, waiting before each try, until _MAX_ATTEMPTS tries in
    all; BackendUnavailable when the last one fails too."""
    for attempt in range(1, _MAX_ATTEMPTS):
        if isinstance(exc, BackendBusy) and exc.retry_after is not None:
            time.sleep(min(exc.retry_after, _MAX_RETRY_AFTER_S))
        else:
            time.sleep(_RETRY_BASE_DELAY_S * (2 ** (attempt - 1)))
        try:
            return call(req)
        except _TRANSIENT as again:
            exc = again
    raise BackendUnavailable(str(exc)) from exc


class LlmGateway:
    """Front door for all LLM traffic: the disk cache (given a cache_dir), retries, counters.

    Call counters are bucketed by purpose ("decomposition", "answer",
    "relevance", "stop") so a run manifest can audit the call budget.
    The gateway starts no thread: its methods may be called from many
    threads at once, and the run that calls them owns those threads.
    """

    def __init__(self, generator: Backend, scorer: Backend, cache_dir=None, fan_out=map) -> None:
        self.generator = generator
        self.scorer = scorer
        self.cache = ResponseCache(cache_dir) if cache_dir else _NoCache()
        self._fan_out = fan_out
        self._lock = threading.Lock()
        self.generator_calls: dict[str, int] = {}
        self.scorer_calls: dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _count(self, calls: dict[str, int], purpose: str, hits: int, misses: int) -> None:
        if hits or misses:
            with self._lock:
                calls[purpose] = calls.get(purpose, 0) + hits + misses
                self.cache_hits += hits
                self.cache_misses += misses

    def generate(self, req: GeneratorRequest, purpose: str = "answer") -> str:
        """The completion of ``req``, cut at its first stop sequence. A hit
        that is not an entry of the shape the gateway writes raises
        MalformedResponse; a miss is fetched and stored."""
        backend = self.generator
        key = backend.backend_id + "\0" + req.fingerprint
        entry = self.cache.get(key)
        hit = entry is not None
        if hit and not _is_completion(entry):
            raise _unexpected_entry(backend, entry)
        if not hit:
            try:
                text = backend.complete(req)
            except _TRANSIENT as exc:
                text = _retried(backend.complete, req, exc)
            entry = {"text": _truncate_at_stop(text, req.stop_sequences)}
            self.cache.put(key, entry)
        self._count(self.generator_calls, purpose, hit, not hit)
        return entry["text"]

    def score_many(
        self, requests: Sequence[ScorerRequest], purpose: str = "relevance"
    ) -> list[float]:
        """The mean NLL of each request's continuation, in request order.

        Every request's cache entry is looked up first. A hit of another
        shape than the gateway writes, or with a mean NLL that is not
        finite, raises MalformedResponse before any miss is sent or any
        call counted. The gateway's ``fan_out(fetch, misses)`` sends the
        misses, and each is stored as it returns, its per-token logprobs
        kept with its mean. A score over no token, or one that is not
        finite, raises MalformedResponse: it is never retried or cached.
        Every hit and every miss that returned is counted, failed or not.
        """
        backend = self.scorer
        prefix = backend.backend_id + "\0"
        keys = [prefix + req.fingerprint for req in requests]
        entries = list(map(self.cache.get, keys))
        misses = [i for i, entry in enumerate(entries) if entry is None]
        if len(misses) < len(requests):
            for entry, req in zip(entries, requests):
                if entry is not None and not (_is_score(entry) and self._finite(entry, req)):
                    raise _unexpected_entry(backend, entry)
        token_logprobs, put = backend.token_logprobs, self.cache.put

        def fetch(i: int) -> None:
            req = requests[i]
            try:
                logprobs = token_logprobs(req)
            except _TRANSIENT as exc:
                logprobs = _retried(token_logprobs, req, exc)
            try:
                mean_nll = -sum(logprobs) / len(logprobs)
            except (ZeroDivisionError, OverflowError):  # no token, or an int past float range
                mean_nll = math.nan
            entry = self._finite({"token_logprobs": logprobs, "mean_nll": mean_nll}, req)
            put(keys[i], entry)
            entries[i] = entry

        try:
            for _ in self._fan_out(fetch, misses):
                pass
        finally:
            # After a failure the misses in flight have returned, and no other was sent.
            returned = len(misses) - entries.count(None)
            self._count(self.scorer_calls, purpose, len(requests) - len(misses), returned)
        return [entry["mean_nll"] for entry in entries]

    def score_continuation(self, req: ScorerRequest, purpose: str = "relevance") -> float:
        """The mean NLL of one request's continuation, as ``score_many`` scores it."""
        return self.score_many((req,), purpose)[0]

    def _finite(self, entry: dict[str, Any], req: ScorerRequest) -> dict[str, Any]:
        """``entry`` if its mean NLL is finite (not NaN, infinite or an int past
        the float range); MalformedResponse otherwise."""
        if not abs(entry["mean_nll"]) <= sys.float_info.max:
            raise MalformedResponse(
                f"backend {self.scorer.backend_id} scored {req.continuation!r} with"
                f" {len(entry['token_logprobs'])} token logprobs and a mean NLL of"
                f" {entry['mean_nll']!r}: a score needs a token and must be finite"
            )
        return entry

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
