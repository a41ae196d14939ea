"""The hand-written HTTP/1.1 reply reader against ``http.client``.

The same reply bytes go to ``llm._read_response`` and to
``http.client.HTTPResponse`` over an in-memory socket. Both must accept
the reply with the same status, body and keep-alive, or both must refuse
it. A draw that shows one of the deliberate differences in DIFFERENCES
is read by both but left out of the comparison. Both bound a line at
65,536 bytes, at the same length, so the draws' over-long header lines
are compared.
"""

import http.client
import io
from typing import Optional

from hypothesis import event, given, settings, strategies as st

from gensco import llm

# Where the two readers part on purpose, by the name a draw is tagged with.
DIFFERENCES = {
    "header-bound": (
        "exactly 100 header lines: http.client counts the blank line that ends the "
        "head against its bound of 100 and refuses them; gensco reads them"
    ),
    "hex-only": (
        "a chunk size spelled with '0x', '+' or '_': http.client reads it with "
        "int(size, 16), which takes them; gensco takes hex digits only"
    ),
    "http10-keep-alive": (
        "an HTTP/1.0 reply that announces keep-alive: http.client keeps the "
        "connection; gensco pools HTTP/1.1 connections only"
    ),
    "conflicting-length": (
        "Content-Length repeated with values that differ: http.client reads the "
        "first; gensco refuses the reply's framing (RFC 9112, section 6.3)"
    ),
    "interim-not-100": (
        "a 1xx reply other than 100 Continue: http.client reads it as the final "
        "reply; gensco skips every 1xx reply (RFC 9110, section 15.2)"
    ),
    "cut-after-last-chunk": (
        "a chunked reply cut off inside its last-chunk line or before the blank "
        "line that ends its trailers: http.client reads it as whole; gensco "
        "refuses it, so the connection of a reply whose server closed "
        "mid-framing is not pooled (RFC 9112, section 7.1)"
    ),
    "cut-in-leading-zeros": (
        "a chunked reply cut off inside the leading zeros of a chunk size, as "
        "'00' of '00d': http.client reads the zeros as the last chunk and the "
        "reply as whole; gensco refuses it, as it refuses any cut size line"
    ),
}

TOKENS = st.text("abcdefghijklmnopqrstuvwxyz0123456789-./=", min_size=1, max_size=12)
CASES = st.sampled_from([str, str.lower, str.upper, str.swapcase])
LINE_ENDS = st.sampled_from(["\r\n", "\r\n", "\n"])
VALUE_STARTS = st.sampled_from(["", " ", "  ", "\t"])


class Draw:
    """The bytes of a reply under construction and the differences it shows."""

    def __init__(self, draw):
        self.draw = draw
        self.parts: list[bytes] = []
        self.tags: set[str] = set()
        # Where the first chunk size that is not hex digits ends.
        self.odd_size_end: Optional[int] = None
        # Where the last chunk's size line starts.
        self.last_chunk_at: Optional[int] = None
        # The lengths a cut may leave that end inside the leading zeros of a
        # size line before the last.
        self.zero_prefix_ends: set[int] = set()

    def line(self, text: str) -> None:
        self.parts.append((text + self.draw(LINE_ENDS)).encode("latin-1"))

    def head(self, status_line: str, headers: list[tuple[str, str]]) -> None:
        self.line(status_line)
        if len(headers) == 100:
            self.tags.add("header-bound")
        for name, value in self.draw(st.permutations(headers)):
            self.line(f"{self.draw(CASES)(name)}:{self.draw(VALUE_STARTS)}{value}")
        self.line("")


def chunked(draw, reply: Draw, body: bytes) -> None:
    """``body`` in chunks with drawn size spellings and extensions, then trailers."""
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
    edges = [0, *cuts, len(body)]
    pieces = [body[a:b] for a, b in zip(edges, edges[1:]) if b > a]
    for piece in pieces + [b""]:
        size = f"{len(piece):x}"
        spelling = draw(st.sampled_from(["plain"] * 6 + ["zeros", "case", "space", "0x", "+", "_"]))
        if spelling == "zeros":
            size = "00" + size
        elif spelling == "case":
            size = size.upper()
        elif spelling == "space":
            size += " "
        elif spelling == "0x":
            size = "0x" + size
        elif spelling == "+":
            size = "+" + size
        elif spelling == "_" and len(size) >= 2:
            size = size[0] + "_" + size[1:]
        if not all(c in "0123456789abcdefABCDEF " for c in size):
            reply.tags.add("hex-only")
            if reply.odd_size_end is None:
                reply.odd_size_end = len(b"".join(reply.parts)) + len(size)
        extension = draw(st.sampled_from(["", "", ";ext", ";name=value", ";a=1;b"]))
        line_at = len(b"".join(reply.parts))
        if not piece:
            reply.last_chunk_at = line_at
        else:
            zeros = len(size) - len(size.lstrip("0"))
            reply.zero_prefix_ends.update(range(line_at + 1, line_at + zeros + 1))
        reply.line(size + extension)
        if piece:
            reply.parts.append(piece + b"\r\n")
    for _ in range(draw(st.integers(0, 2))):
        reply.line(f"X-Trailer: {draw(TOKENS)}")
    reply.line("")


@st.composite
def replies(draw) -> tuple[bytes, set[str]]:
    """A reply's bytes and the differences it shows:
    1xx replies before the final one, headers in any case and order, a body
    by Content-Length (maybe repeated), chunked or read to close, maybe cut
    short."""
    reply = Draw(draw)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]))
    for code in draw(st.lists(st.sampled_from([100] * 8 + [102, 103]), max_size=2)):
        if code != 100:
            reply.tags.add("interim-not-100")
        reply.head(f"{version} {code} Interim", [("X-Interim", draw(TOKENS))])
    status = draw(st.sampled_from([200, 200, 201, 204, 304, 400, 404, 429, 500, 503]))
    reason = draw(st.sampled_from([" OK", " Some Reason", " ", ""]))
    framing = "none"  # 204 and 304 have no body
    if status not in (204, 304):
        framing = draw(st.sampled_from(["length", "chunked", "close"]))
    body = b"" if framing == "none" else draw(st.binary(max_size=300))
    headers = []
    if framing == "length":
        headers.append(("Content-Length", str(len(body))))
    elif framing == "chunked":
        headers.append(("Transfer-Encoding", draw(CASES)("chunked")))
        if draw(st.booleans()):  # both ignore it beside chunked
            headers.append(("Content-Length", str(draw(st.integers(0, 999)))))
    connection = draw(st.sampled_from([None, None, "close", "keep-alive", "Keep-Alive", "Upgrade"]))
    if connection is not None:
        headers.append(("Connection", connection))
    if draw(st.integers(0, 5)) == 0:
        headers.append(("Keep-Alive", "timeout=5"))
    if version == "HTTP/1.0" and (
        "keep-alive" in (connection or "").lower() or ("Keep-Alive", "timeout=5") in headers
    ):
        reply.tags.add("http10-keep-alive")
    names = draw(st.sets(st.sampled_from(["Server", "Date", "Content-Type", "X-Request-Id"])))
    headers += [(name, draw(TOKENS)) for name in sorted(names)]
    # Fillers up to past the bound on header lines, under distinct names or
    # under one name, which both readers count line by line.
    fillers = draw(st.sampled_from([0, 0, 0, 0, 0, 0, 97, 98, 99, 100, 101]))
    one_name = draw(st.booleans())
    headers += [("X-Filler" if one_name else f"X-Filler-{i}", "x") for i in range(fillers)]
    # A repeated Content-Length, with the same value or not, at any count of lines.
    lengths = [value for name, value in headers if name == "Content-Length"]
    if lengths and draw(st.integers(0, 3)) == 0:
        repeat = draw(st.sampled_from([lengths[0], str(draw(st.integers(0, 999)))]))
        headers.append(("Content-Length", repeat))
        if repeat != lengths[0]:
            reply.tags.add("conflicting-length")
    if draw(st.integers(0, 19)) == 0:  # a line of 65,528 to 65,551 bytes
        headers.append(("X-Long", "a" * draw(st.integers(65520, 65540))))
    reply.head(f"{version} {status}{reason}", headers)
    head_end = len(b"".join(reply.parts))
    if framing == "chunked":
        chunked(draw, reply, body)
    else:
        reply.parts.append(body)
    raw = b"".join(reply.parts)
    if len(raw) > head_end and draw(st.integers(0, 3)) == 0:  # the server closes mid-body
        raw = raw[: draw(st.integers(head_end, len(raw) - 1))]
        if reply.odd_size_end is not None and len(raw) < reply.odd_size_end:
            # The cut left at most a prefix of that size, which both read alike.
            reply.tags.discard("hex-only")
        if reply.last_chunk_at is not None and len(raw) > reply.last_chunk_at:
            reply.tags.add("cut-after-last-chunk")
        if len(raw) in reply.zero_prefix_ends:
            reply.tags.add("cut-in-leading-zeros")
    return raw, reply.tags


class InMemorySocket:
    def __init__(self, raw: bytes):
        self.raw = raw

    def makefile(self, mode):
        assert mode == "rb"
        return io.BufferedReader(io.BytesIO(self.raw))


def read_with_gensco(raw: bytes):
    rfile = InMemorySocket(raw).makefile("rb")
    try:
        status, _, body, keep_alive = llm._read_response(rfile)
    except ConnectionError:
        return "refused"
    assert status >= 200  # every 1xx reply is skipped
    # A draw ends where its reply ends: a connection kept for the next
    # reply has nothing of this one left unread.
    assert not (keep_alive and rfile.read())
    return status, body, keep_alive


def read_with_http_client(raw: bytes):
    response = http.client.HTTPResponse(InMemorySocket(raw), method="POST")
    try:
        response.begin()
        body = response.read()
    except http.client.HTTPException:
        return "refused"
    finally:
        response.close()
    return response.status, body, not response.will_close


@settings(max_examples=300, deadline=None)
@given(replies())
def test_reader_reads_replies_as_http_client_reads_them(reply):
    raw, tags = reply
    ours, reference = read_with_gensco(raw), read_with_http_client(raw)
    for tag in sorted(tags):
        event(f"left out: {tag}")
    if not tags:
        event("refused" if ours == "refused" else "accepted")
        assert ours == reference
    elif tags in (
        {"hex-only"},
        {"conflicting-length"},
        {"cut-after-last-chunk"},
        {"cut-in-leading-zeros"},
    ):
        assert ours == "refused"
    elif tags == {"http10-keep-alive"} and reference != "refused":
        assert ours == (*reference[:2], False)
