"""Minimal HTTP/1.1 protocol layer over asyncio streams.

Handwritten and dependency-free on purpose: the service must not pull a
web framework into a repo whose only runtime dependency is the standard
library, and ``http.server`` is thread-per-connection — the wrong shape
for an asyncio front end.  The subset implemented here is exactly what
the service and its load generator need:

- request line + headers + ``Content-Length`` bodies (no chunked
  transfer encoding — requests carrying ``Transfer-Encoding`` are
  rejected with ``411``/``400`` semantics via :class:`ProtocolError`);
- persistent connections (HTTP/1.1 keep-alive by default,
  ``Connection: close`` honoured both ways);
- bounded reads everywhere: header block and body sizes are capped so a
  misbehaving client cannot balloon server memory.

The pure parsing core (:func:`parse_request_head`) is separated from
the stream I/O (:func:`read_request`) so it can be doctested and unit
tested without sockets.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

#: Upper bound on the request line + header block (bytes).  Generous —
#: the service's own clients send a handful of short headers — but
#: finite, so a garbage stream cannot grow the buffer without bound.
MAX_HEAD_BYTES = 16_384

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed or unsupported request.

    ``status`` is the HTTP status the connection handler should answer
    with before closing the connection (the stream position is no
    longer trustworthy after a parse failure).
    """

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: str = ""
    headers: dict = field(default_factory=dict)  # lower-cased names
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def close(self) -> bool:
        """Did the client ask to drop the connection after this
        exchange?"""
        return self.header("connection").lower() == "close"

    def json(self):
        """Decode the body as a JSON object.

        Raises :class:`ProtocolError` (400) on undecodable bytes,
        invalid JSON, or a non-object top level — the service's request
        schemas are all JSON objects.
        """
        try:
            value = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: "
                                     f"{exc}") from None
        if not isinstance(value, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return value


def parse_request_head(head: bytes) -> Request:
    """Parse the request line + header block (no body yet).

    >>> req = parse_request_head(
    ...     b"GET /v1/status?verbose=1 HTTP/1.1\\r\\n"
    ...     b"Host: localhost\\r\\nX-Repro-Max-Stmts: 5000\\r\\n")
    >>> req.method, req.path, req.query
    ('GET', '/v1/status', 'verbose=1')
    >>> req.header("x-repro-max-stmts")
    '5000'
    >>> parse_request_head(b"BROKEN\\r\\n")
    Traceback (most recent call last):
        ...
    repro.service.protocol.ProtocolError: malformed request line: 'BROKEN'
    """
    lines = head.split(b"\r\n")
    try:
        request_line = lines[0].decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError(400, "request line is not ASCII") from None
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[0].isalpha():
        raise ProtocolError(400, f"malformed request line: "
                                 f"{request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol version "
                                 f"{version!r}")
    if not target.startswith("/"):
        raise ProtocolError(400, f"unsupported request target "
                                 f"{target!r}")
    path, _, query = target.partition("?")

    headers: dict[str, str] = {}
    for raw in lines[1:]:
        if not raw:
            continue
        try:
            line = raw.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise ProtocolError(400, "undecodable header line") from None
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip() or " " in name:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.lower()] = value.strip()
    return Request(method=method.upper(), path=path, query=query,
                   headers=headers)


def _body_length(request: Request, max_body: int) -> int:
    if "transfer-encoding" in request.headers:
        raise ProtocolError(400, "chunked transfer encoding is not "
                                 "supported; send Content-Length")
    raw = request.header("content-length")
    if not raw:
        return 0
    try:
        length = int(raw)
    except ValueError:
        raise ProtocolError(400, f"invalid Content-Length "
                                 f"{raw!r}") from None
    if length < 0:
        raise ProtocolError(400, f"invalid Content-Length {length}")
    if length > max_body:
        raise ProtocolError(413, f"request body of {length} bytes "
                                 f"exceeds the {max_body}-byte limit")
    return length


#: ``read_request``'s default body cap (the service always passes its
#: configured ``max_body`` explicitly).
DEFAULT_MAX_BODY = 1_048_576


async def read_request(reader,
                       max_body: int = DEFAULT_MAX_BODY) -> Request | None:
    """Read one request from an asyncio stream.

    Returns ``None`` on a clean EOF before any bytes (the client closed
    a keep-alive connection between requests).  Raises
    :class:`ProtocolError` on malformed input, an oversized header
    block, oversized bodies, or a connection dropped mid-request.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between keep-alive requests
        raise ProtocolError(400, "connection closed mid-request") \
            from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(400, "request head exceeds the "
                                 f"{MAX_HEAD_BYTES}-byte limit") from None
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError(400, f"request head exceeds the "
                                 f"{MAX_HEAD_BYTES}-byte limit")
    request = parse_request_head(head[:-4])
    length = _body_length(request, max_body)
    if length:
        try:
            request.body = await reader.readexactly(length)
        except Exception:
            raise ProtocolError(400, "connection closed mid-body") \
                from None
    return request


def render_response(status: int, body: bytes,
                    content_type: str = "application/json",
                    extra_headers: dict | None = None,
                    close: bool = False) -> bytes:
    """Serialize one HTTP/1.1 response.

    >>> raw = render_response(200, b'{"status":"ok"}')
    >>> raw.split(b"\\r\\n")[0]
    b'HTTP/1.1 200 OK'
    >>> b'content-length: 15' in raw.lower()
    True
    """
    reason = REASONS.get(status, "Unknown")
    headers = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "close" if close else "keep-alive",
    }
    if extra_headers:
        headers.update(extra_headers)
    head = "".join(f"{name}: {value}\r\n"
                   for name, value in headers.items())
    return (f"HTTP/1.1 {status} {reason}\r\n{head}\r\n"
            .encode("ascii") + body)


def json_body(payload) -> bytes:
    """Encode a response payload as compact JSON bytes.

    >>> json_body({"a": 1})
    b'{"a":1}'
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")
