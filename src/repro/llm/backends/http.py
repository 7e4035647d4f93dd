"""Stdlib-only JSON-over-HTTP transport for the live adapters.

One function, :func:`post_json`, owns everything the adapters share:
request encoding, deadline clamping, and the mapping from wire-level
failures to the typed hierarchy in :mod:`repro.llm.backends.errors`.
Built on :mod:`urllib.request` — the container images this repo targets
carry no HTTP client dependency, and none is needed for line-oriented
JSON POSTs.  ``post_json`` imports it on its first request: urllib pulls
in ``http.client``, ``ssl`` and ``email`` (about 7 MB of RSS), which a
run on the synthetic tier never uses.
"""

from __future__ import annotations

import json

from .base import remaining_deadline
from .errors import (BackendConnectionError, BackendRateLimited,
                     BackendRequestError, BackendServerError,
                     BackendTimeout, MalformedResponseError)


def _retry_after_seconds(headers) -> float | None:
    """Parse a ``Retry-After`` header (delta-seconds form only)."""
    if headers is None:
        return None
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


def _effective_timeout(timeout: float, backend: str) -> float:
    """Clamp ``timeout`` to the propagated deadline (if any)."""
    remaining = remaining_deadline()
    if remaining is None:
        return timeout
    if remaining <= 0:
        raise BackendTimeout(
            f"{backend}: deadline exhausted before the request was sent",
            backend=backend)
    return min(timeout, remaining)


def post_json(url: str, payload: dict, *, headers: dict | None = None,
              timeout: float = 120.0, backend: str = "http") -> dict:
    """POST ``payload`` as JSON and return the decoded JSON reply.

    Every failure raises a typed :class:`~repro.llm.backends.errors.
    BackendError` subclass:

    - socket / read timeout (or an exhausted propagated deadline)
      -> :class:`BackendTimeout`;
    - unreachable endpoint -> :class:`BackendConnectionError`;
    - HTTP 429 -> :class:`BackendRateLimited` (``Retry-After`` parsed);
    - HTTP 5xx -> :class:`BackendServerError`;
    - other HTTP 4xx -> :class:`BackendRequestError` (non-retryable);
    - undecodable body -> :class:`MalformedResponseError`.
    """
    import urllib.error
    import urllib.request

    timeout = _effective_timeout(timeout, backend)
    data = json.dumps(payload).encode("utf-8")
    request_headers = {"Content-Type": "application/json"}
    if headers:
        request_headers.update(headers)
    request = urllib.request.Request(
        url, data=data, headers=request_headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            body = reply.read()
    except urllib.error.HTTPError as exc:
        status = exc.code
        detail = ""
        try:
            detail = exc.read().decode("utf-8", "replace")[:200]
        except OSError:  # pragma: no cover - body already gone
            pass
        message = f"{backend}: HTTP {status} from {url}" + (
            f": {detail}" if detail else "")
        if status == 429:
            raise BackendRateLimited(
                message, backend=backend, status=status,
                retry_after=_retry_after_seconds(exc.headers)) from None
        if status >= 500:
            raise BackendServerError(
                message, backend=backend, status=status) from None
        raise BackendRequestError(
            message, backend=backend, status=status) from None
    except TimeoutError:
        raise BackendTimeout(
            f"{backend}: request to {url} timed out after {timeout:.1f}s",
            backend=backend) from None
    except urllib.error.URLError as exc:
        reason = exc.reason
        if isinstance(reason, TimeoutError):
            raise BackendTimeout(
                f"{backend}: request to {url} timed out after "
                f"{timeout:.1f}s", backend=backend) from None
        raise BackendConnectionError(
            f"{backend}: cannot reach {url}: {reason}",
            backend=backend) from None
    except (ConnectionError, OSError) as exc:
        raise BackendConnectionError(
            f"{backend}: connection to {url} failed: {exc}",
            backend=backend) from None
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedResponseError(
            f"{backend}: {url} answered 200 with an undecodable body "
            f"({exc}): {body[:120]!r}", backend=backend,
            status=200) from None
    if not isinstance(decoded, dict):
        raise MalformedResponseError(
            f"{backend}: {url} answered a JSON {type(decoded).__name__}, "
            f"expected an object", backend=backend, status=200)
    return decoded
