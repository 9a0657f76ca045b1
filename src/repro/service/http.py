"""Shared asyncio JSON-over-HTTP server plumbing.

Two subsystems speak HTTP in this codebase — the serving layer
(:mod:`repro.service.server`) and the cluster coordinator
(:mod:`repro.cluster.coordinator`) — and both need exactly the same
transport: a deliberately small hand-rolled HTTP/1.1 subset (stdlib-only
is a hard constraint) with request line + headers + ``Content-Length``
body, keep-alive by default, and bounded header and body sizes.  This
module is that transport, factored out so the two servers share one
implementation of connection handling, dispatch, and response writing.

:class:`JsonHttpServer` owns the socket and the read/write loop;
subclasses provide routing (:meth:`JsonHttpServer._route`), optional
domain-exception mapping (:meth:`JsonHttpServer._map_exception`), and
optional per-request observation (:meth:`JsonHttpServer._observe_request`,
the metrics hook).  :class:`ServerThread` runs any such server on a
private event loop in a background thread — the shape tests, benchmarks,
in-process workers, and self-serve tools all need.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, Callable, Mapping, Optional
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HTTPError",
    "JsonHttpServer",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "ServerThread",
    "query_float",
    "query_int",
]

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024


class HTTPError(Exception):
    """Aborts a request with a status and a JSON ``{"error": detail}``."""

    def __init__(self, status: HTTPStatus, detail: str,
                 headers: Optional[dict[str, str]] = None) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = headers or {}


def query_float(query: Mapping[str, list[str]], key: str,
                default: Optional[float] = None) -> float:
    """Read one float query parameter, 400ing on absence or garbage.

    Strict by design: a parameter repeated (``?w=1&w=2``) is a 400, not
    a silent last-one-wins, and the ``float()`` spellings of non-finite
    values (``nan``, ``inf``, ``-inf``) are rejected — they would
    otherwise flow through the model and out as non-JSON tokens.
    """
    values = query.get(key)
    if not values:
        if default is None:
            raise HTTPError(HTTPStatus.BAD_REQUEST, f"missing query parameter {key!r}")
        return default
    if len(values) > 1:
        raise HTTPError(
            HTTPStatus.BAD_REQUEST,
            f"query parameter {key!r} given {len(values)} times; pass it once",
        )
    try:
        value = float(values[0])
    except ValueError:
        raise HTTPError(
            HTTPStatus.BAD_REQUEST, f"query parameter {key!r} must be a number"
        ) from None
    if not math.isfinite(value):
        raise HTTPError(
            HTTPStatus.BAD_REQUEST,
            f"query parameter {key!r} must be finite, got {values[0]!r}",
        )
    return value


def query_int(query: Mapping[str, list[str]], key: str,
              default: Optional[int] = None) -> int:
    """Read one integer query parameter, 400ing on absence or non-integers.

    Validated through :func:`query_float`, so the accepted spellings and
    every error match it; an integer literal then parses exactly (a
    float would round ``2**53 + 1``), other spellings (``1e3``) as floats.
    """
    value = query_float(query, key, None if default is None else float(default))
    if not float(value).is_integer():
        raise HTTPError(
            HTTPStatus.BAD_REQUEST, f"query parameter {key!r} must be an integer"
        )
    try:
        return int(query[key][0])
    except (KeyError, IndexError, ValueError):
        return int(value)


class JsonHttpServer:
    """A bound asyncio HTTP/1.1 server serving a fixed JSON API.

    Subclasses implement ``_route(method, path)`` returning an
    ``(endpoint-label, handler)`` pair, where the handler takes
    ``(query, body)`` and returns ``(status, payload, extra_headers)``.
    Handlers may be coroutine functions, in which case the result is
    awaited — that is how the micro-batching scalar path parks a request
    for its flush window without stalling other connections.
    ``payload`` is a JSON-able object, or a ``(content_type, text)``
    pair for non-JSON bodies like the metrics exposition.
    """

    server_name = "repro-service"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._bind_host = host
        self._bind_port = port
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "JsonHttpServer":
        """Bind the listening socket (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self._bind_host,
                port=self._bind_port,
                limit=MAX_HEADER_BYTES,
            )
            sockname = self._server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            self._on_start()
        return self

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listening socket; subclasses extend for teardown."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def bound(self) -> bool:
        """Whether the listening socket is currently open."""
        return self._server is not None

    def _on_start(self) -> None:
        """Hook invoked once the socket binds (e.g. reset uptime clocks)."""

    # -- subclass surface ---------------------------------------------

    def _route(self, method: str, path: str) -> tuple[str, Callable[..., Any]]:
        """Resolve one request to ``(endpoint-label, handler)`` or raise."""
        raise NotImplementedError

    def _map_exception(self, exc: Exception, path: str
                       ) -> Optional[tuple[str, HTTPStatus, Any, dict[str, str]]]:
        """Map a domain exception to a response, or ``None`` to 500 it."""
        del path
        return None

    def _observe_request(self, endpoint: str, status: HTTPStatus,
                         seconds: float) -> None:
        """Per-request observation hook (metrics); default is a no-op."""

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            # Shutdown cancels idle keep-alive connections; a task that
            # ends cancelled makes asyncio's stream protocol log a traceback.
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            TimeoutError,
        ):
            pass  # client went away or spoke garbage; just hang up
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_one_request(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> bool:
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        try:
            method, target, version = request_line.decode("ascii").split()
        except ValueError:
            await self._write_error(
                writer, HTTPStatus.BAD_REQUEST, "malformed request line", "bad", False
            )
            return False
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                await self._write_error(
                    writer, HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "headers too large", "bad", False,
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        length_header = headers.get("content-length", "0")
        try:
            content_length = int(length_header)
        except ValueError:
            await self._write_error(
                writer, HTTPStatus.BAD_REQUEST, "bad Content-Length", "bad", False
            )
            return False
        if content_length > MAX_BODY_BYTES:
            await self._write_error(
                writer, HTTPStatus.REQUEST_ENTITY_TOO_LARGE, "body too large", "bad", False
            )
            return False
        body = await reader.readexactly(content_length) if content_length else b""

        keep_alive = headers.get("connection", "").lower() != "close" and version == "HTTP/1.1"
        started = time.perf_counter()
        endpoint, status, payload, extra_headers = await self._dispatch(method, target, body)
        self._observe_request(endpoint, status, time.perf_counter() - started)
        await self._write_response(writer, status, payload, extra_headers, keep_alive)
        return keep_alive

    async def _dispatch(self, method: str, target: str, body: bytes,
                        ) -> tuple[str, HTTPStatus, Any, dict[str, str]]:
        """Route one request; returns (endpoint-label, status, payload, headers).

        Handlers may be plain functions or coroutine functions; an
        awaited handler can park the request (e.g. in a micro-batch
        window) without blocking the loop's other connections.
        """
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        try:
            route, handler = self._route(method, path)
            result = handler(query, body)
            if asyncio.iscoroutine(result):
                result = await result
            return (route, *result)
        except HTTPError as exc:
            return (path, exc.status, {"error": exc.detail}, exc.headers)
        except Exception as exc:
            mapped = self._map_exception(exc, path)
            if mapped is not None:
                return mapped
            # Never let a handler kill the loop.
            return (
                path,
                HTTPStatus.INTERNAL_SERVER_ERROR,
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                {},
            )

    @staticmethod
    def parse_json_body(body: bytes) -> Any:
        """Decode a request body as JSON, 400ing on garbage."""
        try:
            return json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise HTTPError(
                HTTPStatus.BAD_REQUEST, "request body must be valid JSON"
            ) from None

    # -- response writing ---------------------------------------------

    async def _write_response(self, writer: asyncio.StreamWriter, status: HTTPStatus,
                              payload: Any, extra_headers: dict[str, str],
                              keep_alive: bool) -> None:
        if isinstance(payload, tuple):
            content_type, text = payload
            data = text.encode("utf-8")
        else:
            content_type = "application/json"
            try:
                # allow_nan=False: NaN/Infinity are not JSON; a payload
                # carrying one is a handler bug, not something to ship.
                data = (json.dumps(payload, allow_nan=False) + "\n").encode("utf-8")
            except ValueError:
                status = HTTPStatus.INTERNAL_SERVER_ERROR
                data = (
                    json.dumps({"error": "non-finite value in response payload"})
                    + "\n"
                ).encode("utf-8")
        lines = [
            f"HTTP/1.1 {int(status)} {status.phrase}",
            f"Date: {formatdate(usegmt=True)}",
            f"Server: {self.server_name}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra_headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    async def _write_error(self, writer: asyncio.StreamWriter, status: HTTPStatus,
                           detail: str, endpoint: str, keep_alive: bool) -> None:
        self._observe_request(endpoint, status, 0.0)
        await self._write_response(writer, status, {"error": detail}, {}, keep_alive)


class ServerThread:
    """A :class:`JsonHttpServer` on a private event loop in a thread.

    Boot in-process, learn the bound port, talk to the server over real
    sockets from ordinary synchronous code, stop cleanly.  Use as a
    context manager::

        with ServerThread(server):
            requests_go_to(server.host, server.port)
    """

    thread_name = "repro-http"

    def __init__(self, server: JsonHttpServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )

    @property
    def host(self) -> str:
        """Bound host (valid once started)."""
        return self.server.host

    @property
    def port(self) -> int:
        """Bound port (valid once started)."""
        return self.server.port

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            await self.server.start()
            self._ready.set()

        try:
            self._loop.run_until_complete(boot())
            self._loop.run_forever()
        finally:
            self._ready.set()  # unblock start() even on bind failure
            # Closing the socket leaves idle keep-alive connections
            # running; cancel them so no pending task dies with the loop.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        """Boot the loop thread and wait for the socket to bind."""
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server failed to start within timeout")
        if not self.server.bound:
            raise RuntimeError("server failed to bind (see stderr for the cause)")
        return self

    def stop(self, timeout: float = 30.0, **stop_kwargs: Any) -> None:
        """Stop the server and join the loop thread.

        Extra keyword arguments are forwarded to the server's ``stop``
        coroutine (e.g. ``drain=False`` for :class:`repro.service.server.Service`).
        """
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(**stop_kwargs), self._loop
        )
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
