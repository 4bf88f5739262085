"""HTTP transport for the macro server, plus the client helper.

The wire format is deliberately small and stdlib-only:

* ``POST /compile`` — body ``{"config": {...}, "march": "IFA-9",
  "signoff": null, "include": ["macro.cif", ...]}``.  Responds with
  the bundle manifest (per-artifact sha256 + size), the parsed
  datasheet/area payloads, and — for names listed in ``include`` —
  the artifact bytes, base64-encoded.
* ``POST /compile_batch`` — body ``{"items": [{"config": {...},
  "march": "IFA-9", "signoff": null}, ...], "include": [...]}``.
  Responds 200 with ``Content-Type: application/x-ndjson`` and
  **streams one JSON line per item as it completes** (out of order;
  each line carries the item's ``index``), ending with a
  ``{"done": true, "items": N, "ok": a, "failed": b}`` sentinel.
  Per-item failures are lines with ``status: "failed"`` and a
  ``kind`` (``config`` / ``signoff`` / ``crashed`` / ``unavailable``
  / ``build``) — one poison config never fails the batch.  A batch
  larger than the server's ``batch_limit`` is refused whole with 413.
* ``GET /artifact/<key>/<name>`` — raw artifact bytes from the store
  (octet-stream; 400 on a malformed key, 404 on a miss).
* ``GET /stats`` — the server's JSON metrics (latency percentiles,
  hit/build/coalesce/reject counts, per-endpoint counters, store +
  stage-cache stats).
* ``GET /healthz`` — liveness + drain state.
* ``GET /readyz`` — readiness: 503 while the server is still
  replaying its WAL backlog from a crashed predecessor (it *serves*
  during replay — readiness is for load balancers deciding where to
  send fresh traffic).

Status codes: 400 for a bad request (a body that is not a JSON
object, a non-list ``include``, unknown config field, bad march
notation — anything :class:`~repro.core.errors.ConfigError`), 413 for
an oversized batch, 422 for a build that failed strict signoff, 503
when backpressure or draining rejects the request, 500 for the
unexpected.  Every 503 carries a ``Retry-After`` header (seconds);
:class:`ServiceClient` honors it with bounded, jittered backoff
instead of failing fast.

:class:`ServiceClient` is the matching stdlib client the campaign
runtime and the benchmarks use.
"""

from __future__ import annotations

import base64
import json
import random
import threading
import time
from concurrent.futures import as_completed
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Iterator, Optional, Tuple

from repro.bist.march import MarchTest, parse_march
from repro.bist import ALL_TESTS
from repro.core.config import RamConfig
from repro.core.errors import (
    BuildCrashed,
    ConfigError,
    ReproError,
    ServiceUnavailable,
    SignoffError,
)
from repro.service.server import CompileResponse, MacroServer

_MARCHES = {t.name: t for t in ALL_TESTS}


def resolve_march(name: str) -> MarchTest:
    """A known march by name, or user notation parsed on the spot."""
    if name in _MARCHES:
        return _MARCHES[name]
    return parse_march("custom", name)


def compile_payload(response: CompileResponse,
                    include: Tuple[str, ...] = ()) -> dict:
    """The JSON body for one successful compile."""
    payload = {
        "key": response.key,
        "cached": response.cached,
        "elapsed_s": round(response.elapsed_s, 6),
        "artifacts": response.manifest(),
        "datasheet": json.loads(
            response.artifacts["datasheet.json"].decode("utf-8")),
        "area": json.loads(
            response.artifacts["area.json"].decode("utf-8")),
    }
    if "signoff.json" in response.artifacts:
        payload["signoff"] = json.loads(
            response.artifacts["signoff.json"].decode("utf-8"))
    content = {}
    for name in include:
        if name in response.artifacts:
            content[name] = base64.b64encode(
                response.artifacts[name]).decode("ascii")
    if content:
        payload["content"] = content
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP glue over the owning :class:`MacroServer`."""

    server_version = "bisramgen-macroserver/1.0"

    # Set by make_http_server on the ThreadingHTTPServer instance.
    @property
    def macro_server(self) -> MacroServer:
        return self.server.macro_server  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _reply(self, status: int, payload: dict,
               headers: Optional[dict] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_unavailable(self, error: ServiceUnavailable) -> None:
        self._reply(503, {
            "error": str(error),
            "reason": error.reason,
            "retry_after_s": error.retry_after_s,
        }, headers={"Retry-After": f"{error.retry_after_s:g}"})

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/stats":
            self._reply(200, self.macro_server.stats())
        elif self.path == "/healthz":
            self._reply(200, {
                "status": "draining" if self.macro_server.draining
                else "ok",
            })
        elif self.path == "/readyz":
            if self.macro_server.ready:
                self._reply(200, {"status": "ready"})
            else:
                self._reply_unavailable(ServiceUnavailable(
                    "still replaying the write-ahead log",
                    reason="not_ready", retry_after_s=2.0))
        elif self.path.startswith("/artifact/"):
            self._handle_artifact()
        else:
            self._reply(404, {"error": f"no such endpoint {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/compile":
            self.macro_server.count_endpoint("compile")
            try:
                self._handle_compile()
            finally:
                self._count_request()
        elif self.path == "/compile_batch":
            self.macro_server.count_endpoint("compile_batch")
            try:
                self._handle_batch()
            finally:
                self._count_request()
        else:
            self._reply(404, {"error": f"no such endpoint {self.path}"})

    def _count_request(self) -> None:
        """Stop the serve loop after ``max_requests`` compiles (CI)."""
        limit = getattr(self.server, "max_requests", None)
        if limit is None:
            return
        with self.server.count_lock:  # type: ignore[attr-defined]
            self.server.served += 1  # type: ignore[attr-defined]
            done = self.server.served >= limit  # type: ignore
        if done:
            # shutdown() blocks until serve_forever returns; never call
            # it from the loop's own thread — hand it to a helper.
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()

    def _read_request(self) -> Tuple[dict, Tuple[str, ...]]:
        """The JSON body and its ``include`` names, validated.

        Raises:
            ConfigError: the body is not a JSON object, or ``include``
                is not a list of artifact names.
            ValueError: the body is not JSON at all.
        """
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length) or b"{}")
        if not isinstance(request, dict):
            raise ConfigError("the request body must be a JSON object")
        include = request.get("include", [])
        if not isinstance(include, list) or not all(
                isinstance(name, str) for name in include):
            raise ConfigError("'include' must be a list of artifact "
                              "names")
        return request, tuple(include)

    def _handle_compile(self) -> None:
        try:
            request, include = self._read_request()
            config = RamConfig.from_dict(request.get("config", {}))
            march = resolve_march(request.get("march", "IFA-9"))
            signoff = request.get("signoff")
            response = self.macro_server.compile(
                config, march, signoff=signoff)
        except ServiceUnavailable as error:
            self._reply_unavailable(error)
        except SignoffError as error:
            self._reply(422, {"error": str(error),
                              "failure_class": error.failure_class,
                              "report": error.report})
        except (ConfigError, ReproError, ValueError, KeyError,
                json.JSONDecodeError) as error:
            self._reply(400, {"error": f"{type(error).__name__}: "
                                       f"{error}"})
        except Exception as error:  # pragma: no cover - defensive
            self._reply(500, {"error": f"{type(error).__name__}: "
                                       f"{error}"})
        else:
            self._reply(200, compile_payload(response, include))

    def _handle_batch(self) -> None:
        """``POST /compile_batch``: admit N items, stream NDJSON."""
        try:
            request, include = self._read_request()
            items = request.get("items")
        except (ConfigError, ValueError) as error:
            self._reply(400, {"error": f"{type(error).__name__}: "
                                       f"{error}"})
            return
        if not isinstance(items, list) or not items:
            self._reply(400, {"error": "the body must carry a "
                                       "non-empty 'items' list"})
            return
        limit = self.macro_server.batch_limit
        if len(items) > limit:
            self._reply(413, {
                "error": f"batch of {len(items)} item(s) exceeds the "
                         f"batch limit of {limit}; split it",
                "limit": limit,
            })
            return
        # Parse everything up front: items that do not even parse get
        # failure lines; the rest are admitted as one batch.
        parsed = []  # (index, config, march, signoff)
        error_lines = []
        for index, item in enumerate(items):
            try:
                if not isinstance(item, dict):
                    raise ConfigError(
                        "each batch item must be a JSON object")
                config = RamConfig.from_dict(item.get("config", {}))
                march = resolve_march(item.get("march", "IFA-9"))
                parsed.append((index, config, march,
                               item.get("signoff")))
            except (ConfigError, ReproError, ValueError,
                    KeyError) as error:
                error_lines.append({
                    "index": index, "status": "failed",
                    "kind": "config",
                    "error": f"{type(error).__name__}: {error}"})
        outcomes = self.macro_server.submit_batch(
            [(config, march, signoff)
             for _, config, march, signoff in parsed])
        # Coalesced items share one future; fan results back out by
        # index so every requested item gets exactly one line.
        futures: dict = {}  # id(future) -> (future, [indexes])
        for (index, _c, _m, _s), (tag, value) in zip(parsed,
                                                     outcomes):
            if tag == "future":
                entry = futures.setdefault(id(value), (value, []))
                entry[1].append(index)
                continue
            line = {"index": index, "status": "failed",
                    "error": str(value)}
            if isinstance(value, ServiceUnavailable):
                line["kind"] = "unavailable"
                line["reason"] = value.reason
                line["retry_after_s"] = value.retry_after_s
            else:
                line["kind"] = "config"
            error_lines.append(line)
        # HTTP/1.0 stream-until-close: no Content-Length; the client
        # reads NDJSON lines until the done sentinel.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        ok = failed = 0
        try:
            for line in error_lines:
                failed += 1
                self._write_line(line)
            for future in as_completed(
                    [f for f, _ in futures.values()]):
                _, indexes = futures[id(future)]
                try:
                    response = future.result()
                except Exception as error:
                    kind = ("crashed" if isinstance(error, BuildCrashed)
                            else "signoff"
                            if isinstance(error, SignoffError)
                            else "unavailable"
                            if isinstance(error, ServiceUnavailable)
                            else "build")
                    for index in indexes:
                        failed += 1
                        self._write_line({
                            "index": index, "status": "failed",
                            "kind": kind,
                            "error": f"{type(error).__name__}: "
                                     f"{error}"})
                else:
                    payload = compile_payload(response, include)
                    for index in indexes:
                        ok += 1
                        self._write_line({"index": index,
                                          "status": "ok", **payload})
            self._write_line({"done": True, "items": len(items),
                              "ok": ok, "failed": failed})
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client went away mid-stream; nothing to do

    def _write_line(self, record: dict) -> None:
        self.wfile.write(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
        self.wfile.flush()

    def _handle_artifact(self) -> None:
        """``GET /artifact/<key>/<name>``: raw bytes from the store."""
        self.macro_server.count_endpoint("artifact")
        parts = self.path.split("/", 3)  # ["", "artifact", key, name]
        if len(parts) != 4 or not parts[2] or not parts[3]:
            self._reply(400, {"error": "use /artifact/<key>/<name>"})
            return
        key, name = parts[2], parts[3]
        store = self.macro_server.store
        try:
            artifacts = store.get(key) if store is not None else None
        except ConfigError as error:  # a malformed key
            self._reply(400, {"error": str(error)})
            return
        if artifacts is None or name not in artifacts:
            self._reply(404, {"error": f"no artifact {name!r} under "
                                       f"key {key[:16]}"})
            return
        data = artifacts[name]
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def make_http_server(macro_server: MacroServer, host: str = "127.0.0.1",
                     port: int = 0, verbose: bool = False,
                     max_requests: Optional[int] = None,
                     ) -> ThreadingHTTPServer:
    """A bound (not yet serving) HTTP front-end; port 0 picks a free
    one (``server.server_address`` reports the choice).

    ``max_requests`` stops the serve loop after that many ``/compile``
    requests — the hook CI smoke jobs use to run a bounded session.
    """
    httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.macro_server = macro_server  # type: ignore[attr-defined]
    httpd.verbose = verbose  # type: ignore[attr-defined]
    httpd.max_requests = max_requests  # type: ignore[attr-defined]
    httpd.served = 0  # type: ignore[attr-defined]
    httpd.count_lock = threading.Lock()  # type: ignore[attr-defined]
    httpd.daemon_threads = True
    return httpd


def serve_forever_in_thread(httpd: ThreadingHTTPServer
                            ) -> threading.Thread:
    """Run the HTTP loop on a daemon thread (tests, embedded use)."""
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return thread


class ServiceClient:
    """Stdlib HTTP client for a running macro server.

    The small helper the campaign runtime and benchmarks use; every
    method opens one connection (the server is thread-per-request, so
    keep-alive buys nothing at this scale).

    A 503 (backpressure, drain, replay) is retried up to ``retries``
    times, sleeping the server's ``Retry-After`` advice — capped at
    ``backoff_cap_s`` and jittered up to +25% so a herd of rejected
    clients does not return in lockstep — before giving up with
    :class:`ServiceUnavailable`.  A **refused or reset connection**
    (server restarting) is retried with the same bounded jittered
    backoff.  ``retries=0`` restores fail-fast.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout_s: float = 600.0, retries: int = 3,
                 backoff_cap_s: float = 5.0) -> None:
        if retries < 0:
            raise ConfigError("retries must be >= 0")
        if backoff_cap_s <= 0:
            raise ConfigError("backoff_cap_s must be positive")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_cap_s = backoff_cap_s

    def _open_stream(self, method: str, path: str,
                     body: Optional[dict] = None):
        """Issue one request; return ``(status, reply, connection,
        headers)`` with the response body left unread (the batch
        endpoint streams it).  Connection-level failures — refused,
        reset, broken pipe — are retried with bounded jittered
        backoff; exhaustion raises :class:`ServiceUnavailable` (reason
        ``unreachable``).
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                return self._attempt(method, path, body)
            except (ConnectionResetError, ConnectionRefusedError,
                    BrokenPipeError) as error:
                last_error = error
                if attempt >= self.retries:
                    break
                delay = min(0.05 * (2 ** attempt), self.backoff_cap_s)
                time.sleep(delay + random.uniform(0.0, 0.25 * delay))
        raise ServiceUnavailable(
            f"{self.host}:{self.port} did not answer {method} {path} "
            f"after {self.retries + 1} attempt(s): {last_error}",
            reason="unreachable")

    def _attempt(self, method: str, path: str, body: Optional[dict]):
        """One connection attempt; connection-level errors propagate
        for :meth:`_open_stream` to retry."""
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout_s)
        try:
            connection.request(method, path, body=payload,
                               headers=headers)
            reply = connection.getresponse()
        except Exception:
            connection.close()
            raise
        return (reply.status, reply, connection,
                dict(reply.headers.items()))

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 ) -> Tuple[int, dict, dict]:
        status, reply, connection, headers = self._open_stream(
            method, path, body)
        try:
            return (status, json.loads(reply.read() or b"{}"),
                    headers)
        finally:
            connection.close()

    def _backoff_s(self, headers: dict, payload: dict) -> float:
        """The server's Retry-After advice, capped and jittered."""
        try:
            advice = float(headers.get(
                "Retry-After", payload.get("retry_after_s", 1.0)))
        except (TypeError, ValueError):
            advice = 1.0
        delay = max(0.0, min(advice, self.backoff_cap_s))
        return delay + random.uniform(0.0, 0.25 * delay)

    def compile(self, config: RamConfig, march: str = "IFA-9",
                signoff: Optional[str] = None,
                include: Tuple[str, ...] = ()) -> dict:
        """Compile via the server; returns the JSON payload.

        Raises:
            ServiceUnavailable: 503 with every retry exhausted.
            ConfigError: on 400.
            ReproError: on any other non-200.
        """
        body = {
            "config": config.to_dict(),
            "march": march,
            "signoff": signoff,
            "include": list(include),
        }
        for attempt in range(self.retries + 1):
            status, payload, headers = self._request(
                "POST", "/compile", body)
            if status != 503 or attempt >= self.retries:
                break
            time.sleep(self._backoff_s(headers, payload))
        if status == 200:
            return payload
        message = payload.get("error", f"HTTP {status}")
        if status == 503:
            raise ServiceUnavailable(
                message, reason=payload.get("reason", "saturated"),
                retry_after_s=float(payload.get("retry_after_s", 1.0)))
        if status == 400:
            raise ConfigError(message)
        raise ReproError(message)

    def compile_batch(self, configs: Iterable[RamConfig],
                      march: str = "IFA-9",
                      signoff: Optional[str] = None,
                      include: Tuple[str, ...] = (),
                      ) -> Iterator[dict]:
        """Submit a batch; yields per-item result dicts as they land.

        The request is issued eagerly (413/400/503 raise here); the
        returned iterator then yields one dict per item, in completion
        order, each carrying ``index`` and ``status`` (``"ok"`` lines
        have the full compile payload; ``"failed"`` lines have
        ``kind`` + ``error``).  The server's ``done`` sentinel is
        consumed, not yielded.  A stream that ends *without* the
        sentinel (server killed mid-batch) raises
        :class:`ServiceUnavailable` (reason ``interrupted``) — every
        admitted item is WAL-journaled and content-addressed, so
        resubmitting the same batch is the correct, idempotent move.
        """
        body = {
            "items": [{"config": config.to_dict(), "march": march,
                       "signoff": signoff} for config in configs],
            "include": list(include),
        }
        for attempt in range(self.retries + 1):
            status, reply, connection, headers = self._open_stream(
                "POST", "/compile_batch", body)
            if status != 503 or attempt >= self.retries:
                break
            payload = json.loads(reply.read() or b"{}")
            connection.close()
            time.sleep(self._backoff_s(headers, payload))
        if status != 200:
            try:
                payload = json.loads(reply.read() or b"{}")
            finally:
                connection.close()
            message = payload.get("error", f"HTTP {status}")
            if status == 503:
                raise ServiceUnavailable(
                    message,
                    reason=payload.get("reason", "saturated"),
                    retry_after_s=float(
                        payload.get("retry_after_s", 1.0)))
            if status in (400, 413):
                raise ConfigError(message)
            raise ReproError(message)
        return self._consume_batch(reply, connection)

    @staticmethod
    def _consume_batch(reply, connection) -> Iterator[dict]:
        done = False
        try:
            try:
                for raw in reply:
                    line = raw.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    if record.get("done"):
                        done = True
                        break
                    yield record
            except (ConnectionError, TimeoutError, OSError):
                pass  # a torn stream; handled as not-done below
            if not done:
                raise ServiceUnavailable(
                    "the batch stream ended before the server's done "
                    "record (server killed mid-batch?); resubmit — "
                    "admitted items are journaled and idempotent",
                    reason="interrupted")
        finally:
            connection.close()

    def fetch_artifact(self, key: str, name: str) -> bytes:
        """One artifact's raw bytes via ``GET /artifact/…``."""
        status, reply, connection, _ = self._open_stream(
            "GET", f"/artifact/{key}/{name}")
        try:
            data = reply.read()
        finally:
            connection.close()
        if status != 200:
            try:
                message = json.loads(data or b"{}").get(
                    "error", f"HTTP {status}")
            except json.JSONDecodeError:
                message = f"HTTP {status}"
            if status in (400, 404):
                raise ConfigError(message)
            raise ReproError(message)
        return data

    def artifact(self, payload: dict, name: str) -> bytes:
        """Decode one ``include``-requested artifact from a compile
        payload."""
        try:
            return base64.b64decode(payload["content"][name])
        except KeyError:
            raise ConfigError(
                f"artifact {name!r} was not included in the response "
                f"(pass it via include=)") from None

    def stats(self) -> dict:
        status, payload, _ = self._request("GET", "/stats")
        if status != 200:
            raise ReproError(payload.get("error", f"HTTP {status}"))
        return payload

    def healthz(self) -> dict:
        status, payload, _ = self._request("GET", "/healthz")
        if status != 200:
            raise ReproError(payload.get("error", f"HTTP {status}"))
        return payload

    def readyz(self) -> dict:
        """Readiness payload; ``{"status": "ready"}`` once WAL replay
        is done, the 503 body (with ``reason``) while it is not."""
        _, payload, _ = self._request("GET", "/readyz")
        return payload
