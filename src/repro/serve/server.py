"""A resilient local HTTP front end over the artifact store.

``repro serve`` binds a :class:`ArtifactServer` on localhost and
answers JSON:

* ``GET /health`` -- liveness plus store size plus every resilience
  counter (admission, coalescing, deadlines, breaker state).
* ``GET /healthz`` -- bare liveness (never touches the store, never
  goes through admission control).
* ``GET /readyz`` -- readiness: store reachable, compute breaker not
  open, admission queue below high-water, not draining.
* ``GET /fingerprints`` -- every study in the store, with scenario and
  artifact inventory.
* ``GET /artifacts/<fingerprint>`` -- artifact names for one study.
* ``GET /artifacts/<fingerprint>/<name>`` -- one artifact payload,
  served from the store; append ``?compute=1`` to have a missing
  artifact computed on demand -- the cache-or-compute path.

The data-plane routes go through an
:class:`~repro.serve.resilience.AdmissionGate`: beyond the configured
concurrency the request queues, beyond the bounded queue it is *shed*
with ``429`` + ``Retry-After`` instead of accumulating handler
threads. Each request carries a
:class:`~repro.serve.resilience.Deadline` (``?deadline_ms=`` or the
``X-Repro-Deadline-Ms`` header overrides the policy default) whose
expiry answers ``504``; socket/header timeouts evict slowloris
clients. ``SIGTERM`` (via :meth:`ArtifactServer.install_signal_handlers`)
triggers a graceful drain: admissions stop (``503``), in-flight
requests finish under the drain deadline, counters are flushed.

Under overload or failure every request still gets a *structured*
response -- 2xx/429/500/503/504 with a JSON body -- never a silently
dropped connection; the overload chaos suite
(``tests/serve/test_overload_chaos.py``) pins that invariant.
"""

from __future__ import annotations

import json
import signal
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.reliability.errors import DeadlineExpired
from repro.serve.resilience import (
    ADMITTED,
    BREAKER_OPEN,
    DRAINING,
    AdmissionGate,
    Deadline,
    MonotonicFn,
    ResiliencePolicy,
)
from repro.serve.service import StudyService
from repro.serve.store import ArtifactStore, StoreIntegrityError

ProgressFn = Callable[[str], None]


class _StoreHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying store/service/gate for handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 handler: Any, store: ArtifactStore,
                 service: StudyService, progress: ProgressFn,
                 policy: ResiliencePolicy, gate: AdmissionGate,
                 clock: MonotonicFn) -> None:
        super().__init__(address, handler)
        self.store = store
        self.service = service
        self.progress = progress
        self.policy = policy
        self.gate = gate
        self.clock = clock


class _Handler(BaseHTTPRequestHandler):
    server: _StoreHTTPServer

    # -- plumbing -------------------------------------------------------

    def setup(self) -> None:
        # The socket timeout doubles as the slowloris defense: a client
        # that cannot finish its request line/headers within the policy
        # window loses the connection (handle_one_request turns the
        # socket timeout into close_connection).
        self.timeout = self.server.policy.header_timeout_seconds
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        self.server.progress(f"{self.address_string()} {format % args}")

    def _reply(self, status: int, payload: Any,
               headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before we could answer; nothing left
            # to respond to (the admission slot is still released by
            # the caller's finally).
            self.close_connection = True

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None,
               **extra: Any) -> None:
        self._reply(status, {"error": message, **extra}, headers)

    def _retry_after(self) -> Dict[str, str]:
        return {"Retry-After":
                f"{self.server.policy.retry_after_seconds:g}"}

    # -- deadlines ------------------------------------------------------

    def _request_deadline(self, query: Dict[str, Any]) -> Optional[Deadline]:
        """The request's time budget: param > header > policy default."""
        raw = query.get("deadline_ms", [None])[-1]
        if raw is None:
            raw = self.headers.get("X-Repro-Deadline-Ms")
        if raw is not None:
            try:
                return Deadline.after(float(raw) / 1000.0,
                                      clock=self.server.clock)
            except ValueError:
                raise ValueError(f"deadline_ms must be a finite positive "
                                 f"number, got {raw!r}") from None
        seconds = self.server.policy.default_deadline_seconds
        if seconds is None:
            return None
        return Deadline.after(seconds, clock=self.server.clock)

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]

        # Ops plane: liveness/readiness/health bypass admission so an
        # operator can always see a saturated or draining server.
        if parts == ["healthz"]:
            self._reply(200, {"status": "alive"})
            return
        if parts == ["readyz"]:
            self._readyz()
            return
        if parts in ([], ["health"]):
            self._health()
            return

        gate = self.server.gate
        try:
            query = parse_qs(parsed.query)
            deadline = self._request_deadline(query)
        except ValueError as error:
            self._error(400, str(error))
            return

        wait = (deadline.remaining() if deadline is not None
                else self.server.policy.queue_wait_seconds)
        decision = gate.admit(timeout=min(
            wait, self.server.policy.queue_wait_seconds))
        if decision == DRAINING:
            self._error(503, "server is draining; no new requests",
                        self._retry_after(), draining=True)
            return
        if decision != ADMITTED:
            self._error(429, "server saturated; request shed",
                        self._retry_after(),
                        retry_after=self.server.policy.retry_after_seconds)
            return
        try:
            self._route(parts, parsed.path, query, deadline)
        except ValueError as error:
            self._error(400, str(error))
        except DeadlineExpired as error:
            self._error(504, str(error), deadline_expired=True)
        except StoreIntegrityError as error:
            self._error(500, str(error))
        # The overload contract is that *every* request gets a
        # structured status, so the last-resort handler turns an
        # unexpected failure into a 500 body instead of a dropped
        # connection; the failure is logged, never swallowed.
        except Exception as error:  # reprolint: allow[RL004] -- structured 500 beats a dropped connection; logged here
            self.log_message("unhandled error serving %s: %r",
                             self.path, error)
            self._error(500, f"internal error: {error}")
        finally:
            gate.release()

    def _route(self, parts: Any, path: str, query: Dict[str, Any],
               deadline: Optional[Deadline]) -> None:
        if parts == ["fingerprints"]:
            self._list_fingerprints()
        elif len(parts) == 2 and parts[0] == "artifacts":
            self._list_artifacts(parts[1])
        elif len(parts) == 3 and parts[0] == "artifacts":
            compute = query.get("compute", ["0"])[-1] in ("1", "true")
            self._serve_artifact(parts[1], parts[2], compute, deadline)
        else:
            self._error(404, f"unknown path {path!r}")

    def _health(self) -> None:
        server = self.server
        self._reply(200, {
            "status": "ok",
            "fingerprints": len(server.store.fingerprints()),
            "draining": server.gate.draining,
            "resilience": _resilience_payload(server),
        })

    def _readyz(self) -> None:
        server = self.server
        checks = {
            "store_reachable": server.store.reachable(),
            "breaker_closed":
                server.service.breaker.state != BREAKER_OPEN,
            "queue_below_high_water": not server.gate.saturated(),
            "not_draining": not server.gate.draining,
        }
        ready = all(checks.values())
        self._reply(200 if ready else 503,
                    {"ready": ready, "checks": checks},
                    None if ready else self._retry_after())

    def _list_fingerprints(self) -> None:
        store = self.server.store
        runs = []
        for fingerprint in store.fingerprints():
            meta = store.get_meta(fingerprint) or {}
            runs.append({
                "fingerprint": fingerprint,
                "scenario": meta.get("scenario"),
                "artifacts": store.artifact_names(fingerprint),
            })
        self._reply(200, {"fingerprints": runs})

    def _list_artifacts(self, fingerprint: str) -> None:
        store = self.server.store
        names = store.artifact_names(fingerprint)
        if not names and store.get_meta(fingerprint) is None:
            self._error(404, f"unknown fingerprint {fingerprint!r}")
            return
        self._reply(200, {"fingerprint": fingerprint, "artifacts": names})

    def _serve_artifact(self, fingerprint: str, name: str,
                        compute: bool,
                        deadline: Optional[Deadline]) -> None:
        try:
            payload = self.server.store.get(fingerprint, name)
        except FileNotFoundError:
            pass
        except StoreIntegrityError as error:
            # Serve it as missing: recomputed with ?compute=1, else 404.
            self.server.service.quarantine_corrupt(fingerprint, name,
                                                   error)
        else:
            self._reply(200, {
                "fingerprint": fingerprint, "name": name,
                "source": "store", "degraded": False,
                "payload": payload,
            })
            return
        if not compute:
            self._error(404, f"artifact {name!r} not stored for "
                             f"{fingerprint!r} (retry with ?compute=1)")
            return
        result = self.server.service.query_fingerprint(
            fingerprint, names=(name,), compute=True, deadline=deadline)
        if name not in result.payloads:
            if result.degraded:
                # Breaker open and the store has nothing to fall back
                # on: unavailable, but structurally so.
                self._error(503, f"artifact {name!r} unavailable: "
                                 f"compute breaker open and no stored "
                                 f"copy to degrade to",
                            self._retry_after(), degraded=True,
                            breaker_state=
                            self.server.service.breaker.state)
                return
            self._error(404, f"artifact {name!r} could not be computed "
                             f"for {fingerprint!r} (no stored config)")
            return
        source = "computed" if name in result.computed else "store"
        if result.coalesced:
            source = "coalesced"
        self._reply(200, {
            "fingerprint": fingerprint, "name": name, "source": source,
            "degraded": result.degraded,
            "payload": result.payloads[name],
        })


def _resilience_payload(server: _StoreHTTPServer) -> Dict[str, Any]:
    """The merged counter/status payload behind ``/health``."""
    payload: Dict[str, Any] = dict(server.service.resilience_snapshot())
    payload.update(server.gate.counters_snapshot())
    payload["requests_in_flight"] = server.gate.in_flight
    payload["requests_queued_now"] = server.gate.queued
    payload["store"] = dict(server.store.counters)
    return payload


class ArtifactServer:
    """Lifecycle wrapper: bind, serve, drain gracefully, shut down."""

    def __init__(self, store: ArtifactStore, *,
                 service: Optional[StudyService] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 progress: Optional[ProgressFn] = None,
                 policy: Optional[ResiliencePolicy] = None,
                 clock: MonotonicFn = time.monotonic) -> None:
        self.store = store
        self.policy = policy or ResiliencePolicy()
        self.service = service or StudyService(store, policy=self.policy,
                                               clock=clock)
        self.gate = AdmissionGate(self.policy.max_concurrent,
                                  self.policy.queue_depth)
        self.progress = progress or (lambda message: None)
        self._httpd = _StoreHTTPServer(
            (host, port), _Handler, store, self.service, self.progress,
            self.policy, self.gate, clock)
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()
        self._lock = threading.Lock()
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- port is concrete even if 0 was asked."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self.gate.draining

    # -- serving --------------------------------------------------------

    def _serve_loop(self) -> None:
        self._serving.set()
        try:
            self._httpd.serve_forever()
        finally:
            self._serving.clear()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`/drain."""
        self._serve_loop()

    def start_background(self) -> "ArtifactServer":
        """Serve on a daemon thread; returns self for chaining.

        Idempotent: calling it again while the serve thread is alive is
        a no-op (one listening socket, one serve loop), so test
        fixtures and retry-happy callers cannot double-start.
        """
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            thread = threading.Thread(target=self._serve_loop,
                                      name="repro-serve", daemon=True)
            thread.start()
            self._thread = thread
        # Wait for the loop to actually enter serve_forever so a
        # prompt shutdown() always has a loop to stop.
        self._serving.wait(timeout=5.0)
        return self

    # -- teardown -------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the serve loop, close the listening socket, join.

        Safe to call at any point in the lifecycle, repeatedly:
        before the server ever served (the socket is still closed, no
        hang on a never-entered serve loop), mid-serve (the loop is
        stopped first), or after a previous shutdown (no-op).
        """
        if self._serving.is_set():
            # Only meaningful -- and only non-blocking -- while
            # serve_forever is actually running.
            self._httpd.shutdown()
        with self._lock:
            if not self._closed:
                self._httpd.server_close()
                self._closed = True
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: refuse new work, finish in-flight, shut down.

        Admissions stop immediately (new data-plane requests get a
        structured 503), in-flight requests get up to ``timeout``
        seconds (default: the policy's drain deadline) to finish, then
        the listener closes and counters are flushed through
        ``progress``. Returns True when every in-flight request
        completed inside the budget.
        """
        budget = (timeout if timeout is not None
                  else self.policy.drain_deadline_seconds)
        self.gate.begin_drain()
        self.progress(f"[serve] draining: {self.gate.in_flight} "
                      f"in-flight, budget {budget:g}s")
        clean = self.gate.drained(timeout=budget)
        counters = json.dumps(_resilience_payload(self._httpd),
                              sort_keys=True)
        self.progress(f"[serve] drain {'complete' if clean else 'TIMED OUT'};"
                      f" final counters: {counters}")
        self.shutdown()
        return clean

    def request_drain(self) -> None:
        """Async-signal-safe drain trigger (for SIGTERM handlers).

        Admissions stop before this returns; the blocking wait and the
        actual shutdown run on a background thread so a signal handler
        (or any latency-sensitive caller) never blocks.
        """
        self.gate.begin_drain()
        threading.Thread(target=self.drain, name="repro-serve-drain",
                         daemon=True).start()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM (and SIGINT-as-TERM) into a graceful drain."""
        def on_term(signum: int,
                    frame: Optional[types.FrameType]) -> None:
            self.progress(f"[serve] signal {signum}: graceful drain")
            self.request_drain()

        signal.signal(signal.SIGTERM, on_term)
